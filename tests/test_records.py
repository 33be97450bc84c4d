"""The frozen value records: equality, hash, repr, defaults, immutability and
validation messages, field by field.

The expected values were recorded from the ``@dataclass(frozen=True)``
versions of these classes, so the records behave as the dataclasses did.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from gammaexc.checks import CheckResult, VerifyLimits
from gammaexc.closedforms import CoeffTable
from gammaexc.groups import DEFAULT_BUDGET, CycleType, InvalidSpec
from gammaexc.oracle import FAMILIES, Family, FamilySpec, UnsupportedClass, WeightSpec
from gammaexc.poly import BIVARIATE, GammaExpansion, PalindromeInfo, UNIVARIATE


def _domain(fs):
    return fs


# class -> (positional arguments, the repr of the record they build)
SAMPLES = {
    VerifyLimits: ((5, 4, 3, 99), "VerifyLimits(max_n_a=5, max_n_b=4, max_n_d=3, budget=99)"),
    CheckResult: (("typeA.x", "typeA", "n=1..3", "pass", None, 0.5),
                  "CheckResult(check_id='typeA.x', suite='typeA', n_range='n=1..3', "
                  "status='pass', witness=None, seconds=0.5)"),
    CoeffTable: ((2, ((1, 0),), ((0, 1),)),
                 "CoeffTable(n_max=2, plus=((1, 0),), minus=((0, 1),))"),
    CycleType: (((1, 3, 2),), "CycleType(parts=(3, 2, 1))"),
    WeightSpec: (((("s", "nexc", -1), ("t", "exc", 0)), "inv"),
                 "WeightSpec(exponents=(('s', 'nexc', -1), ('t', 'exc', 0)), "
                 "sign_stat='inv')"),
    FamilySpec: (("AEXC", 5, "plus"),
                 "FamilySpec(family='aexc', n=5, cls='plus', fixed=None, lam=None, "
                 "stat=None)"),
    Family: ((_domain, None, True, UNIVARIATE, 2, "fixed"),
             f"Family(domain={_domain!r}, closed=None, split=True, "
             "mode='univariate_t', min_n=2, refinement='fixed')"),
    PalindromeInfo: ((True, 1, 4, Fraction(5, 2)),
                     "PalindromeInfo(is_palindromic=True, r=1, n=4, "
                     "cos=Fraction(5, 2))"),
    GammaExpansion: ((BIVARIATE, 0, 4, [1, 7, 16]),
                     "GammaExpansion(mode='bivariate_st', r=0, n=4, gammas=(1, 7, 16))"),
}

# class -> the field names, in order
FIELDS = {
    VerifyLimits: ("max_n_a", "max_n_b", "max_n_d", "budget"),
    CheckResult: ("check_id", "suite", "n_range", "status", "witness", "seconds"),
    CoeffTable: ("n_max", "plus", "minus"),
    CycleType: ("parts",),
    WeightSpec: ("exponents", "sign_stat"),
    FamilySpec: ("family", "n", "cls", "fixed", "lam", "stat"),
    Family: ("domain", "closed", "split", "mode", "min_n", "refinement"),
    PalindromeInfo: ("is_palindromic", "r", "n", "cos"),
    GammaExpansion: ("mode", "r", "n", "gammas"),
}

CLASSES = list(SAMPLES)


def _build(cls):
    return cls(*SAMPLES[cls][0])


def _fields(record, cls=None):
    return tuple(getattr(record, name) for name in FIELDS[cls or type(record)])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    assert repr(_build(cls)) == SAMPLES[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_read_the_fields_in_order(cls):
    a, b = _build(cls), _build(cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a != _fields(a) and not a == _fields(a)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_in_another_class_are_not_equal(cls):
    twin = type("Twin", (cls,), {"__slots__": ()} if "__slots__" in vars(cls)
                else {})
    a, b = _build(cls), twin(*SAMPLES[cls][0])
    assert _fields(a) == _fields(b, cls)
    assert a != b and b != a and not a == b


def test_a_changed_field_breaks_equality():
    assert CycleType((3, 1)) != CycleType((3, 2))
    assert VerifyLimits() != VerifyLimits(max_n_a=7)
    assert FamilySpec("aexc", 5) != FamilySpec("aexc", 5, "plus")
    assert (GammaExpansion(UNIVARIATE, 0, 2, (1, 0))
            != GammaExpansion(UNIVARIATE, 0, 2, (1, 1)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record, name = _build(cls), FIELDS[cls][0]
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert repr(record) == SAMPLES[cls][1]


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not Family],
                         ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    record = _build(cls)
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert other == record and repr(other) == repr(record)


def test_defaults_and_keywords():
    assert _fields(VerifyLimits()) == (8, 6, 6, DEFAULT_BUDGET)
    assert VerifyLimits(max_n_d=2) == VerifyLimits(8, 6, 2, DEFAULT_BUDGET)
    assert _fields(FamilySpec("aexc", 3)) == ("aexc", 3, "all", None, None, None)
    assert FamilySpec(family="conjexc", n=3, lam=[2, 1]).lam == (2, 1)
    assert FamilySpec("aderexc", 3, fixed=1).fixed == 1
    assert FamilySpec("qrefined", 3, stat="inv").stat == "inv"
    assert WeightSpec((("t", "exc", 0),)).sign_stat is None
    assert _fields(Family(_domain, None)) == (_domain, None, False, BIVARIATE, 0, None)
    assert Family(domain=_domain, closed=None, min_n=1).min_n == 1
    assert CycleType(parts=[1, 2]).parts == (2, 1)
    assert CycleType(()).parts == ()
    assert CheckResult(check_id="a.b", suite="a", n_range="-", status="fail",
                       witness="w", seconds=0.0).witness == "w"
    assert (GammaExpansion(mode=UNIVARIATE, r=0, n=1, gammas=[2]).gammas
            == (2,))
    assert GammaExpansion("q_coefficients", 0, 2, [[1, 2], [3]]).gammas \
        == ((1, 2), (3,))
    assert FAMILIES["aexc"].split and FAMILIES["aexc"].min_n == 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: CycleType((2, 1.0)), InvalidSpec, "part 1.0 is not an int"),
    (lambda: CycleType((True,)), InvalidSpec, "part True is not an int"),
    (lambda: CycleType([2, 0]), InvalidSpec, "parts must be positive: [2, 0]"),
    (lambda: CycleType((-1,)), InvalidSpec, "parts must be positive: (-1,)"),
    (lambda: WeightSpec((("t", "exc", 0), ("t", "des", 0))), InvalidSpec,
     "variable assigned twice in (('t', 'exc', 0), ('t', 'des', 0))"),
    (lambda: WeightSpec((("x", "exc", 0),)), InvalidSpec,
     "unknown variable 'x'"),
    (lambda: WeightSpec((("t", "exc", 0),), "cyc"), InvalidSpec,
     "sign statistic must be one of ['inv', 'inv_b', 'inv_d']"),
    (lambda: FamilySpec("aexc", 3, "half"), InvalidSpec,
     "class must be all/plus/minus, got 'half'"),
    (lambda: FamilySpec("nope", 3), InvalidSpec,
     "unknown family 'nope'; known: " + str(tuple(FAMILIES))),
    (lambda: FamilySpec("a_des", 3, "plus"), UnsupportedClass,
     "a_des has no plus/minus split"),
    (lambda: FamilySpec("aexc", 0), InvalidSpec, "aexc needs n >= 1, got n = 0"),
    (lambda: FamilySpec("aexc", 3, fixed=1), InvalidSpec,
     "aexc takes no fixed-point count"),
    (lambda: FamilySpec("aexc", 3, lam=(3,)), InvalidSpec, "aexc takes no cycle type"),
    (lambda: FamilySpec("aexc", 3, stat="inv"), InvalidSpec,
     "aexc takes no refining statistic"),
    (lambda: FamilySpec("aderexc", 3, fixed=4), InvalidSpec,
     "fixed-point count 4 outside 0..3"),
    (lambda: GammaExpansion("x", 0, 2, (1, 0)), ValueError, "unknown mode 'x'"),
    (lambda: GammaExpansion(UNIVARIATE, 3, 2, (1,)), ValueError,
     "bad support: r=3, n=2"),
    (lambda: GammaExpansion(BIVARIATE, 2, 3, (1,)), ValueError,
     "bad support: r=2, n=3 for mode bivariate_st"),
    (lambda: GammaExpansion(UNIVARIATE, 0, 4, (1, 2)), ValueError,
     "need 3 gamma entries for mode=univariate_t, r=0, n=4; got 2"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
