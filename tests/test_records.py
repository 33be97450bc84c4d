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
from gammaexc.groups import DEFAULT_BUDGET, CycleType, GroupSpec, InvalidSpec
from gammaexc.oracle import FAMILIES, Family, FamilySpec, UnsupportedClass, WeightSpec
from gammaexc.poly import (BIVARIATE, GammaExpansion, PalindromeInfo, Q_COEFFICIENTS,
                           UNIVARIATE)


def _domain(fs):
    return fs


# class -> (positional arguments, the repr of the record they build)
SAMPLES = {
    VerifyLimits: ((5, 4, 3, 99), "VerifyLimits(max_n_a=5, max_n_b=4, max_n_d=3, budget=99)"),
    CheckResult: (("typeA.x", "typeA", "n=1..3", "pass", None, 0.5),
                  "CheckResult(check_id='typeA.x', suite='typeA', n_range='n=1..3', "
                  "status='pass', witness=None, seconds=0.5)"),
    CoeffTable: ((2, ((1,), (1, 0)), ((0,), (0, 1))),
                 "CoeffTable(n_max=2, plus=((1,), (1, 0)), minus=((0,), (0, 1)))"),
    CycleType: (((1, 3, 2),), "CycleType(parts=(3, 2, 1))"),
    GroupSpec: (("S", 4, "even", None, 0),
                "GroupSpec(kind='S', n=4, parity='even', pos_n=None, "
                "fixed_points=0, cycle_type=None)"),
    WeightSpec: (((("s", "nexc", -1), ("t", "exc", 0)), "inv"),
                 "WeightSpec(exponents=(('s', 'nexc', -1), ('t', 'exc', 0)), "
                 "sign_stat='inv')"),
    FamilySpec: (("AEXC", 5, "plus"),
                 "FamilySpec(family='aexc', n=5, cls='plus', fixed=None, lam=None, "
                 "stat=None)"),
    Family: ((_domain, None, True, UNIVARIATE, 2, "fixed"),
             f"Family(domain={_domain!r}, closed=None, split=True, "
             "mode='univariate_t', min_n=2, refinement='fixed', gamma=None, row=None)"),
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
    GroupSpec: ("kind", "n", "parity", "pos_n", "fixed_points", "cycle_type"),
    WeightSpec: ("exponents", "sign_stat"),
    FamilySpec: ("family", "n", "cls", "fixed", "lam", "stat"),
    Family: ("domain", "closed", "split", "mode", "min_n", "refinement",
             "gamma", "row"),
    PalindromeInfo: ("is_palindromic", "r", "n", "cos"),
    GammaExpansion: ("mode", "r", "n", "gammas"),
}

CLASSES = list(SAMPLES)

# class -> positional arguments of a record that differs from its sample
OTHERS = {
    VerifyLimits: (1, 1, 1, 1),
    CheckResult: ("typeB.y", "typeB", "n=2", "fail", "w", 1.0),
    CoeffTable: (1, ((1,),), ((0,),)),
    CycleType: ((2, 2),),
    GroupSpec: ("S", 3, "all", None, None, [1, 2]),
    WeightSpec: ((("t", "exc", 0),),),
    FamilySpec: ("bexc", 4),
    Family: (_domain, None),
    PalindromeInfo: (False, 0, 3, Fraction(3, 2)),
    GammaExpansion: (UNIVARIATE, 0, 2, [1, 0]),
}


class Slotless:
    """A ``__slots__ = ()`` subclass of every record, named so that pickle
    finds it: ``Slotless.CycleType`` and so on."""


for _cls in CLASSES:
    setattr(Slotless, _cls.__name__, type(_cls.__name__, (_cls,), {
        "__slots__": (), "__qualname__": f"Slotless.{_cls.__name__}"}))


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


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_slotless_subclass_keeps_the_fields(cls):
    sub = getattr(Slotless, cls.__name__)
    a, b = sub(*SAMPLES[cls][0]), sub(*OTHERS[cls])
    assert _fields(a, cls) == _fields(_build(cls))
    assert a == sub(*SAMPLES[cls][0]) and a != b and not a == b
    assert hash(a) == hash(_fields(a, cls)) and hash(b) == hash(_fields(b, cls))
    assert repr(a) == f"Slotless.{SAMPLES[cls][1]}"
    copies = [copy.copy(a), copy.deepcopy(a)]
    if cls is not Family:
        copies.append(pickle.loads(pickle.dumps(a)))
    for other in copies:
        assert type(other) is sub and other == a and repr(other) == repr(a)


@pytest.mark.parametrize("build, message", [
    (lambda: VerifyLimits(5, 4, 3, 99, 1),
     "VerifyLimits() takes 4 arguments, got 5"),
    (lambda: VerifyLimits(max_n=3),
     "VerifyLimits() got an unexpected keyword argument 'max_n'"),
    (lambda: VerifyLimits(5, max_n_a=6),
     "VerifyLimits() got multiple values for argument 'max_n_a'"),
    (lambda: CheckResult("a.b", "a", "-", "pass", seconds=0.0),
     "CheckResult() missing required argument 'witness'"),
    (lambda: Family(), "Family() missing required argument 'domain'"),
    (lambda: PalindromeInfo(True, 1, 4),
     "PalindromeInfo() missing required argument 'cos'"),
    (lambda: Slotless.VerifyLimits(budget=1, bound=2),
     "Slotless.VerifyLimits() got an unexpected keyword argument 'bound'"),
])
def test_shared_init_argument_errors_name_the_record(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert type(info.value) is TypeError and str(info.value) == message


def test_groupspec_argument_errors_are_its_own_init_errors():
    with pytest.raises(TypeError) as info:
        GroupSpec()
    assert str(info.value) == ("GroupSpec.__init__() missing 2 required "
                               "positional arguments: 'kind' and 'n'")


def test_defaults_and_keywords():
    assert _fields(VerifyLimits()) == (8, 6, 6, DEFAULT_BUDGET)
    assert VerifyLimits(max_n_d=2) == VerifyLimits(8, 6, 2, DEFAULT_BUDGET)
    assert _fields(FamilySpec("aexc", 3)) == ("aexc", 3, "all", None, None, None)
    assert FamilySpec(family="conjexc", n=3, lam=[2, 1]).lam == (2, 1)
    assert FamilySpec("aderexc", 3, fixed=1).fixed == 1
    assert FamilySpec("qrefined", 3, stat="inv").stat == "inv"
    assert WeightSpec((("t", "exc", 0),)).sign_stat is None
    assert _fields(Family(_domain, None)) \
        == (_domain, None, False, BIVARIATE, 0, None, None, None)
    assert Family(domain=_domain, closed=None, min_n=1).min_n == 1
    assert CycleType(parts=[1, 2]).parts == (2, 1)
    assert CycleType(()).parts == ()
    assert repr(GroupSpec(*OTHERS[GroupSpec])) == (
        "GroupSpec(kind='S', n=3, parity='all', pos_n=None, fixed_points=None, "
        "cycle_type=(2, 1))")
    assert GroupSpec(kind="B", n=2) == GroupSpec("B", 2, "all", None, None, None)
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
    (lambda: WeightSpec((("t", "exc", 0.9),)), InvalidSpec,
     "offset 0.9 of 't' is not an int"),
    (lambda: WeightSpec((("s", "nexc", "2"),)), InvalidSpec,
     "offset '2' of 's' is not an int"),
    (lambda: WeightSpec((("t", "exc", 0), ("q", "inv", True))), InvalidSpec,
     "offset True of 'q' is not an int"),
    (lambda: FamilySpec("aexc", 3, "half"), InvalidSpec,
     "class must be all/plus/minus, got 'half'"),
    (lambda: FamilySpec("nope", 3), InvalidSpec,
     "unknown family 'nope'; known: " + str(tuple(FAMILIES))),
    (lambda: FamilySpec("a_des", 3, "plus"), UnsupportedClass,
     "a_des has no plus/minus split"),
    (lambda: FamilySpec("aexc", 0), InvalidSpec, "aexc needs n >= 1, got n = 0"),
    (lambda: FamilySpec("aexc", 5.0), InvalidSpec, "rank 5.0 is not an int"),
    (lambda: FamilySpec("bexc", True), InvalidSpec, "rank True is not an int"),
    (lambda: FamilySpec("aexc", 3, fixed=1), InvalidSpec,
     "aexc takes no fixed-point count"),
    (lambda: FamilySpec("aexc", 3, lam=(3,)), InvalidSpec, "aexc takes no cycle type"),
    (lambda: FamilySpec("aexc", 3, stat="inv"), InvalidSpec,
     "aexc takes no refining statistic"),
    (lambda: FamilySpec("aderexc", 3, fixed=4), InvalidSpec,
     "fixed-point count 4 outside 0..3"),
    (lambda: FamilySpec(5, 3), InvalidSpec, "family 5 is not a str"),
    (lambda: FamilySpec("aderexc", 5, fixed=1.0), InvalidSpec,
     "fixed-point count 1.0 is not an int"),
    (lambda: FamilySpec("aderexc", 5, fixed=True), InvalidSpec,
     "fixed-point count True is not an int"),
    (lambda: GammaExpansion("x", 0, 2, (1, 0)), ValueError, "unknown mode 'x'"),
    (lambda: GammaExpansion(UNIVARIATE, 3, 2, (1,)), ValueError,
     "bad support: r=3, n=2"),
    (lambda: GammaExpansion(BIVARIATE, 2, 3, (1,)), ValueError,
     "bad support: r=2, n=3 for mode bivariate_st"),
    (lambda: GammaExpansion(UNIVARIATE, 0, 4, (1, 2)), ValueError,
     "need 3 gamma entries for mode=univariate_t, r=0, n=4; got 2"),
    (lambda: GammaExpansion(UNIVARIATE, 0, 0, ((1, 2),)), ValueError,
     "gamma entry (1, 2) is not an int"),
    (lambda: GammaExpansion(UNIVARIATE, 0, 0, (True,)), ValueError,
     "gamma entry True is not an int"),
    (lambda: GammaExpansion(BIVARIATE, 0, 0, (1.0,)), ValueError,
     "gamma entry 1.0 is not an int"),
    (lambda: GammaExpansion(Q_COEFFICIENTS, 0, 0, (3,)), ValueError,
     "gamma entry 3 is not a sequence of ints"),
    (lambda: GammaExpansion(Q_COEFFICIENTS, 0, 0, ((1, True),)), ValueError,
     "gamma entry (1, True) is not a sequence of ints"),
    (lambda: GammaExpansion(Q_COEFFICIENTS, 0, 0, ("12",)), ValueError,
     "gamma entry '12' is not a sequence of ints"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": UNIVARIATE, "r": 0, "n": 0, "gammas": [["1"]]}), ValueError,
     "gamma entry [1] is not an int"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": Q_COEFFICIENTS, "r": 0, "n": 0, "gammas": ["1"]}), ValueError,
     "gamma entry 1 is not a sequence of ints"),
    # a gamma reads from an int or a decimal string, r and n from an int only
    (lambda: GammaExpansion.from_json_dict(
        {"mode": UNIVARIATE, "r": 0, "n": 2, "gammas": [1.9, True]}), ValueError,
     "gamma entry 1.9 is not an int or a decimal string"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": UNIVARIATE, "r": 0, "n": 2, "gammas": ["1", True]}), ValueError,
     "gamma entry True is not an int or a decimal string"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": Q_COEFFICIENTS, "r": 0, "n": 0, "gammas": [["1", "+2"]]}), ValueError,
     "gamma entry '+2' is not an int or a decimal string"),
    (lambda: GammaExpansion(UNIVARIATE, 1.0, 2.0, [1]), ValueError,
     "r 1.0 is not an int"),
    (lambda: GammaExpansion(UNIVARIATE, True, 2, [1]), ValueError,
     "r True is not an int"),
    (lambda: GammaExpansion(BIVARIATE, 0, 2.0, [1, 1]), ValueError,
     "n 2.0 is not an int"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": UNIVARIATE, "r": 0.5, "n": 2, "gammas": [1, 1]}), ValueError,
     "r 0.5 is not an int"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": UNIVARIATE, "r": 0, "n": True, "gammas": [1]}), ValueError,
     "n True is not an int"),
    (lambda: GammaExpansion.from_json_dict(
        {"mode": UNIVARIATE, "r": 0, "n": "2", "gammas": [1, 1]}), ValueError,
     "n '2' is not an int"),
    (lambda: CoeffTable(2, ((1, 0),), ((0, 1),)), ValueError,
     "plus and minus need rows 1..2, row k of k entries"),
    (lambda: CoeffTable(2, ((1,), (1, 0)), ((0,), (0, 1, 0))), ValueError,
     "plus and minus need rows 1..2, row k of k entries"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
