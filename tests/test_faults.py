"""Faults in library code, each mapped to the verify checks it must fail.

A fault monkeypatches one library name.  With it in place, every check named
for it reports ``fail`` with a witness (not ``error``, not ``skipped``);
without it, the same suites pass.
"""

import pytest

from gammaexc import oracle
from gammaexc.checks import VerifyLimits, run_suite

LIMITS = VerifyLimits(max_n_a=5, max_n_b=4, max_n_d=4)

# fault id -> (module, name, the fault built from the real object, the check
# ids it must fail)
FAULTS = {
    "oracle.negs returns 0": (
        oracle, "negs", lambda real: lambda w: 0,
        ("typeB.closed_equals_oracle",)),
    "oracle.inv returns 0": (
        oracle, "inv", lambda real: lambda w: 0,
        ("typeD.step_equals_oracle", "signed_sums.type_d_power")),
    "oracle._perm_parities flipped": (
        oracle, "_perm_parities",
        lambda real: lambda n, shift=0: real(n, shift + 1),
        ("typeA.closed_equals_oracle", "signed_sums.type_a_power",
         "derangements.fixed_point_refinement")),
}


def _results(check_ids):
    """Run the suites holding ``check_ids``: check id -> CheckResult."""
    suites = dict.fromkeys(check_id.split(".")[0] for check_id in check_ids)
    return {r.check_id: r for suite in suites for r in run_suite(suite, LIMITS)}


@pytest.mark.parametrize("fault_id", FAULTS)
def test_fault_fails_its_checks(monkeypatch, fault_id):
    module, name, fault, check_ids = FAULTS[fault_id]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    results = _results(check_ids)
    for check_id in check_ids:
        result = results[check_id]
        assert (result.status, bool(result.witness)) == ("fail", True), result


def test_suites_pass_without_faults():
    check_ids = [i for *_, ids in FAULTS.values() for i in ids]
    assert {r.status for r in _results(check_ids).values()} == {"pass"}
