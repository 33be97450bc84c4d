"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


# -- self-time arithmetic ---------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("cli", -1, 10.0, False),                      # 0
        ("closedforms.eulerian", 0, 6.0, False),       # 1
        ("poly.mul", 1, 2.0, False),                   # 2
        ("poly.init", 2, 0.5, False),                  # 3
        ("poly.mul", 1, 1.0, False),                   # 4
        ("closedforms.eulerian", 1, 1.0, True),        # 5: recursion
        ("groups.iterate", 0, 2.0, False),             # 6
    ]
    totals = tracing.aggregate(spans)
    assert totals["cli"] == {"calls": 1, "self_s": 2.0, "s": 10.0}
    assert totals["closedforms.eulerian"] == {"calls": 2, "self_s": 3.0,
                                              "s": 6.0}
    assert totals["poly.mul"] == {"calls": 2, "self_s": 2.5, "s": 3.0}
    assert totals["poly.init"] == {"calls": 1, "self_s": 0.5, "s": 0.5}
    assert totals["groups.iterate"]["self_s"] == 2.0
    # self times partition the root span
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_nesting():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap(leaf, "leaf")

    def node(depth):
        return traced_node(depth - 1) if depth else traced_leaf()

    traced_node = tracer.wrap(node, "node")
    assert traced_node(2) == 1
    names = [(name, parent, nested) for name, parent, _, nested
             in tracer.spans()]
    assert names == [("node", -1, False), ("node", 0, True),
                     ("node", 1, True), ("leaf", 2, False)]
    assert tracer.aggregate()["names"]["node"]["calls"] == 3


def test_traced_iterate_counts_windows_and_keeps_the_polynomial():
    from gammaexc import oracle
    from gammaexc.groups import enumeration_cost, GroupSpec

    spec = oracle.FamilySpec("dexc", 4, "plus")
    plain = oracle.family_poly(spec)
    tracer = tracing.Tracer()
    uninstall = tracer.install([
        ("gammaexc.oracle", "iterate", "groups.iterate"),
        ("gammaexc.oracle", "dist_poly", "oracle.dist_poly"),
    ])
    try:
        traced = oracle.family_poly(spec)
    finally:
        uninstall()
    assert traced == plain and traced.to_json() == plain.to_json()
    windows = tracer.aggregate()["windows"]
    assert windows["kept"] == 2 ** 2 * math.factorial(4)
    assert windows["visited"] == enumeration_cost(GroupSpec("D", 4))
    assert windows["kept_by_parent"] == {"oracle.dist_poly": windows["kept"]}


def test_missing_traced_name_fails_loudly():
    with pytest.raises(tracing.MissingName, match="no_such_engine"):
        tracing.Tracer().install([("gammaexc.closedforms", "no_such_engine",
                                   "closedforms.no_such_engine")])


def test_every_traced_name_exists():
    uninstall = tracing.Tracer().install()
    uninstall()


def test_reference_speed_uses_the_probes_around_a_sample():
    probes = [[0.0, 0.002], [1.0, 0.001], [2.0, 0.001], [9.0, 0.004]]
    ref = run.PROBE_REFERENCE_S
    # between the probes at 1 and 2: both read 1 ms; the one at 9 is too far
    assert run.at_reference_speed(1.0, 1.2, 1.8, probes) == pytest.approx(
        ref / 0.001)
    # before the first probe: the nearest one still counts
    assert run.at_reference_speed(1.0, -0.5, -0.1, probes) == pytest.approx(
        ref / 0.002)
    # a long sample with no probe inside uses the ones at either end
    assert run.at_reference_speed(1.0, 2.5, 8.5, probes) == pytest.approx(
        ref / 0.0025)


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89)
    assert run.tail(list(range(25))) == (60, 14)
    assert run.tail(list(range(5)))[0] == 50


# -- the output gate ----------------------------------------------------------


def _poly_json(terms, names=("s", "t")):
    return json.dumps({"vars": list(names), "terms": [
        {"exp": list(e), "coeff": str(c)} for e, c in sorted(terms.items())]})


def test_gate_accepts_real_outputs_and_trips_on_a_wrong_polynomial():
    from gammaexc import closedforms

    good = closedforms.eulerian("A", 5).to_json()
    assert gate.check_compute("aexc", 5, "all", good) is None
    terms = gate.poly_terms(good)
    key = next(iter(terms))
    terms[key] += 1
    wrong = json.dumps({"vars": ["s", "t", "u", "q"], "terms": [
        {"exp": list(k), "coeff": str(c)} for k, c in terms.items()]})
    assert "class size" in gate.check_compute("aexc", 5, "all", wrong)


def test_gate_checks_signed_families_exactly():
    right = _poly_json({(1, 2): 1, (2, 1): -2, (3, 0): 1})  # s(s-t)^2
    assert gate.check_compute("sgn_dexc", 3, "all", right) is None
    swapped = _poly_json({(1, 2): -1, (2, 1): 2, (3, 0): -1})
    assert gate.check_compute("sgn_dexc", 3, "all", swapped) is not None


def test_gate_gamma_recomposition():
    from gammaexc import closedforms, poly

    f = closedforms.half_sum_closed("aexc", 7, "minus")
    expansion = json.dumps(poly.gamma_decompose(f, poly.BIVARIATE)
                           .to_json_dict())
    assert gate.check_gamma(expansion, f.to_json()) is None
    other = closedforms.half_sum_closed("aexc", 7, "plus").to_json()
    assert "recompose" in gate.check_gamma(expansion, other)
    negative = expansion.replace('"63"', '"-63"')
    assert "negative" in gate.check_gamma(negative, f.to_json())


def test_gate_table_rows():
    good = ("family,class,n,k,coeff,gamma_index,gamma_value,cos,gamma_positive\n"
            "dexc,plus,4,0,1,0,1,2,true\ndexc,plus,4,1,16,1,12,2,true\n"
            "dexc,plus,4,2,62,2,32,2,true\ndexc,plus,4,3,16,,,2,true\n"
            "dexc,plus,4,4,1,,,2,true\n")
    assert gate.check_table_csv("dexc", "plus", 4, good) is None
    assert gate.check_table_csv("dexc", "plus", 4,
                                good.replace(",1,12,", ",1,13,")) is not None
    assert gate.check_table_csv("dexc", "plus", 4,
                                good.replace(",62,", ",61,")) is not None


def test_class_sizes():
    assert gate.class_size("aderexc", 4, "all") == 9
    assert gate.class_size("aderexc", 4, "plus") == 3  # the (2,2) class
    assert gate.class_size("conjexc", 5, lam=(3, 2)) == 20
    assert gate.class_size("dexc", 3, "minus") == 12


# -- tiny runs of each workload ---------------------------------------------


def _tiny(workload):
    if workload == "verify":
        # small limits, so the report differs from the recorded one
        small = {"kind": "verify", "sha256": None,
                 "argv": workloads.VERIFY_ARGV + ["--max-n", "4"]}
        return dict(workloads.verify(0, 1), ops=[small])
    if workload == "sweep_warm":
        return workloads.sweep_warm(0, 0.05)
    plan = workloads.closed_cold(0, 1)
    ops = plan["ops"]
    gamma = next(op for op in ops if op["kind"] == "gamma")
    conj = next(op for op in ops if op["argv"][0] == "conjugacy")
    small = [conj, dict(ops[gamma["input"]]), dict(gamma, input=1)]
    return dict(plan, ops=small)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload):
    plan = _tiny(workload)
    result, _ = run.run_benchmark(plan, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    traced, _ = run.run_benchmark(plan, trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == PER_LAYER


def test_command_exits_nonzero_when_the_gate_is_fed_a_wrong_result(
        monkeypatch, capsys):
    monkeypatch.setattr(workloads, "build",
                        lambda *args: _tiny("closed_cold"))
    real_run = run.Children.run

    def corrupting_run(self, argvs, **kwargs):
        spawned, messages = real_run(self, argvs, **kwargs)
        for msg in messages[1:-1]:
            msg["out"] = msg["out"].replace('"coeff":"', '"coeff":"1', 1)
        return spawned, messages

    monkeypatch.setattr(run.Children, "run", corrupting_run)
    code = run.main(["--workload", "closed_cold", "--seed", "0",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
