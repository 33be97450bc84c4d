"""The gammaexc benchmark: one workload per run, outputs gated, metrics as JSON.

    python3 perfbench/run.py --workload closed_cold --seed 1 --seconds 24 --trace 0

Run from anywhere; the program is the ``src/`` tree next to this directory,
which the benchmark puts on each child interpreter's ``PYTHONPATH`` (no
install needed).  Load is a closed loop with one client: one child process
at a time, each request sent after the previous one returned.

Times are reported in reference seconds.  On a shared host the speed of
one CPU drifts by +-20% over seconds to minutes, so each child times a fixed
piece of stdlib work (``child.speed_probe``) between its samples, and each
sample is rescaled by ``PROBE_REFERENCE_S`` over the probe times around it:
what it would have taken on the host at the speed where the probe takes
``PROBE_REFERENCE_S``.  On top of that every op of a plan runs in several
rounds and each sample keeps its best time over the rounds (the rule
``timeit`` uses: slower repeats come from interference, not from the
program).  The raw wall time is printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the ops
once untraced and once with spans around each layer (see ``tracing.py``),
checks that both printed byte-identical outputs, and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The exit code
is 1 when any output fails the gate, and 2 when the benchmark cannot run at
all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_PROBES = 3  # bare set-ups before each round, besides the workload's own
# speed_probe seconds on the reference machine (see perfbench/README.md)
PROBE_REFERENCE_S = 0.0009
PROBE_WINDOW = 0.3  # seconds on each side of a sample whose probes count
DEADLINE_SECONDS = 170
MIN_BEYOND_TAIL = 10
SUITES = ("gamma_calculus", "typeA", "typeB", "typeD", "derangements",
          "bijections", "signed_sums", "q_refined")
CLOSEDFORMS = ("eulerian", "step_recurrence", "half_sum_closed", "jump4",
               "derangement_closed", "conj_exc_closed")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing program, child crash, timeout)."""


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def at_reference_speed(seconds, t0, t1, probes):
    """Rescale ``seconds`` spent between ``t0`` and ``t1`` by the median of
    the probe readings from ``PROBE_WINDOW`` before to ``PROBE_WINDOW``
    after, always including the last one before and the first one after."""
    times = [t for t, _ in probes]
    lo = min(bisect.bisect_left(times, t0 - PROBE_WINDOW),
             max(0, bisect.bisect_right(times, t0) - 1))
    hi = max(bisect.bisect_right(times, t1 + PROBE_WINDOW),
             bisect.bisect_left(times, t1) + 1)
    return seconds * PROBE_REFERENCE_S / statistics.median(
        s for _, s in probes[lo:hi])


class Children:
    """Starts child interpreters one at a time under a shared deadline, and
    keeps every spawn -> ``import gammaexc.cli`` time as a set-up sample."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.setup_samples = []
        env = dict(os.environ)
        paths = [str(root / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONHASHSEED"] = "0"  # same hashing, so same work, every run
        self.env = env

    def run(self, argvs, trace=False, probe_every=1):
        """Run ``argvs`` in one child; returns (spawn time, messages)."""
        cmd = [sys.executable, str(HERE / "child.py"),
               "--probe-every", str(probe_every)]
        if trace:
            cmd.append("--trace")
        stdin = "".join(json.dumps(a) + "\n" for a in argvs)
        spawned = monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=self.root, env=self.env, text=True)
        try:
            out, err = proc.communicate(stdin, timeout=max(
                1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError("run exceeded its deadline") from None
        messages = [json.loads(line) for line in out.splitlines()]
        if (proc.returncode != 0 or len(messages) != len(argvs) + 2
                or "ready" not in messages[0] or "done" not in messages[-1]):
            raise BenchmarkError(f"child exited {proc.returncode}: "
                                 f"{err.strip()[-2000:]}")
        ready = messages[0]["ready"]
        self.setup_samples.append(at_reference_speed(
            ready - spawned, spawned, ready, messages[-1]["probes"]))
        return spawned, messages


def execute(plan, children, rounds, trace=False, probes=0, probe_every=1):
    """Run every op of a plan ``rounds`` times, ``probes`` bare set-ups
    before each round.

    Returns the first round's per-op results and, per timed sample, the
    best time over the rounds, raw and at reference speed.  A sample is a
    check of a ``verify`` op, or else an op: spawn -> import done plus the
    ``cli.main`` call for one-process-per-op plans, the call alone otherwise.
    """
    argvs = [op["argv"] for op in plan["ops"]]
    batches = [[a] for a in argvs] if plan["fresh"] else [argvs]
    rounds_results, rounds_raw, rounds_scaled = [], [], []
    rss, traces = 0, {}
    for _ in range(rounds):
        for _ in range(probes):
            children.run([], probe_every=probe_every)
        results, raw, scaled = [], [], []
        for batch in batches:
            spawned, messages = children.run(batch, trace=trace,
                                             probe_every=probe_every)
            done = messages[-1]
            rss = max(rss, done["rss_kb"])
            if done["trace"] is not None:
                tracing.merge(traces, done["trace"])
            for msg in messages[1:-1]:
                results.append(msg)
                if msg["samples"]:
                    spans = [(t0, t1, t1 - t0) for t0, t1 in msg["samples"]]
                elif plan["fresh"]:
                    spans = [(spawned, msg["end"], messages[0]["ready"]
                              - spawned + msg["end"] - msg["start"])]
                else:
                    spans = [(msg["start"], msg["end"],
                              msg["end"] - msg["start"])]
                for t0, t1, seconds in spans:
                    raw.append(seconds)
                    scaled.append(at_reference_speed(seconds, t0, t1,
                                                     done["probes"]))
        rounds_results.append(results)
        rounds_raw.append(raw)
        rounds_scaled.append(scaled)
    first = [r["out"] for r in rounds_results[0]]
    stable = all([r["out"] for r in results] == first
                 for results in rounds_results)
    best = [min(column) for column in zip(*rounds_scaled)]
    raw_best = [min(column) for column in zip(*rounds_raw)]
    return {"results": rounds_results[0], "best": best, "wall_s": sum(best),
            "raw_wall_s": sum(raw_best), "rss_kb": rss, "trace": traces,
            "stable": stable}


def check_op(op, result, results):
    """Gate one op; returns a reason string when it failed."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['err'].strip()[-300:]}"
    out, kind = result["out"], op["kind"]
    if kind == "compute":
        return gate.check_compute(op["family"], op["n"], op["cls"], out,
                                  lam=op.get("lam"))
    if kind == "gamma":
        return gate.check_gamma(out, results[op["input"]]["out"])
    if kind == "table":
        return gate.check_table_csv(op["family"], op["cls"], op["n"], out,
                                    mode=op["mode"])
    if kind == "verify":
        return gate.check_verify(out, op["sha256"])
    return f"unknown op kind {kind!r}"


def gate_run(plan, run):
    """(attempted, failure reasons); a verify op counts one attempt per check."""
    reasons = []
    attempted = 0
    for op, result in zip(plan["ops"], run["results"]):
        failing = [f"{c[0]}: {c[2]}" for c in result["checks"] if c[2] != "pass"]
        attempted += max(1, len(result["checks"]))
        reason = check_op(op, result, run["results"])
        if failing:
            reasons += failing
        elif reason:
            reasons.append(f"{' '.join(op['argv'])}: {reason}")
    if not run["stable"]:
        reasons.append("outputs differ between rounds")
    return attempted, reasons


def tail(samples):
    """(p, value): the highest whole percentile p < 100 that leaves at least
    ten samples above it, by nearest rank; the median when none does."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = -(-p * n // 100)
        if n - rank >= MIN_BEYOND_TAIL:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(run, setup_s, attempted, failed):
    p, tail_value = tail(run["best"])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": run["wall_s"], "unit": "s"},
        "op_p50_s": {"value": statistics.median(run["best"]), "unit": "s"},
        "op_tail_s": {"value": tail_value, "unit": "s"},
        "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": run["rss_kb"] / 1024, "unit": "MB"},
    }, p


def per_layer(base, traced):
    """Per-layer metrics from the traced run (checks.* from the untraced one)."""
    names = traced["trace"].get("names", {})
    windows = traced["trace"].get("windows", {"kept": 0, "visited": 0,
                                              "kept_by_parent": {}})

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    kept, visited = windows["kept"], windows["visited"]
    put("groups.iterate.self_s", get("groups.iterate", "self_s"), "s")
    put("groups.iterate.windows_visited", visited, "count")
    put("groups.iterate.windows_kept", kept, "count")
    put("groups.iterate.kept_ratio", kept / visited if visited else 0.0, "ratio")
    dist_windows = windows["kept_by_parent"].get("oracle.dist_poly", 0)
    put("oracle.dist_poly.calls", get("oracle.dist_poly", "calls"), "count")
    put("oracle.dist_poly.self_s", get("oracle.dist_poly", "self_s"), "s")
    put("oracle.dist_poly.us_per_window",
        1e6 * get("oracle.dist_poly", "self_s") / dist_windows
        if dist_windows else 0.0, "us")
    put("oracle.sgnb_des_u.s", get("oracle.sgnb_des_u", "s"), "s")
    for func in CLOSEDFORMS:
        put(f"closedforms.{func}.calls", get(f"closedforms.{func}", "calls"),
            "count")
        put(f"closedforms.{func}.s", get(f"closedforms.{func}", "s"), "s")
    put("poly.init.calls", get("poly.init", "calls"), "count")
    put("poly.init.s", get("poly.init", "s"), "s")
    put("poly.mul.calls", get("poly.mul", "calls"), "count")
    put("poly.mul.s", get("poly.mul", "s"), "s")
    put("poly.add.s", get("poly.add", "s"), "s")
    put("poly.pow.s", get("poly.pow", "s"), "s")
    put("poly.D.s", get("poly.D", "s"), "s")
    put("poly.gamma_decompose.calls", get("poly.gamma_decompose", "calls"),
        "count")
    put("poly.gamma_decompose.s", get("poly.gamma_decompose", "s"), "s")
    put("poly.format.s", get("poly.format", "s"), "s")
    suite_s = dict.fromkeys(SUITES, 0.0)
    for result in base["results"]:
        for _, suite, _, seconds in result["checks"]:
            suite_s[suite] = suite_s.get(suite, 0.0) + seconds
    for suite, seconds in suite_s.items():
        put(f"checks.{suite}.s", seconds, "s")
    put("cli.self_s", get("cli", "self_s"), "s")
    put("trace.overhead_ratio", traced["wall_s"] / base["wall_s"], "ratio")
    return metrics


def commit_stamp(root):
    """The git commit checked out at ``root`` (read from .git, no git binary),
    or None, and a SHA-256 over the ``src/`` tree that was measured."""
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            packed = root / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def run_benchmark(plan, trace):
    """Run one plan; returns (result dict, human-readable notes)."""
    children = Children(ROOT, monotonic() + DEADLINE_SECONDS)
    children.run([])  # warm-up: fills the bytecode cache
    children.setup_samples.clear()
    if trace:
        # no probes inside either run, so none lands in a span or a check
        base = execute(plan, children, rounds=1, probe_every=0)
    else:
        base = execute(plan, children, rounds=plan["rounds"],
                       probes=SETUP_PROBES, probe_every=plan["probe_every"])
    attempted, reasons = gate_run(plan, base)
    notes = [f"gate: {r}" for r in reasons]
    if trace:
        traced = execute(plan, children, rounds=1, trace=True,
                         probe_every=0)
        for op, a, b in zip(plan["ops"], base["results"], traced["results"]):
            if a["out"] != b["out"] or a["rc"] != b["rc"]:
                reasons.append(f"traced output differs: {' '.join(op['argv'])}")
        notes.append(f"spans recorded: {traced['trace'].get('spans', 0)}; "
                     f"traced wall_s {traced['wall_s']:.3f} vs untraced "
                     f"{base['wall_s']:.3f}")
        metrics = per_layer(base, traced)
    else:
        setup_s = statistics.median(children.setup_samples)
        metrics, p = end_to_end(base, setup_s, attempted, len(reasons))
        notes.append(f"best of {plan['rounds']} rounds; op_tail_s is p{p} of "
                     f"{len(base['best'])} samples; setup_s is the median of "
                     f"{len(children.setup_samples)} spawns; raw wall_s "
                     f"{base['raw_wall_s']:.4f}")
    failed = min(attempted, len(reasons))
    notes.append(f"failed_ratio {failed / attempted:g} ({failed} of {attempted})")
    result = {"correct": not reasons, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gammaexc" / "cli.py").is_file():
        print(f"perfbench: no gammaexc source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    plan = workloads.build(args.workload, args.seed, args.seconds)
    try:
        result, notes = run_benchmark(plan, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    commit, tree = commit_stamp(ROOT)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} ops={len(plan['ops'])} commit={commit or 'none'}"
          f" src_sha256={tree[:16]} python={sys.version.split()[0]}")
    for note in notes:
        print(f"# {note}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
