"""Workload plans: the CLI requests each workload sends, made from a seed.

A plan is a list of ops plus how they are run: ``fresh`` plans start one
interpreter per op (what a user pays per ``gammaexc`` call), the others run
every op in one long-lived process, ``rounds`` says how many times the
whole plan is repeated so each op can keep its best time, and
``probe_every`` how many timed samples pass between speed probes.  ``--seconds``
sizes a plan so that all its rounds take about that long on the reference
machine.  Each op is a dict with the CLI argv and what the output gate needs
to know about it.  Only the argv reaches the program.

The seed changes ranks, partitions and order, never the amount of work:
ranks are drawn inside fixed strata and the sweep is a random interleaving
of fixed ascending ranges, so run-to-run spread stays small across seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "closed_cold", "sweep_warm")

# closed_cold: one pass over these templates is one stratum.  "gamma" entries
# send a compute request and a gamma request for the same spec, so the gate
# can check that the expansion recomposes to the polynomial.  ``parity``
# keeps gamma requests on ranks where the polynomial is palindromic.
CLOSED_TEMPLATES = (
    # (command, family, class, lowest rank, highest rank, parity)
    ("compute", "aexc", "all", 100, 300, None),
    ("compute", "aexc", "plus", 100, 300, None),
    ("compute", "a_des", "all", 100, 300, None),
    ("compute", "bexc", "minus", 100, 300, None),
    ("compute", "b_des", "all", 100, 300, None),
    ("compute", "b_des", "plus", 100, 300, None),
    ("compute", "sgn_aexc", "all", 100, 300, None),
    ("compute", "sgn_bexc", "all", 100, 300, None),
    ("compute", "sgn_dexc", "all", 100, 300, None),
    ("compute", "sgnb_des_u", "all", 100, 300, None),
    ("compute", "dexc", "all", 80, 150, None),
    ("compute", "dexc", "minus", 80, 150, None),
    ("compute", "bdexc", "all", 80, 150, None),
    ("compute", "aderexc", "all", 18, 30, None),
    ("compute", "aderexc", "plus", 18, 30, None),
    ("conjugacy", "conjexc", "all", 30, 60, None),
    ("conjugacy", "conjexc", "all", 30, 60, None),
    ("gamma", "aexc", "minus", 100, 300, 1),
    ("gamma", "bexc", "all", 100, 300, None),
    ("gamma", "dexc", "plus", 80, 150, 0),
    ("gamma", "aderexc", "minus", 18, 30, None),
)
ROUNDS = 3
# Seconds one stratum takes (25 requests, see perfbench/README.md).
CLOSED_STRATUM_SECONDS = 8.0
RANK_JITTER = 0.02  # share of a template's rank range

# sweep_warm: (family, class, top rank for an 8-second round, mode).
SWEEP_RANGES = (
    ("aexc", "plus", 130, "biv"),
    ("aexc", "minus", 130, "biv"),
    ("bexc", "plus", 120, "biv"),
    ("bexc", "minus", 120, "biv"),
    ("dexc", "plus", 105, "biv"),
    ("dexc", "minus", 105, "biv"),
    ("bdexc", "all", 105, "biv"),
    ("aderexc", "all", 24, "uni"),
)
SWEEP_ROUND_SECONDS = 8.0
SWEEP_LOW = 4
SWEEP_PROBE_EVERY = 4  # ops between speed probes
MIN_TOP = 4

VERIFY_ARGV = ["verify", "--suite", "all"]
VERIFY_SECONDS = 7.5
# SHA-256 of the timing-free report of ``gammaexc verify --suite all`` at the
# default limits (A<=8, B<=6, D<=6): 54 checks, all passing.
VERIFY_SHA256 = "08a8f40a38296ccf567736391a900a11c69f1080f9a135f14a96250dfc7e7bb0"


def _rank(rng, lo, hi, stratum, strata, parity):
    share = (stratum + 0.5) / strata + rng.uniform(-RANK_JITTER, RANK_JITTER)
    n = lo + round((hi - lo) * share)
    if parity is not None and n % 2 != parity:
        n += 1 if n < hi else -1
    return n


def _partition(rng, n):
    parts = []
    while n:
        part = min(rng.randint(1, 12), n)
        parts.append(part)
        n -= part
    return sorted(parts, reverse=True)


def closed_cold(seed, seconds):
    rng = random.Random(seed)
    strata = max(1, round(seconds / ROUNDS / CLOSED_STRATUM_SECONDS))
    specs = []
    for stratum in range(strata):
        for command, family, cls, lo, hi, parity in CLOSED_TEMPLATES:
            n = _rank(rng, lo, hi, stratum, strata, parity)
            specs.append((command, family, cls, n))
    rng.shuffle(specs)
    ops = []
    for command, family, cls, n in specs:
        if command == "conjugacy":
            lam = _partition(rng, n)
            ops.append({"kind": "compute", "family": family, "n": n,
                        "cls": cls, "lam": lam,
                        "argv": ["conjugacy", "--lambda",
                                 ",".join(map(str, lam)), "--format", "json"]})
            continue
        argv = ["--family", family, "--n", str(n), "--class", cls,
                "--format", "json"]
        ops.append({"kind": "compute", "family": family, "n": n, "cls": cls,
                    "argv": ["compute"] + argv})
        if command == "gamma":
            ops.append({"kind": "gamma", "input": len(ops) - 1,
                        "argv": ["gamma"] + argv})
    return {"workload": "closed_cold", "fresh": True, "rounds": ROUNDS,
            "probe_every": 1, "ops": ops}


def sweep_warm(seed, seconds):
    rng = random.Random(seed)
    # a sweep to rank N costs ~N^3
    scale = (seconds / ROUNDS / SWEEP_ROUND_SECONDS) ** (1 / 3)
    queues = []
    for family, cls, top, mode in SWEEP_RANGES:
        top = max(MIN_TOP, round(top * scale))
        queues.append([(family, cls, n, mode)
                       for n in range(top, SWEEP_LOW - 1, -1)])
    ops = []
    while queues:
        # a uniformly random interleaving that keeps each range ascending
        i = rng.choices(range(len(queues)), weights=[len(q) for q in queues])[0]
        family, cls, n, mode = queues[i].pop()
        if not queues[i]:
            del queues[i]
        argv = ["table", "--family", family, "--class", cls,
                "--n-range", f"{n}..{n}"]
        if mode == "uni":
            argv += ["--mode", "uni"]
        ops.append({"kind": "table", "family": family, "cls": cls, "n": n,
                    "mode": mode, "argv": argv})
    return {"workload": "sweep_warm", "fresh": False, "rounds": ROUNDS,
            "probe_every": SWEEP_PROBE_EVERY, "ops": ops}


def verify(seed, seconds):
    """The fixed theorem inventory, so the seed is unused; the run length
    only sets how many times it runs."""
    return {"workload": "verify", "fresh": True,
            "rounds": max(1, round(seconds / VERIFY_SECONDS)),
            "probe_every": 1,
            "ops": [{"kind": "verify", "sha256": VERIFY_SHA256,
                     "argv": VERIFY_ARGV}]}


def build(workload, seed, seconds):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"verify": verify, "closed_cold": closed_cold,
            "sweep_warm": sweep_warm}[workload](seed, seconds)
