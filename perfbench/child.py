"""One gammaexc process, driven by perfbench/run.py.

    python3 perfbench/child.py [--trace] [--probe-every K]  < ops.jsonl

Imports ``gammaexc.cli`` (the package must be on ``PYTHONPATH``), then runs
each op, a JSON list of CLI arguments per stdin line, through ``cli.main``
in this one process.  It writes JSON lines to stdout:

* ``{"ready": t}`` once the import is done;
* per op, ``{"rc", "start", "end", "out", "err", "checks", "samples"}``:
  ``checks`` holds ``[check_id, suite, status, seconds]`` for each
  ``CheckResult`` a ``verify`` op produced, ``samples`` the ``[start, end]``
  of each of those checks;
* ``{"done": t, "probes": [[t, seconds], ...], "rss_kb": ..., "trace": ...}``
  at the end, ``trace`` being the span aggregates when ``--trace`` is given.

``probes`` time a fixed piece of stdlib work (``speed_probe``) right after
the import, after every ``K``-th timed sample (an op, or a check of a
``verify`` op; ``K`` = 0 keeps only the first and last probe), and at the
end, never inside a sample.  The parent divides each sample by the probe
times around it, which cancels most of a shared host's speed drift.  Probes
are placed by count, not by clock, so every run allocates the same objects
in the same order and the garbage collector runs at the same points.

Times ``t`` are CLOCK_MONOTONIC readings, comparable across processes on
one host.
"""

import contextlib
import dataclasses
import gc
import io
import json
import resource
import sys
import time
import traceback

PROBE_EVERY = 1  # timed samples between probes
PROBE_REPEATS = 3


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _signed_windows(prefix, remaining):
    if not remaining:
        yield prefix
        return
    for v in sorted([-a for a in remaining] + list(remaining)):
        yield from _signed_windows(prefix + (v,), remaining - {abs(v)})


def speed_probe():
    """Seconds for a fixed mix of the work gammaexc does, with the cyclic
    garbage collector paused: big-integer products into tuple-keyed dicts,
    a recursive generator of signed windows with a per-window statistic,
    and decimal formatting.  Uses nothing from gammaexc."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = monotonic()
        terms = {(i, 7 - i % 8): 3 ** (40 + i) for i in range(30)}
        product = {}
        for e1, c1 in terms.items():
            for e2, c2 in terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1])
                product[key] = product.get(key, 0) + c1 * c2
        counts = {}
        for w in _signed_windows((), frozenset(range(1, 5))):
            e = sum(1 for i, v in enumerate(w, 1) if v > i)
            counts[e] = counts.get(e, 0) + 1
        json.dumps([str(c) for c in product.values()])
        return monotonic() - start
    finally:
        if paused:
            gc.enable()


class Probes:
    def __init__(self, every):
        self.every = every
        self.samples = 0
        self.readings = []

    def take(self):
        seconds = min(speed_probe() for _ in range(PROBE_REPEATS))
        self.readings.append([monotonic(), seconds])

    def sampled(self):
        """Count one timed sample; probe after every ``every``-th."""
        self.samples += 1
        if self.every and self.samples % self.every == 0:
            self.take()


def peak_rss_kb():
    """This process's own peak RSS.  ``ru_maxrss`` is not: on Linux it also
    counts the parent's memory at the fork that started this process."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    args = sys.argv[1:]
    tracing = "--trace" in args
    every = (int(args[args.index("--probe-every") + 1])
             if "--probe-every" in args else PROBE_EVERY)
    proto = sys.stdout

    from gammaexc import checks, cli

    proto.write(json.dumps({"ready": monotonic()}) + "\n")
    proto.flush()
    probes = Probes(every)
    probes.take()

    results, samples = [], []
    run_suite = checks.run_suite

    def recording_run_suite(*args, **kwargs):
        found = run_suite(*args, **kwargs)
        results.extend(found)
        return found

    def timed_check(func):
        def check(limits):
            start = monotonic()
            try:
                return func(limits)
            finally:
                samples.append([start, monotonic()])
                probes.sampled()
        return check

    checks.run_suite = recording_run_suite
    checks.REGISTRY[:] = [dataclasses.replace(c, func=timed_check(c.func))
                          for c in checks.REGISTRY]

    tracer = None
    if tracing:
        from tracing import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    done = monotonic()
    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        del results[:], samples[:]
        start = monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # report the crash as a failed op, keep going
                traceback.print_exc()
                rc = -1
        done = monotonic()
        proto.write(json.dumps({
            "rc": rc, "start": start, "end": done, "out": out.getvalue(),
            "err": err.getvalue(),
            "checks": [[r.check_id, r.suite, r.status, r.seconds]
                       for r in results],
            "samples": samples,
        }) + "\n")
        proto.flush()
        if not samples:
            probes.sampled()

    probes.take()
    proto.write(json.dumps({
        "done": done, "probes": probes.readings, "rss_kb": peak_rss_kb(),
        "trace": tracer.aggregate() if tracer else None,
    }) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
