"""Spans around calls into gammaexc, recorded from outside the package.

``install`` replaces each name in ``WRAPPED`` where its callers look it up
(a module global, or a ``Poly``/``GammaExpansion`` class attribute) with a
wrapper that records one span per call: name, parent span and duration.
Spans are kept in flat arrays in memory; ``Tracer.aggregate`` turns them
into per-name call counts, self times and inclusive times once the run is
over.  A name that no longer exists raises ``MissingName`` at install time,
so a refactor cannot silently drop a layer from the trace.

``iterate`` is a generator, so its span measures the time spent inside its
``next()`` calls only (the consumer's work between windows belongs to the
consumer), and it also counts windows yielded (kept) and windows the domain
scan visits (``enumeration_cost`` of a fully consumed stream).  Nothing
traced runs inside ``iterate``, so its span has no children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class; plain names are patched in the module namespace that calls them.
WRAPPED = (
    ("gammaexc.cli", "main", "cli"),
    ("gammaexc.cli", "gamma_decompose", "poly.gamma_decompose"),
    ("gammaexc.checks", "gamma_decompose", "poly.gamma_decompose"),
    ("gammaexc.oracle", "iterate", "groups.iterate"),
    ("gammaexc.checks", "iterate", "groups.iterate"),
    ("gammaexc.oracle", "dist_poly", "oracle.dist_poly"),
    ("gammaexc.checks", "dist_poly", "oracle.dist_poly"),
    ("gammaexc.oracle", "family_poly", "oracle.family_poly"),
    ("gammaexc.checks", "family_poly", "oracle.family_poly"),
    ("gammaexc.oracle", "sgnb_des_u", "oracle.sgnb_des_u"),
    ("gammaexc.closedforms", "eulerian", "closedforms.eulerian"),
    ("gammaexc.closedforms", "step_recurrence", "closedforms.step_recurrence"),
    ("gammaexc.closedforms", "half_sum_closed", "closedforms.half_sum_closed"),
    ("gammaexc.closedforms", "jump4", "closedforms.jump4"),
    ("gammaexc.closedforms", "derangement_closed",
     "closedforms.derangement_closed"),
    ("gammaexc.closedforms", "conj_exc_closed", "closedforms.conj_exc_closed"),
    ("gammaexc.closedforms", "D", "poly.D"),
    ("gammaexc.checks", "D", "poly.D"),
    ("gammaexc.poly", "Poly.__init__", "poly.init"),
    ("gammaexc.poly", "Poly.__mul__", "poly.mul"),
    ("gammaexc.poly", "Poly.__rmul__", "poly.mul"),
    ("gammaexc.poly", "Poly.__add__", "poly.add"),
    ("gammaexc.poly", "Poly.__radd__", "poly.add"),
    ("gammaexc.poly", "Poly.__pow__", "poly.pow"),
    ("gammaexc.poly", "Poly.__str__", "poly.format"),
    ("gammaexc.poly", "Poly.to_json", "poly.format"),
    ("gammaexc.poly", "Poly.coefficients", "poly.format"),
    ("gammaexc.poly", "GammaExpansion.__str__", "poly.format"),
    ("gammaexc.poly", "GammaExpansion.to_json_dict", "poly.format"),
)

GENERATORS = {"groups.iterate"}

NO_PARENT = -1


class MissingName(RuntimeError):
    """A traced name is gone from the package."""


class Tracer:
    """Flat in-memory span store: one entry per traced call."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("i")
        self.parent = array("i")
        self.dur = array("d")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.windows = {}  # iterate span -> (kept, visited)
        self._stack = [NO_PARENT]
        self._open = []

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._index[name]

    def _start(self, idx):
        sid = len(self.dur)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.dur.append(0.0)
        self.nested.append(1 if self._open[idx] else 0)
        return sid

    def wrap(self, func, name):
        idx = self._name_index(name)
        stack, opened, dur = self._stack, self._open, self.dur
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self._start(idx)
            stack.append(sid)
            opened[idx] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dur[sid] = clock() - start
                opened[idx] -= 1
                stack.pop()

        return traced

    def wrap_iterate(self, func, name, enumeration_cost):
        idx = self._name_index(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(spec, *args, **kwargs):
            sid = self._start(idx)
            stream = func(spec, *args, **kwargs)
            busy = 0.0
            kept = 0
            done = False
            try:
                while True:
                    start = clock()
                    try:
                        item = next(stream)
                    except StopIteration:
                        done = True
                        return
                    finally:
                        busy += clock() - start
                    kept += 1
                    yield item
            finally:
                self.dur[sid] = busy
                visited = enumeration_cost(spec) if done else kept
                self.windows[sid] = (kept, visited)

        return traced

    def install(self, wrapped=WRAPPED):
        """Patch every name in ``wrapped``; returns a function that undoes it."""
        undo = []
        groups = importlib.import_module("gammaexc.groups")
        for module_name, attr, span in wrapped:
            module = importlib.import_module(module_name)
            owner, _, member = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            if member not in vars(target):
                raise MissingName(f"traced name {module_name}.{attr} no longer "
                                  f"exists; update perfbench/tracing.py")
            original = vars(target)[member]
            if span in GENERATORS:
                replacement = self.wrap_iterate(original, span,
                                                groups.enumeration_cost)
            else:
                replacement = self.wrap(original, span)
            setattr(target, member, replacement)
            undo.append((target, member, original))

        def uninstall():
            for target, member, original in reversed(undo):
                setattr(target, member, original)

        return uninstall

    def spans(self):
        """The recorded spans as (name, parent, seconds, nested) tuples."""
        return [(self.names[n], p, d, bool(x)) for n, p, d, x
                in zip(self.name, self.parent, self.dur, self.nested)]

    def aggregate(self):
        totals = aggregate(self.spans())
        kept = visited = 0
        by_parent = {}
        for sid, (k, v) in self.windows.items():
            kept += k
            visited += v
            parent = self.parent[sid]
            owner = self.names[self.name[parent]] if parent != NO_PARENT else ""
            by_parent[owner] = by_parent.get(owner, 0) + k
        return {"spans": len(self.dur), "names": totals,
                "windows": {"kept": kept, "visited": visited,
                            "kept_by_parent": by_parent}}


def aggregate(spans):
    """Per-name totals of a span list.

    ``spans[i]`` is ``(name, parent, seconds, nested)`` where ``parent`` is
    the index of the enclosing span (or -1) and ``nested`` says a span of
    the same name encloses it.  For each name returns ``calls``; ``self_s``,
    the span time not covered by child spans; and ``s``, the inclusive time
    of the outermost spans, so recursion is not counted twice.
    """
    covered = [0.0] * len(spans)
    for name, parent, seconds, nested in spans:
        if parent != NO_PARENT:
            covered[parent] += seconds
    totals = {}
    for i, (name, parent, seconds, nested) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += seconds - covered[i]
        if not nested:
            entry["s"] += seconds
    return totals


def merge(into, part):
    """Add one process's ``Tracer.aggregate()`` into a running total."""
    into["spans"] = into.get("spans", 0) + part["spans"]
    names = into.setdefault("names", {})
    for name, entry in part["names"].items():
        acc = names.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        for key, value in entry.items():
            acc[key] += value
    windows = into.setdefault("windows", {"kept": 0, "visited": 0,
                                          "kept_by_parent": {}})
    windows["kept"] += part["windows"]["kept"]
    windows["visited"] += part["windows"]["visited"]
    for owner, k in part["windows"]["kept_by_parent"].items():
        windows["kept_by_parent"][owner] = (
            windows["kept_by_parent"].get(owner, 0) + k)
    return into
