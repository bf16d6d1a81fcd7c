"""Spans and counters around the library's public functions.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper at every ``relayflow`` module attribute that bound the
original (``max_flow`` is bound in ``relayflow.cutflow``, again in
``relayflow.rateplan`` and in the package itself), so internal calls are
traced too.  ``cutflow._construct`` is wrapped as well, as
``cutflow.max_flow.depthK`` for recursion depth ``K``.

Oracle evaluations (``CapacityOracle.value_masks``) are too many for one
span each: they are counted and timed in aggregate, and their time is
charged to the innermost open span, so ``self_s`` of a span excludes both
its child spans and the oracle time spent directly in it.

Spans stay in memory as ``[name, start, end, parent, op, oracle_s]`` and
are written out by the caller at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("capacity", "cutflow", "rateplan", "fileformat", "cli")
DEPTH_PREFIX = "cutflow.max_flow.depth"

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, float] = defaultdict(float)
        self._cells: set = set()
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def begin_op(self, op) -> int:
        self.op = op
        return self.open("op")

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.counts["capacity.distinct_cells"] += len(self._cells)
        self._cells.clear()
        self.op = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from relayflow import capacity, cutflow

        targets = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"relayflow.{short}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = self._wrap(obj, f"{short}.{name}", short)
        targets[cutflow._construct] = self._wrap_construct(cutflow._construct)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "relayflow" or n.startswith("relayflow."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

        original = capacity.CapacityOracle.value_masks
        self._restore.append((capacity.CapacityOracle, "value_masks", original))
        capacity.CapacityOracle.value_masks = self._wrap_value_masks(original)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return wrapper

    def _wrap_construct(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = sum(
                1 for i in tracer.stack if tracer.spans[i][0].startswith(DEPTH_PREFIX)
            )
            idx = tracer.open(f"{DEPTH_PREFIX}{depth}")
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.counts["cutflow.errors"] += 1
                raise
            finally:
                tracer.close(idx)

        return wrapper

    def _wrap_value_masks(self, fn):
        spans, stack, counts, cells = self.spans, self.stack, self.counts, self._cells

        @functools.wraps(fn)
        def value_masks(oracle, umask, vmask):
            t0 = perf_counter()
            try:
                return fn(oracle, umask, vmask)
            except Exception:
                counts["capacity.errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                counts["capacity.value_masks.calls"] += 1
                counts["capacity.value_masks.s"] += dt
                if stack:
                    spans[stack[-1]][5] += dt
                cells.add((id(oracle), umask, vmask))

        return value_masks


# ---------------------------------------------------------------------------
# Work counts read off return values.
# ---------------------------------------------------------------------------


def _tableau_bytes(m: int) -> int:
    """Bytes of the float64 tableau ``polymatroid_intersect`` builds for a
    ground set of ``m``: ``2(2^m - 1)`` rows plus the objective, ``m``
    structural columns, one slack per row and the right-hand side."""
    rows = 2 * ((1 << m) - 1)
    return 8 * (rows + 1) * (m + rows + 1)


def _observe_intersect(counts, args, result):
    m = args[0].ground_size
    counts["cutflow.polymatroid_intersect.ground_size"] = max(
        counts["cutflow.polymatroid_intersect.ground_size"], m
    )
    counts["cutflow.polymatroid_intersect.tableau_bytes_computed"] = max(
        counts["cutflow.polymatroid_intersect.tableau_bytes_computed"], _tableau_bytes(m)
    )


def _counter(name: str, attr: str):
    def observe(counts, args, result):
        counts[name] += getattr(result, attr)

    return observe


OBSERVERS = {
    "cutflow.polymatroid_intersect": _observe_intersect,
    "cutflow.verify_flow": _counter("cutflow.verify_flow.n_constraints", "n_constraints"),
    "capacity.check_capacity_axioms": _counter(
        "capacity.check_capacity_axioms.n_checks", "n_checks"
    ),
    "rateplan.check_layered_feasible": _counter(
        "rateplan.check_layered_feasible.n_constraints", "n_constraints"
    ),
    "rateplan.check_joint_feasible": _counter(
        "rateplan.check_joint_feasible.n_constraints", "n_constraints"
    ),
    "rateplan.check_multi_source": _counter(
        "rateplan.check_multi_source.n_constraints", "n_constraints"
    ),
}


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, _, _, oracle_s) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_s[i] - oracle_s
    return totals
