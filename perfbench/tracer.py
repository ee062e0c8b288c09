"""In-memory span tracer installed around bcs_edge's public functions.

Only a traced benchmark run creates a Tracer.  `install` replaces every
module attribute of the package that is one of the traced public
functions (the import sites, e.g. `critical_temperature.build_grid`,
`bs_operator.eval_B`, `cli.ratio_curve`) with a timing wrapper, and
`uninstall` puts the originals back.  Private helpers such as `_diag_A`
or `_march_edges` are not wrapped, so their time shows up as self time
of the public function that called them.

A span records name, start, end, parent span, request id, and a few
counts taken from the call's arguments or result.  Spans stay in memory
until the run ends; `layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    name: str
    start: float
    end: float
    info: dict = field(default_factory=dict)
    error: BaseException | None = None

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "info": {k: v for k, v in self.info.items() if k != "key"},
            "error": type(self.error).__name__ if self.error else None,
        }


def _policy_key(grid) -> tuple:
    pol = grid.policy
    return (pol.T, pol.mu, pol.tol, pol.points_per_panel, pol.cutoff_factor,
            pol.tail_k, pol.extend_tail, pol.extra_centers)


def _annotate_build_grid(args, kwargs, grid):
    return {"key": _policy_key(grid), "n": grid.n}


def _annotate_assemble(args, kwargs, op):
    return {"key": (_policy_key(op.grid), op.bc.value), "n": op.n}


def _annotate_top_eigenpair(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return {"n": op.n}


def _annotate_eval_B(args, kwargs, result):
    p = args[0] if len(args) > 0 else kwargs["p"]
    q = args[1] if len(args) > 1 else kwargs["q"]
    shape = np.broadcast_shapes(np.shape(p), np.shape(q))
    return {"elements": int(np.prod(shape, dtype=np.int64))}


def _annotate_tc(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


def _annotate_ratio_curve(args, kwargs, curve):
    return {"rows": len(curve.rows),
            "row_errors": sum(row.error is not None for row in curve.rows)}


def _annotate_check(args, kwargs, report):
    return {"samples": int(report.samples)}


def _annotate_cli_main(args, kwargs, code):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    info = {"code": code}
    if argv and argv[0] == "ratio-curve":
        threads = int(argv[argv.index("--threads") + 1])
        rows = int(argv[argv.index("--v-count") + 1])
        info["workers"] = max(1, min(threads, rows))
    return info


def traced_functions(modules) -> dict:
    """Canonical span name -> (original function, annotate) for the package."""
    kernels, quadrature, bs_operator, critical_temperature, variational, \
        lemma_suite, cli = (modules[name] for name in (
            "kernels", "quadrature", "bs_operator", "critical_temperature",
            "variational", "lemma_suite", "cli"))
    table = {
        "quadrature.build_grid": (quadrature.build_grid, _annotate_build_grid),
        "bs_operator.assemble": (bs_operator.assemble, _annotate_assemble),
        "bs_operator.top_eigenpair": (bs_operator.top_eigenpair,
                                      _annotate_top_eigenpair),
        "kernels.eval_B": (kernels.eval_B, _annotate_eval_B),
        "kernels.eval_a": (kernels.eval_a, None),
        "critical_temperature.tc_bulk": (critical_temperature.tc_bulk, _annotate_tc),
        "critical_temperature.tc_boundary": (critical_temperature.tc_boundary,
                                             _annotate_tc),
        "critical_temperature.ratio_curve": (critical_temperature.ratio_curve,
                                             _annotate_ratio_curve),
        "variational.trial_gap": (variational.trial_gap, None),
        "cli.main": (cli.main, _annotate_cli_main),
    }
    for name in lemma_suite.__all__:
        if name.startswith("check_"):
            table[f"lemma_suite.{name}"] = (getattr(lemma_suite, name),
                                            _annotate_check)
    return table


class Tracer:
    """Collects spans from wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._patches: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to whatever the main thread
        # is blocked in (cli.main waiting on its row pool)
        main = self._main_stack
        return main[-1] if main else None

    def call(self, name, fn, annotate, args, kwargs):
        stack = self._stack()
        span = Span(next(self._ids), self._parent(stack), self.request, name, 0.0, 0.0)
        stack.append(span.id)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            span.error = exc
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if annotate is not None and span.error is None:
                span.info = annotate(args, kwargs, result)
            self.spans.append(span)

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, annotate, args, kwargs)

        return traced

    def install(self, modules) -> None:
        """Wrap every import site of the traced functions in `modules`."""
        # keyed by id: module namespaces also hold unhashable values
        originals = {id(fn): (name, fn, annotate)
                     for name, (fn, annotate) in traced_functions(modules).items()}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    name, fn, annotate = originals[id(value)]
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn, annotate))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def op(self, request: str, fn, *args):
        """Run one workload operation as the root span of `request`."""
        self.request = request
        try:
            return self.call("perfbench.op", fn, None, args, {})
        finally:
            self.request = None


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def _enclosing(span, by_id, name):
    parent = by_id.get(span.parent)
    while parent is not None and parent.name != name:
        parent = by_id.get(parent.parent)
    return parent


def _inside(span, by_id, name) -> bool:
    return span.name == name or _enclosing(span, by_id, name) is not None


def _repeat_frac(spans, by_id, scope_name) -> float:
    """Share of spans whose key was already seen in the same scope.

    The scope is the nearest enclosing `scope_name` span (one row), or
    the request when there is none.
    """
    seen = set()
    repeats = 0
    for s in sorted(spans, key=lambda s: s.start):
        row = _enclosing(s, by_id, scope_name)
        scope = ("span", row.id) if row is not None else ("request", s.request)
        marker = (scope, s.info["key"])
        repeats += marker in seen
        seen.add(marker)
    return repeats / len(spans) if spans else 0.0


def layer_metrics(spans, numerics_error) -> dict:
    """Per-layer numbers (value, unit) from one traced run's spans."""
    by_id = {s.id: s for s in spans}
    self_s = self_times(spans)
    named: dict = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def done(name):
        return [s for s in named.get(name, ()) if s.error is None]

    def total_self(name):
        return sum(self_s[s.id] for s in named.get(name, ()))

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in done(name))

    grids = done("quadrature.build_grid")
    ops = done("bs_operator.assemble")
    solves = done("bs_operator.top_eigenpair")
    orders = [s.info["n"] for s in solves]
    rows = info_sum("critical_temperature.ratio_curve", "rows")

    busy = []
    for main in done("cli.main"):
        workers = main.info.get("workers")
        kids = [c for c in named.get("critical_temperature.ratio_curve", ())
                if c.parent == main.id]
        if workers and kids:
            wall = max(c.end for c in kids) - min(c.start for c in kids)
            busy.append(sum(c.end - c.start for c in kids) / (workers * wall))

    # ratio_curve turns a row's NumericsError into row.error, counted from
    # its result; any other escaping error is counted once however many
    # nested spans it passed through
    errors = {id(s.error): s.error for s in spans
              if isinstance(s.error, numerics_error)
              and not _inside(s, by_id, "critical_temperature.ratio_curve")}
    checks = [s for name, group in named.items()
              if name.startswith("lemma_suite.check_") for s in group]

    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "quadrature.build_grid.calls": m(len(named.get("quadrature.build_grid", ())), "count"),
        "quadrature.build_grid.self_s": m(total_self("quadrature.build_grid"), "s"),
        "quadrature.build_grid.repeat_frac": m(
            _repeat_frac(grids, by_id, "critical_temperature.ratio_curve"), "frac"),
        "bs_operator.assemble.calls": m(len(named.get("bs_operator.assemble", ())), "count"),
        "bs_operator.assemble.self_s": m(total_self("bs_operator.assemble"), "s"),
        "bs_operator.assemble.repeat_frac": m(
            _repeat_frac(ops, by_id, "critical_temperature.ratio_curve"), "frac"),
        "bs_operator.top_eigenpair.calls": m(
            len(named.get("bs_operator.top_eigenpair", ())), "count"),
        "bs_operator.top_eigenpair.self_s": m(total_self("bs_operator.top_eigenpair"), "s"),
        "bs_operator.order_mean": m(float(np.mean(orders)) if orders else 0.0, "n"),
        # computed from matrix orders, not measured traffic
        "bs_operator.matrix_mb": m(sum(8.0 * n * n for n in orders) / 1e6, "MB"),
        "kernels.eval_B.calls": m(len(named.get("kernels.eval_B", ())), "count"),
        "kernels.eval_B.elements": m(info_sum("kernels.eval_B", "elements"), "count"),
        "kernels.eval_B.self_s": m(total_self("kernels.eval_B"), "s"),
        "kernels.eval_a.calls": m(len(named.get("kernels.eval_a", ())), "count"),
        "kernels.eval_a.self_s": m(total_self("kernels.eval_a"), "s"),
        "critical_temperature.tc_bulk.calls": m(
            len(named.get("critical_temperature.tc_bulk", ())), "count"),
        "critical_temperature.tc_bulk.evaluations": m(
            info_sum("critical_temperature.tc_bulk", "evaluations"), "count"),
        "critical_temperature.tc_boundary.evaluations": m(
            info_sum("critical_temperature.tc_boundary", "evaluations"), "count"),
        "critical_temperature.solves_per_row": m(len(solves) / rows if rows else 0.0,
                                                 "count"),
        "critical_temperature.errors": m(
            len(errors) + info_sum("critical_temperature.ratio_curve", "row_errors"),
            "count"),
        "cli.main.self_s": m(total_self("cli.main"), "s"),
        "cli.pool_busy_frac": m(float(np.mean(busy)) if busy else 0.0, "frac"),
        "lemma_suite.check.samples": m(sum(s.info.get("samples", 0) for s in checks
                                           if s.error is None), "count"),
        "lemma_suite.check.self_s": m(sum(self_s[s.id] for s in checks), "s"),
        "variational.trial_gap.calls": m(len(named.get("variational.trial_gap", ())),
                                         "count"),
        "variational.trial_gap.self_s": m(total_self("variational.trial_gap"), "s"),
    }
