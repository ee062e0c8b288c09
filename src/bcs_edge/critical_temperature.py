"""Critical-temperature solvers and ratio-curve sweeps.

The bulk temperature solves a_{T,mu} = 1/v (the essential-spectrum edge
crosses the coupling threshold); the half-line temperature solves the
same equation for the top eigenvalue of the discretized boundary
operator.  Both use bisection in log T against strictly decreasing
functions of T, with the monotonicity assumption monitored rather than
trusted: a violated sign pattern raises BracketFailure instead of
returning a plausible wrong root.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bs_operator import (
    BoundaryCondition,
    assemble,
    spectral_gap,
    top_eigenpair,
)
from .errors import BracketFailure, NumericsError, ToleranceUnreachable
from .kernels import EULER_GAMMA, ModelParams, eval_a
from .quadrature import GridKnobs, build_grid

__all__ = [
    "TcResult",
    "RatioRow",
    "RatioCurve",
    "tc_bulk",
    "tc_bulk_asymptotic",
    "tc_boundary",
    "v_of_T",
    "ratio_curve",
]

logger = logging.getLogger(__name__)

# Solver default: relative 1e-6 on T and the same bound on the equation
# residual; well above double-precision noise amplified by the eigensolve.
TOL_DEFAULT = 1e-6

# Bracket expansion step and cap for tc_boundary (shifts are O(10%) at
# most, so one or two expansions suffice; the cap catches divergence).
BRACKET_STEP = 0.5
BRACKET_CAP = 2.0**10

_MAX_BISECT = 200


def _grid_tol(tol: float) -> float:
    # quadrature must sit well below the equation residual target
    return max(min(0.01 * tol, 1e-8), 1e-12)


@dataclass(frozen=True)
class TcResult:
    """One solved critical temperature with its convergence record."""

    tc: float
    residual: float
    bracket: tuple
    evaluations: int
    numerics: dict

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.tc <= hi:
            raise ValueError(f"tc {self.tc} outside bracket {self.bracket}")


@dataclass(frozen=True)
class RatioRow:
    """One sweep point; `error` holds the failure text when a solver died.

    t_noise estimates the T-units uncertainty floor of both temperatures
    (grid self-convergence divided by the local slope of the solved
    equation), so shift significance can be judged against it.
    """

    v: float
    mu: float
    bc: BoundaryCondition
    tc_bulk: float
    tc_boundary: float
    relative_shift: float
    gap_at_tc_bulk: float
    grid_nodes: int
    t_noise: float
    error: str | None = None


@dataclass(frozen=True)
class RatioCurve:
    """Rows of a v-sweep at fixed (mu, bc), sorted by v."""

    rows: tuple
    tol: float = TOL_DEFAULT

    def __post_init__(self):
        vs = [r.v for r in self.rows]
        if vs != sorted(vs):
            raise ValueError("rows must be sorted by v")
        for r in self.rows:
            if r.error is None and not r.relative_shift >= -self.tol:
                raise ValueError(
                    f"relative shift {r.relative_shift} < -tol at v={r.v}"
                )


def _bisect_decreasing(h, lo, hi, h_lo, h_hi, tol, rel, label):
    """Root of a strictly decreasing h via bisection in log T.

    Requires h(lo) > 0 > h(hi) on entry.  Every midpoint value is
    checked against the bracketing values; an out-of-order value means
    the monotonicity assumption failed at quadrature level, which is a
    BracketFailure, not a root.
    """
    if not (h_lo > 0.0 > h_hi):
        raise BracketFailure(
            f"{label}: not bracketed, h({lo:.6g})={h_lo:.3e}, "
            f"h({hi:.6g})={h_hi:.3e}"
        )
    evals = 0
    slack = max(tol, 1e-12)
    mid, h_mid = lo, h_lo
    for _ in range(_MAX_BISECT):
        if hi - lo <= rel * lo and abs(h_mid) <= tol:
            break
        mid = np.sqrt(lo * hi)
        h_mid = h(mid)
        evals += 1
        logger.debug("%s: T=%.9e h=%+.3e", label, mid, h_mid)
        if h_mid > h_lo + slack or h_mid < h_hi - slack:
            raise BracketFailure(
                f"{label}: h({mid:.6g})={h_mid:.3e} escapes "
                f"[{h_hi:.3e}, {h_lo:.3e}]; not monotone at this tolerance"
            )
        if h_mid > 0.0:
            lo, h_lo = mid, h_mid
        else:
            hi, h_hi = mid, h_mid
    else:
        raise ToleranceUnreachable(
            f"{label}: no convergence in {_MAX_BISECT} bisection steps"
        )
    return mid, h_mid, (lo, hi), evals


def tc_bulk_asymptotic(v: float, mu: float) -> float:
    """Weak-coupling closed form mu * (8 e^gamma / pi) * exp(-pi sqrt(mu)/v)."""
    if not (v > 0 and mu > 0):
        raise ValueError(f"v and mu must be positive, got v={v}, mu={mu}")
    return mu * (8.0 * np.exp(EULER_GAMMA) / np.pi) * np.exp(-np.pi * np.sqrt(mu) / v)


def tc_bulk(
    v: float, mu: float, tol: float = TOL_DEFAULT, knobs: GridKnobs = GridKnobs()
) -> TcResult:
    """Solve a_{T,mu} = 1/v for T by bisection.

    a is strictly decreasing in T, so the root is unique.  The initial
    bracket is the weak-coupling closed form widened by a factor of 10
    each way, then expanded decade by decade if the coupling is strong
    enough to escape it.  Every grid is built with knobs.
    """
    if not (v > 0 and mu > 0):
        raise ValueError(f"v and mu must be positive, got v={v}, mu={mu}")
    gtol = _grid_tol(tol)
    target = 1.0 / v
    state = {"evals": 0, "n": 0}

    def h(T):
        params = ModelParams(T=T, mu=mu)
        grid = build_grid(params, gtol, knobs)
        state["evals"] += 1
        state["n"] = grid.n
        return eval_a(params, grid) - target

    seed = tc_bulk_asymptotic(v, mu)
    lo, hi = seed / 10.0, seed * 10.0
    h_lo, h_hi = h(lo), h(hi)
    for _ in range(40):
        if h_lo > 0.0:
            break
        hi, h_hi = lo, h_lo
        lo /= 10.0
        h_lo = h(lo)
    for _ in range(40):
        if h_hi < 0.0:
            break
        lo, h_lo = hi, h_hi
        hi *= 10.0
        h_hi = h(hi)

    tc, resid, bracket, evals = _bisect_decreasing(
        h, lo, hi, h_lo, h_hi, tol, tol, "tc_bulk"
    )
    return TcResult(
        tc=float(tc),
        residual=float(resid),
        bracket=bracket,
        evaluations=state["evals"],
        numerics={"grid_tol": gtol, "eigen_tol": None, "grid_nodes": state["n"]},
    )


def _sup_boundary(T, mu, bc, gtol, eigen_tol, knobs):
    """(top eigenvalue, grid order) of the half-line operator at T."""
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, gtol, knobs)
    value, _ = top_eigenpair(assemble(params, grid, bc), eigen_tol)
    return value, grid.n


def tc_boundary(
    v: float,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
    eigen_tol: float = 1e-10,
    knobs: GridKnobs = GridKnobs(),
) -> TcResult:
    """Solve sup spectrum of the half-line operator = 1/v for T.

    Since the half-line temperature is never below the bulk one, the
    bracket starts at tc_bulk and expands upward until the sign changes.
    If the operator already sits at or below 1/v there (no bound state
    at this discretization), the bulk temperature is returned with the
    measured residual: the enhancement is zero at this tolerance.
    """
    bulk = tc_bulk(v, mu, tol, knobs)
    gtol = _grid_tol(tol)
    target = 1.0 / v
    state = {"evals": 0, "n": 0}

    def g(T):
        state["evals"] += 1
        value, state["n"] = _sup_boundary(T, mu, bc, gtol, eigen_tol, knobs)
        return value - target

    numerics = {
        "grid_tol": gtol,
        "eigen_tol": eigen_tol,
        "bulk_evaluations": bulk.evaluations,
    }
    lo = bulk.tc
    g_lo = g(lo)
    if g_lo <= 0.0:
        numerics["grid_nodes"] = state["n"]
        return TcResult(
            tc=bulk.tc,
            residual=float(g_lo),
            bracket=bulk.bracket,
            evaluations=state["evals"],
            numerics=numerics,
        )
    hi, g_hi = lo, g_lo
    while g_hi > 0.0:
        hi *= 1.0 + BRACKET_STEP
        if hi > BRACKET_CAP * bulk.tc:
            raise BracketFailure(
                f"tc_boundary: no sign change below {BRACKET_CAP} * tc_bulk "
                f"(v={v}, mu={mu}, bc={bc.value})"
            )
        g_hi = g(hi)

    tc, resid, bracket, evals = _bisect_decreasing(
        g, lo, hi, g_lo, g_hi, tol, tol, "tc_boundary"
    )
    numerics["grid_nodes"] = state["n"]
    return TcResult(
        tc=float(tc),
        residual=float(resid),
        bracket=bracket,
        evaluations=state["evals"],
        numerics=numerics,
    )


def v_of_T(
    T: float,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
    eigen_tol: float = 1e-10,
    knobs: GridKnobs = GridKnobs(),
) -> float:
    """Coupling at which T is the half-line critical temperature."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    value, _ = _sup_boundary(T, mu, bc, _grid_tol(tol), eigen_tol, knobs)
    return 1.0 / value


def _row(v, mu, bc, tol, eigen_tol, knobs) -> RatioRow:
    bulk = tc_bulk(v, mu, tol, knobs)
    bound = tc_boundary(v, mu, bc, tol, eigen_tol, knobs)
    shift = (bound.tc - bulk.tc) / bulk.tc

    params = ModelParams(T=bulk.tc, mu=mu)
    grid = build_grid(params, _grid_tol(tol), knobs)
    op = assemble(params, grid, bc)
    gap = spectral_gap(op, eigen_tol)

    # slope of a_{T,mu} in T near the root converts the quadrature
    # self-convergence into a T-units noise floor
    dT = 0.05 * bulk.tc
    a_hi = eval_a(
        ModelParams(T=bulk.tc + dT, mu=mu),
        build_grid(ModelParams(T=bulk.tc + dT, mu=mu), _grid_tol(tol), knobs),
    )
    a_lo = eval_a(
        ModelParams(T=bulk.tc - dT, mu=mu),
        build_grid(ModelParams(T=bulk.tc - dT, mu=mu), _grid_tol(tol), knobs),
    )
    slope = abs(a_hi - a_lo) / (2.0 * dT)
    t_noise = grid.self_convergence / slope if slope > 0 else np.inf

    return RatioRow(
        v=v,
        mu=mu,
        bc=bc,
        tc_bulk=bulk.tc,
        tc_boundary=bound.tc,
        relative_shift=shift,
        gap_at_tc_bulk=gap,
        grid_nodes=grid.n,
        t_noise=t_noise,
    )


def ratio_curve(
    v_values,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
    eigen_tol: float = 1e-10,
    knobs: GridKnobs = GridKnobs(),
) -> RatioCurve:
    """Independent per-v solves; failures are recorded in-row.

    A failed row keeps its place with NaN numbers and the error text, so
    one bad point cannot hide the rest of the sweep.
    """
    vs = [float(v) for v in v_values]
    if vs != sorted(vs) or not all(v > 0 for v in vs):
        raise ValueError("v_values must be positive and sorted ascending")
    rows = []
    for v in vs:
        try:
            rows.append(_row(v, mu, bc, tol, eigen_tol, knobs))
        except NumericsError as err:
            logger.warning("ratio_curve row v=%g failed: %s", v, err)
            rows.append(
                RatioRow(
                    v=v,
                    mu=mu,
                    bc=bc,
                    tc_bulk=np.nan,
                    tc_boundary=np.nan,
                    relative_shift=np.nan,
                    gap_at_tc_bulk=np.nan,
                    grid_nodes=0,
                    t_noise=np.nan,
                    error=str(err),
                )
            )
    return RatioCurve(rows=tuple(rows), tol=tol)
