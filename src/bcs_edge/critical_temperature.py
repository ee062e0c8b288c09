"""Critical-temperature solvers and ratio-curve sweeps.

The bulk temperature solves a_{T,mu} = 1/v (the essential-spectrum edge
crosses the coupling threshold); the half-line temperature solves the
same equation for the top eigenvalue of the discretized boundary
operator.  Both functions are strictly decreasing in T, and both are
solved by Illinois regula falsi in log T, safeguarded so that every
trial point stays inside the bracket and a plain bisection step is
taken whenever the bracket stops halving.  The monotonicity is
monitored rather than trusted: a value that escapes the bracketing
values raises BracketFailure instead of returning a plausible wrong
root.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bs_operator import EIGEN_TOL, BoundaryCondition, assemble, top_eigenpair
from .errors import BracketFailure, NumericsError, ToleranceUnreachable
from .kernels import EULER_GAMMA, ModelParams, eval_a
from .quadrature import GridKnobs, MomentumGrid, build_grid

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

_MAX_STEPS = 200


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

    t_noise is the grid's self-convergence (the B(0,.) probe that
    decides refinement depth) divided by the local slope of a_{T,mu} in
    T at tc_bulk.  The probe reads near 0 on converged grids (t_noise
    1.7e-17 at v=0.6, mu=1, tol 1e-4), while the top eigenvalue moves
    when the grid is refined, so t_noise bounds no error of either
    temperature.  The two evaluation counts are the solves each root
    find took, bracketing included.  grid_nodes counts the nodes of the
    grid built at tc_bulk and matrix_nodes the order of the cut operator
    matrix solved on it (both 0 in a failed row).
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
    tc_bulk_evaluations: int = 0
    tc_boundary_evaluations: int = 0
    matrix_nodes: int = 0


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


def _root_decreasing(h, lo, hi, at_lo, at_hi, tol, label):
    """Root of a strictly decreasing h by safeguarded regula falsi in log T.

    h(T) returns (value, record); at_lo and at_hi are its results at the
    bracket ends and must satisfy value(lo) > 0 > value(hi).  Each trial
    point is the secant root in x = log T of the bracket ends, with the
    Illinois rule (Dowell & Jarratt 1971): the end kept twice in a row
    enters the secant with its value halved, so neither end can stall.
    Two safeguards bound the cost: every trial point sits at least tol/2
    inside the bracket (near the root this steps across it, which
    closes the bracket), and whenever the bracket has not at least
    halved over two steps the next step is a plain bisection, so the
    worst case stays within three times the bisection count.

    Every value is checked against the bracketing values; an
    out-of-order value means the monotonicity assumption failed at
    quadrature level, which is a BracketFailure, not a root.  Stops when
    hi - lo <= tol * lo and the better end has |value| <= tol, and
    returns (tc, residual, bracket, evaluations, record) for that end.
    """
    (h_lo, rec_lo), (h_hi, rec_hi) = at_lo, at_hi
    if not (h_lo > 0.0 > h_hi):
        raise BracketFailure(
            f"{label}: not bracketed, h({lo:.6g})={h_lo:.3e}, "
            f"h({hi:.6g})={h_hi:.3e}"
        )
    slack = max(tol, 1e-12)
    s_lo, s_hi = h_lo, h_hi  # secant values, halved by the Illinois rule
    kept = 0  # +1: the last step kept hi, -1: it kept lo
    widths = []  # log-bracket width before each step, one per evaluation
    while not (hi - lo <= tol * lo and min(abs(h_lo), abs(h_hi)) <= tol):
        if len(widths) == _MAX_STEPS:
            raise ToleranceUnreachable(
                f"{label}: no convergence in {_MAX_STEPS} steps"
            )
        x_lo, x_hi = np.log(lo), np.log(hi)
        width = x_hi - x_lo
        if len(widths) >= 2 and width > 0.5 * widths[-2]:
            T = np.sqrt(lo * hi)
        else:
            pad = min(0.5 * tol, 0.25 * width)
            x = x_lo + width * s_lo / (s_lo - s_hi)
            T = np.exp(min(max(x, x_lo + pad), x_hi - pad))
        widths.append(width)
        h_T, rec = h(T)
        logger.debug("%s: T=%.9e h=%+.3e", label, T, h_T)
        if h_T > h_lo + slack or h_T < h_hi - slack:
            raise BracketFailure(
                f"{label}: h({T:.6g})={h_T:.3e} escapes "
                f"[{h_hi:.3e}, {h_lo:.3e}]; not monotone at this tolerance"
            )
        if h_T > 0.0:
            if kept == 1:
                s_hi *= 0.5
            lo, h_lo, rec_lo, s_lo, kept = T, h_T, rec, h_T, 1
        else:
            if kept == -1:
                s_lo *= 0.5
            hi, h_hi, rec_hi, s_hi, kept = T, h_T, rec, h_T, -1
    if abs(h_lo) <= abs(h_hi):
        return lo, h_lo, (lo, hi), len(widths), rec_lo
    return hi, h_hi, (lo, hi), len(widths), rec_hi


def tc_bulk_asymptotic(v: float, mu: float) -> float:
    """Weak-coupling closed form mu * (8 e^gamma / pi) * exp(-pi sqrt(mu)/v)."""
    if not (v > 0 and mu > 0):
        raise ValueError(f"v and mu must be positive, got v={v}, mu={mu}")
    return mu * (8.0 * np.exp(EULER_GAMMA) / np.pi) * np.exp(-np.pi * np.sqrt(mu) / v)


def tc_bulk(
    v: float, mu: float, tol: float = TOL_DEFAULT, knobs: GridKnobs = GridKnobs()
) -> TcResult:
    """Solve a_{T,mu} = 1/v for T by safeguarded regula falsi in log T.

    a is strictly decreasing in T, so the root is unique.  The initial
    bracket is the weak-coupling closed form widened by a factor of 10
    each way, then expanded decade by decade if the coupling is strong
    enough to escape it.  Every grid is built with knobs.
    """
    if not (v > 0 and mu > 0):
        raise ValueError(f"v and mu must be positive, got v={v}, mu={mu}")
    gtol = _grid_tol(tol)
    target = 1.0 / v

    def h(T):
        params = ModelParams(T=T, mu=mu)
        grid = build_grid(params, gtol, knobs)
        return eval_a(params, grid) - target, grid.n

    seed = tc_bulk_asymptotic(v, mu)
    lo, hi = seed / 10.0, seed * 10.0
    at_lo, at_hi = h(lo), h(hi)
    expansions = 0
    for _ in range(40):
        if at_lo[0] > 0.0:
            break
        hi, at_hi = lo, at_lo
        lo /= 10.0
        at_lo = h(lo)
        expansions += 1
    for _ in range(40):
        if at_hi[0] < 0.0:
            break
        lo, at_lo = hi, at_hi
        hi *= 10.0
        at_hi = h(hi)
        expansions += 1

    tc, resid, bracket, evals, n = _root_decreasing(
        h, lo, hi, at_lo, at_hi, tol, "tc_bulk"
    )
    return TcResult(
        tc=float(tc),
        residual=float(resid),
        bracket=bracket,
        evaluations=2 + expansions + evals,
        numerics={"grid_tol": gtol, "eigen_tol": None, "grid_nodes": n},
    )


class _Solve(NamedTuple):
    """One half-line operator solve: top eigenvalue, its gap to the
    essential edge a_edge, the grid it was solved on, the order of the
    cut matrix and the cut's eigenvalue bound."""

    value: float
    gap: float
    grid: MomentumGrid
    matrix_nodes: int
    cut_bound: float


def _sup_boundary(T, mu, bc, gtol, knobs) -> _Solve:
    params = ModelParams(T=T, mu=mu)
    op = assemble(params, build_grid(params, gtol, knobs), bc)
    value, _ = top_eigenpair(op)
    return _Solve(value, value - op.a_edge, op.grid, op.n, op.cut_bound)


def tc_boundary(
    v: float,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
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
    return _tc_boundary_above(bulk, v, mu, bc, tol, knobs)[0]


def _tc_boundary_above(bulk, v, mu, bc, tol, knobs):
    """tc_boundary from a solved bulk TcResult.

    Returns (TcResult, _Solve at bulk.tc); the solve at the bulk
    temperature is the bracket's lower end, so its gap is
    spectral_gap(assemble(...)) there at no extra cost.
    """
    gtol = _grid_tol(tol)
    target = 1.0 / v

    def g(T):
        solve = _sup_boundary(T, mu, bc, gtol, knobs)
        return solve.value - target, solve

    lo = bulk.tc
    at_lo = g(lo)
    g_lo, at_bulk = at_lo
    if g_lo <= 0.0:
        tc, resid, bracket, steps, solve = lo, g_lo, bulk.bracket, 0, at_bulk
    else:
        hi, at_hi = lo, at_lo
        expansions = 0
        while at_hi[0] > 0.0:
            hi *= 1.0 + BRACKET_STEP
            if hi > BRACKET_CAP * bulk.tc:
                raise BracketFailure(
                    f"tc_boundary: no sign change below {BRACKET_CAP} * tc_bulk "
                    f"(v={v}, mu={mu}, bc={bc.value})"
                )
            at_hi = g(hi)
            expansions += 1
        tc, resid, bracket, steps, solve = _root_decreasing(
            g, lo, hi, at_lo, at_hi, tol, "tc_boundary"
        )
        steps += expansions
    result = TcResult(
        tc=float(tc),
        residual=float(resid),
        bracket=bracket,
        evaluations=1 + steps,
        numerics={
            "grid_tol": gtol,
            "eigen_tol": EIGEN_TOL,
            "bulk_evaluations": bulk.evaluations,
            "grid_nodes": solve.grid.n,
            "matrix_nodes": solve.matrix_nodes,
            "cut_bound": solve.cut_bound,
        },
    )
    return result, at_bulk


def v_of_T(
    T: float,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
    knobs: GridKnobs = GridKnobs(),
) -> float:
    """Coupling at which T is the half-line critical temperature."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    return 1.0 / _sup_boundary(T, mu, bc, _grid_tol(tol), knobs).value


def _row(v, mu, bc, tol, knobs) -> RatioRow:
    bulk = tc_bulk(v, mu, tol, knobs)
    bound, at_bulk = _tc_boundary_above(bulk, v, mu, bc, tol, knobs)
    shift = (bound.tc - bulk.tc) / bulk.tc
    grid = at_bulk.grid

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
        gap_at_tc_bulk=at_bulk.gap,
        grid_nodes=grid.n,
        t_noise=t_noise,
        tc_bulk_evaluations=bulk.evaluations,
        tc_boundary_evaluations=bound.evaluations,
        matrix_nodes=at_bulk.matrix_nodes,
    )


def ratio_curve(
    v_values,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
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
            rows.append(_row(v, mu, bc, tol, knobs))
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
