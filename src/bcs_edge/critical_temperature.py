"""Critical-temperature solvers and ratio-curve sweeps.

The bulk temperature solves a_{T,mu} = 1/v (the essential-spectrum edge
crosses the coupling threshold); the half-line temperature solves the
same equation for the top eigenvalue of the discretized boundary
operator.  Both functions are strictly decreasing in T, and both are
solved by one search in log T, _root_decreasing.  It starts from one
point (the weak-coupling closed form for the bulk, tc_bulk for the half
line) and steps toward the sign change, predicted from the closed-form
slope of the essential edge there and then from secants; once both
signs are seen it runs Illinois regula falsi, safeguarded so that every
trial point stays inside the bracket and a plain bisection step is taken
whenever the bracket stops halving.  The monotonicity is monitored
rather than trusted: a value that lies outside the values at the known
ends, or is not finite, raises BracketFailure instead of returning a
plausible wrong root.  A half-line root find solves on one grid, the
one its bulk root find built at tc_bulk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bs_operator import EIGEN_TOL, BoundaryCondition, _top_value, assemble
from .errors import BracketFailure, NumericsError, ToleranceUnreachable
from .kernels import EULER_GAMMA, ModelParams, _edge_log_slope, eval_a
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

# Largest relative first step of the bracketing; the limit doubles with
# every step that leaves the sign unchanged.  Boundary shifts are O(10%)
# at most and the weak-coupling seed is within about 1% of tc_bulk for
# v <= 0.9, so one or two steps usually suffice.
BRACKET_STEP = 0.5

_MAX_STEPS = 200


def _grid_tol(tol: float) -> float:
    """Grid tolerance for solver tolerance tol: quadrature must sit well
    below the equation residual target.  ValueError unless tol is positive
    and finite."""
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
    decides refinement depth) divided by the closed-form slope of
    a_{T,mu} in T at tc_bulk on the row's grid.  On converged grids the
    probe reads its own resolution, the spacing of its sums, so t_noise
    is about 7e-16 tc_bulk (1.7e-17 at v=0.6, mu=1, tol 1e-4), while the
    top eigenvalue moves when the grid is refined, so t_noise bounds no
    error of either temperature.  The two evaluation counts are the
    solves each root find took, bracketing included.  grid_nodes counts
    the nodes of the grid at tc_bulk that every boundary solve used and
    matrix_nodes the cut matrix order there.  A failed row leaves every
    result field at its default: NaN, and 0 for the counts.
    """

    v: float
    mu: float
    bc: BoundaryCondition
    tc_bulk: float = np.nan
    tc_boundary: float = np.nan
    relative_shift: float = np.nan
    gap_at_tc_bulk: float = np.nan
    grid_nodes: int = 0
    t_noise: float = np.nan
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


def _finite(label, T, at):
    """at = h(T) = (value, record); BracketFailure unless value is finite."""
    if not np.isfinite(at[0]):
        raise BracketFailure(f"{label}: h({T:.6g}) = {at[0]} is not finite")
    return at


def _root_decreasing(h, points, slope, tol, label):
    """Root of a strictly decreasing h by a safeguarded search in x = log T.

    h(T) returns (value, record); points lists (T, h(T)) pairs the caller
    has evaluated.  They seed the ends lo (value > 0) and hi (value <= 0),
    either of which may be missing.  While one is, each step goes from the
    other toward the sign change by |value| / -slope + tol/2, so an
    accurate slope lands just past the root, and at most a cap, which is
    also the step taken where slope >= 0.  The cap starts at
    c = log(1 + BRACKET_STEP) and doubles after every step that leaves
    the sign unchanged, so a root d away is passed within log2(1 + d/c)
    steps.  slope is dh/dx at the seed, then the secant of the last two values.

    Once both ends exist, each trial point is their secant root, with the
    Illinois rule (Dowell & Jarratt 1971): the end kept twice in a row
    enters the secant with its value halved, so neither end can stall.
    Every trial point sits at least tol/2 inside the bracket (near the
    root this steps across it), and the next step is a plain bisection
    when the secant would be held there a second step in a row or when
    the bracket has not at least halved over three steps, so the worst
    case stays within four times the bisection count.

    A non-finite value, a value more than the slack outside the values
    at the known ends (monotonicity failed at quadrature level) and a
    step to a T outside (0, inf) raise BracketFailure; _MAX_STEPS calls
    of h raise it while an end is missing, ToleranceUnreachable after.
    Stops when hi - lo <= tol * lo and the better end has |value| <=
    tol; returns (tc, residual, bracket, calls of h, record) for it.
    """
    slack, cap = max(tol, 1e-12), np.log1p(BRACKET_STEP)
    lo = hi = rec_lo = rec_hi = None
    h_lo, h_hi = np.inf, -np.inf  # a missing end bounds no value
    for T, at in points:
        h_T, rec = _finite(label, T, at)
        if h_T > 0.0 and (lo is None or T > lo):
            lo, h_lo, rec_lo = T, h_T, rec
        elif h_T <= 0.0 and (hi is None or T < hi):
            hi, h_hi, rec_hi = T, h_T, rec
    s_lo, s_hi = h_lo, h_hi  # secant values, halved by the Illinois rule
    kept = 0  # +1: the last step kept hi, -1: it kept lo
    pinned = False  # the last step was a secant held pad inside an end
    widths, evals = [], 0  # log-bracket width before each bracketed step
    while True:
        bracketed = lo is not None and hi is not None
        if bracketed and hi - lo <= tol * lo and min(abs(h_lo), abs(h_hi)) <= tol:
            break
        if evals == _MAX_STEPS:
            error = ToleranceUnreachable if bracketed else BracketFailure
            raise error(f"{label}: no root in {evals} steps, bracket ({lo}, {hi})")
        if bracketed:
            x_lo, x_hi = np.log(lo), np.log(hi)
            width = x_hi - x_lo
            pad = min(0.5 * tol, 0.25 * width)
            x = x_lo + width * s_lo / (s_lo - s_hi)
            x_in = min(max(x, x_lo + pad), x_hi - pad)
            if (len(widths) >= 3 and width > 0.5 * widths[-3]) or (pinned and x_in != x):
                T, pinned = np.sqrt(lo * hi), False
            else:
                T, pinned = np.exp(x_in), x_in != x
            widths.append(width)
        else:
            sign, T_end, h_end = (1.0, lo, h_lo) if hi is None else (-1.0, hi, h_hi)
            dx = min(abs(h_end) / -slope + 0.5 * tol, cap) if slope < 0.0 else cap
            with np.errstate(over="ignore"):
                T = T_end * np.exp(sign * dx)
            if not 0.0 < T < np.inf:
                raise BracketFailure(f"{label}: no sign change past T={T_end:.6g}")
        h_T, rec = _finite(label, T, h(T))
        evals += 1
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
        if not bracketed:  # the Illinois rule starts with the bracket
            slope, cap, kept = (h_T - h_end) / (sign * dx), 2.0 * cap, 0
    bracket = (float(lo), float(hi))
    if abs(h_lo) <= abs(h_hi):
        return lo, h_lo, bracket, evals, rec_lo
    return hi, h_hi, bracket, evals, rec_hi


def tc_bulk_asymptotic(v: float, mu: float) -> float:
    """Weak-coupling closed form mu * (8 e^gamma / pi) * exp(-pi sqrt(mu)/v)."""
    if not (v > 0 and mu > 0 and np.isfinite(v) and np.isfinite(mu)):
        raise ValueError(f"v and mu must be positive and finite, got v={v}, mu={mu}")
    return mu * (8.0 * np.exp(EULER_GAMMA) / np.pi) * np.exp(-np.pi * np.sqrt(mu) / v)


def tc_bulk(
    v: float, mu: float, tol: float = TOL_DEFAULT, knobs: GridKnobs = GridKnobs()
) -> TcResult:
    """Solve a_{T,mu} = 1/v for T by safeguarded regula falsi in log T.

    a is strictly decreasing in T, so the root is unique.  The bracket
    is closed by steps from the weak-coupling closed form, predicted
    from the closed-form slope of a there and then from secants; strong
    couplings, where the closed form is far off, take longer steps.
    Every grid is built with knobs.
    """
    return _tc_bulk(v, mu, tol, knobs)[0]


def _tc_bulk(v, mu, tol, knobs):
    """tc_bulk's root find: (TcResult, the grid it built at tc), so that a
    boundary search at tc_bulk can solve on that grid."""
    seed = tc_bulk_asymptotic(v, mu)
    gtol = _grid_tol(tol)
    target = 1.0 / v

    def h(T):
        params = ModelParams(T=T, mu=mu)
        grid = build_grid(params, gtol, knobs)
        return eval_a(params, grid) - target, grid

    at_seed = h(seed)
    slope = _edge_log_slope(ModelParams(T=seed, mu=mu), at_seed[1])
    tc, resid, bracket, evals, grid = _root_decreasing(
        h, [(seed, at_seed)], slope, tol, "tc_bulk"
    )
    result = TcResult(
        tc=float(tc),
        residual=float(resid),
        bracket=bracket,
        evaluations=1 + evals,
        numerics={"grid_tol": gtol, "eigen_tol": None, "grid_nodes": grid.n},
    )
    return result, grid


class _Solve(NamedTuple):
    """One half-line operator solve: the top eigenvalue's gap to the
    essential edge a_edge, the grid it was solved on, the order of the
    cut matrix and the cut's eigenvalue bound."""

    gap: float
    grid: MomentumGrid
    matrix_nodes: int
    cut_bound: float


def tc_boundary(
    v: float,
    mu: float,
    bc: BoundaryCondition,
    tol: float = TOL_DEFAULT,
    knobs: GridKnobs = GridKnobs(),
) -> TcResult:
    """Solve sup spectrum of the half-line operator = 1/v for T.

    Since the half-line temperature is never below the bulk one, the
    bracket starts at tc_bulk and steps upward until the sign changes.
    If the operator already sits at or below 1/v there (no bound state
    at this discretization), the bulk temperature is returned with the
    measured residual: the enhancement is zero at this tolerance.
    """
    bulk, grid = _tc_bulk(v, mu, tol, knobs)
    return _tc_boundary_above(bulk, grid, v, mu, bc, tol)[0]


def _tc_boundary_above(bulk, grid, v, mu, bc, tol):
    """tc_boundary from a solved bulk TcResult and the grid its root find
    built at bulk.tc.  Every T is solved for the top eigenvalue on that
    one grid, built at the lowest T, so the finest (grading scales with
    T); assemble certifies it at each T, and the grid lays out A(p)'s
    sub-meshes once.  Returns (TcResult, _Solve at bulk.tc), whose gap is
    spectral_gap(assemble(...)) there."""
    gtol = _grid_tol(tol)

    def g(T):
        op = assemble(ModelParams(T=T, mu=mu), grid, bc)
        value = _top_value(op)
        return value - 1.0 / v, _Solve(value - op.a_edge, op.grid, op.n, op.cut_bound)

    at_lo = g(bulk.tc)
    g_lo, at_bulk = at_lo
    if g_lo <= 0.0:
        tc, resid, bracket, steps, solve = bulk.tc, g_lo, bulk.bracket, 0, at_bulk
    else:
        slope = _edge_log_slope(ModelParams(T=bulk.tc, mu=mu), at_bulk.grid)
        tc, resid, bracket, steps, solve = _root_decreasing(
            g, [(bulk.tc, at_lo)], slope, tol, "tc_boundary"
        )
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
    """Coupling at which T is the half-line critical temperature: 1 / the
    supremum of the half-line spectrum, max(top eigenvalue, a_edge)."""
    params = ModelParams(T=T, mu=mu)
    op = assemble(params, build_grid(params, _grid_tol(tol), knobs), bc)
    return 1.0 / max(_top_value(op), op.a_edge)


def _row(v, mu, bc, tol, knobs) -> RatioRow:
    bulk, grid = _tc_bulk(v, mu, tol, knobs)
    bound, at_bulk = _tc_boundary_above(bulk, grid, v, mu, bc, tol)
    # the slope of a_{T,mu} in T turns the probe into a T-units noise floor
    slope = abs(_edge_log_slope(ModelParams(T=bulk.tc, mu=mu), grid)) / bulk.tc
    t_noise = grid.self_convergence / slope if slope > 0 else np.inf
    return RatioRow(
        v=v,
        mu=mu,
        bc=bc,
        tc_bulk=bulk.tc,
        tc_boundary=bound.tc,
        relative_shift=(bound.tc - bulk.tc) / bulk.tc,
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
    if vs != sorted(vs) or not all(v > 0 and np.isfinite(v) for v in vs):
        raise ValueError("v_values must be positive, finite and sorted ascending")
    rows = []
    for v in vs:
        try:
            rows.append(_row(v, mu, bc, tol, knobs))
        except NumericsError as err:
            logger.warning("ratio_curve row v=%g failed: %s", v, err)
            rows.append(RatioRow(v=v, mu=mu, bc=bc, error=str(err)))
    return RatioCurve(rows=tuple(rows), tol=tol)
