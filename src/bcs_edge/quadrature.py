"""Momentum grids and integration.

Composite Gauss-Legendre panels on [0, Lambda] with geometric grading
toward the kernel crossovers (|q| near 2*sqrt(mu) for B(0,.), sqrt(mu)
for F, and the origin), an analytic tail bound used to certify the
cutoff, and an a-posteriori self-convergence measurement stored on the
grid.  Grids are immutable after construction.

One marcher, _march_edges, lays out the graded panel edges of many
spans in one lock-step numpy pass: build_grid marches its single mesh
on [0, core_cutoff] with it, and the A(p) integrator in bs_operator the
short spans of grid panels around each momentum's two crossovers, each
with its own ends and floor.  _recertify re-takes a grid's probe at a new T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import CutoffTooSmall, RefusedRegime, ToleranceUnreachable
from .kernels import ModelParams, _edge_sum, _require_resolved

__all__ = [
    "GridKnobs",
    "GridPolicy",
    "MomentumGrid",
    "build_grid",
    "tail_bound",
]

# Panel grading: width grows like BETA * (distance to nearest feature),
# i.e. geometric ladders of ratio 1 + BETA on both sides of each
# refinement center.  With 16-point panels this is far inside the
# Bernstein-ellipse convergence region of the tanh crossovers.
BETA = 2.0

# Refuse T/mu below this; double-precision cancellation in the log-scale
# quantities dominates beyond it and no supported use case needs it.
REFUSED_REGIME_RATIO = 1e-8

# Self-convergence probes are differences of O(1) double sums, so they
# cannot certify tolerances near machine epsilon; refuse outright rather
# than return a grid whose estimate is vacuous.
_TOL_FLOOR = 1e-14

_DEPTH_CAP = 8

# Core cutoff, before the certified octaves: cutoff_factor * (2 sqrt(mu) +
# TAIL_K sqrt(max(T, mu, 1))).
TAIL_K = 20.0


@dataclass(frozen=True)
class GridKnobs:
    """The two discretization knobs a caller may choose for its grids.

    Solvers take one record and pass it to every grid they build, so a
    front end fixes the knobs once per run.
    """

    points_per_panel: int = 16
    cutoff_factor: float = 3.0

    def __post_init__(self):
        if self.points_per_panel < 2:
            raise ValueError(
                f"points_per_panel must be at least 2, got {self.points_per_panel}"
            )
        if not self.cutoff_factor > 0:
            raise ValueError(
                f"cutoff_factor must be positive, got {self.cutoff_factor}"
            )


@dataclass(frozen=True)
class GridPolicy:
    """Construction record: the knobs that determine a grid bit-for-bit.

    The class constants are the same for every grid; they are kept on
    the record so that it still names everything the grid depends on.
    """

    T: float
    mu: float
    tol: float
    points_per_panel: int = 16
    cutoff_factor: float = 3.0
    tail_k: ClassVar[float] = TAIL_K
    extend_tail: ClassVar[bool] = True
    extra_centers: ClassVar[tuple] = ()
    depth: int = 0


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes/weights on (0, Lambda] plus refinement metadata.

    floor is the smallest panel width of the graded core [0,
    core_cutoff]; panels beyond core_cutoff are the octaves that extend
    the cutoff to Lambda.
    """

    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float
    panel_edges: np.ndarray
    refinement_centers: tuple
    policy: GridPolicy
    floor: float
    core_cutoff: float
    self_convergence: float

    @property
    def n(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def _leggauss(k: int):
    # every caller shares the cached arrays, so none may write to them
    xi, wi = np.polynomial.legendre.leggauss(k)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


def _panels_to_grid(edges: np.ndarray, ppp: int):
    """Map reference Gauss-Legendre nodes onto every panel.

    edges may carry a leading axis of independent rows of edges; the
    nodes and weights of all rows then come out concatenated in order.
    """
    xi, wi = _leggauss(ppp)
    lo = edges[..., :-1]
    half = (edges[..., 1:] - lo) / 2.0
    mid = lo + half
    nodes = (mid[..., None] + half[..., None] * xi).ravel()
    weights = (half[..., None] * wi).ravel()
    return nodes, weights


def _march_edges(spans, centers, floor):
    """Panel edges on each row's span [lo, hi], graded toward its centers.

    Widths follow max(floor, min(BETA*d_behind, d_ahead*BETA/(1+BETA)))
    where d_* are distances to the row's refinement centers in [lo, hi),
    so panels approach and leave every center in geometric ladders and
    land on the centers exactly.  spans holds one (lo, hi) per row,
    centers one row of centers per row and floor one floor per row, each
    of the three broadcast over the rows.  All rows march in lock-step,
    each taking the same floating-point steps it would take alone.
    Returns (edges, sizes): row r's edges are edges[r, :sizes[r]], and
    the rest of the row repeats its hi.  A pass that moves no row short
    of hi, which a zero floor allows, raises ToleranceUnreachable.
    """
    alpha = BETA / (1.0 + BETA)
    cs = np.array(centers, dtype=float, ndmin=2)
    m, c = cs.shape
    lo, hi = np.broadcast_to(np.asarray(spans, dtype=float), (m, 2)).T
    floor = np.broadcast_to(np.asarray(floor, dtype=float), (m,))
    inside = (cs >= lo[:, None]) & (cs < hi[:, None])
    cs = np.sort(np.where(inside, cs, np.inf), axis=1)
    # with j centers of row r at or behind q, ladder[base[r] + j] is the
    # last of them and the next entry the first one ahead (-inf and inf
    # stand for none)
    ladder = np.hstack([np.full((m, 1), -np.inf), cs, np.full((m, 1), np.inf)])
    ladder = ladder.ravel()
    base = np.arange(0, m * (c + 2), c + 2)
    q = lo.copy()
    edges = [q]
    for _ in range(200000):
        if np.all(q >= hi):
            break
        at = base + np.count_nonzero(cs <= q[:, None], axis=1)
        ahead = ladder[at + 1]
        d_ahead = ahead - q
        h = np.maximum(floor, np.minimum(BETA * (q - ladder[at]), alpha * d_ahead))
        snap = (ahead < np.inf) & (d_ahead <= np.maximum(h, 1.5 * floor))
        # a row that reached hi has nothing ahead and stays at hi
        step = np.where(snap, ahead, np.minimum(q + h, hi))
        if not np.any(step > q):
            raise ToleranceUnreachable(f"panel marching stalled at {q[q < hi][0]:.6g}")
        q = step
        edges.append(q)
    else:
        raise ToleranceUnreachable("panel marching failed to terminate")
    edges = np.stack(edges, axis=1)
    sizes = 1 + np.count_nonzero(edges[:, :-1] < hi[:, None], axis=1)
    edges[np.arange(m), sizes - 1] = hi
    return edges, sizes


def _probe(params: ModelParams, edges: np.ndarray, ppp: int) -> float:
    """Self-convergence of A(0) on the core panels edges at params: the
    larger move of its sum when points per panel double and when every
    panel is halved."""
    split = np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2.0]))
    rules = ((edges, ppp), (edges, 2 * ppp), (split, ppp))
    j1, j2, j3 = (_edge_sum(params, *_panels_to_grid(e, k)) for e, k in rules)
    return max(abs(j1 - j2), abs(j1 - j3))


def tail_bound(params: ModelParams, cutoff: float) -> float:
    """Analytic upper bound on sup_p integral_{|q|>cutoff} B(p,q) dq.

    Uses B(p,q) <= min(1/(2T), 4/|p^2+q^2-4mu|); the supremum over p of
    the second branch at fixed |q| > 2 sqrt(mu) sits at p = 0, and the
    1/(2T) cap keeps the bound integrable when the cutoff falls below
    2 sqrt(mu).  Closed form, no quadrature.
    """
    mu, T = params.mu, params.T
    if not cutoff > 0 or cutoff * cutoff <= 2.0 * mu:
        raise CutoffTooSmall(
            f"cutoff {cutoff} too small for tail bound (need cutoff^2 > 2*mu)"
        )
    if mu > 0:
        a = 2.0 * np.sqrt(mu)
        qstar = np.sqrt(4.0 * mu + 8.0 * T)
        lam = max(cutoff, qstar)
        flat = (lam - cutoff) / (2.0 * T)
        log_part = (2.0 / a) * np.log((lam + a) / (lam - a))
        return 2.0 * (flat + log_part)
    if mu < 0:
        s = 2.0 * np.sqrt(-mu)
        return (8.0 / s) * (np.pi / 2.0 - np.arctan(cutoff / s))
    return 8.0 / cutoff


def build_grid(
    params: ModelParams,
    tol: float = 1e-8,
    knobs: GridKnobs = GridKnobs(),
) -> MomentumGrid:
    """Build a composite Gauss-Legendre grid on [0, Lambda] for params.

    Lambda starts at knobs.cutoff_factor*(2*sqrt(max(mu,0)) + TAIL_K*
    sqrt(max(T,mu,1))) and grows by octaves until the analytic
    tail_bound certifies a truncation error below tol/2 in the units
    of a = (1/4pi) integral B(0,q) dq.  Panels refine
    geometrically toward 0, sqrt(mu), 2*sqrt(mu) down to the crossover
    width; construction then measures an a-posteriori estimate by
    doubling points per panel and by halving panels, and deepens the
    grading until that estimate is below tol.

    Every panel carries knobs.points_per_panel Gauss-Legendre nodes.

    Raises RefusedRegime for T/mu < 1e-8 and ToleranceUnreachable if the
    depth cap is hit first.
    """
    points_per_panel = knobs.points_per_panel
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if tol < _TOL_FLOOR:
        raise ToleranceUnreachable(
            f"tol {tol:.1e} is below the double-precision certification "
            f"floor {_TOL_FLOOR:.0e}"
        )
    T, mu = params.T, params.mu
    if mu > 0 and T / mu < REFUSED_REGIME_RATIO:
        raise RefusedRegime(
            f"T/mu = {T / mu:.2e} below supported floor {REFUSED_REGIME_RATIO}"
        )

    smu = np.sqrt(mu) if mu > 0 else 0.0
    scale = np.sqrt(max(T, mu))
    base = scale / 2.0
    if mu > 0:
        centers = (0.0, smu, 2.0 * smu)
        floor0 = min(T / smu, base) / 4.0
    else:
        centers = (0.0,)
        floor0 = base / 4.0
    lam0 = knobs.cutoff_factor * (2.0 * smu + TAIL_K * np.sqrt(max(T, mu, 1.0)))

    conv = None
    edges = None
    for depth in range(_DEPTH_CAP):
        floor = floor0 / 2.0**depth
        edges = _march_edges((0.0, lam0), [centers], floor)[0][0]
        conv = _probe(params, edges, points_per_panel)
        if conv <= tol:
            break
    else:
        raise ToleranceUnreachable(
            f"self-convergence {conv:.3e} > tol {tol:.3e} at depth cap"
        )

    cutoff = lam0
    for _ in range(80):
        if tail_bound(params, cutoff) / (4.0 * np.pi) <= tol / 2.0:
            break
        edges = np.append(edges, 2.0 * cutoff)
        cutoff *= 2.0
    else:
        raise ToleranceUnreachable("tail extension failed to certify cutoff")

    nodes, weights = _panels_to_grid(edges, points_per_panel)
    assert abs(weights.sum() - cutoff) <= 1e-12 * cutoff, "weights must sum to Lambda"
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    policy = GridPolicy(
        T=T,
        mu=mu,
        tol=tol,
        points_per_panel=points_per_panel,
        cutoff_factor=knobs.cutoff_factor,
        depth=depth,
    )
    return MomentumGrid(
        nodes=nodes,
        weights=weights,
        cutoff=float(cutoff),
        panel_edges=edges,
        refinement_centers=centers,
        policy=policy,
        floor=float(floor),
        core_cutoff=float(lam0),
        self_convergence=float(conv),
    )


def _recertify(grid: MomentumGrid, params: ModelParams) -> MomentumGrid:
    """grid, sharing its arrays, with its B(0, .) probe re-taken at params.T
    (params.mu is the build's); QuadratureUnderresolved if the probe exceeds
    tol, ToleranceUnreachable if tail_bound no longer certifies the cutoff."""
    core = grid.panel_edges[: np.searchsorted(grid.panel_edges, grid.core_cutoff) + 1]
    conv = _probe(params, core, grid.policy.points_per_panel)
    checked = replace(grid, self_convergence=float(conv))
    _require_resolved(checked)
    if tail_bound(params, grid.cutoff) / (4.0 * np.pi) > grid.policy.tol / 2.0:
        raise ToleranceUnreachable(f"tail bound fails at T={params.T:.6g}")
    return checked
