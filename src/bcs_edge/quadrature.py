"""Momentum grids and integration.

Composite Gauss-Legendre panels on [0, Lambda] with geometric grading
toward the kernel crossovers (|q| near 2*sqrt(mu) for B(0,.), sqrt(mu)
for F, and the origin), an analytic tail bound used to certify the
cutoff, and an a-posteriori self-convergence measurement stored on the
grid.  Grids are immutable after construction.

One marcher, _march_edges, lays out the graded panel edges of many
meshes in one lock-step numpy pass: build_grid marches its single mesh
with it, and _mesh_with_centers the per-momentum meshes of the A(p)
integrator in bs_operator, which add each momentum's two crossovers to
the grid's own centers and share the grid's octave panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import CutoffTooSmall, RefusedRegime, ToleranceUnreachable
from .kernels import ModelParams, _edge_sum

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
    return np.polynomial.legendre.leggauss(k)


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


def _march_edges(hi: float, centers, floor: float, beta: float):
    """Panel edges on [0, hi], graded toward each row's centers down to `floor`.

    Widths follow max(floor, min(beta*d_behind, d_ahead*beta/(1+beta)))
    where d_* are distances to the refinement centers, so panels approach
    and leave every center in geometric ladders and land on the centers
    exactly.  centers holds one row of centers per mesh; all meshes march
    in lock-step, each row taking the same floating-point steps it would
    take alone.  Returns (edges, sizes): mesh r's edges are
    edges[r, :sizes[r]], and the rest of the row repeats hi.
    """
    alpha = beta / (1.0 + beta)
    cs = np.array(centers, dtype=float, ndmin=2)
    cs = np.sort(np.where((cs >= 0.0) & (cs < hi), cs, np.inf), axis=1)
    m, c = cs.shape
    # with j centers of row r at or behind q, ladder[base[r] + j] is the
    # last of them and the next entry the first one ahead (-inf and inf
    # stand for none)
    ladder = np.hstack([np.full((m, 1), -np.inf), cs, np.full((m, 1), np.inf)])
    ladder = ladder.ravel()
    base = np.arange(0, m * (c + 2), c + 2)
    q = np.zeros(m)
    edges = [q]
    for _ in range(200000):
        if q.min() >= hi:
            break
        at = base + np.count_nonzero(cs <= q[:, None], axis=1)
        ahead = ladder[at + 1]
        d_ahead = ahead - q
        h = np.maximum(floor, np.minimum(beta * (q - ladder[at]), alpha * d_ahead))
        snap = (ahead < np.inf) & (d_ahead <= np.maximum(h, 1.5 * floor))
        # a row that reached hi has nothing ahead and stays at hi
        q = np.where(snap, ahead, np.minimum(q + h, hi))
        edges.append(q)
    else:
        raise ToleranceUnreachable("panel marching failed to terminate")
    edges = np.stack(edges, axis=1)
    sizes = 1 + np.count_nonzero(edges[:, :-1] < hi, axis=1)
    edges[np.arange(m), sizes - 1] = hi
    return edges, sizes


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
        edges = _march_edges(lam0, [centers], floor, BETA)[0][0]
        n1, w1 = _panels_to_grid(edges, points_per_panel)
        n2, w2 = _panels_to_grid(edges, 2 * points_per_panel)
        split = np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2.0]))
        n3, w3 = _panels_to_grid(split, points_per_panel)
        j1 = _edge_sum(params, n1, w1)
        conv = max(
            abs(j1 - _edge_sum(params, n2, w2)),
            abs(j1 - _edge_sum(params, n3, w3)),
        )
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


def _mesh_with_centers(grid: MomentumGrid, centers) -> tuple:
    """Nodes, weights and sizes of grid's mesh regraded toward extra centers.

    centers holds one row of extra centers per mesh.  Every mesh's core
    [0, core_cutoff] is marched again at the grid's own floor with its
    row added to the grid's refinement centers, all rows in one
    lock-step pass; the octave panels beyond the core are the grid's own
    and close every mesh, so a mesh's last nodes and weights are
    bit-identical to the grid's octave nodes and weights.  Mesh r is
    nodes[s:s + sizes[r]] with s = sizes[:r].sum(), and likewise weights.
    """
    core = grid.core_cutoff
    extra = np.array(centers, dtype=float, ndmin=2)
    m = extra.shape[0]
    own = np.broadcast_to(grid.refinement_centers, (m, len(grid.refinement_centers)))
    edges, sizes = _march_edges(core, np.hstack([own, extra]), grid.floor, BETA)
    octaves = grid.panel_edges[grid.panel_edges > core]
    edges = np.hstack([edges, np.broadcast_to(octaves, (m, octaves.size))])
    # panels past a row's own core edges span [core, core]: drop them
    panel = np.arange(edges.shape[1] - 1)
    keep = (panel < sizes[:, None] - 1) | (panel >= edges.shape[1] - octaves.size - 1)
    panels = np.stack([edges[:, :-1][keep], edges[:, 1:][keep]], axis=1)
    ppp = grid.policy.points_per_panel
    nodes, weights = _panels_to_grid(panels, ppp)
    return nodes, weights, ppp * np.count_nonzero(keep, axis=1)
