"""Momentum grids and integration.

Composite Gauss-Legendre panels on [0, Lambda] with geometric grading
toward the kernel crossovers (|q| near 2*sqrt(mu) for B(0,.), sqrt(mu)
for F, and the origin), an analytic tail bound used to certify the
cutoff, tail panels past the core as wide as their Gauss rule allows,
and an a-posteriori self-convergence measurement stored on the grid.
Grids are immutable; certify checks one at the (T, mu) it is used at.

One marcher, _march_edges, lays out the graded panel edges of many
spans in one lock-step numpy pass: build_grid marches its single mesh
on [0, core_cutoff] with it, and _A_meshes, for _A_rows, the integrator
of A(p), the short spans of grid panels around each momentum's two
crossovers, each with its own ends and floor, as coarse as their Gauss
rule allows at the build T, keeping at each fresh point the kernel's x
and y, which do not depend on T.  A grid keeps no sub-meshes: a caller
that integrates A(p) at several T on one grid lays them out once and
passes them to every call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import CutoffTooSmall, QuadratureUnderresolved
from .errors import RefusedRegime, ToleranceUnreachable
from .kernels import ModelParams, _blocked, _edge_sum, _L_xy, _xy

__all__ = [
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

# A marched panel snaps onto a center up to this many floors away.
SNAP = 1.5

# Refuse T/mu below this; double-precision cancellation in the log-scale
# quantities dominates beyond it and no supported use case needs it.
REFUSED_REGIME_RATIO = 1e-8

# Self-convergence probes are differences of O(1) double sums, so they
# cannot certify tolerances near machine epsilon; refuse outright rather
# than return a grid whose estimate is vacuous.
_TOL_FLOOR = 1e-14

_DEPTH_CAP = 8

# Core cutoff, before the certified tail: CUTOFF_FACTOR * (2 sqrt(mu) +
# TAIL_K sqrt(max(T, mu, 1))).
CUTOFF_FACTOR = 3.0
TAIL_K = 20.0

# Gauss-Legendre points on every panel unless a caller refines its grids.
POINTS_PER_PANEL = 16

# Past the core, B(p, q) <= 4/|p^2 + q^2 - 4 mu| is smooth in q on the
# scale of q itself, so an n-point Gauss-Legendre panel [c, r c] resolves
# it to about ((sqrt r - 1)/(sqrt r + 1))^(2n) (Bernstein-ellipse bound;
# Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
# Tail panels take the widest power-of-two ratio r that keeps this at
# rounding level.
TAIL_RESOLUTION = 1e-15


@dataclass(frozen=True)
class GridPolicy:
    """Construction record: the settings that determine a grid bit-for-bit.

    The class constants are the same for every grid; they are kept on
    the record so that it still names everything the grid depends on.
    """

    T: float
    mu: float
    tol: float
    points_per_panel: int
    cutoff_factor: ClassVar[float] = CUTOFF_FACTOR
    tail_k: ClassVar[float] = TAIL_K
    extend_tail: ClassVar[bool] = True
    extra_centers: ClassVar[tuple] = ()


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Quadrature nodes/weights on (0, Lambda] plus refinement metadata.

    The first core_panels panels form the graded core [0, core_cutoff];
    the tail panels past it extend the cutoff to Lambda, each
    _tail_octaves(points_per_panel) octaves wide but the last, which ends
    at Lambda.  self_convergence is the B(0, .) probe at policy.T, the
    build's; certify re-takes it at any other T.  Grids compare and hash
    by identity.
    """

    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float
    panel_edges: np.ndarray
    refinement_centers: tuple
    policy: GridPolicy
    core_cutoff: float
    self_convergence: float

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def core_panels(self) -> int:
        return int(np.searchsorted(self.panel_edges, self.core_cutoff))

    def certify(self, params: ModelParams) -> None:
        """Refuse params at which this grid's integrals are not certified:
        ValueError for a mu other than the build's; at the build T the
        build's probe stands.  At any other T, QuadratureUnderresolved
        below the build T, where the pole of tanh(x/2T) lies nearer the
        crossovers of B(p, .) than A(p)'s sub-meshes resolve
        (_crossover_width), or where the B(0, .) probe, re-taken on the
        core panels, exceeds tol; and ToleranceUnreachable if tail_bound
        fails the cutoff."""
        pol = self.policy
        if params.mu != pol.mu:
            raise ValueError(f"grid built for mu={pol.mu:.6g} used at mu={params.mu:.6g}")
        moved = params.T != pol.T
        conv = self.self_convergence
        if params.T < pol.T:
            raise QuadratureUnderresolved(
                f"A(p) sub-meshes laid out for T={pol.T:.6g} are too coarse "
                f"at T={params.T:.6g}"
            )
        if moved:
            core = self.panel_edges[: self.core_panels + 1]
            conv = _probe(params, core, pol.points_per_panel)
        if conv > pol.tol:
            raise QuadratureUnderresolved(
                f"grid self-convergence estimate {conv:.3e} "
                f"exceeds requested tolerance {pol.tol:.3e}"
            )
        if moved and tail_bound(params, self.cutoff) / (4.0 * np.pi) > pol.tol / 2.0:
            raise ToleranceUnreachable(f"tail bound fails at T={params.T:.6g}")


@lru_cache(maxsize=None)
def _leggauss(k: int):
    # every caller shares the cached arrays, so none may write to them
    xi, wi = np.polynomial.legendre.leggauss(k)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


def _tail_octaves(ppp: int) -> int:
    """Octaves k spanned by each tail panel of a ppp-point grid: the most
    whose ratio r = 2^k keeps the Bernstein bound within TAIL_RESOLUTION,
    and at least 1.  1 at 8 points, 2 at 16 and 3 at 32."""
    k = 1
    while True:
        s = np.sqrt(2.0 ** (k + 1))
        if ((s - 1.0) / (s + 1.0)) ** (2 * ppp) > TAIL_RESOLUTION:
            return k
        k += 1


def _crossover_width(T: float, mu: float, ppp: int) -> float:
    """Widest panel of ppp Gauss points that may end at a crossover of
    B(p, .) at T.

    tanh(x/2T) has a pole at x = i pi T, where s = (p+q)/2 (or d =
    (p-q)/2) is sqrt(mu + i pi T), so in q the pole lies z = 2 (sqrt(mu
    + i pi T) - sqrt(mu)) from the crossover, 2 sqrt(i pi T) at mu = 0:
    about i pi T / sqrt(mu) for T << mu, and |z| rises with T.
    The widest panel is the one whose Bernstein ellipse through z is that
    of a tail panel [c, r c] through its pole at 0, r =
    2^_tail_octaves(ppp), so it meets TAIL_RESOLUTION too.

    On the reference interval [-1, 1] the tail panel's pole sits at
    -(r + 1)/(r - 1), the left vertex of the ellipse with semi-axes
    a = (r + 1)/(r - 1) and b = 2 sqrt(r)/(r - 1) (a^2 - b^2 = 1).  A
    panel of width h ending at the crossover maps z, turned into the
    panel (the worse side), to -1 + e (cos t + i sin t) with e = 2|z|/h
    and t its angle to the real axis; the ellipse passes there where
    k e^2 - 2 (cos t / a^2) e - b^2/a^2 = 0, k = (cos t/a)^2 + (sin t/b)^2.
    """
    root = cmath.sqrt(complex(mu, math.pi * T))
    # for mu > 0 this is z free of cancellation
    z = 2j * math.pi * T / (root + math.sqrt(mu)) if mu > 0 else 2.0 * root
    r = 2.0 ** _tail_octaves(ppp)
    a, b = (r + 1.0) / (r - 1.0), 2.0 * math.sqrt(r) / (r - 1.0)
    cos_t, sin_t = abs(z.real) / abs(z), abs(z.imag) / abs(z)
    k = (cos_t / a) ** 2 + (sin_t / b) ** 2
    e = (cos_t / a**2 + math.sqrt((cos_t / a**2) ** 2 + k * (b / a) ** 2)) / k
    return 2.0 * abs(z) / e


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


def _march_edges(spans, centers, floor, beta=BETA):
    """Panel edges on each row's span [lo, hi], graded toward its centers.

    Widths follow max(floor, min(beta*d_behind, d_ahead*beta/(1+beta)))
    where d_* are distances to the row's refinement centers in [lo, hi),
    so panels approach and leave every center in geometric ladders of
    ratio 1 + beta and land on the centers exactly; a panel that ends on
    a center is at most SNAP floors wide.  spans holds one (lo, hi) per
    row, centers one row of centers per row and floor one floor per row,
    each of the three broadcast over the rows.  The rows march in lock-step,
    each taking the same floating-point steps it would take alone, and
    the rows that reached hi drop out once they are half of those left.
    Returns (edges, sizes): row r's edges are edges[r, :sizes[r]], and
    the rest of the row repeats its hi.  A pass that moves no row short
    of hi, which a zero floor allows, raises ToleranceUnreachable.
    """
    alpha = beta / (1.0 + beta)
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
    # row live[k] is at q[k]; the rows that reached hi leave live each time
    # they come to half of it, and until then step to hi again.  now holds
    # every row's last edge
    live = np.arange(m)
    q, top, fl, cl, bl = lo.copy(), hi, floor, cs, base
    now = lo.copy()
    edges = [lo]
    for _ in range(200000):
        going = q < top
        if not going.any():
            break
        if 2 * np.count_nonzero(going) <= going.size:
            live, q, top, fl, cl, bl = (a[going] for a in (live, q, top, fl, cl, bl))
        at = bl + np.count_nonzero(cl <= q[:, None], axis=1)
        ahead = ladder[at + 1]
        d_ahead = ahead - q
        h = np.maximum(fl, np.minimum(beta * (q - ladder[at]), alpha * d_ahead))
        snap = (ahead < np.inf) & (d_ahead <= np.maximum(h, SNAP * fl))
        # a row that reached hi has nothing ahead and stays at hi
        step = np.where(snap, ahead, np.minimum(q + h, top))
        if not np.any(step > q):
            raise ToleranceUnreachable(f"panel marching stalled at {q[q < top][0]:.6g}")
        q = step
        now[live] = q
        edges.append(now.copy())
    else:
        raise ToleranceUnreachable("panel marching failed to terminate")
    edges = np.stack(edges, axis=1)
    sizes = 1 + np.count_nonzero(edges[:, :-1] < hi[:, None], axis=1)
    edges[np.arange(m), sizes - 1] = hi
    return edges, sizes


class _Meshes(NamedTuple):
    """A(p)'s sub-meshes for some rows: the grid terms they replace, as
    flat indices into the kernel rows and their weights, and the fresh
    points' x, y and weights; flat_at and fresh_at start each row."""

    flat: np.ndarray
    w_flat: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    flat_at: np.ndarray
    fresh_at: np.ndarray


def _A_meshes(grid: MomentumGrid, p: np.ndarray) -> _Meshes:
    """The T-independent half of _A_rows for momenta p >= 0, in any order.

    A(p_i) is the grid sum of the kernel row B(p_i, grid.nodes),
    corrected where the grid does not resolve B(p_i, .): near its tanh
    crossovers q = |2 sqrt(mu) -/+ p_i|.  The grid panel that holds a
    crossover and that panel's two neighbours form a span (a row's two
    spans merge when they share panels); the span's grid terms are
    dropped and B is evaluated afresh on a sub-mesh of the span, graded
    toward the crossovers and the grid centers inside it.  The panels
    left outside lie at least a neighbour's width away from the
    crossover, where 16-point panels have converged (8-point ones can
    miss tol a few times over for T >~ mu).

    Sub-mesh panels are as wide as their Gauss rule allows.  They grow
    away from a center by the tail panels' ratio 2^_tail_octaves(ppp),
    and the floor is _crossover_width at the grid's build T over SNAP,
    so a panel that ends on a center is at most that width; certify
    refuses a lower T, whose pole lies nearer.  Each row's floor is at
    least tol p_i^2 / 2: the step there is about 2/p_i^2 high, so a
    panel that wide adds less than tol.  All spans are marched in one
    lock-step pass.  Each fresh point keeps _B_block's x and y, which
    do not depend on T, in place of its q.
    """
    pol = grid.policy
    mu, ppp = pol.mu, pol.points_per_panel
    two_smu = grid.refinement_centers[-1]  # 2 sqrt(mu), or 0 at mu = 0
    edges = grid.panel_edges
    last = edges.size - 2
    cross = np.column_stack([np.abs(two_smu - p), two_smu + p])
    held = np.minimum(np.searchsorted(edges, cross, side="right") - 1, last)
    first, stop = np.maximum(held - 1, 0), np.minimum(held + 2, last + 1)
    merged = first[:, 1] < stop[:, 0]
    stop[merged, 0] = stop[merged, 1]
    kept = np.column_stack([np.ones(p.size, dtype=bool), ~merged])
    per_row = kept.sum(axis=1)
    row = np.repeat(np.arange(p.size), per_row)
    first, stop = first[kept], stop[kept]
    centers = np.hstack([cross, np.tile(grid.refinement_centers, (p.size, 1))])
    with np.errstate(over="ignore"):  # an inf floor marches one panel
        cap = pol.tol * p * p / 2.0
    floor = np.maximum(_crossover_width(pol.T, mu, ppp) / SNAP, cap)
    spans = np.column_stack([edges[first], edges[stop]])
    beta = 2.0 ** _tail_octaves(ppp) - 1.0
    sub, sizes = _march_edges(spans, centers[row], floor[row], beta)
    live = np.arange(sub.shape[1] - 1) < sizes[:, None] - 1
    q, w = _panels_to_grid(np.stack([sub[:, :-1][live], sub[:, 1:][live]], axis=1), ppp)
    # span s drops grid nodes ppp*first[s] ... ppp*stop[s] - 1 of its row
    dropped = ppp * (stop - first)
    fresh = ppp * (sizes - 1)
    head = np.cumsum(per_row) - per_row  # each row's first span
    at = np.cumsum(dropped) - dropped
    idx = np.arange(dropped.sum()) + np.repeat(ppp * first - at, dropped)
    fresh_at = np.cumsum(fresh) - fresh
    flat = np.repeat(row, dropped) * grid.n + idx
    # x is a new array and y takes q's place: forming x in place of p_q
    # too read about 15% more peak RSS on the threaded sweep benchmark
    p_q = np.repeat(p[row], fresh)
    with np.errstate(over="ignore"):  # an inf square gives L = 0.0
        x = _xy(p_q + q, mu)
        y = _xy(np.subtract(p_q, q, out=q), mu)
    return _Meshes(flat, grid.weights[idx], x, y, w, at[head], fresh_at[head])


def _A_rows(params: ModelParams, grid: MomentumGrid, Kp: np.ndarray, m: _Meshes):
    """A(p_i) at params on a grid certified at params; Kp holds the kernel
    rows B(p_i, grid.nodes) and m is _A_meshes(grid, p) for the same
    p >= 0, in any order.  Each row is summed on its own, so A(p_i) does not
    depend on which momenta share it.  The fresh points go through _L_xy,
    the tail of eval_B, which gives them eval_B's bits."""
    out = np.vecdot(Kp, grid.weights)
    replaced = Kp.ravel()[m.flat]
    replaced *= m.w_flat  # products in place, here and below: one temporary each
    out -= np.add.reduceat(replaced, m.flat_at)
    del replaced
    fresh = _blocked(_L_xy, m.x, m.y, 2.0 * params.T)
    fresh *= m.w
    out += np.add.reduceat(fresh, m.fresh_at)
    return out / (2.0 * np.pi)


def _probe(params: ModelParams, edges: np.ndarray, ppp: int) -> float:
    """Self-convergence of A(0) on the core panels edges at params: the
    larger move of its sum when points per panel double and when every
    panel is halved, and at least the spacing of the largest of the three
    rounded sums, below which their difference measures nothing."""
    split = np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2.0]))
    rules = ((edges, ppp), (edges, 2 * ppp), (split, ppp))
    j1, j2, j3 = (_edge_sum(params, *_panels_to_grid(e, k)) for e, k in rules)
    resolution = np.spacing(max(abs(j1), abs(j2), abs(j3)))
    return max(abs(j1 - j2), abs(j1 - j3), resolution)


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
    return 8.0 / cutoff


def build_grid(
    params: ModelParams,
    tol: float = 1e-8,
    points_per_panel: int = POINTS_PER_PANEL,
) -> MomentumGrid:
    """Build a composite Gauss-Legendre grid on [0, Lambda] for params.

    Lambda starts at CUTOFF_FACTOR*(2*sqrt(mu) + TAIL_K*
    sqrt(max(T,mu,1))), the core cutoff, and doubles until the analytic
    tail_bound certifies a truncation error below tol/2 in the units
    of a = (1/4pi) integral B(0,q) dq.  Core panels refine
    geometrically toward 0, sqrt(mu), 2*sqrt(mu) down to the crossover
    width; construction then measures an a-posteriori estimate by
    doubling points per panel and by halving panels, and deepens the
    grading until that estimate is below tol.  Tail panels cover [core
    cutoff, Lambda], _tail_octaves(points_per_panel) doublings each and
    the last one what is left; at 8 points they are the octaves
    themselves.

    Every panel carries points_per_panel Gauss-Legendre nodes, an
    integer of at least 2 (ValueError otherwise).

    Raises RefusedRegime for T/mu < 1e-8 and ToleranceUnreachable if the
    depth cap is hit first.
    """
    if not isinstance(points_per_panel, (int, np.integer)) or points_per_panel < 2:
        raise ValueError(
            f"points_per_panel must be an integer of at least 2, got {points_per_panel!r}"
        )
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
    lam0 = CUTOFF_FACTOR * (2.0 * smu + TAIL_K * np.sqrt(max(T, mu, 1.0)))

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
    octaves = 0
    for _ in range(80):
        if tail_bound(params, cutoff) / (4.0 * np.pi) <= tol / 2.0:
            break
        cutoff *= 2.0
        octaves += 1
    else:
        raise ToleranceUnreachable("tail extension failed to certify cutoff")
    # lam0 times a power of two is exact, so the last edge is cutoff itself
    step = _tail_octaves(points_per_panel)
    tail = np.minimum(np.arange(step, octaves + step, step), octaves)
    edges = np.append(edges, lam0 * 2.0**tail)

    nodes, weights = _panels_to_grid(edges, points_per_panel)
    assert abs(weights.sum() - cutoff) <= 1e-12 * cutoff, "weights must sum to Lambda"
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    policy = GridPolicy(
        T=T,
        mu=mu,
        tol=tol,
        points_per_panel=points_per_panel,
    )
    return MomentumGrid(
        nodes=nodes,
        weights=weights,
        cutoff=float(cutoff),
        panel_edges=edges,
        refinement_centers=centers,
        policy=policy,
        core_cutoff=float(lam0),
        self_convergence=float(conv),
    )

