"""Grid construction, the analytic tail bound, and integration.

Frozen reference values come from tools/oracle_constants.py; section
names in comments match that script's output.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcs_edge import (
    BoundaryCondition,
    CutoffTooSmall,
    ModelParams,
    QuadratureUnderresolved,
    RefusedRegime,
    ToleranceUnreachable,
    assemble,
    build_grid,
    eval_A,
    eval_a,
    tail_bound,
)
from bcs_edge.quadrature import BETA, _leggauss, _march_edges, _panels_to_grid

# [tail] closed form at mu=1, cutoff=50
TAIL_BOUND_MU1_L50 = 0.16008541534707285
# [tail] brute-force integral of sup_p B over |q| > 50 (same point);
# the bound must dominate it
TAIL_TRUE_MU1_L50 = 0.14408533001292031


def scalar_march(lo, hi, centers, floor, beta):
    """Reference marcher: one mesh on [lo, hi] at a time, in plain Python."""
    alpha = beta / (1.0 + beta)
    cs = sorted(c for c in centers if lo <= c < hi)
    edges = [lo]
    q = lo
    for _ in range(200000):
        if q >= hi:
            break
        ahead = [c for c in cs if c > q]
        behind = [c for c in cs if c <= q]
        d_ahead = (ahead[0] - q) if ahead else np.inf
        d_behind = (q - behind[-1]) if behind else np.inf
        h = max(floor, min(beta * d_behind, alpha * d_ahead))
        if ahead and d_ahead <= max(h, 1.5 * floor):
            q = ahead[0]
        else:
            q = min(q + h, hi)
        edges.append(q)
    else:
        raise ToleranceUnreachable("panel marching failed to terminate")
    edges[-1] = hi
    return np.asarray(edges)


def check_invariants(grid):
    assert grid.nodes.ndim == 1 and grid.nodes.size == grid.n
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert grid.weights.sum() == pytest.approx(grid.cutoff, rel=1e-12)
    assert grid.panel_edges[0] == 0.0
    assert grid.panel_edges[-1] == grid.cutoff
    assert grid.n == grid.policy.points_per_panel * (grid.panel_edges.size - 1)
    assert grid.self_convergence <= grid.policy.tol


def test_grid_invariants_mu_zero():
    grid = build_grid(ModelParams(T=1.0, mu=0.0), tol=1e-9)
    check_invariants(grid)
    assert 0.0 in grid.refinement_centers


def test_grid_invariants_small_T():
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, tol=1e-9)
    check_invariants(grid)
    # edges land exactly on the kernel crossovers
    for c in (1.0, 2.0):
        assert c in grid.refinement_centers
        assert np.any(grid.panel_edges == c)
    # ridge of B(0,.) at q = 2 sqrt(mu) needs panels of width ~T there
    i = np.searchsorted(grid.panel_edges, 2.0)
    local = np.diff(grid.panel_edges)[max(i - 2, 0) : i + 2]
    assert local.min() <= params.T


def test_refused_regime():
    with pytest.raises(RefusedRegime):
        build_grid(ModelParams(T=1e-9, mu=1.0), tol=1e-8)


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        build_grid(ModelParams(T=1.0, mu=1.0), tol=0.0)
    with pytest.raises(ToleranceUnreachable):
        # double precision cannot self-certify to 1e-30
        build_grid(ModelParams(T=1.0, mu=0.0), tol=1e-30)


def test_infinite_tolerance_rejected():
    with pytest.raises(ValueError, match="positive and finite"):
        build_grid(ModelParams(T=1.0, mu=1.0), tol=np.inf)


def test_knobs_refuse_a_non_integer_panel_order():
    # leggauss would raise TypeError inside build_grid instead
    params = ModelParams(T=1.0, mu=1.0)
    for ppp in (16.0, 16.5, 1, np.float64(16.0)):
        with pytest.raises(ValueError, match="points_per_panel must be an integer"):
            build_grid(params, 1e-5, points_per_panel=ppp)
    assert build_grid(params, 1e-5, np.int64(8)).policy.points_per_panel == 8


def test_tail_bound_oracle():
    got = tail_bound(ModelParams(T=1.0, mu=1.0), 50.0)
    assert got == pytest.approx(TAIL_BOUND_MU1_L50, rel=1e-13)
    assert got > TAIL_TRUE_MU1_L50


def test_tail_bound_branches():
    # mu = 0: exactly 8/cutoff
    assert tail_bound(ModelParams(T=2.0, mu=0.0), 40.0) == pytest.approx(
        0.2, rel=1e-15
    )
    # mu < 0: arctan form, positive and decreasing
    params = ModelParams(T=1.0, mu=-1.0)
    vals = [tail_bound(params, c) for c in (10.0, 20.0, 40.0)]
    assert vals[0] > vals[1] > vals[2] > 0
    # near-cutoff cap: finite even below the q^2 = 4 mu resonance
    capped = tail_bound(ModelParams(T=0.1, mu=1.0), 1.5)
    assert np.isfinite(capped) and capped > 0
    with pytest.raises(CutoffTooSmall):
        tail_bound(ModelParams(T=1.0, mu=1.0), 1.0)
    with pytest.raises(CutoffTooSmall):
        tail_bound(ModelParams(T=1.0, mu=1.0), -3.0)


def test_integrate_polynomial_exactness():
    # 16-point panels are exact through degree 31, affine maps included
    grid = build_grid(ModelParams(T=1.0, mu=0.5), tol=1e-7)
    lam, q, w = grid.cutoff, grid.nodes, grid.weights
    assert w @ np.ones_like(q) == pytest.approx(lam, rel=1e-13)
    assert w @ (q * q) == pytest.approx(lam**3 / 3.0, rel=1e-12)
    assert w @ q**31 == pytest.approx(lam**32 / 32.0, rel=1e-11)


def test_cached_reference_rule_is_read_only():
    # every grid maps the same cached nodes and weights; a caller that
    # wrote to them would corrupt every later grid
    for arr in _leggauss(16):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@given(
    T=st.floats(1e-3, 10.0),
    mu=st.one_of(st.just(0.0), st.floats(1e-2, 4.0)),
)
def test_grid_invariants_random(T, mu):
    grid = build_grid(ModelParams(T=T, mu=mu), tol=1e-7)
    check_invariants(grid)


def _march_battery():
    """(hi, floor, rows of centers) cases for the batched marcher."""
    rng = np.random.default_rng(20260418)
    for floor in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
        for hi in (0.7, 6.0, 66.0):
            # mu <= 0: the only center is the origin
            yield hi, floor, np.zeros((1, 1))
            rows = rng.uniform(-0.2 * hi, 1.2 * hi, size=(24, 5))
            rows[::2, 0] = 0.0  # build_grid's meshes all have this center
            rows[:6, 2] = rows[:6, 1]  # duplicate centers
            rows[6:12, 3] = hi  # a center at hi
            rows[12:18, 4] = 2.0 * hi  # beyond hi
            rows[18:, 1:3] = rows[18:, 1:3].round(1)  # shared and tied values
            yield hi, floor, rows


def test_batched_march_matches_scalar_loop():
    cases = 0
    for hi, floor, rows in _march_battery():
        edges, sizes = _march_edges((0.0, hi), rows, floor)
        assert edges.shape[0] == sizes.size == rows.shape[0]
        for r, centers in enumerate(rows):
            ref = scalar_march(0.0, hi, centers, floor, BETA)
            assert np.array_equal(edges[r, : sizes[r]], ref)
            assert np.all(edges[r, sizes[r] :] == hi)
            cases += 1
    assert cases == 5 * 3 * 25


def test_batched_march_takes_per_row_spans_and_floors():
    # the A(p) integrator marches short spans, each with its own ends,
    # floor and centers, some of them outside the span
    rng = np.random.default_rng(20261018)
    lo = rng.uniform(0.0, 50.0, 200)
    hi = lo + 10.0 ** rng.uniform(-3.0, 2.0, 200)
    floor = 10.0 ** rng.uniform(-7.0, 0.0, 200)
    rows = lo[:, None] + (hi - lo)[:, None] * rng.uniform(-0.5, 1.5, (200, 4))
    rows[::3, 0] = lo[::3]  # a center on the span's start
    rows[1::3, 1] = hi[1::3]  # and on its end
    spans = np.column_stack([lo, hi])
    edges, sizes = _march_edges(spans, rows, floor)
    for r in range(rows.shape[0]):
        ref = scalar_march(lo[r], hi[r], rows[r], floor[r], BETA)
        assert np.array_equal(edges[r, : sizes[r]], ref)
        assert np.all(edges[r, sizes[r] :] == hi[r])


def test_march_without_floor_hits_step_cap():
    # with floor 0 a mesh stalls on its first center and never reaches hi
    with pytest.raises(ToleranceUnreachable):
        scalar_march(0.0, 2.0, (0.0, 1.0), 0.0, BETA)
    with pytest.raises(ToleranceUnreachable):
        _march_edges((0.0, 2.0), [(0.0, 1.0), (0.5, 1.0)], 0.0)


def test_recertify_refuses_below_the_build_temperature():
    # grading scales with T: a grid built at T=0.1 is too coarse at 1e-3
    grid = build_grid(ModelParams(T=0.1, mu=1.0), 1e-8)
    with pytest.raises(QuadratureUnderresolved):
        eval_a(ModelParams(T=1e-3, mu=1.0), grid)
    # at the build T the probe is the build's own: a stored probe above tol
    # is refused there, and re-taken (and passed) at any other T
    bad = dataclasses.replace(grid, self_convergence=10.0 * grid.policy.tol)
    with pytest.raises(QuadratureUnderresolved):
        eval_a(ModelParams(T=0.1, mu=1.0), bad)
    for T in (0.2, 1.0, 10.0):
        params = ModelParams(T=T, mu=1.0)
        assert eval_a(params, bad) == eval_a(params, grid)
        assert assemble(params, grid, BoundaryCondition.DIRICHLET).grid is grid


def test_recertify_rechecks_the_tail_certificate():
    grid = build_grid(ModelParams(T=0.1, mu=1.0), 1e-8)
    short = dataclasses.replace(grid, cutoff=10.0)
    with pytest.raises(ToleranceUnreachable, match="tail bound"):
        eval_a(ModelParams(T=0.2, mu=1.0), short)


def octave_twin(params, grid, core_cutoff=None):
    """(cutoff, twin): grid's core panels, one more core panel out to
    core_cutoff when that is given, then one panel per doubling of the
    core cutoff until tail_bound certifies it, as 8-point grids lay out
    their tail; cutoff comes from the twin's own doubling loop."""
    pol = grid.policy
    core = grid.panel_edges[grid.panel_edges <= grid.core_cutoff]
    if core_cutoff is None:
        core_cutoff = grid.core_cutoff
    else:
        core = np.append(core, core_cutoff)
    cutoff, octaves = core_cutoff, 0
    while tail_bound(params, cutoff) / (4.0 * np.pi) > pol.tol / 2.0:
        cutoff *= 2.0
        octaves += 1
    edges = np.append(core, core_cutoff * 2.0 ** np.arange(1, octaves + 1))
    nodes, weights = _panels_to_grid(edges, pol.points_per_panel)
    twin = dataclasses.replace(grid, nodes=nodes, weights=weights, panel_edges=edges,
                               core_cutoff=core_cutoff, cutoff=cutoff)
    return cutoff, twin


TAIL_LATTICE = [
    (T, mu, tol)
    for T in (1e-5, 1e-3, 0.1, 1.0)
    for mu in (0.0, 1.0)
    for tol in (1e-8, 1e-6)
]


@pytest.mark.parametrize("ppp, ratio", [(16, 4), (32, 8)])
@pytest.mark.parametrize("T, mu, tol", TAIL_LATTICE)
def test_tail_panels_keep_the_octave_cutoff_and_integrals(T, mu, tol, ppp, ratio):
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, tol, points_per_panel=ppp)
    cutoff, twin = octave_twin(params, grid)
    assert grid.cutoff == cutoff
    tail = grid.panel_edges[grid.panel_edges >= grid.core_cutoff]
    octaves = np.log2(tail[1:] / tail[:-1])
    assert np.all(octaves[:-1] == np.log2(ratio)) and 0 < octaves[-1] <= np.log2(ratio)
    assert eval_a(params, grid) == pytest.approx(eval_a(params, twin), rel=1e-14, abs=0)
    # the core nodes are the twin's; past them A(p) is only tol-accurate on
    # either grid, and the two agree to 3.4e-4 tol on this lattice
    core = grid.nodes < grid.core_cutoff
    A, A_twin = eval_A(grid.nodes, params, grid), eval_A(grid.nodes, params, twin)
    assert np.array_equal(grid.nodes[core], twin.nodes[: core.sum()])
    assert np.all(np.abs(A[core] - A_twin[core]) <= 1e-14 * np.abs(A_twin[core]))
    assert np.all(np.abs(A[~core] - A_twin[~core]) <= 1e-3 * tol)


# 8-point grids at mu=0, T <= 1e-3, tol 1e-8 hit the depth cap and refuse
@pytest.mark.parametrize(
    "T, mu, tol", [c for c in TAIL_LATTICE if c[1] > 0 or c[0] > 1e-3 or c[2] > 1e-8]
)
def test_eight_point_tails_stay_octaves(T, mu, tol):
    # no panel wider than an octave resolves the tail at 8 points
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, tol, points_per_panel=8)
    _, twin = octave_twin(params, grid)
    assert np.array_equal(grid.panel_edges, twin.panel_edges)
    assert np.array_equal(grid.nodes, twin.nodes)
    assert np.array_equal(grid.weights, twin.weights)


@pytest.mark.parametrize("T", [0.008469343658681782, 0.008469343658681773])
def test_probe_reports_its_own_resolution(T):
    # the probe's three sums of A(0) agree to the last bit at one of these
    # T and differ by one ulp at the other; a difference of rounded sums
    # never reads an error below their spacing
    params = ModelParams(T=T, mu=1.0)
    grid = build_grid(params, 1e-8)
    assert grid.self_convergence >= np.spacing(eval_a(params, grid)) / 2.0 > 0.0
