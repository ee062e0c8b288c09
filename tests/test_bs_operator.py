"""Operator assembly, eigensolver, and the even-sector reduction.

The full-line oracle here rebuilds the operator on the mirrored grid
[-Lambda, Lambda] with the plain kernel (no folding factor), so it
validates the even-sector factor 2 independently of the package's own
assembly path.
"""

import bisect
import cmath
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bcs_edge.bs_operator as bso
from bcs_edge import (
    ModelParams,
    NoConvergence,
    NumericsError,
    QuadratureUnderresolved,
    build_grid,
    eval_B,
    eval_E,
    eval_F,
    eval_L,
    eval_a,
)
from bcs_edge.bs_operator import (
    BoundaryCondition,
    assemble,
    spectral_gap,
    top_eigenpair,
)
from bcs_edge.bs_operator import _top_value, eval_A
from bcs_edge.kernels import _BLOCK, _B_matrix
from bcs_edge.quadrature import _A_meshes, _panels_to_grid
from test_kernels import _same_bits
from test_quadrature import octave_twin, scalar_march

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def full_line_top(params, grid, bc):
    """Oracle: assemble on the mirrored grid, no even-sector folding."""
    p = np.concatenate([-grid.nodes[::-1], grid.nodes])
    w = np.concatenate([grid.weights[::-1], grid.weights])
    sw = np.sqrt(w)
    M = (
        bc.sign
        * eval_B(p[:, None], p[None, :], params)
        * (sw[:, None] * sw[None, :])
        / (4.0 * np.pi)
    )
    d = eval_A(grid.nodes, params, grid)
    M[np.diag_indices_from(M)] += np.concatenate([d[::-1], d])
    return float(np.linalg.eigh(M)[0][-1])


def test_signs():
    assert D.sign == -1.0 and N.sign == 1.0


@pytest.mark.parametrize(
    "T, mu", [(0.3, 1.0), (4.2e-3, 1.0), (3.1e-2, 1.0), (0.131, 1.0), (0.3, 0.0)]
)
def test_matrix_symmetric_and_immutable(T, mu):
    # assemble builds its matrix symmetric and does not compare it with
    # its transpose; the bits must agree exactly, at the bulk critical
    # temperatures of the edge-row couplings v = 0.45, 0.63 and 0.89 too
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, 1e-7)
    for bc in (D, N):
        op = assemble(params, grid, bc)
        assert np.array_equal(op.matrix, op.matrix.T)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.0


@pytest.mark.parametrize("ppp", [8, 16])
@pytest.mark.parametrize("T", [1e-5, 1e-3, 3e-2, 1.0, 20.0])
@pytest.mark.parametrize("mu", [-0.5, 0.0, 1.0, 4.0])
def test_kernel_matrix_is_B_on_every_pair_bitwise(mu, T, ppp):
    # closed-form ranges, eval_B between them and the mirrored lower
    # triangle must give the very bits of one full evaluation, at the
    # build T and off it (the ranges move with T, the nodes do not)
    grid = build_grid(ModelParams(T=T, mu=mu), 1e-6, points_per_panel=ppp)
    p = grid.nodes
    for at in (T, 1.07 * T):
        params = ModelParams(T=at, mu=mu)
        K = _B_matrix(p, params)
        assert _same_bits(K, eval_B(p[:, None], p[None, :], params))


def test_kernel_matrix_falls_back_where_u_may_overflow():
    # at T = 1e-300 (max p^2 + |mu|)/T overflows and some u = x/2T are
    # infinite (kernels._saturated_L): every pair goes through eval_B,
    # whose sums u + v overflow on the way without a warning, as do
    # eval_L's
    grid = build_grid(ModelParams(T=1e-3, mu=1.0), 1e-6)
    p = grid.nodes
    params = ModelParams(T=1e-300, mu=1.0)
    assert np.isinf(float(p[-1]) ** 2 / (2.0 * params.T))
    K = _B_matrix(p, params)
    assert _same_bits(K, eval_B(p[:, None], p[None, :], params))
    assert np.all(np.isfinite(eval_L(p[:, None], p[None, :], params)))
    # a node whose square overflows, where Python's float ** 2 would raise
    # OverflowError before the guard sends the block to eval_B
    p = np.array([0.5, 1.0, 2e154])
    params = ModelParams(T=1e-3, mu=1.0)
    assert _same_bits(_B_matrix(p, params), eval_B(p[:, None], p[None, :], params))


def test_kernel_matrix_refuses_a_range_that_rounding_admits():
    # against the row at p = 2^34 the column 2^34 + 2 has d = 1 and v = 0,
    # while the columns past it have v of order 1e10: the closed ranges of
    # the block that ends on that row must leave it to eval_B.  Rows 0-80
    # fill the first row block
    big = 2.0**34
    far = big + 2.0 + 10.0 * np.arange(1, 119)
    nodes = np.concatenate([np.linspace(0.1, 3.0, 80), [big, big + 2.0], far])
    assert max(1, _BLOCK // nodes.size) == 81
    params = ModelParams(T=1e-9, mu=1.0)
    K = _B_matrix(nodes, params)
    assert _same_bits(K, eval_B(nodes[:, None], nodes[None, :], params))


def test_nan_momenta_are_refused_and_huge_ones_give_zero():
    # a NaN momentum used to stall A(p)'s panel marching
    # (ToleranceUnreachable); a momentum whose square overflows gives the
    # kernels' limit 0.0 with no RuntimeWarning, which the suite's filter
    # turns into an error, and so does one whose squares stay finite while
    # x + y overflows: B(p, 0.7) for |p| in about 1.9e154 to 2.7e154 and
    # L(p, p) for |p| in about 0.95e154 to 1.34e154
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, 1e-6)
    for f in (eval_A, eval_E):
        with pytest.raises(ValueError, match="NaN"):
            f(np.array([0.5, np.nan]), params, grid)
    huge = np.array([1e200, -1e300, 1e300])
    for p in [*huge, huge]:
        assert np.all(eval_F(p, params) == 0.0)
        assert np.all(eval_L(p, 0.7, params) == 0.0)
        assert np.all(eval_B(p, 0.7, params) == 0.0)
        assert np.all(eval_B(p, p, params) == 0.0)
        assert np.all(eval_A(p, params, grid) == 0.0)
    for p in (2e154, -2.5e154, np.array([1.9e154, 2.7e154])):
        assert np.all(eval_B(p, 0.7, params) == 0.0)
        assert np.all(eval_A(p, params, grid) == 0.0)
    for p in (1e154, 1.3e154):
        assert eval_L(p, p, params) == 0.0


def test_diag_only_is_multiplication_by_A():
    # zero out the B block: what is left multiplies by A(p), whose max
    # sits at the node nearest 0 and stays below a_edge = A(0)
    params = ModelParams(T=0.5, mu=1.0)
    grid = build_grid(params, 1e-8)
    op = assemble(params, grid, D)
    diag = eval_A(grid.nodes, params, grid)
    assert int(np.argmax(diag)) == 0
    assert diag[0] < op.a_edge
    assert op.a_edge == pytest.approx(eval_a(params, grid), rel=1e-15)


# Tail-panel ratio r = 2^k at each points-per-panel count n: the largest
# power of two with ((sqrt r - 1)/(sqrt r + 1))^(2n) <= 1e-15.
TAIL_RATIO = {8: 2.0, 16: 4.0, 32: 8.0}


def crossover_floor(grid):
    """The floor of A(p)'s sub-meshes at the crossovers, written out.

    At the build T the pole of tanh(x/2T) nearest a crossover of B(p, .)
    lies z = 2 i pi T / (sqrt(mu + i pi T) + sqrt(mu)) away in q (2 sqrt(i
    pi T + mu) for mu <= 0).  A panel of width h ending at the crossover
    maps it to -1 + e (cos t + i sin t), e = 2|z|/h; the widest h puts that
    point on the Bernstein ellipse of a tail panel [c, r c] through its
    pole at 0, with semi-axes a = (r + 1)/(r - 1) and b = 2 sqrt(r)/(r - 1).
    The marcher lets a panel end on a center up to 1.5 floors wide."""
    pol = grid.policy
    root = cmath.sqrt(complex(pol.mu, math.pi * pol.T))
    if pol.mu > 0:
        z = 2j * math.pi * pol.T / (root + math.sqrt(pol.mu))
    else:
        z = 2.0 * root
    r = TAIL_RATIO[pol.points_per_panel]
    a, b = (r + 1.0) / (r - 1.0), 2.0 * math.sqrt(r) / (r - 1.0)
    c, s = abs(z.real) / abs(z), abs(z.imag) / abs(z)
    k = (c / a) ** 2 + (s / b) ** 2
    e = (c / a**2 + math.sqrt((c / a**2) ** 2 + k * (b / a) ** 2)) / k
    return 2.0 * abs(z) / e / 1.5


def per_row_A(params, grid, p, refine=1.0, ratio=None):
    """Reference A(p) for one momentum p >= 0, built step by step: the grid
    sum of B(p, .), less the grid terms of the three panels around each
    crossover (two spans merged when they share a panel), plus B on a
    scalar-marched sub-mesh of each span.  The sub-mesh grades down to
    max(crossover_floor, tol p^2 / 2) / refine in ladders of ratio (the tail
    ratio if None).  Sums take the integrator's per-row reduction,
    np.add.reduceat over one segment."""
    smu = np.sqrt(params.mu) if params.mu > 0 else 0.0
    ppp = grid.policy.points_per_panel
    ratio = TAIL_RATIO[ppp] if ratio is None else ratio
    edges = grid.panel_edges.tolist()
    last = len(edges) - 2
    crossovers = (abs(2.0 * smu - p), 2.0 * smu + p)
    spans = []
    for c in crossovers:
        held = min(bisect.bisect_right(edges, c) - 1, last)
        first, stop = max(held - 1, 0), min(held + 2, last + 1)
        if spans and first < spans[-1][1]:
            spans[-1] = (spans[-1][0], stop)
        else:
            spans.append((first, stop))
    floor = max(crossover_floor(grid), grid.policy.tol * p * p / 2.0) / refine
    row = eval_B(p, grid.nodes, params)
    old, new = [], []
    for first, stop in spans:
        on_grid = slice(first * ppp, stop * ppp)
        old.append(row[on_grid] * grid.weights[on_grid])
        sub = scalar_march(
            edges[first], edges[stop], crossovers + grid.refinement_centers, floor,
            ratio - 1.0,
        )
        q, w = _panels_to_grid(sub, ppp)
        new.append(w * eval_B(p, q, params))

    def total(parts):
        return np.add.reduceat(np.concatenate(parts), [0])[0]

    return (row @ grid.weights - total(old) + total(new)) / (2.0 * np.pi)


def test_diag_A_matches_per_row_meshes():
    for T, mu in ((1e-4, 1.0), (7.8e-3, 1.0), (1.0, 1.0), (1.0, 0.0), (0.5, -0.5)):
        params = ModelParams(T=T, mu=mu)
        grid = build_grid(params, 1e-8)
        diag = eval_A(grid.nodes, params, grid)
        ref = [per_row_A(params, grid, p) for p in grid.nodes]
        assert np.array_equal(diag, ref)


A_MESH_LATTICE = [(T, mu) for mu in (0.0, 1.0) for T in (1e-5, 1e-3, 3e-2, 0.3, 3.0)]


@pytest.mark.parametrize("T, mu", A_MESH_LATTICE)
def test_diag_A_meets_tol_against_refined_meshes(T, mu):
    # A(p)'s sub-meshes at their Gauss rule's resolution against meshes
    # with a quarter of the floor and a ladder ratio of 2, at the build T
    # and at 1.4 times it, where certify accepts the grid too
    grid = build_grid(ModelParams(T=T, mu=mu), 1e-8)
    for at in (T, 1.4 * T):
        params = ModelParams(T=at, mu=mu)
        diag = eval_A(grid.nodes, params, grid)
        ref = [per_row_A(params, grid, p, refine=4.0, ratio=2.0) for p in grid.nodes]
        assert np.max(np.abs(diag - ref)) <= grid.policy.tol / 100.0


@pytest.mark.parametrize("T, mu", A_MESH_LATTICE)
def test_certify_refuses_a_T_the_A_meshes_do_not_resolve(T, mu):
    # below the build T the pole of tanh(x/2T) nears the crossovers of
    # B(p, .) and the sub-meshes laid out for the build T miss A(p); the
    # B(0, .) probe alone accepted every one of these grids at T/8
    grid = build_grid(ModelParams(T=T, mu=mu), 1e-8)
    with pytest.raises(QuadratureUnderresolved, match="sub-meshes"):
        grid.certify(ModelParams(T=T / 8.0, mu=mu))
    for at in (T, 1.4 * T):
        grid.certify(ModelParams(T=at, mu=mu))


@pytest.mark.parametrize(
    "T, mu, ppp",
    [(T, 1.0, 16) for T in (1e-3, 8.5e-3, 1e-4, 1e-1)]
    + [
        pytest.param(
            T,
            mu,
            8,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="B(p, .) varies on the scale sqrt(T) here, and 8-point "
                "grid panels just past a crossover's three corrected panels "
                "miss the tol (by up to 4.9e-8 at mu=0)",
            ),
        )
        for T, mu in ((1.0, 0.0), (1.0, -0.5))
    ],
)
def test_diag_A_meets_tol_against_ppp32(T, mu, ppp):
    # every node, tail nodes included: the crossovers of B(p, .) past
    # the core lie in tail panels the grid does not resolve
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, 1e-8, points_per_panel=ppp)
    fine = build_grid(params, 1e-8, points_per_panel=32)
    diff = eval_A(grid.nodes, params, grid) - eval_A(grid.nodes, params, fine)
    assert np.all(np.abs(diff) <= grid.policy.tol)


def test_eval_A_is_the_operator_diagonal():
    # assemble adds A(p_i) to the scaled kernel diagonal; eval_A must
    # give those A(p_i) bit for bit, in any order and sign of the momenta
    rng = np.random.default_rng(20261018)
    for T in (1e-4, 7.8e-3, 1.0):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-8)
        op = assemble(params, grid, N)
        sw = np.sqrt(grid.weights)
        K = _B_matrix(grid.nodes, params) * (sw[:, None] * sw[None, :])
        K *= N.sign / (2.0 * np.pi)
        diag = eval_A(grid.nodes, params, grid)
        assert np.array_equal(np.diagonal(op.matrix), (np.diagonal(K) + diag)[: op.n])
        perm = rng.permutation(grid.n)
        flipped = rng.choice([-1.0, 1.0], grid.n) * grid.nodes[perm]
        assert np.array_equal(eval_A(flipped, params, grid), diag[perm])


@pytest.mark.parametrize(
    "use",
    [
        lambda params, grid: assemble(params, grid, D),
        lambda params, grid: eval_a(params, grid),
        lambda params, grid: eval_A(grid.nodes[:4], params, grid),
    ],
    ids=["assemble", "eval_a", "eval_A"],
)
def test_grid_is_certified_at_the_params_it_is_used_at(use):
    # unchecked, the grid built at T=1 gave a_edge 3.3278 at T=1e-4 (3.4130
    # on the grid built there) and a Dirichlet gap of -0.486 (+0.0058)
    grid = build_grid(ModelParams(T=1.0, mu=1.0), 1e-8)
    with pytest.raises(QuadratureUnderresolved):
        use(ModelParams(T=1e-4, mu=1.0), grid)
    # built for mu=1 at T=1e-2 it gave a_edge 1.6686 at mu=2 (1.5328)
    grid = build_grid(ModelParams(T=1e-2, mu=1.0), 1e-8)
    with pytest.raises(ValueError, match="mu"):
        use(ModelParams(T=1e-2, mu=2.0), grid)


def test_even_sector_matches_full_line():
    # bound-state regimes, where the top eigenvalue is isolated
    cases = [
        (1e-3, 1.0, D),
        (0.5, 1.0, N),
        (2.0, 1.5, N),
    ]
    for T, mu, bc in cases:
        params = ModelParams(T=T, mu=mu)
        grid = build_grid(params, 1e-8)
        lam, _ = top_eigenpair(assemble(params, grid, bc))
        lam_full = full_line_top(params, grid, bc)
        assert abs(lam - lam_full) <= 1e-8 * abs(lam)


def test_neumann_dominates_dirichlet():
    for T in (0.05, 0.5, 2.0):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-8)
        lam_n, _ = top_eigenpair(assemble(params, grid, N))
        lam_d, _ = top_eigenpair(assemble(params, grid, D))
        a = eval_a(params, grid)
        assert lam_n >= a - 1e-12
        assert lam_n >= lam_d


def test_gap_regimes():
    # Dirichlet binds at small T over positive mu, not in the mu=0 limit
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, 1e-8)
    assert spectral_gap(assemble(params, grid, D)) > 10 * grid.self_convergence

    params = ModelParams(T=1.0, mu=0.0)
    grid = build_grid(params, 1e-8)
    assert spectral_gap(assemble(params, grid, D)) <= 1e-4
    assert spectral_gap(assemble(params, grid, N)) > 0.1


def test_boundary_state_localized_at_small_p():
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, 1e-8)
    lam, x = top_eigenpair(assemble(params, grid, D))
    assert lam > eval_a(params, grid)
    mass_below = np.sum(x[grid.nodes < np.sqrt(params.mu)] ** 2)
    assert mass_below > 0.5


def uncut_matrix(params, grid, bc):
    """Reference: the Nystroem matrix on every grid node, as assemble
    builds it before the cut."""
    sw = np.sqrt(grid.weights)
    M = _B_matrix(grid.nodes, params) * (sw[:, None] * sw[None, :])
    M *= bc.sign / (2.0 * np.pi)
    M[np.diag_indices_from(M)] += eval_A(grid.nodes, params, grid)
    return M


@pytest.mark.parametrize(
    "mu, T, bc, tol",
    [
        (mu, T, bc, 1e-8)
        for mu in (0.0, 1.0, 4.0)
        for T in (1e-5, 1e-2, 1.0, 1e3)
        for bc in (D, N)
    ]
    # dropping every tail panel here moves the top eigenvalue by 4e-6
    + [(1.0, 1.0, N, 1e-6)],
)
def test_matrix_cut_certificate_bounds_the_move(mu, T, bc, tol):
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, tol)
    op = assemble(params, grid, bc)
    full = uncut_matrix(params, grid, bc)
    assert np.array_equal(op.matrix, full[: op.n, : op.n])
    lam_cut = np.linalg.eigvalsh(op.matrix)[-1]
    lam_full = np.linalg.eigvalsh(full)[-1]
    assert abs(lam_cut - lam_full) <= op.cut_bound <= tol / 2.0


def test_matrix_cut_keeps_every_node_when_the_tail_couples_at_order_one():
    # a synthetic matrix of a grid's shape: diagonal 2 on the core and 1 on
    # the tail, every core node coupled to every tail node at 1.  Each
    # leading block's bound is about ||X||_F, far above tol/2, so no cut
    # qualifies and the matrix keeps every node
    grid = build_grid(ModelParams(T=1.0, mu=1.0), 1e-8)
    core = int(np.count_nonzero(grid.nodes <= grid.core_cutoff))
    assert core < grid.n
    full = np.diag(np.where(np.arange(grid.n) < core, 2.0, 1.0))
    full[:core, core:] = full[core:, :core] = 1.0
    assert bso._matrix_cut(full, grid, 1.0) == (grid.n, 0.0)


# the operator points of tools/operator_digest.py
DIGEST_POINTS = [
    (ModelParams(T=T, mu=mu), tol, ppp)
    for ppp in (16, 8)
    for tol in (1e-8, 1e-5)
    for mu in (-0.5, 0.0, 0.3, 1.0, 4.0)
    for T in (1e-5, 7.8e-3, 1.0, 20.0)
]


def test_off_diagonal_entries_carry_the_boundary_sign_on_the_digest_battery():
    # the Gershgorin reach comes from plain row sums because B >= 0: tanh u
    # + tanh v has the sign of u + v.  At T = 1e-5 both tanh factors
    # saturate on whole ranges, where B is the closed form or exactly 0
    zeros = 0
    for params, tol, ppp in DIGEST_POINTS:
        try:
            grid = build_grid(params, tol, ppp)
        except NumericsError:
            continue
        K = _B_matrix(grid.nodes, params)
        assert (K >= 0.0).all()
        zeros += np.count_nonzero(K == 0.0)
        meshes = _A_meshes(grid, grid.nodes)
        for bc in (D, N):
            block, _ = bso._nystroem(params, grid, bc, meshes)
            full, m = block.base, block.shape[0]
            d = np.diagonal(full).copy()
            off = bc.sign * full
            off[np.diag_indices_from(off)] = 0.0
            assert (off >= 0.0).all()
            reach = d + off.sum(axis=1)
            for M, r in ((full, reach), (full[:m, :m], d[:m] + off[:m, :m].sum(axis=1))):
                assert np.allclose(bso._gershgorin_reach(M, bc.sign), r, rtol=1e-13, atol=0)
    assert zeros > 0


@st.composite
def sign_carrying_matrices(draw):
    """(M, sign, t): symmetric M whose off-diagonal entries all carry sign,
    as an operator matrix's do, and a shift t > 0."""
    n = draw(st.integers(1, 9))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    entries = st.floats(0.0, 1.0) | st.just(0.0)
    upper = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    B = np.triu(upper.reshape(n, n), 1)
    M = sign * (B + B.T)
    M[np.diag_indices(n)] = draw(st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n))
    return M, sign, draw(st.floats(0.1, 4.0))


@given(sign_carrying_matrices())
def test_schur_gap_has_the_sign_and_at_least_the_size_of_the_top_gap(case):
    M, sign, t = case
    n = M.shape[0]
    before = M.copy()
    G, k = bso._schur_gap(M, sign, t)
    assert np.array_equal(M, before)  # its diagonal is put back bit for bit
    gap = np.linalg.eigvalsh(M)[-1] - t
    slack = 1e-12 * (1.0 + np.abs(M).sum(axis=1).max())
    assert abs(G) >= abs(gap) - slack
    if abs(gap) > slack:
        assert np.sign(G) == np.sign(gap)
    # the kept prefix ends on the last node that reaches t - margin, or is
    # the first node alone; every dropped row certifies D < (t - margin) I
    edge = t - bso.SCHUR_MARGIN * t
    reach = np.diagonal(M) + np.abs(M).sum(axis=1) - np.abs(np.diagonal(M))
    assert 1 <= k <= n
    assert k == 1 or reach[k - 1] >= edge - slack
    assert (reach[k:] < edge + slack).all()
    Dk = M[k:, k:]
    if k < n:
        disc = np.diagonal(Dk) + np.abs(Dk).sum(axis=1) - np.abs(np.diagonal(Dk))
        assert disc.max() < edge + slack
    else:
        assert G == gap  # nothing dropped: the plain eigensolve


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_schur_gap_keeps_one_row_when_none_reaches(sign):
    # no Gershgorin disc reaches t - margin: the first node is kept alone,
    # and G < 0 as lambda_max < t
    M = np.diag([0.3, 0.2, 0.1, 0.05]) + sign * 0.02 * (1.0 - np.eye(4))
    G, k = bso._schur_gap(M, sign, 1.0)
    assert k == 1
    gap = np.linalg.eigvalsh(M)[-1] - 1.0
    assert G <= gap < 0.0
    # a last node that reaches keeps the whole matrix
    M[3, 3] = 2.0
    G, k = bso._schur_gap(M, sign, 1.0)
    assert k == 4 and G == np.linalg.eigvalsh(M)[-1] - 1.0 > 0.0


def test_schur_gap_refuses_a_non_finite_matrix():
    M = np.eye(3)
    M[2, 1] = M[1, 2] = np.nan
    with pytest.raises(NoConvergence, match="non-finite entry"):
        bso._schur_gap(M, 1.0, 0.5)


# the fixed-T solves of the benchmark: 36 log-spaced T/mu in [1e-5, 1]
FIXED_T_LATTICE = [float(f"{1e-5 * 1e5 ** (k / 35):.6g}") for k in range(36)]


def test_top_eigenpair_matches_eigh_on_fixed_t_lattice():
    # the matrix cut drops whole tail panels; eigvalsh plus inverse
    # iteration against the full decomposition
    for T in FIXED_T_LATTICE:
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-8)
        for bc in (D, N):
            op = assemble(params, grid, bc)
            assert op.n < grid.n
            assert op.n % grid.policy.points_per_panel == 0
            M = op.matrix
            scale = np.linalg.norm(M, np.inf)
            lam, x = top_eigenpair(op)
            x = x[: op.n]
            vals, vecs = np.linalg.eigh(M)
            assert abs(lam - vals[-1]) <= 1e-13 * scale
            assert abs(x @ vecs[:, -1]) >= 1.0 - 1e-12
            assert np.linalg.norm(M @ x - lam * x) < bso.EIGEN_TOL * scale


# 32-point matrices at T <= 1e-3 reach order 2,272 and take seconds each
@pytest.mark.parametrize(
    "T, ppp", [(T, 16) for T in (1e-5, 1e-3, 0.1, 1.0)] + [(0.1, 32), (1.0, 32)]
)
def test_tail_panels_move_the_top_eigenvalue_within_the_cut_bound(T, ppp):
    # wide tail panels against octaves at the same cutoff: the matrix cut
    # falls on other edges, and the top eigenvalue moves by no more than
    # the larger of the two cut bounds
    params = ModelParams(T=T, mu=1.0)
    grid = build_grid(params, 1e-8, points_per_panel=ppp)
    _, twin = octave_twin(params, grid)
    for bc in (D, N):
        op, op_twin = assemble(params, grid, bc), assemble(params, twin, bc)
        assert op.a_edge == pytest.approx(op_twin.a_edge, rel=1e-14, abs=0)
        move = abs(_top_value(op.matrix) - _top_value(op_twin.matrix))
        assert move <= max(op.cut_bound, op_twin.cut_bound) + 1e-13


def test_assemble_peak_memory():
    # tracemalloc peak of one assemble at n=896 reads 16.6 MB: the kernel
    # matrix (6.4 MB) plus A(p)'s sub-meshes.  It read 62.8 MB (at n=1,056)
    # while every momentum had its own full mesh, 1.15M points in all.
    # Once assemble returns, only the operator's matrix is left: the grid
    # holds none of A(p)'s sub-meshes (7 MB here)
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, 1e-8)
    tracemalloc.start()
    try:
        op = assemble(params, grid, D)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.n == 896
    assert peak < 32e6
    assert held <= op.matrix.nbytes + 1e6


def test_top_eigenpair_trivial_matrices():
    grid = build_grid(ModelParams(T=1.0, mu=0.0), 1e-7)
    params = ModelParams(T=1.0, mu=0.0)
    base = assemble(params, grid, D)

    def with_matrix(M):
        return bso.DiscretizedOperator(
            matrix=M,
            grid=base.grid,
            bc=D,
            a_edge=base.a_edge,
            cut_bound=0.0,
        )

    lam, x = top_eigenpair(with_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert lam == pytest.approx(3.0, abs=1e-14)
    # the vector lives on the grid's nodes, zero past the matrix
    assert x.shape == (grid.n,) and not x[2:].any()
    assert np.allclose(np.abs(x[:2]), 1.0 / np.sqrt(2.0), atol=1e-14)

    lam, x = top_eigenpair(with_matrix(np.eye(5)))
    assert lam == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-14)


def test_top_value_refuses_a_nan_matrix():
    # eigvalsh may return NaN, or finite values, for a NaN entry
    params = ModelParams(T=1.0, mu=0.0)
    base = assemble(params, build_grid(params, 1e-7), D)
    for i, j in [(1, 2), (3, 3)]:
        M = np.eye(4)
        M[i, j] = M[j, i] = np.nan
        op = bso.DiscretizedOperator(
            matrix=M, grid=base.grid, bc=D, a_edge=base.a_edge,
            cut_bound=0.0,
        )
        with pytest.raises(NoConvergence, match="non-finite entry"):
            _top_value(M)
        with pytest.raises(NoConvergence):
            top_eigenpair(op)


def test_top_value_is_top_eigenpairs_value():
    params = ModelParams(T=1e-2, mu=1.0)
    grid = build_grid(params, 1e-8)
    # the root find reads the top eigenvalue from _nystroem's block, every
    # other caller from assemble's copy of it: the same bits
    meshes = _A_meshes(grid, grid.nodes)
    for bc in (D, N):
        op = assemble(params, grid, bc)
        block, cut_bound = bso._nystroem(params, grid, bc, meshes)
        assert block.flags.writeable and cut_bound == op.cut_bound
        top = top_eigenpair(op)[0]
        assert _top_value(block) == _top_value(op.matrix) == top == spectral_gap(op) + op.a_edge
        # the half-line solve: _schur_gap on that block, or with lambda_max
        # asked and t above it, lambda_max - t and no split
        t = 0.9 * top
        G, record = bso._half_line_solve(params, grid, bc, meshes, t)
        assert (G, record.schur_nodes) == bso._schur_gap(block, bc.sign, t)
        assert (record.matrix_nodes, record.cut_bound) == (op.n, op.cut_bound)
        assert record.lambda_max is None
        G, record = bso._half_line_solve(params, grid, bc, meshes, 1.1 * top, top=True)
        assert (G, record.lambda_max) == (top - 1.1 * top, top)
        assert record.schur_nodes == record.matrix_nodes == op.n


def test_top_eigenpair_turns_the_largest_entry_positive():
    # inverse iteration from the flat start keeps the sign of the entry sum,
    # which here is opposite to that of the largest entry
    params = ModelParams(T=1.0, mu=0.0)
    base = assemble(params, build_grid(params, 1e-7), D)
    v = np.array([-0.6, 0.48, 0.48, 0.42])
    v /= np.linalg.norm(v)
    op = bso.DiscretizedOperator(
        matrix=np.outer(v, v), grid=base.grid, bc=D, a_edge=base.a_edge, cut_bound=0.0
    )
    lam, x = top_eigenpair(op)
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(x[:4], -v, rtol=0.0, atol=1e-12)


def test_grids_and_operators_compare_by_identity():
    params = ModelParams(T=1.0, mu=0.0)
    grid, twin = build_grid(params, 1e-7), build_grid(params, 1e-7)
    assert np.array_equal(grid.nodes, twin.nodes)
    op, op_twin = assemble(params, grid, D), assemble(params, grid, D)
    for one, other in [(grid, twin), (op, op_twin)]:
        assert one == one and one != other
        assert len({one, other, one}) == 2


def test_import_leaves_scipy_unloaded():
    # the package needs only numpy at run time
    src = str(Path(bso.__file__).resolve().parents[1])
    code = "import sys, bcs_edge; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_eigenvalue_stable_under_refinement():
    params = ModelParams(T=1e-3, mu=1.0)
    tol = 1e-7
    base = build_grid(params, tol)
    # a core cut 4.5 rather than CUTOFF_FACTOR = 3 times 2 sqrt(mu) +
    # TAIL_K sqrt(max(T, mu, 1)) = 22: one more core panel, 66 to 99
    _, wide = octave_twin(params, base, 4.5 * 22.0)
    assert base.core_cutoff == 66.0
    grids = {"base": base, "ppp": build_grid(params, tol, 32), "wide": wide}
    lam = {key: top_eigenpair(assemble(params, g, D))[0] for key, g in grids.items()}
    assert abs(lam["ppp"] - lam["base"]) < tol
    assert abs(lam["wide"] - lam["base"]) < tol


def test_perturbation_block_hilbert_schmidt_stable():
    # HS norm of the perturbation block as assembled; the even-sector
    # factor 2 makes it equal the full-plane HS norm of (1/4pi) B,
    # which scipy.dblquad puts at 0.447532 for (T, mu) = (0.2, 1)
    params = ModelParams(T=0.2, mu=1.0)

    def hs(grid):
        sw = np.sqrt(grid.weights)
        p = grid.nodes
        block = (
            eval_B(p[:, None], p[None, :], params)
            * (sw[:, None] * sw[None, :])
            / (2.0 * np.pi)
        )
        return np.linalg.norm(block)

    g1 = build_grid(params, 1e-8)
    g2 = build_grid(params, 1e-8, points_per_panel=32)
    n1, n2 = hs(g1), hs(g2)
    assert n1 == pytest.approx(0.4475322903, rel=1e-4)
    assert n2 == pytest.approx(n1, rel=1e-5)


def test_b_block_operator_norm_bounded_in_T():
    # uniform-in-T boundedness of the perturbation, mu=1
    norms = []
    for T in (1e-3, 1e-1, 1e1, 1e3):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-7)
        sw = np.sqrt(grid.weights)
        p = grid.nodes
        block = (
            eval_B(p[:, None], p[None, :], params)
            * (sw[:, None] * sw[None, :])
            / (2.0 * np.pi)
        )
        norms.append(np.max(np.abs(np.linalg.eigvalsh(block))))
    assert max(norms) < 10.0


def test_low_momentum_block_smallness():
    # HS norm of B restricted to [-eps, eps]^2 obeys 2 eps/(mu - eps^2)
    params = ModelParams(T=0.05, mu=1.0)
    for eps in (0.1, 0.3, 0.6):
        qs = np.linspace(1e-4, eps, 60)
        vals = eval_B(qs[:, None], qs[None, :], params) ** 2
        hs2 = 4.0 * np.trapezoid(np.trapezoid(vals, qs, axis=1), qs)
        bound = 2.0 * eps / (params.mu - eps * eps)
        assert np.sqrt(hs2) <= bound
