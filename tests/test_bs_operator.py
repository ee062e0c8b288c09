"""Operator assembly, eigensolver, and the even-sector reduction.

The full-line oracle here rebuilds the operator on the mirrored grid
[-Lambda, Lambda] with the plain kernel (no folding factor), so it
validates the even-sector factor 2 independently of the package's own
assembly path.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcs_edge.bs_operator as bso
from bcs_edge import (
    GridKnobs,
    ModelParams,
    NoConvergence,
    build_grid,
    eval_B,
    eval_a,
)
from bcs_edge.bs_operator import (
    BoundaryCondition,
    assemble,
    spectral_gap,
    top_eigenpair,
)
from bcs_edge.bs_operator import _kernel_matrix, eval_A
from bcs_edge.kernels import _BLOCK
from bcs_edge.quadrature import BETA, _panels_to_grid
from test_quadrature import scalar_march

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


def test_matrix_symmetric_and_immutable():
    params = ModelParams(T=0.3, mu=1.0)
    op = assemble(params, build_grid(params, 1e-7), D)
    assert np.array_equal(op.matrix, op.matrix.T)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 0.0


def test_kernel_matrix_is_B_on_every_pair_bitwise():
    # row blocks of _BLOCK // n rows, the last one short; the mirrored
    # lower triangle must hold the very bits a full evaluation gives
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, 1e-6)
    p = grid.nodes
    assert p.size % max(1, _BLOCK // p.size)
    K = _kernel_matrix(params, grid)
    assert np.array_equal(K, eval_B(p[:, None], p[None, :], params))


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


def per_node_diag_A(params, grid):
    """Reference diagonal: one scalar-marched mesh per node, every B value
    evaluated afresh, and the plain grid sum for the nodes beyond p_skip."""
    smu = np.sqrt(params.mu) if params.mu > 0 else 0.0
    p_skip = np.sqrt(
        8.0 * params.mu
        + (4.0 * (smu + np.sqrt(params.T)) + 1.0) / (np.pi * grid.policy.tol)
    )
    k = int(np.searchsorted(grid.nodes, p_skip))
    octaves = grid.panel_edges[grid.panel_edges > grid.core_cutoff]
    qs, ws, sizes = [], [], []
    for pi in grid.nodes[:k]:
        centers = grid.refinement_centers + (abs(2.0 * smu - pi), 2.0 * smu + pi)
        edges = scalar_march(grid.core_cutoff, centers, grid.floor, BETA)
        nodes_i, w_i = _panels_to_grid(
            np.append(edges, octaves), grid.policy.points_per_panel
        )
        qs.append(nodes_i)
        ws.append(w_i)
        sizes.append(nodes_i.size)
    vals = np.concatenate(ws) * eval_B(
        np.repeat(grid.nodes[:k], sizes), np.concatenate(qs), params
    )
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    tail = eval_B(grid.nodes[k:, None], grid.nodes, params) @ grid.weights
    return np.concatenate([np.add.reduceat(vals, starts), tail]) / (2.0 * np.pi)


def test_diag_A_matches_per_node_meshes():
    for T in (1e-4, 7.8e-3, 1.0):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-8)
        diag = eval_A(grid.nodes, params, grid)
        assert np.array_equal(diag, per_node_diag_A(params, grid))


def test_eval_A_is_the_operator_diagonal():
    # assemble adds A(p_i) to the scaled kernel diagonal; eval_A must
    # give those A(p_i) bit for bit, in any order and sign of the momenta
    rng = np.random.default_rng(20261018)
    for T in (1e-4, 7.8e-3, 1.0):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-8)
        op = assemble(params, grid, N)
        sw = np.sqrt(grid.weights)
        K = _kernel_matrix(params, grid) * (sw[:, None] * sw[None, :])
        K *= N.sign / (2.0 * np.pi)
        diag = eval_A(grid.nodes, params, grid)
        assert np.array_equal(np.diagonal(op.matrix), (np.diagonal(K) + diag)[: op.n])
        perm = rng.permutation(grid.n)
        flipped = rng.choice([-1.0, 1.0], grid.n) * grid.nodes[perm]
        assert np.array_equal(eval_A(flipped, params, grid), diag[perm])


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
    M = _kernel_matrix(params, grid) * (sw[:, None] * sw[None, :])
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
    # dropping every octave here moves the top eigenvalue by 4e-6
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


def test_matrix_cut_drops_octaves_on_fixed_t_lattice():
    # the fixed-T solves of the benchmark: 36 log-spaced T/mu in [1e-5, 1]
    Ts = [float(f"{1e-5 * 1e5 ** (k / 35):.6g}") for k in range(36)]
    for T in Ts:
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-8)
        for bc in (D, N):
            op = assemble(params, grid, bc)
            assert op.n < grid.n
            assert op.n % grid.policy.points_per_panel == 0


def test_top_eigenpair_trivial_matrices():
    grid = build_grid(ModelParams(T=1.0, mu=0.0), 1e-7)
    params = ModelParams(T=1.0, mu=0.0)
    base = assemble(params, grid, D)

    def with_matrix(M):
        return bso.DiscretizedOperator(
            matrix=M,
            grid=base.grid,
            params=params,
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
    lam = {}
    for key, kw in {
        "base": {},
        "ppp": {"points_per_panel": 32},
        "lam15": {"cutoff_factor": 4.5},
    }.items():
        grid = build_grid(params, tol, GridKnobs(**kw))
        lam[key], _ = top_eigenpair(assemble(params, grid, D))
    assert abs(lam["ppp"] - lam["base"]) < tol
    assert abs(lam["lam15"] - lam["base"]) < tol


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
    g2 = build_grid(params, 1e-8, GridKnobs(points_per_panel=32))
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
