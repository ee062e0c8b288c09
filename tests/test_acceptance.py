"""Acceptance suite: the shipping contract, one test per criterion.

Each test wraps its assertions in the acceptance fixture, which records
a PASS/FAIL line in the terminal summary.  The tolerances here are
contractual: loosening one is never a fix for a failing criterion.
"""

import json

import numpy as np

import bcs_edge.cli as cli
from bcs_edge import (
    BoundaryCondition,
    ModelParams,
    assemble,
    build_grid,
    check_K_majorant,
    check_L_sandwich,
    check_concavity_bound,
    check_mean_bound,
    check_tanh_diff,
    check_tanh_sum,
    eval_B,
    eval_L,
    eval_a,
    int_F_residual,
    ratio_curve,
    scaled_sup,
    spectral_gap,
    tc_bulk,
    tc_bulk_asymptotic,
    top_eigenpair,
    trial_gap,
)
from bcs_edge.bs_operator import eval_A
from test_kernels import matsubara_L

DIRICHLET = BoundaryCondition.DIRICHLET
NEUMANN = BoundaryCondition.NEUMANN

SWEEP_V = np.geomspace(0.3, 5.0, 12)


def test_c01_bulk_equation_residual(acceptance):
    with acceptance(1, "bulk-equation-residual"):
        for v in (0.3, 0.5, 1.0, 2.0, 5.0):
            result = tc_bulk(v, 1.0, tol=5e-7)
            params = ModelParams(T=result.tc, mu=1.0)
            lhs = float(eval_a(params, build_grid(params, 1e-9)))
            assert abs(lhs - 1.0 / v) <= 1e-6
            doubled = build_grid(params, 1e-9, points_per_panel=32)
            assert abs(float(eval_a(params, doubled)) - 1.0 / v) <= 1e-5


def test_c02_weak_coupling_asymptotics(acceptance):
    with acceptance(2, "weak-coupling-asymptotics"):
        deviation = {}
        for v in (0.4, 0.5):
            tc = tc_bulk(v, 1.0, tol=1e-7).tc
            deviation[v] = abs(tc / tc_bulk_asymptotic(v, 1.0) - 1.0)
        assert deviation[0.5] <= 0.15
        assert deviation[0.4] < deviation[0.5]


def test_c03_dirichlet_enhancement(acceptance):
    with acceptance(3, "dirichlet-enhancement"):
        for v in (0.5, 0.8):
            row = ratio_curve([v], 1.0, DIRICHLET, tol=1e-6).rows[0]
            assert row.error is None
            # couplings chosen so tc_bulk/mu sits in the window [1e-3, 1e-1]
            assert 1e-3 <= row.tc_bulk <= 1e-1
            enhancement = row.tc_boundary - row.tc_bulk
            assert enhancement > 10.0 * row.t_noise > 0.0
            # relative shift of order 1e-2 to 1e-1
            assert 5e-3 <= row.relative_shift <= 0.3


def test_c04_dirichlet_interior_maximum(acceptance):
    with acceptance(4, "dirichlet-interior-maximum"):
        curve = ratio_curve(SWEEP_V, 1.0, DIRICHLET, tol=1e-4)
        assert all(row.error is None for row in curve.rows)
        shifts = [row.relative_shift for row in curve.rows]
        peak = int(np.argmax(shifts))
        assert 0 < peak < len(shifts) - 1
        assert shifts[0] < shifts[peak]
        assert shifts[-1] < shifts[peak]


def test_c05_neumann_plateau(acceptance):
    with acceptance(5, "neumann-plateau"):
        curve = ratio_curve(SWEEP_V, 1.0, NEUMANN, tol=1e-4)
        assert all(row.error is None for row in curve.rows)
        shifts = np.array([row.relative_shift for row in curve.rows])
        assert np.all(shifts > 0.0)
        top3 = shifts[-3:]
        assert (top3.max() - top3.min()) / top3.mean() < 0.20

        params = ModelParams(T=1.0, mu=0.0)
        grid = build_grid(params, 1e-9)
        edge = float(eval_a(params, grid))
        excess = top_eigenpair(assemble(params, grid, NEUMANN))[0] - edge
        plateau = (excess / edge + 1.0) ** 2 - 1.0
        assert abs(shifts[-1] / plateau - 1.0) <= 0.10


def test_c06_strong_coupling_collapse(acceptance):
    with acceptance(6, "strong-coupling-collapse"):
        params = ModelParams(T=1.0, mu=0.0)
        grid = build_grid(params, 1e-9)
        edge = float(eval_a(params, grid))
        top = top_eigenpair(assemble(params, grid, DIRICHLET))[0]
        assert top <= edge * (1.0 + 1e-4)
        for bc in (DIRICHLET, NEUMANN):
            for T in (10.0, 100.0, 1000.0):
                lhs = scaled_sup(T, 1.0, bc, tol=1e-9)
                rhs = scaled_sup(1.0, 1.0 / T, bc, tol=1e-9)
                # grid tolerance 1e-9 enters both sides; the sqrt(T)
                # prefactor scales the left one
                assert abs(lhs - rhs) <= (np.sqrt(T) + 1.0) * 1e-8


def test_c07_trial_state_certificate(acceptance):
    with acceptance(7, "trial-state-certificate"):
        witness = trial_gap(ModelParams(T=1e-4, mu=1.0), b=1.0, tol=1e-8)
        assert witness > 0.0
        # positive witness must imply a positive eigensolver gap; the
        # last pair has a negative witness and exercises the vacuous arm
        for T, mu in ((1e-4, 1.0), (1e-2, 1.0), (0.05, 2.0), (0.5, 1.0)):
            params = ModelParams(T=T, mu=mu)
            value = trial_gap(params, b=mu, tol=1e-8)
            if value > 0.0:
                grid = build_grid(params, 1e-8)
                assert spectral_gap(assemble(params, grid, DIRICHLET)) > 0.0


def test_c08_asymptotic_residual_ladder(acceptance):
    with acceptance(8, "asymptotic-residual-ladder"):
        ladder = [
            abs(int_F_residual(ModelParams(T=T, mu=1.0), tol=1e-10))
            for T in (1e-2, 1e-3, 1e-4, 1e-5)
        ]
        assert all(b < a for a, b in zip(ladder, ladder[1:]))
        assert abs(int_F_residual(ModelParams(T=1e-6, mu=1.0), tol=1e-10)) < 1e-2


def test_c09_inequality_suite(acceptance):
    with acceptance(9, "inequality-suite"):
        n = 100_000
        reports = [
            check_tanh_sum(n, seed=0),
            check_tanh_diff(n, seed=0),
            check_mean_bound(n, seed=0),
            check_concavity_bound(n, seed=0),
            check_L_sandwich(1.0, 1.0, n, seed=0),
            check_K_majorant(seed=0),
        ]
        for report in reports:
            assert report.violations == 0, report
        # explicit Gram floor on 50-node random grids, independent of
        # the bookkeeping inside check_K_majorant
        params = ModelParams(T=1.0, mu=0.0)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            p = np.abs(rng.uniform(-50.0, 50.0, 50))
            bp0 = eval_B(p, 0.0, params)
            gram = np.minimum(bp0[:, None], bp0[None, :])
            assert float(np.linalg.eigvalsh(gram)[0]) >= -1e-10


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


def test_c10_discretization_validity(acceptance):
    with acceptance(10, "discretization-validity"):
        rng = np.random.default_rng(20260815)
        for bc in (DIRICHLET, NEUMANN, DIRICHLET):
            mu = float(rng.uniform(0.5, 2.0))
            T = mu * float(10.0 ** rng.uniform(-3.0, -1.0))
            params = ModelParams(T=T, mu=mu)
            grid = build_grid(params, 1e-8)
            lam_even = top_eigenpair(assemble(params, grid, bc))[0]
            lam_full = full_line_top(params, grid, bc)
            assert abs(lam_even - lam_full) <= 1e-8 * abs(lam_full)

        worst = 0.0
        for _ in range(20):
            params = ModelParams(
                T=float(np.exp(rng.uniform(np.log(1.0), np.log(4.0)))),
                mu=float(rng.uniform(0.0, 0.3)),
            )
            p = rng.uniform(-0.8, 0.8, 500)
            q = rng.uniform(-0.8, 0.8, 500)
            exact = eval_L(p, q, params)
            # 30 conjugate pairs plus the closed two-order tail
            series = matsubara_L(p, q, params, 30)
            worst = max(worst, float(np.max(np.abs(series / exact - 1.0))))
        assert worst <= 1e-6


def test_c11_manifest_replay(acceptance, tmp_path, capsys):
    with acceptance(11, "manifest-replay"):
        runs = [
            (
                "curve.csv",
                ["ratio-curve", "--mu", "1", "--bc", "neumann", "--v-min",
                 "0.5", "--v-max", "1.0", "--v-count", "2", "--tol", "1e-3"],
            ),
            (
                "bulk.csv",
                ["tc-bulk", "--mu", "1", "--v", "0.4", "--v", "0.8",
                 "--tol", "1e-3"],
            ),
        ]
        for name, argv in runs:
            out = tmp_path / name
            assert cli.main(argv + ["--out", str(out)]) in (0, 3)
            manifest = json.loads(
                (tmp_path / f"{name}.manifest.json").read_text()
            )
            replay = tmp_path / f"replay-{name}"
            assert cli.main(manifest["argv"] + ["--out", str(replay)]) in (0, 3)
            assert replay.read_bytes() == out.read_bytes()
        capsys.readouterr()
