"""Seeded inequality checks: zero violations and reproducible reports."""

import logging

import numpy as np
import pytest

from bcs_edge import lemma_suite
from bcs_edge.kernels import ModelParams, _tanh_pair_ratio, eval_B, eval_F
from bcs_edge.lemma_suite import (
    CheckReport,
    _tally,
    check_B_uniform_norm,
    check_E_log_growth,
    check_K_majorant,
    check_L_sandwich,
    check_concavity_bound,
    check_mean_bound,
    check_tanh_diff,
    check_tanh_sum,
)
from bcs_edge.quadrature import build_grid

SEED = 20260815
N = 20_000
# regression cap for sup over (p, T) of the row integral of B away from
# p = 0 (mu = 1, |p| >= 0.5); measured 8.53, flat in T
SUP_INT_B_CAP = 9.0


def test_tally_plumbing():
    r = _tally("demo", np.array([0.5, -1e-3]), 1.0, 7)
    assert r == CheckReport("demo", 2, 1, -1e-3, 7)
    r = _tally("demo", np.array([0.5, -1e-13]), 1.0, 7)
    assert r.violations == 0 and r.worst_margin == -1e-13


def test_reports_reproducible():
    a = check_tanh_sum(n_samples=5000, seed=SEED)
    b = check_tanh_sum(n_samples=5000, seed=SEED)
    assert a == b
    c = check_tanh_sum(n_samples=5000, seed=SEED + 1)
    assert c.worst_margin != a.worst_margin


def test_tanh_sum_no_violations():
    r = check_tanh_sum(n_samples=N, seed=SEED)
    assert r.violations == 0
    assert r.worst_margin > -1e-12
    # closed form at x = y = 1, T = 1: tanh(1) < 1
    assert _tanh_pair_ratio(np.array([1.0]), np.array([1.0]))[0] == pytest.approx(
        np.tanh(1.0), rel=1e-15
    )
    assert np.tanh(1.0) < 1.0


def test_tanh_sum_rejects_empty():
    with pytest.raises(ValueError):
        check_tanh_sum(n_samples=0)


def test_tanh_diff_no_violations():
    r = check_tanh_diff(n_samples=N, seed=SEED)
    assert r.violations == 0
    # closed form at x=2, y=1 and the x = y limit sech^2
    quot = np.tanh(2.0) - np.tanh(1.0)
    assert quot == pytest.approx(0.2024, abs=1e-4)
    assert quot <= 4.0 * np.exp(-2.0)
    lim = _tanh_pair_ratio(np.array([3.0]), np.array([-3.0]))[0]
    assert lim == pytest.approx(1.0 / np.cosh(3.0) ** 2, rel=1e-14)


def test_mean_bound_no_violations():
    r = check_mean_bound(n_samples=N, seed=SEED)
    assert r.violations == 0
    lhs = (np.tanh(3.0) + np.tanh(-1.0)) / 2.0
    rhs = 0.5 * (np.tanh(3.0) / 3.0 + np.tanh(1.0) / 1.0)
    assert lhs == pytest.approx(0.1168, abs=1e-4)
    assert lhs <= rhs == pytest.approx(0.5466, abs=1e-4)


def test_concavity_no_violations():
    r = check_concavity_bound(n_samples=N, seed=SEED)
    assert r.violations == 0
    params = ModelParams(T=1.0, mu=0.0)
    # equality exactly on the axes: B(2,0) = F(1) = tanh(1/2)
    assert eval_B(2.0, 0.0, params) == pytest.approx(np.tanh(0.5), rel=1e-14)
    # strict inequality on the diagonal
    p = 1.3
    rhs = np.tanh(2.0 * p * p / 8.0) / (2.0 * p * p / 4.0)
    assert eval_B(p, p, params) < rhs - 1e-3


def test_K_majorant_all_subchecks():
    r = check_K_majorant(seed=SEED)
    assert r.violations == 0
    assert r.worst_margin > -1e-12


def test_K_majorant_closed_form_identity():
    params = ModelParams(T=1.0, mu=0.0)
    rng = np.random.default_rng(SEED)
    p = rng.uniform(-50.0, 50.0, 40)
    q = rng.uniform(-50.0, 50.0, 40)
    K = np.minimum(eval_B(p, 0.0, params), eval_B(q, 0.0, params))
    ref = eval_F(np.maximum(np.abs(p), np.abs(q)) / 2.0, params)
    assert np.allclose(K, ref, rtol=1e-14, atol=0.0)
    # degenerate diagonal: min of equal values
    Kpp = np.minimum(eval_B(p, 0.0, params), eval_B(p, 0.0, params))
    assert np.array_equal(Kpp, eval_B(p, 0.0, params))


def test_E_log_growth_positive_and_stable():
    r = check_E_log_growth(1.0, 0.5, [1e-2, 1e-3, 1e-4])
    assert r.violations == 0
    assert r.worst_margin > 0.0
    # the normalized minimum settles: successive decades agree to 10%
    m3 = check_E_log_growth(1.0, 0.5, [1e-3]).worst_margin
    m4 = check_E_log_growth(1.0, 0.5, [1e-4]).worst_margin
    assert m4 == pytest.approx(m3, rel=0.1)


def test_E_log_growth_bad_inputs():
    with pytest.raises(ValueError):
        check_E_log_growth(1.0, 0.5, [2.0])
    with pytest.raises(ValueError):
        check_E_log_growth(1.0, 0.0, [1e-2])
    with pytest.raises(ValueError):
        check_E_log_growth(-1.0, 0.5, [1e-2])


def test_row_integral_of_B_stays_bounded_off_zero():
    # sup over T of the row integral away from p = 0 is finite even
    # though the p = 0 value grows like ln(1/T)
    from bcs_edge.bs_operator import eval_A

    sup = 0.0
    ps = np.geomspace(0.5, 5.0, 16)
    for T in (1e-2, 1e-4):
        params = ModelParams(T=T, mu=1.0)
        g = build_grid(params, 1e-7)
        sup = max(sup, 4.0 * np.pi * float(np.max(eval_A(ps, params, g))))
    assert 8.0 < sup < SUP_INT_B_CAP


def full_line_B_norm(params, grid):
    """Oracle: spectral norm of B(p_i, p_j) sqrt(w_i w_j) on the mirrored
    grid, no even-sector folding."""
    p = np.concatenate([-grid.nodes[::-1], grid.nodes])
    sw = np.sqrt(np.concatenate([grid.weights[::-1], grid.weights]))
    mat = eval_B(p[:, None], p[None, :], params) * (sw[:, None] * sw[None, :])
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def test_B_uniform_norm_bounded(caplog):
    caplog.set_level(logging.INFO, logger=lemma_suite.__name__)
    ladders = {1.0: [1e-3, 1e-1, 1e1, 1e3], 4.0: [4e-3], 0.3: [3e-4]}
    for mu, Ts in ladders.items():
        caplog.clear()
        r = check_B_uniform_norm(mu, Ts)
        # cap scales like 1/sqrt(mu); the measured norms do too
        assert r.violations == 0, mu
        assert r.worst_margin > 0.0, mu
        # the half-line norm, doubled, is the full-line norm
        (record,) = caplog.records
        norms = record.args[1]
        for T, norm in zip(Ts, norms, strict=True):
            params = ModelParams(T=T, mu=mu)
            grid = build_grid(params, lemma_suite._B_GRID_TOL)
            full = full_line_B_norm(params, grid)
            assert abs(norm - full) <= 1e-12 * full, (mu, T, norm, full)
    with pytest.raises(ValueError):
        check_B_uniform_norm(0.0, [1.0])


def test_low_momentum_block_shrinks_linearly():
    params = ModelParams(T=0.2, mu=1.0)
    grid = build_grid(params, 1e-8)
    vals = []
    for eps in (0.5, 0.25, 0.125):
        m = grid.nodes < eps
        w = grid.weights[m]
        block = eval_B(grid.nodes[m][:, None], grid.nodes[m][None, :], params)
        hs = float(np.sqrt(4.0 * (w @ (block * block) @ w)))
        assert hs <= 2.0 * eps / (params.mu - eps * eps)
        vals.append(hs)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.3 * vals[0]


def test_L_sandwich_no_violations():
    for mu, T in ((1.0, 1.0), (2.0, 0.1)):
        r = check_L_sandwich(mu, T, n_samples=N, seed=SEED)
        assert r.violations == 0, (mu, T)
        assert r.worst_margin > 0.0
    with pytest.raises(ValueError, match="T must be positive"):
        check_L_sandwich(1.0, 0.0)
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        check_L_sandwich(-1.0, 1.0)
    with pytest.raises(ValueError):
        check_L_sandwich(1.0, 1.0, n_samples=0)


def test_L_sandwich_explicit_constant():
    # the proof's upper constant at (T, mu) = (1, 1): L*(1+p^2+q^2)
    # <= (1+4T+2mu)/(2T) = 3.5, tight nowhere near the origin
    from bcs_edge.kernels import eval_L

    params = ModelParams(T=1.0, mu=1.0)
    assert eval_L(0.0, 0.0, params) * 1.0 <= 3.5
    assert eval_L(0.0, 0.0, params) == pytest.approx(np.tanh(0.5), rel=1e-14)
