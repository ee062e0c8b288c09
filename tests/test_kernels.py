"""Kernel evaluators against closed forms and a high-precision oracle.

Frozen reference values were produced by tools/oracle_constants.py
(mpmath at 30 significant digits, independent quadrature splits); the
section names in comments match that script's output.
"""

import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcs_edge import (
    EULER_GAMMA,
    ModelParams,
    QuadratureUnderresolved,
    build_grid,
    eval_A,
    eval_B,
    eval_E,
    eval_F,
    eval_L,
    eval_a,
)
from bcs_edge.kernels import _BLOCK, TANH_RATIO_SWITCH, _edge_log_slope, _exp

# [a10] a_{T,mu} at T=1, mu=0
A_ORACLE_T1_MU0 = 0.42890235186151114
# [a_at_Tem3] a_{T,mu} at T=1e-3, mu=1
A_ORACLE_T1EM3_MU1 = 2.6800680136681097
# [A_off_node] A(p) at mu=1 for (p, T) = (0.77, 1e-2) and (1.9, 1e-3)
A_ORACLE_P0P77_T1EM2 = 0.55480306178325759
A_ORACLE_P1P9_T1EM3 = 0.32930591021352367
# [A_octave] A(p) at T=1e-3, mu=1 past the core, for p = 167.771, 1000 and
# 13073.33284155418, a node of the grid when its tail panels were octaves
A_ORACLE_OCTAVE = (
    (167.771, 0.0059156898112334185),
    (1000.0, 0.00099872875758954958),
    (13073.33284155418, 7.6484140023309037e-5),
)


def matsubara_L(p, q, params, n_terms):
    """Reference L from its Matsubara series, w_n = pi*(2n+1)*T.

    L = 2T * sum_{n in Z} 1 / ((x - i w_n)(y + i w_n)) with x = p^2 - mu,
    y = q^2 - mu; the n and -n-1 terms are conjugates, so it sums
    4T * (xy + w_n^2) / ((x^2 + w_n^2)(y^2 + w_n^2)) over n < n_terms and
    adds the rest to two orders in 1/w_n:
    4T * [S_2 / (pi T)^2 + (xy - x^2 - y^2) * S_4 / (pi T)^4], with
    S_k = sum_{n >= n_terms} (2n+1)^-k (pi^2/8 or pi^4/96 minus the
    partial sum).  Independent of eval_L's tanh form.
    """
    T = params.T
    x = np.asarray(p, dtype=float) ** 2 - params.mu
    y = np.asarray(q, dtype=float) ** 2 - params.mu
    odd = 2.0 * np.arange(n_terms) + 1.0
    w2 = (np.pi * T * odd) ** 2
    xn, yn = x[..., None], y[..., None]
    head = ((xn * yn + w2) / ((xn * xn + w2) * (yn * yn + w2))).sum(axis=-1)
    s2 = np.pi**2 / 8.0 - np.sum(odd**-2.0)
    s4 = np.pi**4 / 96.0 - np.sum(odd**-4.0)
    pt2 = (np.pi * T) ** 2
    tail = s2 / pt2 + (x * y - x * x - y * y) * s4 / pt2**2
    return 4.0 * T * (head + tail)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(T=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ModelParams(T=-1.0, mu=1.0)
    p = ModelParams(T=1.0, mu=-2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.T = 2.0


@pytest.mark.parametrize("field", ["T", "mu"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        ModelParams(**{"T": 1.0, "mu": 1.0, field: bad})


def test_euler_gamma_digits():
    assert EULER_GAMMA == float(mp.euler)


def test_F_removable_singularity():
    # p^2 = mu exactly -> 1/(2T), through the series branch
    assert eval_F(1.0, ModelParams(T=0.25, mu=1.0)) == pytest.approx(
        2.0, rel=1e-15
    )
    assert eval_F(0.0, ModelParams(T=2.0, mu=0.0)) == pytest.approx(
        0.25, rel=1e-15
    )


def test_F_branch_continuity():
    # values straddling the series/direct switch agree to near machine
    T, mu = 0.5, 1.0
    params = ModelParams(T=T, mu=mu)
    for side in (0.999999, 1.000001):
        x = side * TANH_RATIO_SWITCH
        p = np.sqrt(mu + 2.0 * T * x)
        direct = np.tanh(x) / x / (2.0 * T)
        assert eval_F(p, params) == pytest.approx(direct, rel=1e-12)


@given(
    p=st.floats(-30, 30),
    T=st.floats(1e-3, 1e3),
    mu=st.floats(-5, 5),
)
def test_F_range_and_parity(p, T, mu):
    params = ModelParams(T=T, mu=mu)
    val = eval_F(p, params)
    assert 0.0 < val <= 1.0 / (2.0 * T) * (1 + 1e-15)
    assert val == eval_F(-p, params)


def test_L_matches_F_on_diagonal():
    params = ModelParams(T=0.3, mu=0.7)
    for p in (0.0, 0.5, np.sqrt(0.7), 2.0, 10.0):
        assert eval_L(p, p, params) == pytest.approx(
            eval_F(p, params), rel=1e-14
        )


def test_L_removable_singularities():
    # x + y = 0 with x = y = 0: value 1/(2T)
    assert eval_L(1.0, 1.0, ModelParams(T=0.5, mu=1.0)) == pytest.approx(
        1.0, rel=1e-15
    )
    # x + y = 0 with x = -y = 1: the limit is sech^2(x/2T)/(2T)
    val = eval_L(np.sqrt(2.0), 0.0, ModelParams(T=0.5, mu=1.0))
    assert val == pytest.approx(1.0 / np.cosh(1.0) ** 2, rel=1e-14)


@given(
    p=st.floats(0, 10),
    q=st.floats(0, 10),
    T=st.floats(1e-2, 1e2),
    mu=st.floats(-3, 3),
)
def test_L_naive_formula_agreement(p, q, T, mu):
    # away from the removable set the textbook formula is safe to compare
    x = p * p - mu
    y = q * q - mu
    if abs(x + y) < 1e-3 * (1.0 + abs(mu)):
        return
    naive = (np.tanh(x / (2 * T)) + np.tanh(y / (2 * T))) / (x + y)
    assert eval_L(p, q, ModelParams(T=T, mu=mu)) == pytest.approx(
        naive, rel=1e-12
    )


@given(
    p=st.floats(-8, 8),
    q=st.floats(-8, 8),
    T=st.floats(1e-3, 1e2),
    mu=st.floats(-3, 3),
)
def test_L_symmetry_positivity_bound(p, q, T, mu):
    params = ModelParams(T=T, mu=mu)
    val = eval_L(p, q, params)
    assert val == eval_L(q, p, params) == eval_L(-p, q, params)
    assert 0.0 <= val <= 1.0 / (2.0 * T) * (1 + 1e-15)
    # strict positivity holds wherever the true value is representable;
    # for opposite-sign arguments beyond tanh saturation it underflows
    if (abs(p * p - mu) + abs(q * q - mu)) / (2.0 * T) < 350.0:
        assert val > 0.0


def test_L_extreme_arguments_no_overflow():
    # tanh saturates; L collapses to 2/(x+y) without inf/nan
    val = eval_L(50.0, 50.0, ModelParams(T=1e-6, mu=1.0))
    assert val == pytest.approx(2.0 / 4998.0, rel=1e-14)
    val = eval_L(3.0, 4.0, ModelParams(T=1e-300, mu=1.0))
    assert np.isfinite(val) and val == pytest.approx(2.0 / 23.0, rel=1e-12)
    # x/2T overflows to inf: opposite signs give the limit 0, equal signs
    # the saturated 2/(x+y)
    assert eval_L(1e5, 0.0, ModelParams(T=1e-300, mu=1.0)) == 0.0
    val = eval_L(1e5, 2.0, ModelParams(T=1e-300, mu=1.0))
    assert val == pytest.approx(2.0 / (1e10 + 2.0), rel=1e-14)


def test_L_series_first_term_closed_form():
    # one conjugate pair plus the tail with S_2 = pi^2/8 - 1 and
    # S_4 = pi^4/96 - 1
    p, q, T, mu = 0.3, 0.7, 1.1, 0.2
    x, y = p * p - mu, q * q - mu
    w0sq = (np.pi * T) ** 2
    expected = 4.0 * T * (
        (x * y + w0sq) / ((x * x + w0sq) * (y * y + w0sq))
        + (np.pi**2 / 8.0 - 1.0) / w0sq
        + (x * y - x * x - y * y) * (np.pi**4 / 96.0 - 1.0) / w0sq**2
    )
    got = matsubara_L(p, q, ModelParams(T=T, mu=mu), 1)
    assert got == pytest.approx(expected, rel=1e-15)


def test_L_series_monotone_convergence():
    # the dropped third-order tail sums to O(N^-5), so each doubling of
    # the terms cuts the error more than eightfold (1.98e-10, 1.03e-11 and
    # 3.9e-13 at 1, 2 and 4 terms)
    params = ModelParams(T=2.0, mu=0.2)
    exact = eval_L(0.5, -0.3, params)
    errs = [
        abs(matsubara_L(0.5, -0.3, params, n) / exact - 1.0) for n in (1, 2, 4)
    ]
    assert errs[0] > 8.0 * errs[1] > 64.0 * errs[2]


def test_L_series_tail_is_second_order():
    # criterion 10's sample box at 10 terms: the two-order tail reads
    # 1.9e-11 on these draws, the first-order tail alone 5.1e-7
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        params = ModelParams(
            T=float(np.exp(rng.uniform(np.log(1.0), np.log(4.0)))),
            mu=float(rng.uniform(0.0, 0.3)),
        )
        p = rng.uniform(-0.8, 0.8, 500)
        q = rng.uniform(-0.8, 0.8, 500)
        rel = matsubara_L(p, q, params, 10) / eval_L(p, q, params) - 1.0
        worst = max(worst, float(np.max(np.abs(rel))))
    assert worst <= 1e-9


@given(
    p=st.floats(-6, 6),
    q=st.floats(-6, 6),
    T=st.floats(1e-2, 10),
    mu=st.floats(-2, 2),
)
def test_B_symmetries(p, q, T, mu):
    params = ModelParams(T=T, mu=mu)
    val = eval_B(p, q, params)
    assert val == eval_B(q, p, params) == eval_B(-p, q, params)


def test_B_reduces_to_F_at_zero():
    params = ModelParams(T=0.2, mu=0.9)
    for q in (0.0, 0.3, 1.0, 4.0):
        assert eval_B(0.0, q, params) == pytest.approx(
            eval_F(q / 2.0, params), rel=1e-14
        )


def test_a_oracle_values():
    params = ModelParams(T=1.0, mu=0.0)
    grid = build_grid(params, tol=1e-9)
    assert abs(eval_a(params, grid) - A_ORACLE_T1_MU0) < 1e-9

    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, tol=1e-9)
    assert abs(eval_a(params, grid) - A_ORACLE_T1EM3_MU1) < 1e-9


def test_a_decreasing_in_T():
    mu = 1.0
    vals = []
    for T in (0.05, 0.2, 1.0, 5.0):
        params = ModelParams(T=T, mu=mu)
        vals.append(eval_a(params, build_grid(params, tol=1e-8)))
    assert vals == sorted(vals, reverse=True)


@pytest.mark.parametrize("T", [1e-4, 2.6e-2, 3.0])
def test_edge_log_slope_matches_central_difference(T):
    # on one fixed grid, so only the kernel's T moves
    params = ModelParams(T=T, mu=1.0)
    grid = build_grid(params, tol=1e-8)
    d = 1e-4
    a_up = eval_a(ModelParams(T=T * np.exp(d), mu=1.0), grid)
    a_down = eval_a(ModelParams(T=T * np.exp(-d), mu=1.0), grid)
    slope = _edge_log_slope(params, grid)
    assert slope < 0.0
    assert slope == pytest.approx((a_up - a_down) / (2.0 * d), rel=1e-6)


def test_edge_log_slope_does_not_overflow():
    grid = build_grid(ModelParams(T=1e-3, mu=1.0), tol=1e-8)
    with np.errstate(all="raise"):
        assert _edge_log_slope(ModelParams(T=1e-300, mu=1.0), grid) == 0.0


def test_E_zero_at_origin_and_positive():
    params = ModelParams(T=0.1, mu=1.0)
    grid = build_grid(params, tol=1e-8)
    assert eval_E(0.0, params, grid) == 0.0
    vals = eval_E(np.array([0.5, 1.0, 2.0, 5.0]), params, grid)
    assert np.all(vals > 0)


def test_E_saturates_at_4pi_a():
    # A(p) -> 0, so E(p)/(4 pi a) -> 1; at p = 100, A <= 1/(2p)
    params = ModelParams(T=0.5, mu=1.0)
    grid = build_grid(params, tol=1e-8)
    a = eval_a(params, grid)
    assert eval_E(100.0, params, grid) == pytest.approx(
        4.0 * np.pi * a, rel=2e-2
    )


def test_A_vectorized_matches_scalar():
    params = ModelParams(T=0.7, mu=0.4)
    grid = build_grid(params, tol=1e-8)
    ps = np.array([0.0, 0.9, 3.0])
    vec = eval_A(ps, params, grid)
    assert vec.shape == (3,)
    # each momentum is summed on its own, whatever shares the call
    for pi, vi in zip(ps, vec):
        assert eval_A(float(pi), params, grid) == vi
    assert vec[0] == pytest.approx(eval_a(params, grid), rel=1e-14)


def test_A_off_node_matches_oracle():
    # momenta away from the nodes, whose B(p, .) crossovers |2 -/+ p|
    # the grid is not graded toward; A must still meet the grid's tol
    for p, T, ref in (
        (0.77, 1e-2, A_ORACLE_P0P77_T1EM2),
        (1.9, 1e-3, A_ORACLE_P1P9_T1EM3),
    ):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, tol=1e-8)
        vals = eval_A(np.array([p, -p]), params, grid)
        assert np.all(np.abs(vals - ref) <= grid.policy.tol)
        assert eval_A(p, params, grid) == vals[0] == vals[1]


def test_A_past_core_matches_oracle():
    # B(p, .)'s crossovers fall in tail panels; at the first momentum the
    # grid sum alone misses the dip between them by 4.5e-5
    params = ModelParams(T=1e-3, mu=1.0)
    grid = build_grid(params, tol=1e-8)
    ps, refs = np.array(A_ORACLE_OCTAVE).T
    assert np.all(np.abs(eval_A(ps, params, grid) - refs) <= grid.policy.tol)


def test_underresolved_grid_is_rejected():
    params = ModelParams(T=1.0, mu=0.5)
    grid = build_grid(params, tol=1e-7)
    bad = dataclasses.replace(grid, self_convergence=10.0 * grid.policy.tol)
    with pytest.raises(QuadratureUnderresolved):
        eval_a(params, bad)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_exp_skip_matches_np_exp_bitwise():
    # the subnormal band and the cut at -745.2 lie in [-760, -700]; NaN
    # must reach exp and stay NaN
    cut_ulps = np.nextafter(-745.2, [-np.inf, np.inf])
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -745.2, -745.1332191019411],
        cut_ulps,
        np.linspace(-760.0, -700.0, 60_001),
        [709.78, 709.79, 710.0, 1e300],
    ])
    with np.errstate(over="ignore"):
        expected = np.exp(x)
        got = _exp(x)
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.fixture(scope="module")
def kernel_battery():
    """145 x 113 = _BLOCK + 1 momentum pairs at T = 1e-3, mu = 1: the
    underflow band, the |u + v| < 1 branch and ordinary lanes, with the
    elementwise (scalar call) value of L and B at each."""
    assert 145 * 113 == _BLOCK + 1
    params = ModelParams(T=1e-3, mu=1.0)
    p = np.linspace(-3.0, 3.0, 145)
    q = np.linspace(0.0, 2.5, 113)
    P, Q = (a.ravel() for a in np.broadcast_arrays(p[:, None], q[None, :]))
    single = {
        f: np.array([f(a, b, params) for a, b in zip(P.tolist(), Q.tolist())])
        for f in (eval_L, eval_B)
    }
    return params, p, q, P, Q, single


@pytest.mark.parametrize("f", [eval_L, eval_B])
@pytest.mark.parametrize("n", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_blocked_kernel_matches_elementwise(kernel_battery, f, n):
    params, _, _, P, Q, single = kernel_battery
    got = f(P[:n], Q[:n], params)
    assert got.shape == (n,)
    assert np.array_equal(got, single[f][:n])


@pytest.mark.parametrize("f", [eval_L, eval_B])
def test_blocked_kernel_broadcast_and_scalars(kernel_battery, f):
    params, p, q, P, Q, single = kernel_battery
    got = f(p[:, None], q[None, :], params)
    assert got.shape == (p.size, q.size)
    assert np.array_equal(got.ravel(), single[f])
    val = f(float(P[7]), float(Q[7]), params)
    assert type(val) is float and val == single[f][7]
    val = f(np.float64(P[9]), np.array(Q[9]), params)
    assert type(val) is float and val == single[f][9]


def test_eval_B_memory_is_output_plus_blocks():
    # 2,000 nodes: a 32 MB output; the pipeline may add at most 8 MB
    p = np.linspace(0.0, 40.0, 2_000)
    params = ModelParams(T=1e-3, mu=1.0)
    tracemalloc.start()
    try:
        out = eval_B(p[:, None], p[None, :], params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8_000_000
