"""Kernel evaluators against closed forms and a high-precision oracle.

Frozen reference values were produced by tools/oracle_constants.py
(mpmath at 30 significant digits, independent quadrature splits); the
section names in comments match that script's output.
"""

import dataclasses
import tracemalloc
import warnings

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
from bcs_edge.kernels import (
    _BLOCK,
    _CLOSED_CUT,
    TANH_RATIO_SWITCH,
    _closed_columns,
    _edge_log_slope,
    _exp,
    _tanh_over_x,
    _tanh_pair_ratio,
)

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
    # on one fixed grid, so only the kernel's T moves; built at the lowest
    # T, as certify refuses a T below the build's
    params = ModelParams(T=T, mu=1.0)
    d = 1e-4
    grid = build_grid(ModelParams(T=T * np.exp(-d), mu=1.0), tol=1e-8)
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
    # any shape, order and sign gives the flat call's bits, reshaped
    block = np.array([[3.0, -0.9, 0.0], [-3.0, 17.5, 0.9]])
    for f in (eval_A, eval_E):
        shaped = f(block.ravel(), params, grid).reshape(block.shape)
        assert np.array_equal(f(block, params, grid), shaped)
        assert np.array_equal(f(block[:, ::-1], params, grid), shaped[:, ::-1])


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


def _one(f, *args):
    """f on one-element arrays: a lane's value with no other lane beside it."""
    return f(*(np.array([a], dtype=float) for a in args))[0]


def _pair_branch(u, v):
    """(tanh u + tanh v) / (u + v) by the documented branch of the lane
    (u, v): 0.0 where |u| + |v| = inf, sinh(w)/w exp(-m) where |w| < 1
    (1 at w = 0), the difference of exponentials elsewhere; then the
    cosh factor 4 / ((1 + exp(-2|u|)) (1 + exp(-2|v|)))."""
    w, m = _one(np.add, u, v), _one(np.add, abs(u), abs(v))
    if m == np.inf:
        return 0.0
    if abs(w) < 1.0:
        sinhc = 1.0 if w == 0.0 else _one(np.sinh, w) / w
        core = sinhc * _one(np.exp, -m)
    else:
        core = (_one(np.exp, w - m) - _one(np.exp, -w - m)) / (2.0 * w)
    return core * (4.0 / ((1.0 + _one(np.exp, -2.0 * abs(u)))
                          * (1.0 + _one(np.exp, -2.0 * abs(v)))))


def _L_branch(p, q, params):
    """L(p, q) by the documented branch of the lane: the pair ratio over 2T,
    or the saturated 2s / (1 + exp(-2 s b)) / (x + y) where x/2T or y/2T
    is infinite."""
    twoT = 2.0 * params.T
    x, y = p * p - params.mu, q * q - params.mu
    with np.errstate(over="ignore"):
        u, v = x / twoT, y / twoT
    if not (np.isinf(u) or np.isinf(v)):
        return _pair_branch(u, v) / twoT
    s, b = (np.sign(u), v) if np.isinf(u) else (np.sign(v), u)
    with np.errstate(over="ignore"):
        num = 2.0 * s / (1.0 + _one(np.exp, -2.0 * s * b))
    return 0.0 if num == 0.0 else num / (x + y)


def _same_bits(got, expected):
    """Equal bit for bit (signed zeros included); NaN matches any NaN."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        _bits(got[~nan]), _bits(expected[~nan]))


ONE_UP, ONE_DOWN = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
# (u, v) lanes: w = u + v exactly 0; |w| one ulp either side of 1, and at
# 1 where the two branch formulas round differently, with small and with
# large |u| + |v|; same signs; opposite signs whose
# value lies in or below the subnormal range; exponents -2|u|, w - m and
# -w - m in the band (-745.13, -708.4) where exp returns subnormals; the
# cut at 37.5 of the cosh factor; infinite and NaN arguments.
PAIR_LANES = [
    (0.0, 0.0), (-0.0, 0.0), (3.0, -3.0), (-3.0, 3.0), (400.0, -400.0),
    (ONE_UP, 0.0), (ONE_DOWN, 0.0), (1.0, 0.0), (-ONE_UP, 0.0), (-ONE_DOWN, -0.0),
    (2.0, -1.0), (5.5, -4.5), (1.5, -2.5), (33.5, -32.5),
    (10.0, -9.0), (10.0, -np.nextafter(9.0, 10.0)), (10.0, -np.nextafter(9.0, 8.0)),
    (-10.0, 9.0), (360.0, -np.nextafter(359.0, 360.0)),
    (2.0, 5.0), (-2.0, -5.0), (400.0, 390.0), (-400.0, -390.0), (1e-300, 2e-300),
    (400.0, -390.0), (-400.0, 390.0), (370.0, -360.0), (-370.0, 360.0),
    (362.0, 1.5), (0.5, -360.0), (1.0, 354.5), (360.0, 360.0), (800.0, -2.5),
    (18.75, 2.0), (np.nextafter(18.75, 0.0), -3.0), (18.7, 18.8), (36.0, -0.5),
    (np.inf, 1.0), (1.0, -np.inf), (-np.inf, 0.0), (np.inf, np.inf), (-np.inf, -np.inf),
    (np.nan, 1.0), (2.0, np.nan), (np.nan, np.inf),
]


def test_pair_ratio_branches_bitwise():
    # every lane gets its own branch's bits, alone or among the others;
    # the blocked-vs-elementwise tests run one code path on both sides,
    # so only a per-branch reference can catch a misrouted lane
    u, v = (np.array(c) for c in zip(*PAIR_LANES))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _tanh_pair_ratio(u, v)
        alone = [_one(_tanh_pair_ratio, a, b) for a, b in PAIR_LANES]
    expected = [_pair_branch(a, b) for a, b in PAIR_LANES]
    assert _same_bits(got, expected)
    assert _same_bits(alone, expected)


@pytest.mark.parametrize("T", [1e-300, 1e-3, 0.3])
def test_eval_L_branches_bitwise(T):
    # momenta whose u = x/2T and v = y/2T hit the lanes of
    # test_pair_ratio_branches_bitwise, overflow to +-inf, or are NaN
    params = ModelParams(T=T, mu=1.0)
    twoT = 2.0 * T
    momenta = [np.sqrt(max(params.mu + twoT * a, 0.0)) for a in (0.0, ONE_UP, 360.0, 370.0)]
    momenta += [0.0, 1.0, 1.5, 3.0, 1e5, 1e150, np.inf, np.nan]
    P, Q = (a.ravel() for a in np.meshgrid(momenta, momenta))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = eval_L(P, Q, params)
    expected = [_L_branch(a, b, params) for a, b in zip(P.tolist(), Q.tolist())]
    assert _same_bits(got, expected)


def test_tanh_over_x_branches_bitwise():
    # the series below TANH_RATIO_SWITCH (one ulp either side), the
    # quotient above it, x = 0, infinities and NaN
    cut = TANH_RATIO_SWITCH
    x = np.array([0.0, -0.0, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0),
                  -np.nextafter(cut, 0.0), -cut, 0.3, -2.0, 50.0, 1e300,
                  np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _tanh_over_x(x)
    expected = []
    for xi in x.tolist():
        if abs(xi) < cut:
            x2 = xi * xi
            expected.append(1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0)
        else:
            expected.append(_one(np.tanh, xi) / xi)
    assert _same_bits(got, expected)


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


def _run(mask):
    """Length of the leading run of True in a 1-d mask."""
    return int(np.argmin(np.append(mask, False)))


def test_closed_columns_are_the_exact_ranges_of_every_row_block():
    # the row blocks of _B_matrix: on each, _closed_columns gives the
    # longest prefix of the last row's lanes with u, v <= -cut and the
    # longest suffix past the block with u, v >= cut, classified lane by
    # lane with _B_block's roundings, and every row of the block
    # qualifies on both ranges
    closed = 0
    for mu in (0.0, 1.0, 4.0):
        for T in (1e-5, 1.3e-4, 5.7e-3, 2.6e-2, 1.0):
            p = build_grid(ModelParams(T=T, mu=mu), 1e-8).nodes
            n, twoT = p.size, 2.0 * T
            i0 = 0
            while i0 < n:
                i1 = min(i0 + max(1, _BLOCK // (n - i0)), n)
                s = p[i0:i1, None] + p[i0:]
                s *= 0.5
                d = p[i0:i1, None] - p[i0:]
                d *= 0.5
                u = (s * s - mu) / twoT
                v = (d * d - mu) / twoT
                neg = (u <= -_CLOSED_CUT) & (v <= -_CLOSED_CUT)
                pos = (u >= _CLOSED_CUT) & (v >= _CLOSED_CUT)
                right = i1 - i0
                a = _run(neg[-1])
                b = n - i0 - _run(pos[-1, right:][::-1])
                assert _closed_columns(p[i1 - 1], p[i0:], right, mu, twoT) == (a, b)
                assert neg[:, :a].all() and pos[:, b:].all()
                closed += a + n - i0 - b
                i0 = i1
    assert closed > 0
