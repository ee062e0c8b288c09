"""Randomized numeric checks of the standalone kernel inequalities.

Every analytic inequality the solver leans on is restated here as a
falsifiable check over a seeded sample: draw points, evaluate both
sides with the package's own cancellation-safe primitives, and count
violations against the exact inequality with zero slack.  Dips below
zero smaller than _NOISE relative to the local scale are classified as
float noise (the inequalities are strict with margin except at their
documented equality cases) and logged rather than counted.

Reports are reproducible bit-for-bit given (seed, sample count).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .bs_operator import eval_E
from .kernels import (
    ModelParams,
    _B_matrix,
    _tanh_over_x,
    _tanh_pair_ratio,
    eval_B,
    eval_L,
)
from .quadrature import build_grid

__all__ = [
    "CheckReport",
    "check_tanh_sum",
    "check_tanh_diff",
    "check_mean_bound",
    "check_concavity_bound",
    "check_K_majorant",
    "check_E_log_growth",
    "check_B_uniform_norm",
    "check_L_sandwich",
]

logger = logging.getLogger(__name__)

# violations smaller than this, relative to the local scale, are float noise
_NOISE = 1e-12
# tanh saturates to 1.0 in double precision near 19, so wider boxes only
# test rounding; every sampler stays inside |x| <= _BOX
_BOX = 50.0
# Gram matrices of the min-kernel are positive semidefinite in exact
# arithmetic; eigvalsh is allowed this much rounding below zero
_GRAM_FLOOR = -1e-10
# measured sup of the discretized bare-B operator norm at mu = 1 is 5.54
# (T = 1e-3 end of the ladder, still creeping up by <2% per decade);
# 7.0 leaves 25% headroom and scales like 1/sqrt(mu)
_B_NORM_CAP_MU1 = 7.0
# random nodes of the min-kernel Gram matrix in check_K_majorant
_K_NODES = 50
# momenta per temperature, and grid tolerance, of check_E_log_growth
_E_MOMENTA = 24
_E_GRID_TOL = 1e-7
# grid tolerance of check_B_uniform_norm
_B_GRID_TOL = 1e-6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check over a seeded sample."""

    name: str
    samples: int
    violations: int
    worst_margin: float
    seed: int


def _tally(name: str, margins: np.ndarray, scale, seed: int) -> CheckReport:
    """Fold signed margins (positive = satisfied) into a CheckReport.

    Counts margin < -_NOISE*scale as a violation; negative margins above
    that are logged as float noise with the offending sample index.
    """
    margins = np.asarray(margins, dtype=float).ravel()
    scale = np.broadcast_to(np.asarray(scale, dtype=float), margins.shape)
    bad = margins < -_NOISE * scale
    noise = (margins < 0.0) & ~bad
    if np.any(noise):
        idx = int(np.argmin(np.where(noise, margins, np.inf)))
        logger.info(
            "%s: %d float-noise dips, worst %.3e at sample %d",
            name,
            int(noise.sum()),
            margins[idx],
            idx,
        )
    if np.any(bad):
        idx = int(np.argmin(margins))
        logger.warning(
            "%s: %d violations, worst %.3e at sample %d",
            name,
            int(bad.sum()),
            margins[idx],
            idx,
        )
    return CheckReport(
        name=name,
        samples=int(margins.size),
        violations=int(bad.sum()),
        worst_margin=float(margins.min()),
        seed=seed,
    )


def _pairs(n_samples: int, seed: int, lo: float, directed) -> tuple:
    """Seeded sample pairs x, y and the generator they were drawn from.

    All but a tenth of the pairs (at most 2000 held back) are uniform on
    [lo, _BOX]^2; the rest form a directed block that probes a boundary
    case: x uniform on [lo, _BOX] and y = directed(x).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n_dir = min(2000, n_samples // 10)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, _BOX, n_samples - n_dir)
    y = rng.uniform(lo, _BOX, n_samples - n_dir)
    if n_dir:
        xd = rng.uniform(lo, _BOX, n_dir)
        x = np.concatenate([x, xd])
        y = np.concatenate([y, directed(xd)])
    return x, y, rng


def check_tanh_sum(n_samples: int = 100_000, seed: int = 0) -> CheckReport:
    """(tanh(x/T) + tanh(y/T)) / (x+y)  <  2 / (|x| + |y|).

    Samples x, y in [-50, 50] with T log-uniform in (1e-3, 1e3); a
    directed block walks y = -x + delta down to delta ~ 1e-12, where the
    left side degenerates to a difference quotient that the sinh/cosh
    form evaluates without cancellation.
    """
    def across(xd):
        sign = np.where(np.arange(xd.size) % 2, 1.0, -1.0)
        return -xd + np.geomspace(1e-12, 1e-2, xd.size) * sign

    x, y, rng = _pairs(n_samples, seed, -_BOX, across)
    T = 10.0 ** rng.uniform(-3.0, 3.0, x.size)
    lhs = _tanh_pair_ratio(x / T, y / T) / T
    rhs = 2.0 / (np.abs(x) + np.abs(y))
    return _tally("tanh_sum", rhs - lhs, rhs, seed)


def check_tanh_diff(n_samples: int = 100_000, seed: int = 0) -> CheckReport:
    """(tanh x - tanh y) / (x - y)  <=  4 exp(-2 min(x, y))  for x, y > 0.

    The x = y limit sech^2(x) is probed by a directed block; the
    quotient is the pair ratio at (x, -y), so it stays finite there.
    """
    x, y, _ = _pairs(n_samples, seed, 0.0, lambda xd: xd)
    lhs = _tanh_pair_ratio(x, -y)
    rhs = 4.0 * np.exp(-2.0 * np.minimum(x, y))
    return _tally("tanh_diff", rhs - lhs, rhs, seed)


def check_mean_bound(n_samples: int = 100_000, seed: int = 0) -> CheckReport:
    """(tanh x + tanh y) / (x+y)  <=  (tanh(x)/x + tanh(y)/y) / 2.

    Equality at x = y, where both sides reduce to tanh(x)/x; the
    directed block sits on that line, so ulp-level dips there are
    expected and logged as noise.
    """
    x, y, _ = _pairs(n_samples, seed, -_BOX, lambda xd: xd)
    lhs = _tanh_pair_ratio(x, y)
    rhs = 0.5 * (_tanh_over_x(x) + _tanh_over_x(y))
    return _tally("mean_bound", rhs - lhs, rhs, seed)


def check_concavity_bound(n_samples: int = 100_000, seed: int = 0) -> CheckReport:
    """B_{1,0}(p,q)  <=  tanh((p^2+q^2)/8) / ((p^2+q^2)/4).

    Concavity of tanh on [0, inf); equality exactly when pq = 0, where
    both halves of B's argument pair coincide.  Directed blocks sit on
    q = 0 (equality, noise-logged) and p = q (strict).
    """
    def on_axis_then_diagonal(pd):
        return np.where(np.arange(pd.size) < pd.size // 2, 0.0, pd)

    p, q, _ = _pairs(n_samples, seed, -_BOX, on_axis_then_diagonal)
    params = ModelParams(T=1.0, mu=0.0)
    lhs = eval_B(p, q, params)
    rhs = 0.5 * _tanh_over_x((p * p + q * q) / 8.0)
    return _tally("concavity_bound", rhs - lhs, rhs, seed)


def check_K_majorant(seed: int = 0) -> CheckReport:
    """min-kernel majorant K(p,q) = min{B_{1,0}(p,0), B_{1,0}(q,0)}.

    On 50 random nodes, verifies (i) B_{1,0} <= K entrywise, (ii) K
    symmetric, (iii) the Gram matrix [K(p_i,p_j)] has smallest
    eigenvalue >= -1e-10 (K factors as an integral of products, so it
    is positive semidefinite up to rounding), (iv) the row integral of
    K, taken on the default grid at tol 1e-8, is maximal at p = 0, and
    (v) K(p,0) = B_{1,0}(p,0).
    """
    rng = np.random.default_rng(seed)
    p = rng.uniform(-_BOX, _BOX, _K_NODES)
    params = ModelParams(T=1.0, mu=0.0)
    bp0 = eval_B(p, 0.0, params)
    K = np.minimum(bp0[:, None], bp0[None, :])

    scale = float(eval_B(0.0, 0.0, params))
    m_major = (K - eval_B(p[:, None], p[None, :], params)).ravel()
    m_sym = -np.abs(K - K.T).ravel()

    lam_min = float(np.linalg.eigvalsh(K)[0])
    m_gram = np.array([lam_min - _GRAM_FLOOR])

    qgrid = build_grid(params, 1e-8)
    bq0 = eval_B(qgrid.nodes, 0.0, params)
    rows = 2.0 * (np.minimum(bp0[:, None], bq0[None, :]) @ qgrid.weights)
    row0 = 2.0 * float(bq0 @ qgrid.weights)
    m_rows = row0 - rows

    m_diag = np.minimum(bp0, scale) - bp0

    margins = np.concatenate([m_major, m_sym, m_gram, m_rows, m_diag])
    logger.debug(
        "K_majorant: lam_min=%.3e row0=%.6f", lam_min, row0
    )
    return _tally("K_majorant", margins, scale, seed)


def check_E_log_growth(mu: float, eps: float, T_list) -> CheckReport:
    """E(p) / ln(mu/T) stays positive away from p = 0 as T decreases.

    E(p) = 4 pi (a - A(p)) grows like a log in 1/T for |p| >= eps while
    A(p) itself stays bounded there; the check computes m(T) = min over
    24 log-spaced |p| in [eps, 5 sqrt(mu)] of that ratio for each T, on
    the default grid at tol _E_GRID_TOL, and counts nonpositive values.
    The m(T) ladder is logged; its limiting constant is observed, not
    asserted.
    """
    if not (mu > 0 and 0 < eps < 5.0 * np.sqrt(mu)):
        raise ValueError(f"need mu > 0 and 0 < eps < 5 sqrt(mu), got {mu}, {eps}")
    if not all(0.0 < T < mu for T in T_list):
        raise ValueError("every T must sit in (0, mu) for ln(mu/T) > 0")
    smu = np.sqrt(mu)
    ps = np.geomspace(eps, 5.0 * smu, _E_MOMENTA)
    ms = []
    for T in sorted(T_list, reverse=True):
        params = ModelParams(T=float(T), mu=mu)
        grid = build_grid(params, _E_GRID_TOL)
        ms.append(float(np.min(eval_E(ps, params, grid)) / np.log(mu / T)))
    logger.info("E_log_growth(mu=%g, eps=%g): m(T) ladder %s", mu, eps, ms)
    report = _tally("E_log_growth", np.asarray(ms), 1.0, 0)
    return replace(report, samples=len(ms) * _E_MOMENTA)


def check_B_uniform_norm(mu: float, T_list) -> CheckReport:
    """Discretized operator norm of the bare B kernel is bounded in T.

    B(+-p, +-q) = B(p, q), so the full-line matrix B(p_i, p_j) sqrt(w_i w_j)
    on a mirrored grid is U S U^T, S its half-line block, U = [R; I] and
    R the node reversal; U^T U = 2I makes its norm 2 ||S||, held on each
    T's default grid at tol _B_GRID_TOL against the stored cap, which
    scales as 1/sqrt(mu).
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    cap = _B_NORM_CAP_MU1 / np.sqrt(mu)
    norms = []
    for T in T_list:
        params = ModelParams(T=float(T), mu=mu)
        g = build_grid(params, _B_GRID_TOL)
        sw = np.sqrt(g.weights)
        mat = _B_matrix(g.nodes, params) * (sw[:, None] * sw[None, :])
        norms.append(2.0 * float(np.max(np.abs(np.linalg.eigvalsh(mat)))))
    logger.info("B_uniform_norm(mu=%g): norms %s vs cap %.3f", mu, norms, cap)
    return _tally("B_uniform_norm", cap - np.asarray(norms), cap, 0)


def check_L_sandwich(
    mu: float, T: float, n_samples: int = 100_000, seed: int = 0
) -> CheckReport:
    """1/L is pinched between multiples of 1 + p^2 + q^2.

    Checks, over samples in the box |p|, |q| <= 50 at fixed (T, mu):
    positivity of L*(1+p^2+q^2), the explicit upper constant
    L*(1+p^2+q^2) <= (1+4T+2mu)/(2T), and the large-T branch
    L*(T+p^2+q^2) <= (5 T0 + 2 mu)/(2 T0) with T0 = T/2, which the
    proof supplies for every temperature above T0.
    """
    if not (mu >= 0 and T > 0):
        raise ValueError(f"need mu >= 0 and T > 0, got mu={mu}, T={T}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    p = rng.uniform(-_BOX, _BOX, n_samples)
    q = rng.uniform(-_BOX, _BOX, n_samples)
    params = ModelParams(T=T, mu=mu)
    L = eval_L(p, q, params)
    s = 1.0 + p * p + q * q
    c1 = 2.0 * T / (1.0 + 4.0 * T + 2.0 * mu)
    t0 = T / 2.0
    c3 = 2.0 * t0 / (5.0 * t0 + 2.0 * mu)
    # strict positivity: a rounded-to-zero product is a real violation
    m_pos = np.where(L * s > 0.0, L * s, -1.0)
    m_upper = 1.0 - c1 * L * s
    m_large = 1.0 - c3 * L * (T + p * p + q * q)
    margins = np.concatenate([m_pos, m_upper, m_large])
    return _tally("L_sandwich", margins, 1.0, seed)
