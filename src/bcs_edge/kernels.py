"""Closed-form kernels of the BCS spectral problem in momentum space.

The kernel family (F, L, B), the Matsubara series for L, and the derived
quantities A(p), a = A(0) and E(p) = 4*pi*(a - A(p)) drive everything
else in the package.  All evaluators are pure functions, accept floats
or numpy arrays elementwise, and are arranged to be cancellation-free at
the removable singularities p^2 = mu (for F) and p^2 + q^2 = 2*mu (for
L), so results stay finite for any finite input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnderresolved

__all__ = [
    "CALIBRATED_SERIES_TERMS",
    "EULER_GAMMA",
    "TANH_RATIO_SWITCH",
    "ModelParams",
    "eval_F",
    "eval_L",
    "eval_L_series",
    "eval_B",
    "eval_A",
    "eval_a",
    "eval_E",
]

# Euler-Mascheroni constant to 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# Below this |x| the 3-term even Taylor series of tanh(x)/x is accurate
# to better than 1e-16 relative, so the branch switch costs nothing.
TANH_RATIO_SWITCH = 1e-4

# Truncation order at which the frequency series matches the closed form
# to < 1e-6 relative (max 5.22e-7 measured over the sample box of
# tools/calibrate_series.py; the error scales like 0.21/N there).
CALIBRATED_SERIES_TERMS = 400_000


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: temperature T and chemical potential mu.

    T and mu share energy units.  Kernel evaluation accepts any real mu,
    while the solvers additionally require mu > 0 (except the scaling
    limits, which run at mu = 0).
    """

    T: float
    mu: float

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


def _wrap(x):
    """Promote to a 1-d float array; remember whether input was scalar."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _unwrap(out, scalar):
    return float(out[0]) if scalar else out


def _tanh_over_x(x: np.ndarray) -> np.ndarray:
    """tanh(x)/x elementwise with a guarded series branch near x = 0."""
    out = np.empty_like(x)
    small = np.abs(x) < TANH_RATIO_SWITCH
    xs = x[small]
    x2 = xs * xs
    out[small] = 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    xl = x[~small]
    out[~small] = np.tanh(xl) / xl
    return out


def _sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w)/w elementwise; equals 1 at w = 0 (no cancellation there)."""
    out = np.ones_like(w)
    nz = w != 0.0
    out[nz] = np.sinh(w[nz]) / w[nz]
    return out


def _tanh_pair_ratio(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(tanh(u) + tanh(v)) / (u + v), elementwise and cancellation-free.

    Uses the identity tanh(u) + tanh(v) = sinh(u+v) / (cosh(u) cosh(v))
    with the exponentials grouped so nothing overflows: |u + v| never
    exceeds |u| + |v|, hence every exponent below is <= 0.  The u+v -> 0
    limit sech^2(u) comes out of the sinh(w)/w branch automatically.
    """
    w = u + v
    m = np.abs(u) + np.abs(v)
    core = np.empty_like(w)
    small = np.abs(w) < 1.0
    core[small] = _sinhc(w[small]) * np.exp(-m[small])
    wl, ml = w[~small], m[~small]
    core[~small] = (np.exp(wl - ml) - np.exp(-wl - ml)) / (2.0 * wl)
    core *= 4.0 / ((1.0 + np.exp(-2.0 * np.abs(u))) * (1.0 + np.exp(-2.0 * np.abs(v))))
    return core


def eval_F(p, params: ModelParams):
    """Bulk kernel F(p) = tanh((p^2-mu)/(2T)) / (p^2-mu).

    Value 1/(2T) at the removable singularity p^2 = mu.
    """
    p, scalar = _wrap(p)
    x = (p * p - params.mu) / (2.0 * params.T)
    return _unwrap(_tanh_over_x(x) / (2.0 * params.T), scalar)


def eval_L(p, q, params: ModelParams):
    """Two-momentum kernel L(p,q) = (tanh(x/2T) + tanh(y/2T)) / (x + y)
    with x = p^2 - mu, y = q^2 - mu.

    Evaluated through the sinh/cosh identity in _tanh_pair_ratio, which
    is exact and regular across the removable singularity x + y = 0, so
    no series fallback or branch threshold is needed.  Symmetric in
    (p, q) and even in each argument by construction.
    """
    p, sp = _wrap(p)
    q, sq = _wrap(q)
    p, q = np.broadcast_arrays(p, q)
    twoT = 2.0 * params.T
    u = (p * p - params.mu) / twoT
    v = (q * q - params.mu) / twoT
    return _unwrap(_tanh_pair_ratio(u, v) / twoT, sp and sq)


def eval_L_series(p, q, params: ModelParams, n_terms: int):
    """Truncated Matsubara series for L with frequencies w_n = pi*(2n+1)*T.

    Returns 2T * sum_{n=-N}^{N-1} 1 / ((x - i w_n)(y + i w_n)); the n and
    -n-1 terms are conjugates and are summed pairwise, giving the real
    form 4T * sum_{n=0}^{N-1} (xy + w_n^2) / ((x^2+w_n^2)(y^2+w_n^2)).
    Converges to eval_L from below once w_N dominates |x|,|y|.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    p, sp = _wrap(p)
    q, sq = _wrap(q)
    p, q = np.broadcast_arrays(p, q)
    T = params.T
    x = p * p - params.mu
    y = q * q - params.mu
    x2, y2, xy = x * x, y * y, x * y
    total = np.zeros_like(x)
    # block the frequency sum to bound temporary sizes at ~32 MB
    chunk = max(1, int(4e6) // max(x.size, 1))
    for n0 in range(0, n_terms, chunk):
        n = np.arange(n0, min(n_terms, n0 + chunk), dtype=float)
        w2 = (np.pi * (2.0 * n + 1.0) * T) ** 2
        denom = (x2[..., None] + w2) * (y2[..., None] + w2)
        total += ((xy[..., None] + w2) / denom).sum(axis=-1)
    return _unwrap(4.0 * T * total, sp and sq)


def eval_B(p, q, params: ModelParams):
    """Boundary kernel B(p,q) = L((p+q)/2, (p-q)/2).

    Even in each argument separately and symmetric, so B(p,q) =
    B(|p|,|q|) = B(q,p); B(0,q) collapses to F(q/2).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return eval_L((p + q) / 2.0, (p - q) / 2.0, params)


def _require_resolved(grid) -> None:
    if grid.self_convergence > grid.policy.tol:
        raise QuadratureUnderresolved(
            f"grid self-convergence estimate {grid.self_convergence:.3e} "
            f"exceeds requested tolerance {grid.policy.tol:.3e}"
        )


def eval_A(p, params: ModelParams, grid):
    """A(p) = (1/4pi) * integral_R B(p,q) dq, by quadrature on the grid.

    B is even in q, so the integral runs over [0, Lambda] and is doubled.
    Raises QuadratureUnderresolved when the grid's stored a-posteriori
    estimate is worse than its requested tolerance.
    """
    _require_resolved(grid)
    p, scalar = _wrap(p)
    vals = eval_B(p[:, None], grid.nodes[None, :], params)
    out = (vals @ grid.weights) / (2.0 * np.pi)
    return _unwrap(out, scalar)


def eval_a(params: ModelParams, grid):
    """Essential-spectrum edge a_{T,mu} = A(0), strictly decreasing in T."""
    return eval_A(0.0, params, grid)


def eval_E(p, params: ModelParams, grid):
    """E(p) = 4*pi*(a - A(p)); nonnegative up to quadrature tolerance."""
    a = eval_a(params, grid)
    p, scalar = _wrap(p)
    out = 4.0 * np.pi * (a - eval_A(p, params, grid))
    return _unwrap(out, scalar)
