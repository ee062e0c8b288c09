"""Closed-form kernels of the BCS spectral problem in momentum space.

The kernel family (F, L, B) and the edge a = A(0) drive everything else
in the package (eval_A and eval_E live in bs_operator; eval_a, like them,
first certifies its grid at its params).  All evaluators are pure
functions, accept floats or numpy arrays elementwise, and are arranged
to be cancellation-free at the removable singularities p^2 = mu (for F)
and p^2 + q^2 = 2*mu (for L), so results stay finite for any finite input.

eval_L and eval_B run one pipeline, p, q -> (p +/- q)/2 -> u, v -> L,
over the broadcast of their arguments in blocks of _BLOCK elements, so a
block's temporaries stay in cache and no broadcast input is copied at
full size.  Inside it, exponentials whose argument is at or below
_EXP_ZERO_CUT are written as the 0.0 that np.exp rounds them to, and
1 + exp(x) is taken at x = _ONE_PLUS_EXP_CUT wherever x lies below it,
where the sum is 1.0 either way.  The pair kernel runs its common branch
on every lane with no mask and overwrites its rare branches by index.
None of this changes an output bit: every element sees the same
operations whatever block it falls in, and gets its own branch's bits.
The block size is a constant, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "ModelParams",
    "eval_F",
    "eval_L",
    "eval_B",
    "eval_a",
]

# Euler-Mascheroni constant to 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# Below this |x| the 3-term even Taylor series of tanh(x)/x is accurate
# to better than 1e-16 relative, so the branch switch costs nothing.
TANH_RATIO_SWITCH = 1e-4

# Elements per kernel block: the twenty-odd float64 temporaries of one
# block (128 kB each) stay in L2.
_BLOCK = 2**14

# np.exp rounds to exactly 0.0 below ln(2**-1075) = -745.1332...; its
# slow path there costs about ten times an ordinary call.
_EXP_ZERO_CUT = -745.2

# 1.0 + np.exp(x) rounds to exactly 1.0 once exp(x) < 2**-53, which holds
# below x = -36.74; the cut sits a little lower, past exp's last-bit error.
_ONE_PLUS_EXP_CUT = -37.5


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: temperature T and chemical potential mu.

    T and mu share energy units and must be finite.  Kernel evaluation
    accepts any real mu, while the solvers additionally require mu > 0
    (except the scaling limits, which run at mu = 0).
    """

    T: float
    mu: float

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")


def _wrap(x):
    """Promote to a 1-d float array; remember whether input was scalar."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _unwrap(out, scalar):
    return float(out[0]) if scalar else out


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, calling exp only where it can be nonzero.

    The mask is ~(x <= cut) rather than x > cut so that NaN still goes
    through exp and comes out NaN.
    """
    out = np.zeros_like(x)
    np.exp(x, out=out, where=~(x <= _EXP_ZERO_CUT))
    return out


def _one_plus_exp(x: np.ndarray) -> np.ndarray:
    """1.0 + np.exp(x), bit for bit.  x is clamped at _ONE_PLUS_EXP_CUT
    first, so exp never takes its slow path for results that round to
    zero or below the normal range, and NaN passes through."""
    out = np.maximum(x, _ONE_PLUS_EXP_CUT)
    np.exp(out, out=out)
    out += 1.0
    return out


def _tanh_over_x(x: np.ndarray) -> np.ndarray:
    """tanh(x)/x elementwise with a guarded series branch near x = 0.

    The quotient runs on every lane (x = 0 gives 0/0 there, silenced);
    the lanes with |x| < TANH_RATIO_SWITCH are then overwritten by index
    with the series, so the common lanes are never gathered.
    """
    with np.errstate(invalid="ignore"):
        out = np.tanh(x) / x
    small = np.nonzero(np.abs(x) < TANH_RATIO_SWITCH)
    xs = x[small]
    x2 = xs * xs
    out[small] = 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    return out


def _sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w)/w elementwise; equals 1 at w = 0 (no cancellation there)."""
    with np.errstate(invalid="ignore"):  # 0/0 at w = 0, overwritten
        out = np.sinh(w) / w
    out[w == 0.0] = 1.0
    return out


def _tanh_pair_ratio(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(tanh(u) + tanh(v)) / (u + v), elementwise and cancellation-free.

    Uses the identity tanh(u) + tanh(v) = sinh(u+v) / (cosh(u) cosh(v))
    with the exponentials grouped so nothing overflows: |u + v| never
    exceeds |u| + |v|, hence every exponent below is <= 0.  The u+v -> 0
    limit sech^2(u) comes out of the sinh(w)/w branch, taken for
    |u + v| < 1; the direct difference of exponentials takes the rest.
    Exponentials go through _exp, which skips those that round to zero,
    and the cosh factors through _one_plus_exp.  A lane with an infinite
    argument and no NaN returns 0.0, the limit when the other argument is
    finite: |tanh| <= 1 over an infinite sum.

    The difference of exponentials, the branch of nearly every lane at
    T << mu, runs on every lane without a mask (its 0/0 at w = 0 and
    inf - inf at m = inf are silenced); the lanes |u + v| < 1 and
    m = inf are then overwritten by index.  Each lane gets the bits of
    its own branch.
    """
    au, av = np.abs(u), np.abs(v)
    w = u + v
    m = au + av
    with np.errstate(invalid="ignore"):  # 0/0 at w = 0, inf - inf at m = inf
        core = _exp(w - m)
        core -= _exp(-w - m)
        core /= 2.0 * w
    small = np.nonzero(np.abs(w) < 1.0)
    core[small] = _sinhc(w[small]) * _exp(-m[small])
    core[np.nonzero(m == np.inf)] = 0.0
    core *= 4.0 / (_one_plus_exp(-2.0 * au) * _one_plus_exp(-2.0 * av))
    return core


def _saturated_L(x, y, u, v):
    """L = (tanh(u) + tanh(v)) / (x + y) on lanes where u = x/2T or
    v = y/2T overflowed to infinity.

    With a the infinite one and b the other, tanh(a) is s = sign(a), and
    s + tanh(b) = 2s / (1 + exp(-2 s b)) holds without cancellation.  A
    zero numerator (opposite signs, both saturated) gives 0.0.
    """
    a_inf = np.isinf(u)
    s = np.sign(np.where(a_inf, u, v))
    b = np.where(a_inf, v, u)
    with np.errstate(over="ignore"):
        num = 2.0 * s / (1.0 + np.exp(-2.0 * s * b))
    out = np.zeros_like(num)
    np.divide(num, x + y, out=out, where=num != 0.0)
    return out


def _L_block(p, q, mu, twoT):
    """L(p, q) on one block of equally shaped arrays."""
    x = p * p
    x -= mu
    y = q * q
    y -= mu
    with np.errstate(over="ignore"):  # overflowed lanes go to _saturated_L
        u = x / twoT
        v = y / twoT
    out = _tanh_pair_ratio(u, v)
    out /= twoT
    hit = np.isinf(u) | np.isinf(v)
    if hit.any():
        out[hit] = _saturated_L(x[hit], y[hit], u[hit], v[hit])
    return out


def _B_block(p, q, mu, twoT):
    """B(p, q) = L((p+q)/2, (p-q)/2) on one block (* 0.5 is / 2.0 bit for
    bit, and cheaper)."""
    s = p + q
    s *= 0.5
    d = p - q
    d *= 0.5
    return _L_block(s, d, mu, twoT)


def _blocked(block, p, q, params: ModelParams):
    """block(p, q, mu, 2T) over the broadcast of p and q, _BLOCK elements
    at a time; a float when both are scalars.

    np.nditer hands out aligned 1-d pieces of at most _BLOCK elements,
    copying a broadcast operand one piece at a time, and allocates the
    C-ordered output.
    """
    it = np.nditer(
        (np.asarray(p, dtype=float), np.asarray(q, dtype=float), None),
        flags=("external_loop", "buffered", "zerosize_ok"),
        op_flags=(("readonly",), ("readonly",), ("writeonly", "allocate")),
        op_dtypes=(float, float, float),
        order="C",
        buffersize=_BLOCK,
    )
    twoT = 2.0 * params.T
    with it:
        for pb, qb, out in it:
            out[...] = block(pb, qb, params.mu, twoT)
        result = it.operands[2]
    return float(result) if result.ndim == 0 else result


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
    no series fallback is needed; its one branch switch, at |x + y| = 2T,
    joins two exact forms of the same quantity.  Lanes where x/2T or
    y/2T overflows to infinity take the saturated form in _saturated_L
    instead.  Symmetric in (p, q) and even in each argument by
    construction.  Evaluated in blocks (_blocked).
    """
    return _blocked(_L_block, p, q, params)


def eval_B(p, q, params: ModelParams):
    """Boundary kernel B(p,q) = L((p+q)/2, (p-q)/2).

    Even in each argument separately and symmetric, so B(p,q) =
    B(|p|,|q|) = B(q,p); B(0,q) collapses to F(q/2).  The half sum and
    half difference are formed block by block, inside the same pass as L.
    """
    return _blocked(_B_block, p, q, params)


def _edge_sum(params: ModelParams, nodes, weights) -> float:
    """(1/2pi) * sum_j w_j B(0, q_j): A(0) on one quadrature rule."""
    return float(weights @ eval_B(0.0, nodes, params)) / (2.0 * np.pi)


def _edge_log_slope(params: ModelParams, grid) -> float:
    """d a_{T,mu} / d ln T on the grid's rule in closed form: B(0, q) is
    tanh(x/2T)/x with x = q^2/4 - mu, so node q adds -w sech^2(x/2T)/(4piT),
    and sech^2(u) = 4e/(1 + e)^2 with e = exp(-2|u|) cannot overflow."""
    twoT = 2.0 * params.T
    with np.errstate(over="ignore"):
        e = _exp(-2.0 * np.abs((grid.nodes * grid.nodes / 4.0 - params.mu) / twoT))
    return -float(grid.weights @ (4.0 * e / (1.0 + e) ** 2)) / (twoT * 2.0 * np.pi)


def eval_a(params: ModelParams, grid):
    """Essential-spectrum edge a_{T,mu} = A(0), strictly decreasing in T,
    summed on the grid's nodes, which are graded to B(0, .)'s crossover.
    Raises what grid.certify(params) raises."""
    grid.certify(params)
    return _edge_sum(params, grid.nodes, grid.weights)
