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
full size; quadrature._A_rows enters it at x and y, which its meshes
keep (_L_xy).  Inside it, exponentials whose argument is at or below
_EXP_ZERO_CUT are written as the 0.0 that np.exp rounds them to, and
1 + exp(x) is taken at x = _ONE_PLUS_EXP_CUT wherever x lies below it,
where the sum is 1.0 either way.  The pair kernel runs its common branch
on every lane with no mask and overwrites its rare branches by index.
None of this changes an output bit: every element sees the same
operations whatever block it falls in, and gets its own branch's bits.
The block size is a constant, not a setting.  _B_closed gives the pair
kernel's bits in closed form where both tanh factors are exactly +-1;
_B_matrix, the kernel matrix on a grid's nodes, takes it on the column
ranges where it holds (_closed_columns).
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

# Where u = x/2T and v = y/2T share a sign and both |u|, |v| reach this,
# the pair kernel's value has the closed form of _B_closed: both
# 1 + exp(-2|.|) clamp to exactly 1.0 at _ONE_PLUS_EXP_CUT.
_CLOSED_CUT = -_ONE_PLUS_EXP_CUT / 2.0


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
    T << mu, runs on every lane without a mask; the lanes |u + v| < 1 and
    m = inf are then overwritten by index.  Each lane gets the bits of
    its own branch.  Overflow and invalid operations are silenced: 0/0
    at w = 0 and inf - inf at m = inf, and, for finite u, v near the
    float maximum (x/2T at T ~ 1e-300), u + v, |u| + |v| and w - m going
    to +-inf and -2|u| to -inf, which _one_plus_exp clamps to the 1.0 of
    the finite value.  A lane whose m overflows ends as 0.0, like an
    infinite argument.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        au, av = np.abs(u), np.abs(v)
        w = u + v
        m = au + av
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
    zero numerator (opposite signs, both saturated) gives 0.0, and so
    does x + y overflowing to infinity, which finite x and y may do.
    """
    a_inf = np.isinf(u)
    s = np.sign(np.where(a_inf, u, v))
    b = np.where(a_inf, v, u)
    with np.errstate(over="ignore"):
        num = 2.0 * s / (1.0 + np.exp(-2.0 * s * b))
        out = np.zeros_like(num)
        np.divide(num, x + y, out=out, where=num != 0.0)
    return out


def _L_xy(x, y, twoT):
    """L on one block from x = p^2 - mu and y = q^2 - mu: the tail that
    every pair kernel path shares."""
    with np.errstate(over="ignore"):  # overflowed lanes go to _saturated_L
        u = x / twoT
        v = y / twoT
    out = _tanh_pair_ratio(u, v)
    out /= twoT
    hit = np.isinf(u) | np.isinf(v)
    if hit.any():
        out[hit] = _saturated_L(x[hit], y[hit], u[hit], v[hit])
    return out


def _L_block(p, q, mu, twoT):
    """L(p, q) on one block of equally shaped arrays.  A square that
    overflows is inf, where L is 0.0 (_saturated_L)."""
    with np.errstate(over="ignore"):
        x = p * p
        y = q * q
    x -= mu
    y -= mu
    return _L_xy(x, y, twoT)


def _xy(t, mu):
    """x (t = p + q) or y (t = p - q) of _B_block, (t/2)^2 - mu, formed in
    place in t (* 0.5 is / 2.0 bit for bit, and cheaper)."""
    t *= 0.5
    t *= t
    t -= mu
    return t


def _B_block(p, q, mu, twoT):
    """B(p, q) = L((p+q)/2, (p-q)/2) on one block.  A sum or square that
    overflows is inf, where L is 0.0 (_saturated_L)."""
    with np.errstate(over="ignore"):
        x = _xy(p + q, mu)
        y = _xy(p - q, mu)
    return _L_xy(x, y, twoT)


def _uv(t, mu, twoT):
    """u (t = p + q) or v (t = p - q) of _B_block, with its roundings,
    formed in place in t."""
    return np.divide(_xy(t, mu), twoT, out=t)


def _B_closed(p, q, mu, twoT):
    """B(p, q) on lanes where u and v share a sign and |u|, |v| >= _CLOSED_CUT
    (u, v as in _B_block, with |u| + |v| finite), in closed form: _B_block's
    bits there.

    On such a lane write w = u + v.  Its sum m = |u| + |v| is |w| exactly
    (rounding is symmetric in sign), so the two exponent arguments of
    _tanh_pair_ratio are 0 and -2|w| <= -75: the difference of
    exponentials is exactly +-1.0 with the sign of w, and dividing it by
    2w gives 1.0 / (2|w|).  |w| >= 37.5 keeps the lane off the sinh(w)/w
    branch, and m is finite, so the m = inf overwrite never fires.  Both
    1 + exp(-2|.|) are taken at _ONE_PLUS_EXP_CUT, where they are 1.0, so
    the cosh factor is 4.0 / (1.0 * 1.0) = 4.0.  What is left is
    ((1.0 / (2|w|)) * 4.0) / 2T, with u and v formed by _B_block's own
    steps: about fifteen passes instead of the pipeline's fifty.
    """
    u = _uv(p + q, mu, twoT)
    u += _uv(p - q, mu, twoT)
    np.abs(u, out=u)
    u *= 2.0
    np.divide(1.0, u, out=u)
    u *= 4.0
    u /= twoT
    return u


def _closed_columns(p_last, cols, right, mu, twoT) -> tuple[int, int]:
    """(a, b): on the row p_last, cols[:a] are the leading columns with
    u <= -_CLOSED_CUT and cols[b:], b >= right, the trailing columns past
    cols[:right] with v >= _CLOSED_CUT, u and v as _uv forms them.

    cols are sorted and p_last + cols >= 0, so u rises along cols, and v
    rises along cols[right:] >= p_last (it is smallest at the diagonal and
    rises again to its left, so only the columns past it count).  Rounding
    is monotone, so u and v are sorted and a search finds each range's end.
    """
    a = np.searchsorted(_uv(p_last + cols, mu, twoT), -_CLOSED_CUT, side="right")
    b = np.searchsorted(_uv(p_last - cols[right:], mu, twoT), _CLOSED_CUT)
    return int(a), right + int(b)


def _blocked(block, p, q, *args):
    """block(p, q, *args) over the broadcast of p and q, _BLOCK elements
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
    with it:
        for pb, qb, out in it:
            out[...] = block(pb, qb, *args)
        result = it.operands[2]
    return float(result) if result.ndim == 0 else result


def eval_F(p, params: ModelParams):
    """Bulk kernel F(p) = tanh((p^2-mu)/(2T)) / (p^2-mu).

    Value 1/(2T) at the removable singularity p^2 = mu, and 0.0 where x
    overflows.
    """
    p, scalar = _wrap(p)
    with np.errstate(over="ignore"):  # tanh(inf)/inf is 0.0
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
    return _blocked(_L_block, p, q, params.mu, 2.0 * params.T)


def eval_B(p, q, params: ModelParams):
    """Boundary kernel B(p,q) = L((p+q)/2, (p-q)/2).

    Even in each argument separately and symmetric, so B(p,q) =
    B(|p|,|q|) = B(q,p); B(0,q) collapses to F(q/2).  The half sum and
    half difference are formed block by block, inside the same pass as L.
    """
    return _blocked(_B_block, p, q, params.mu, 2.0 * params.T)


def _B_matrix(nodes: np.ndarray, params: ModelParams) -> np.ndarray:
    """B(p_i, p_j) for every pair of the sorted nonnegative nodes.

    B(p, q) and B(q, p) come out bit-identical (the kernel sees p + q and
    the square of p - q), so B is evaluated on the upper triangle only,
    one kernel block of rows at a time, and mirrored: rows i0:i1, as many
    as fill a block at the row length n - i0, take columns i0: (their
    diagonal block whole) and hand the part right of that block to the
    rows below, transposed.

    Inside a row block, the columns where every row's u and v (those of
    _B_block) are both <= -_CLOSED_CUT, next to the diagonal, or both
    >= _CLOSED_CUT, past the block, take the closed form _B_closed; the
    columns between go through eval_B.  u and v are rounded monotone
    functions of p + q and |p - q|, and v <= u.  A row p_i <= p_last of
    the block has u at most the last row's at every column, and past the
    block v at least the last row's, so the ranges that _closed_columns
    finds exactly on the last row hold for every row of the block.
    Where (max p^2 + |mu|)/T overflows, some u or v may be infinite
    (_saturated_L), and every pair goes to eval_B.
    """
    p = nodes
    n = p.size
    mu, twoT = params.mu, 2.0 * params.T
    K = np.empty((n, n))
    top = float(p[-1])  # top * top is inf where float ** 2 raises OverflowError
    closed = np.isfinite((top * top + abs(mu)) / params.T)
    i0 = 0
    while i0 < n:
        i1 = min(i0 + max(1, _BLOCK // (n - i0)), n)
        rows, cols, block = p[i0:i1, None], p[i0:], K[i0:i1, i0:]
        a, b = 0, n - i0
        if closed:
            a, b = _closed_columns(p[i1 - 1], cols, i1 - i0, mu, twoT)
        if a > 0:
            block[:, :a] = _B_closed(rows, cols[:a], mu, twoT)
        if b > a:
            block[:, a:b] = eval_B(rows, cols[a:b], params)
        if b < n - i0:
            block[:, b:] = _B_closed(rows, cols[b:], mu, twoT)
        K[i1:, i0:i1] = K[i0:i1, i1:].T
        i0 = i1
    return K


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
