"""Discretized half-line Birman-Schwinger operator, even momentum sector.

The half-line operator acts on even functions as multiplication by A(p)
plus (Neumann) or minus (Dirichlet) the rank-smearing perturbation
(1/4pi) integral_R B(p,q) psi(q) dq.  Folding the integral onto [0,
Lambda] (B is even in q) doubles the perturbation, and conjugating the
Nystroem product by sqrt(weights) makes the matrix symmetric, so entry
(i,j) is

    delta_ij A(p_i) -/+ (1/4pi) * 2 * B(p_i, p_j) * sqrt(w_i w_j).

Its top eigenvalue against the essential-spectrum edge a = A(0) decides
whether the boundary binds a state at the given (T, mu).  The octave
panels far beyond the core certify the integrals A(p_i) and a; the
eigensolve sees only the leading principal block whose dropped
off-diagonal block is certified to move the top eigenvalue by at most
tol/2 (_matrix_cut).

One kernel matrix B(p_i, p_j) per grid serves the whole build: it is
evaluated on the upper triangle, one block of rows at a time, then
mirrored, and feeds the perturbation, the diagonal A(p_i) and the
trial-state cross term.  _A_rows, the one integrator of A(p) (the
diagonal, the trial state, eval_A and eval_E), integrates B(p, .) on a
per-momentum mesh; all meshes are marched in one lock-step pass, and
their octave panels, which are the grid's own, take their B values from
the kernel rows.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .kernels import (
    _BLOCK, ModelParams, _require_resolved, _unwrap, _wrap, eval_B, eval_a
)
from .quadrature import MomentumGrid, _mesh_with_centers

__all__ = [
    "BoundaryCondition",
    "DiscretizedOperator",
    "assemble",
    "eval_A",
    "eval_E",
    "top_eigenpair",
    "spectral_gap",
]

logger = logging.getLogger(__name__)

# Eigenpairs must satisfy ||Mx - lambda x|| <= EIGEN_TOL * ||M||_inf.
EIGEN_TOL = 1e-10


class BoundaryCondition(enum.Enum):
    """Half-line boundary condition; fixes the sign of the perturbation."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @property
    def sign(self) -> float:
        return -1.0 if self is BoundaryCondition.DIRICHLET else 1.0


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric Nystroem matrix plus the data that produced it.

    matrix is the leading n x n principal block of the Nystroem matrix
    on all grid.n nodes: the core nodes and the first octave panels.
    cut_bound bounds how far the top eigenvalue of the uncut matrix lies
    above that of matrix (0 when nothing is cut).  a_edge is the
    essential-spectrum edge a = A(0) evaluated on the whole grid;
    spectral_gap measures the top eigenvalue against it.
    """

    matrix: np.ndarray
    grid: MomentumGrid
    params: ModelParams
    bc: BoundaryCondition
    a_edge: float
    cut_bound: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _kernel_matrix(params: ModelParams, grid: MomentumGrid) -> np.ndarray:
    """B(p_i, p_j) for every pair of grid nodes.

    B(p, q) and B(q, p) come out bit-identical (the kernel sees p + q and
    the square of p - q), so B is evaluated on the upper triangle only,
    one kernel block of rows at a time, and mirrored: rows i0:i1 take
    columns i0: (their diagonal block whole) and hand the part right of
    that block to the rows below, transposed.
    """
    p = grid.nodes
    n = p.size
    K = np.empty((n, n))
    rows = max(1, _BLOCK // n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        K[i0:i1, i0:] = eval_B(p[i0:i1, None], p[None, i0:], params)
        K[i1:, i0:i1] = K[i0:i1, i1:].T
    return K


def _A_rows(
    params: ModelParams, grid: MomentumGrid, p: np.ndarray, Kp: np.ndarray
) -> np.ndarray:
    """A(p_i) for ascending momenta p_i >= 0, on per-momentum meshes.

    Kp holds the kernel rows B(p_i, grid.nodes).  B(p, .) has tanh
    crossovers at q = |2 sqrt(mu) -/+ p|, which the shared grid resolves
    only for p near 0, so each momentum gets the grid's mesh regraded
    with those two points as extra refinement centers, at the grid's own
    floor and cutoff so accuracy matches the grid's own certificate.  The
    meshes are marched in one lock-step pass and end in the grid's own
    octave panels, whose B values are read from Kp.  Beyond p^2 ~ 1/(pi
    tol) the ridge contributes less than tol (its amplitude decays like
    1/p^2) and the shared grid is used directly: A(p_i) = (Kp[i] @
    weights) / 2pi.
    """
    _require_resolved(grid)
    T, mu = params.T, params.mu
    smu = np.sqrt(mu) if mu > 0 else 0.0
    # ridge of B(p, .) carries weight <~ (4(sqrt(mu)+sqrt(T))+1)/p^2
    p_skip = np.sqrt(
        8.0 * mu + (4.0 * (smu + np.sqrt(T)) + 1.0) / (np.pi * grid.policy.tol)
    )
    k = int(np.searchsorted(p, p_skip))

    out = np.empty(p.size)
    if k:
        head = p[:k]
        crossovers = np.column_stack([np.abs(2.0 * smu - head), 2.0 * smu + head])
        q, w, sizes = _mesh_with_centers(grid, crossovers)
        ends = np.cumsum(sizes)
        # every mesh ends in the grid's own n_oct octave nodes, whose B
        # values Kp already holds
        n_oct = int(np.count_nonzero(grid.nodes > grid.core_cutoff))
        octave = (ends - n_oct)[:, None] + np.arange(n_oct)
        vals = np.empty(q.size)
        vals[octave] = Kp[:k, grid.n - n_oct :]
        fresh = np.ones(q.size, dtype=bool)
        fresh[octave] = False
        vals[fresh] = eval_B(np.repeat(head, sizes - n_oct), q[fresh], params)
        out[:k] = np.add.reduceat(w * vals, ends - sizes) / (2.0 * np.pi)
    out[k:] = (Kp[k:] @ grid.weights) / (2.0 * np.pi)
    return out


def eval_A(p, params: ModelParams, grid: MomentumGrid):
    """A(p) = A(|p|) = (1/4pi) * integral_R B(p,q) dq, by _A_rows on grid;
    on the grid's nodes it is the operator's diagonal, bit for bit.  Raises
    QuadratureUnderresolved if the grid's self-convergence exceeds its tol."""
    p, scalar = _wrap(p)
    order = np.argsort(np.abs(p))
    s = np.abs(p)[order]
    out = np.empty(p.size)
    out[order] = _A_rows(params, grid, s, eval_B(s[:, None], grid.nodes, params))
    return _unwrap(out, scalar)


def eval_E(p, params: ModelParams, grid: MomentumGrid):
    """E(p) = 4*pi*(A(0) - A(p)), both from one call, so E(0) is exactly 0."""
    p, scalar = _wrap(p)
    A = eval_A(np.concatenate([[0.0], p]), params, grid)
    return _unwrap(4.0 * np.pi * (A[0] - A[1:]), scalar)


def _matrix_cut(full: np.ndarray, grid: MomentumGrid) -> tuple[int, float]:
    """Order m of the certified principal block of full, and its bound.

    For full = [[C, X], [X^T, D]] with C the leading m x m block, the
    quadratic residual bound (C.-K. Li and R.-C. Li, Linear Algebra Appl.
    395 (2005) 183-190) gives

        0 <= lambda_max(full) - lambda_max(C)
           <= 2 ||X||^2 / (eta + sqrt(eta^2 + 4 ||X||^2))

    whenever eta <= lambda_max(C) - lambda_max(D) is positive.  Here
    ||X||_2 <= ||X||_F, max diag(C) bounds lambda_max(C) from below and
    D's Gershgorin discs bound lambda_max(D) from above.  The block keeps
    the core nodes plus the fewest leading octave panels whose bound is
    at most tol/2; if none qualifies, m is the grid's n and the bound 0.
    """
    ppp = grid.policy.points_per_panel
    budget = grid.policy.tol / 2.0
    d = np.diagonal(full)
    n_core = int(np.count_nonzero(grid.nodes <= grid.core_cutoff))
    for m in range(n_core, grid.n, ppp):
        D = full[m:, m:]
        top_D = np.max(d[m:] - np.abs(d[m:]) + np.abs(D).sum(axis=1))
        eta = np.max(d[:m]) - top_D
        x2 = float(np.square(full[:m, m:]).sum())
        if eta > 0.0:
            bound = 2.0 * x2 / (eta + np.sqrt(eta * eta + 4.0 * x2))
            if bound <= budget:
                return m, float(bound)
    return grid.n, 0.0


def assemble(
    params: ModelParams, grid: MomentumGrid, bc: BoundaryCondition
) -> DiscretizedOperator:
    """Assemble the even-sector operator matrix for (params, bc) on grid.

    Two cutoffs serve two jobs.  The integrals A(p_i) and a_edge run to
    the grid's cutoff, which tail_bound certifies.  The matrix stops at
    an earlier panel edge, the matrix cutoff: _matrix_cut keeps the
    leading principal block whose top eigenvalue lies within tol/2 of
    the uncut matrix's, the same budget the tail certificate takes, and
    stores that a priori bound as cut_bound.  The far octaves stay only
    in the integrals.

    Built symmetric by construction: B comes from _kernel_matrix, which
    mirrors each evaluated pair, and the weight product sqrt(w_i w_j) is
    formed once as an outer product.
    """
    K = _kernel_matrix(params, grid)
    diag = _A_rows(params, grid, grid.nodes, K)
    sw = np.sqrt(grid.weights)
    full = K  # scaled in place; _A_rows was K's last reader
    full *= sw[:, None] * sw[None, :]
    full *= bc.sign / (2.0 * np.pi)
    full[np.diag_indices_from(full)] += diag
    assert np.array_equal(full, full.T), "assembly must be symmetric"
    m, cut_bound = _matrix_cut(full, grid)
    matrix = full[:m, :m].copy()
    matrix.setflags(write=False)
    return DiscretizedOperator(
        matrix=matrix,
        grid=grid,
        params=params,
        bc=bc,
        a_edge=float(eval_a(params, grid)),
        cut_bound=cut_bound,
    )


def top_eigenpair(op: DiscretizedOperator) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenvalue of op.matrix and its unit vector.

    Dense symmetric eigendecomposition of the m x m matrix.  The residual
    ||Mx - lambda x|| is verified against EIGEN_TOL * ||M||_inf; the
    second-largest eigenvalue goes to the debug log since nothing
    guarantees the top one is isolated.  The vector comes back on the
    grid's nodes, zero past the matrix cut: [x; 0] is the Rayleigh vector
    whose quotient in the uncut matrix is lambda, within op.cut_bound of
    the uncut top eigenvalue.
    """
    M = op.matrix
    n = M.shape[0]
    vals, vecs = np.linalg.eigh(M)
    lam, x = vals[-1], vecs[:, -1]
    second = vals[-2] if n > 1 else np.nan
    residual = np.linalg.norm(M @ x - lam * x)
    scale = np.linalg.norm(M, np.inf)
    if residual > EIGEN_TOL * scale:
        raise NoConvergence(
            f"eigenpair residual {residual:.3e} exceeds {EIGEN_TOL:.1e} * ||M|| = "
            f"{EIGEN_TOL * scale:.3e}"
        )
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    logger.debug(
        "top eigenvalue %.12e (second %.12e, residual %.2e, n=%d of %d, "
        "cut bound %.2e, bc=%s)",
        lam,
        second,
        residual,
        n,
        op.grid.n,
        op.cut_bound,
        op.bc.value,
    )
    on_grid = np.zeros(op.grid.n)
    on_grid[:n] = x
    return float(lam), on_grid


def spectral_gap(op: DiscretizedOperator) -> float:
    """Top eigenvalue minus the essential edge a_edge.

    Positive values certify a boundary bound state at this
    discretization once they clear the grid's self-convergence noise
    (by convention, ten times it).  The eigenvalue is that of the cut
    matrix, so the gap of the uncut matrix lies in [gap, gap +
    op.cut_bound].
    """
    value, _ = top_eigenpair(op)
    return value - op.a_edge
