"""Discretized half-line Birman-Schwinger operator, even momentum sector.

The half-line operator acts on even functions as multiplication by A(p)
plus (Neumann) or minus (Dirichlet) the rank-smearing perturbation
(1/4pi) integral_R B(p,q) psi(q) dq.  Folding the integral onto [0,
Lambda] (B is even in q) doubles the perturbation, and conjugating the
Nystroem product by sqrt(weights) makes the matrix symmetric, so entry
(i,j) is

    delta_ij A(p_i) -/+ (1/4pi) * 2 * B(p_i, p_j) * sqrt(w_i w_j).

Its top eigenvalue against the essential-spectrum edge a = A(0) decides
whether the boundary binds a state at the given (T, mu).  The tail
panels far beyond the core certify the integrals A(p_i) and a; the
eigensolve sees only the leading principal block whose dropped
off-diagonal block is certified to move the top eigenvalue by at most
tol/2 (_matrix_cut), a view that _nystroem cuts from its n x n buffer:
assemble copies it, and _half_line_solve, the boundary root find's solve
at one T against the shift t = 1/v, reads it in place.  That solve needs
only the sign and rough size of lambda_max - t, which _schur_gap gives:
one LU solve of the nodes whose Gershgorin discs stay well below t, and
an eigensolve of the rest.

One kernel matrix B(p_i, p_j) per grid, kernels._B_matrix, serves the
whole build: it feeds the perturbation, the diagonal A(p_i) and the
trial-state cross term.  quadrature._A_rows, the one integrator of A(p)
(the diagonal, the trial state, eval_A and eval_E), sums each kernel row
on the grid and evaluates B(p, .) afresh only on short sub-meshes around
the row's two crossovers, which replace the grid panels there.  A root
find that solves several T on one grid lays out those of its nodes once
and passes them to _nystroem; every other caller lays out its own per
call.  assemble and eval_A first certify the grid at their params
(MomentumGrid.certify).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence
from .kernels import _BLOCK, ModelParams, _B_matrix, _edge_sum, _unwrap, _wrap, eval_B
from .quadrature import MomentumGrid, _A_meshes, _A_rows, _Meshes

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

# Inverse-iteration shift above the top eigenvalue, in units of ||M||_inf:
# some twenty times that eigenvalue's rounding, while the residual of one
# solve, which scales with the shift, stays near 5e-12 ||M||_inf.
INVERSE_SHIFT = 1e-13

# Margin of _schur_gap's split below its shift t, as a fraction of t:
# every dropped node's Gershgorin reach lies below (1 - SCHUR_MARGIN) t,
# so ||(tI - D)^-1|| <= 1 / (SCHUR_MARGIN t).  The kept block is about
# as cheap at a third as at a quarter, and G then exceeds lambda_max - t
# by less: the boundary root finds of the 24 edge-row rows take 110
# solves at a third and 112 at a quarter.
SCHUR_MARGIN = 1.0 / 3.0

class BoundaryCondition(enum.Enum):
    """Half-line boundary condition; fixes the sign of the perturbation."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @property
    def sign(self) -> float:
        return -1.0 if self is BoundaryCondition.DIRICHLET else 1.0


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Symmetric Nystroem matrix plus the data that produced it.

    matrix is the leading n x n principal block of the Nystroem matrix
    on all grid.n nodes: the core nodes and the first tail panels.
    cut_bound bounds how far the top eigenvalue of the uncut matrix lies
    above that of matrix (0 when nothing is cut).  a_edge is the
    essential-spectrum edge a = A(0) evaluated on the whole grid;
    spectral_gap measures the top eigenvalue against it.  Operators
    compare and hash by identity.
    """

    matrix: np.ndarray
    grid: MomentumGrid
    bc: BoundaryCondition
    a_edge: float
    cut_bound: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def eval_A(p, params: ModelParams, grid: MomentumGrid):
    """A(p) = A(|p|) = (1/4pi) * integral_R B(p,q) dq, by _A_rows on grid;
    on the grid's nodes it is the operator's diagonal, bit for bit, and it
    is 0.0 where p^2 overflows.  Raises ValueError for a NaN momentum and
    what grid.certify(params) raises."""
    grid.certify(params)
    p, scalar = _wrap(p)
    if np.isnan(p).any():
        raise ValueError("momentum must not be NaN")
    s = np.abs(p).ravel()
    Kp = eval_B(s[:, None], grid.nodes, params)
    out = _A_rows(params, grid, Kp, _A_meshes(grid, s))
    return _unwrap(out.reshape(p.shape), scalar)


def eval_E(p, params: ModelParams, grid: MomentumGrid):
    """E(p) = 4*pi*(A(0) - A(p)), both from one call, so E(0) is exactly 0."""
    p, scalar = _wrap(p)
    A = eval_A(np.concatenate([[0.0], p.ravel()]), params, grid)
    return _unwrap(4.0 * np.pi * (A[0] - A[1:]).reshape(p.shape), scalar)


def _gershgorin_reach(M: np.ndarray, sign: float) -> np.ndarray:
    """d_i + sum_{j != i} |M_ij| for every row of the square M, whose
    off-diagonal entries all carry sign: B >= 0, as tanh u + tanh v has
    the sign of u + v, so sign * M_ij = |M_ij| and plain row sums give
    the reach with no |M| temporary."""
    return (1.0 - sign) * np.diagonal(M) + sign * M.sum(axis=1)


def _matrix_cut(full: np.ndarray, grid: MomentumGrid, sign: float) -> tuple[int, float]:
    """Order m of the certified principal block of full, and its bound.

    For full = [[C, X], [X^T, D]] with C the leading m x m block, the
    quadratic residual bound (C.-K. Li and R.-C. Li, Linear Algebra Appl.
    395 (2005) 183-190) gives

        0 <= lambda_max(full) - lambda_max(C)
           <= 2 ||X||^2 / (eta + sqrt(eta^2 + 4 ||X||^2))

    whenever eta <= lambda_max(C) - lambda_max(D) is positive.  Here
    ||X||_2 <= ||X||_F, max diag(C) bounds lambda_max(C) from below and
    D's Gershgorin discs bound lambda_max(D) from above.  The block keeps
    the core nodes plus the fewest leading tail panels whose bound is
    at most tol/2; if none qualifies, m is the grid's n and the bound 0.
    """
    ppp = grid.policy.points_per_panel
    budget = grid.policy.tol / 2.0
    d = np.diagonal(full)
    for m in range(ppp * grid.core_panels, grid.n, ppp):
        top_D = np.max(_gershgorin_reach(full[m:, m:], sign))
        eta = np.max(d[:m]) - top_D
        x2 = float(np.square(full[:m, m:]).sum())
        if eta > 0.0:
            bound = 2.0 * x2 / (eta + np.sqrt(eta * eta + 4.0 * x2))
            if bound <= budget:
                return m, float(bound)
    return grid.n, 0.0


def _nystroem(
    params: ModelParams, grid: MomentumGrid, bc: BoundaryCondition, meshes: _Meshes
) -> tuple[np.ndarray, float]:
    """assemble's matrix before the copy: (block, cut_bound), with block
    the writable leading m x m view of the Nystroem matrix on all grid.n
    nodes, in a fresh n x n buffer that the caller owns through it, and
    cut_bound its bound (_matrix_cut); meshes is _A_meshes(grid, grid.nodes)."""
    grid.certify(params)
    K = _B_matrix(grid.nodes, params)
    diag = _A_rows(params, grid, K, meshes)
    sw = np.sqrt(grid.weights)
    scale = bc.sign / (2.0 * np.pi)
    full = K  # scaled in place; _A_rows was K's last reader
    rows = max(1, _BLOCK // grid.n)
    for i0 in range(0, grid.n, rows):
        block = full[i0:i0 + rows]
        block *= sw[i0:i0 + rows, None] * sw
        block *= scale
    full[np.diag_indices_from(full)] += diag
    m, cut_bound = _matrix_cut(full, grid, bc.sign)
    logger.debug("assembled n=%d of %d (cut bound %.2e, bc=%s); A(p) took %d fresh "
                 "kernel evaluations", m, grid.n, cut_bound, bc.value, meshes.x.size)
    return full[:m, :m], cut_bound


def assemble(
    params: ModelParams, grid: MomentumGrid, bc: BoundaryCondition
) -> DiscretizedOperator:
    """Assemble the even-sector operator matrix for (params, bc) on grid.

    Two cutoffs serve two jobs.  The integrals A(p_i) and a_edge run to
    the grid's cutoff, which tail_bound certifies.  The matrix stops at
    an earlier panel edge, the matrix cutoff: _matrix_cut keeps the
    leading principal block whose top eigenvalue lies within tol/2 of
    the uncut matrix's, the same budget the tail certificate takes, and
    stores that a priori bound as cut_bound.  The far tail panels stay
    only in the integrals.

    Built symmetric by construction: B comes from kernels._B_matrix, which
    mirrors each evaluated pair, and sqrt(w_i) sqrt(w_j) is the same
    product whichever node comes first.  B is scaled in place, one kernel
    block of rows at a time: each row block by its slice of the weight
    outer product, then by sign/(2 pi), so no n x n temporary is formed.
    Raises what grid.certify(params) raises.
    """
    block, cut_bound = _nystroem(params, grid, bc, _A_meshes(grid, grid.nodes))
    matrix = block.copy()
    matrix.setflags(write=False)
    return DiscretizedOperator(
        matrix=matrix,
        grid=grid,
        bc=bc,
        a_edge=_edge_sum(params, grid.nodes, grid.weights),  # eval_a, certified above
        cut_bound=cut_bound,
    )


def _schur_gap(M: np.ndarray, sign: float, t: float) -> tuple[float, int]:
    """(G, k): the sign of lambda_max(M) - t, from an eigensolve of order k.

    M is a writable operator matrix, every off-diagonal entry of the sign
    sign (_gershgorin_reach).  Split M = [[C, X], [X^T, D]] after the
    last node whose Gershgorin reach is at least t - SCHUR_MARGIN * t,
    keeping at least one, so D < (1 - SCHUR_MARGIN) t I.  By Haynsworth's
    inertia additivity (E. V. Haynsworth, Linear Algebra Appl. 1 (1968)
    73-81) M - tI then has as many positive eigenvalues as the Schur
    complement C - tI + X (tI - D)^-1 X^T, so

        G = lambda_max(C + X (tI - D)^-1 X^T) - t

    has the sign of lambda_max(M) - t and vanishes where it does.  As
    f(mu) = lambda_max(C + X (mu I - D)^-1 X^T) - mu falls with slope at
    most -1 on mu > lambda_max(D) and f(lambda_max(M)) = 0, |G| = |f(t)|
    >= |lambda_max(M) - t|.  One LU solve of the dropped block replaces
    the eigensolve of M: D - tI is formed on M's diagonal, whose entries
    are put back afterwards, bit for bit, so LAPACK's copy is the only
    new array of D's size.  A non-finite entry raises NoConvergence.
    """
    reach = _gershgorin_reach(M, sign)
    if not np.isfinite(reach).all():
        raise NoConvergence(f"operator matrix has a non-finite entry (n={M.shape[0]})")
    margin = SCHUR_MARGIN * t
    reached = np.flatnonzero(reach >= t - margin)
    k = int(reached[-1]) + 1 if reached.size else 1
    C, X, D = M[:k, :k], M[:k, k:], M[k:, k:]
    if k < M.shape[0]:
        diagonal = np.diag_indices_from(D)
        d = D[diagonal]
        D[diagonal] -= t
        try:
            Y = np.linalg.solve(D, X.T)  # D - tI is negative definite
        finally:
            D[diagonal] = d
        C = C - X @ Y
    value = float(np.linalg.eigvalsh(C)[-1] - t)
    logger.debug("Schur split at t=%.12e: kept %d, dropped %d, margin %.3e, G %+.6e",
                 t, k, M.shape[0] - k, margin, value)
    return value, k


def _top_value(M: np.ndarray) -> float:
    """Largest eigenvalue of the operator matrix M by eigvalsh, good to its
    backward error, far below EIGEN_TOL; the second-largest is logged, as
    nothing guarantees the top one is isolated.  eigvalsh may return NaN or
    finite nonsense for a NaN entry, so a non-finite M raises NoConvergence."""
    if not np.isfinite(M.sum()):
        raise NoConvergence(f"operator matrix has a non-finite entry (n={len(M)})")
    vals = np.linalg.eigvalsh(M)
    logger.debug("top eigenvalue %.12e (second %.12e, n=%d)",
                 vals[-1], vals[-2] if len(M) > 1 else np.nan, len(M))
    return float(vals[-1])


class _SolveRecord(NamedTuple):
    """What one _half_line_solve read off its matrix: the order of the cut
    matrix, the cut's eigenvalue bound, the kept order of the Schur split
    (the matrix order where none was taken) and lambda_max (None unless
    asked)."""

    matrix_nodes: int
    cut_bound: float
    schur_nodes: int
    lambda_max: float | None


def _half_line_solve(
    params: ModelParams, grid: MomentumGrid, bc: BoundaryCondition, meshes: _Meshes,
    t: float, top: bool = False,
) -> tuple[float, _SolveRecord]:
    """(G, record): the half-line operator at params on grid against the
    shift t.  G is _schur_gap's at t on _nystroem's block, with the sign of
    lambda_max - t and at least its size.  With top, lambda_max comes first
    from _top_value, and where lambda_max - t <= 0 that difference is G and
    no split is taken.  The block's n x n buffer lives only for the call;
    meshes is _A_meshes(grid, grid.nodes)."""
    block, cut_bound = _nystroem(params, grid, bc, meshes)
    lam = _top_value(block) if top else None
    if top and lam - t <= 0.0:
        value, kept = lam - t, len(block)
    else:
        value, kept = _schur_gap(block, bc.sign, t)
    return value, _SolveRecord(len(block), cut_bound, kept, lam)


def top_eigenpair(op: DiscretizedOperator) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenvalue of op.matrix and its unit vector.

    The value is _top_value's; the vector comes from inverse iteration
    (B. N. Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4):
    one solve of (lambda + delta) I - M, delta = INVERSE_SHIFT *
    ||M||_inf, from the flat start vector, and one more if the residual
    ||Mx - lambda x|| still exceeds EIGEN_TOL * ||M||_inf.  It comes back
    on the grid's nodes, zero past the matrix cut: [x; 0] is the Rayleigh
    vector whose quotient in the uncut matrix is lambda, within
    op.cut_bound of the uncut top eigenvalue.
    """
    M = op.matrix
    n = M.shape[0]
    lam = _top_value(M)
    scale = np.linalg.norm(M, np.inf)
    shifted = -M
    shifted[np.diag_indices(n)] += lam + INVERSE_SHIFT * scale
    x = np.full(n, 1.0 / np.sqrt(n))
    for steps in (1, 2):
        x = np.linalg.solve(shifted, x)
        x /= np.linalg.norm(x)
        residual = np.linalg.norm(M @ x - lam * x)
        if residual <= EIGEN_TOL * scale:
            break
    else:
        raise NoConvergence(
            f"eigenpair residual {residual:.3e} exceeds {EIGEN_TOL:.1e} * ||M|| = "
            f"{EIGEN_TOL * scale:.3e} after {steps} inverse-iteration steps"
        )
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    logger.debug("eigenvector residual %.2e after %d steps", residual, steps)
    on_grid = np.zeros(op.grid.n)
    on_grid[:n] = x
    return lam, on_grid


def spectral_gap(op: DiscretizedOperator) -> float:
    """Top eigenvalue minus the essential edge a_edge.

    The eigenvalue is that of the cut matrix, so the uncut matrix's gap
    lies in [gap, gap + op.cut_bound].  That is all it bounds: the
    discretization error is open, as self_convergence reads about 0 while
    the eigenvalue moves by 2-9e-8 when points per panel double at grid
    tol 1e-8 (ROADMAP.md, "Make the discretisation error bar real").
    """
    return _top_value(op.matrix) - op.a_edge
