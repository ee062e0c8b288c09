"""Discretized half-line Birman-Schwinger operator, even momentum sector.

The half-line operator acts on even functions as multiplication by A(p)
plus (Neumann) or minus (Dirichlet) the rank-smearing perturbation
(1/4pi) integral_R B(p,q) psi(q) dq.  Folding the integral onto [0,
Lambda] (B is even in q) doubles the perturbation, and conjugating the
Nystroem product by sqrt(weights) makes the matrix symmetric, so entry
(i,j) is

    delta_ij A(p_i) -/+ (1/4pi) * 2 * B(p_i, p_j) * sqrt(w_i w_j).

Its top eigenvalue against the essential-spectrum edge a = A(0) decides
whether the boundary binds a state at the given (T, mu).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .kernels import ModelParams, eval_A, eval_B, eval_a
from .quadrature import MomentumGrid, _mesh_with_centers

__all__ = [
    "BoundaryCondition",
    "DiscretizedOperator",
    "assemble",
    "top_eigenpair",
    "spectral_gap",
]

logger = logging.getLogger(__name__)

_EIGEN_TOL_DEFAULT = 1e-10


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

    a_edge is the essential-spectrum edge a = A(0) evaluated on the same
    grid; spectral_gap measures the top eigenvalue against it.
    """

    matrix: np.ndarray
    grid: MomentumGrid
    params: ModelParams
    bc: BoundaryCondition
    a_edge: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _diag_A(params: ModelParams, grid: MomentumGrid) -> np.ndarray:
    """A(p_i) for every grid node, on per-node feature-aware meshes.

    B(p, .) has tanh crossovers at q = |2 sqrt(mu) -/+ p|, which the
    shared grid resolves only for p near 0, so each node gets the grid's
    mesh regraded with those two points as extra refinement centers, at
    the grid's own floor and cutoff so accuracy matches the grid's own
    certificate.  Beyond p^2 ~ 1/(pi tol) the ridge contributes less
    than tol (its amplitude decays like 1/p^2) and the shared grid is
    used directly.
    """
    T, mu = params.T, params.mu
    smu = np.sqrt(mu) if mu > 0 else 0.0
    # ridge of B(p, .) carries weight <~ (4(sqrt(mu)+sqrt(T))+1)/p^2
    p_skip = np.sqrt(
        8.0 * mu + (4.0 * (smu + np.sqrt(T)) + 1.0) / (np.pi * grid.policy.tol)
    )
    k = int(np.searchsorted(grid.nodes, p_skip))

    qs, ws, sizes = [], [], []
    for pi in grid.nodes[:k]:
        crossovers = (abs(2.0 * smu - pi), 2.0 * smu + pi)
        nodes_i, w_i = _mesh_with_centers(grid, crossovers)
        qs.append(nodes_i)
        ws.append(w_i)
        sizes.append(nodes_i.size)

    diag = np.empty(grid.n)
    if k:
        q_all = np.concatenate(qs)
        w_all = np.concatenate(ws)
        p_all = np.repeat(grid.nodes[:k], sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        vals = w_all * eval_B(p_all, q_all, params)
        diag[:k] = np.add.reduceat(vals, starts) / (2.0 * np.pi)
    if k < grid.n:
        diag[k:] = eval_A(grid.nodes[k:], params, grid)
    return diag


def assemble(
    params: ModelParams, grid: MomentumGrid, bc: BoundaryCondition
) -> DiscretizedOperator:
    """Assemble the even-sector operator matrix for (params, bc) on grid.

    Built symmetric by construction: the weight product sqrt(w_i w_j) is
    formed once as an outer product and B is evaluated through the same
    elementwise expression for (i,j) and (j,i).
    """
    p = grid.nodes
    sw = np.sqrt(grid.weights)
    pert = eval_B(p[:, None], p[None, :], params) * (sw[:, None] * sw[None, :])
    matrix = (bc.sign / (2.0 * np.pi)) * pert
    matrix[np.diag_indices_from(matrix)] += _diag_A(params, grid)
    assert np.array_equal(matrix, matrix.T), "assembly must be symmetric"
    matrix.setflags(write=False)
    return DiscretizedOperator(
        matrix=matrix,
        grid=grid,
        params=params,
        bc=bc,
        a_edge=float(eval_a(params, grid)),
    )


def top_eigenpair(
    op: DiscretizedOperator, tol: float = _EIGEN_TOL_DEFAULT
) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenvalue and unit eigenvector of op.matrix.

    Dense symmetric eigendecomposition.  The residual ||Mx - lambda x||
    is verified against tol * ||M||_inf; the second-largest eigenvalue
    goes to the debug log since nothing guarantees the top one is
    isolated.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    M = op.matrix
    n = M.shape[0]
    vals, vecs = np.linalg.eigh(M)
    lam, x = vals[-1], vecs[:, -1]
    second = vals[-2] if n > 1 else np.nan
    residual = np.linalg.norm(M @ x - lam * x)
    scale = np.linalg.norm(M, np.inf)
    if residual > tol * scale:
        raise NoConvergence(
            f"eigenpair residual {residual:.3e} exceeds {tol:.1e} * ||M|| = "
            f"{tol * scale:.3e}"
        )
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    logger.debug(
        "top eigenvalue %.12e (second %.12e, residual %.2e, n=%d, bc=%s)",
        lam,
        second,
        residual,
        n,
        op.bc.value,
    )
    return float(lam), x


def spectral_gap(op: DiscretizedOperator, tol: float = _EIGEN_TOL_DEFAULT) -> float:
    """Top eigenvalue minus the essential edge a_edge.

    Positive values certify a boundary bound state at this
    discretization once they clear the grid's self-convergence noise
    (by convention, ten times it).
    """
    value, _ = top_eigenpair(op, tol)
    return value - op.a_edge
