"""Trial-state bound for the boundary gap and temperature-limit diagnostics.

A Gaussian trial state concentrated at the Fermi momentum 2*sqrt(mu)
turns the half-line operator's boundary perturbation into an explicit,
eigensolver-free lower bound on the spectral gap above the essential
spectrum.  The bound is the sum of a small negative kernel term and a
positive quotient whose denominator <g|A-a|g> is negative whenever the
quadrature resolves the kernels; for small T the quotient wins and the
bound certifies a gap.

The module also carries the two temperature-limit diagnostics used to
cross-check the eigensolver: the non-logarithmic remainder of the
integrated diagonal as T -> 0, and the sqrt(T)-rescaled top eigenvalue
as T -> infinity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bs_operator import BoundaryCondition, _top_value, assemble
from .errors import DenominatorNonnegative
from .kernels import EULER_GAMMA, ModelParams, _B_matrix, eval_B, eval_F, eval_a
from .quadrature import GridKnobs, _A_rows, build_grid

__all__ = [
    "TrialConfig",
    "trial_gap",
    "int_F_residual",
    "scaled_sup",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class TrialConfig:
    """Gaussian trial state ghat(p) = exp(-(p - 2 sqrt(mu))**2 / b).

    b is the squared momentum-space width; tol is the quadrature
    tolerance used for every integral the bound needs.
    """

    b: float
    tol: float = 1e-9

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


def _gauss_fold(p: np.ndarray, mu: float, b: float):
    """(ghat(p) + ghat(-p), ghat(p)^2 + ghat(-p)^2) on the half line."""
    smu = np.sqrt(mu)
    gp = np.exp(-((p - 2.0 * smu) ** 2) / b)
    gm = np.exp(-((p + 2.0 * smu) ** 2) / b)
    return gp + gm, gp * gp + gm * gm


def _pieces(
    params: ModelParams, cfg: TrialConfig, knobs: GridKnobs = GridKnobs()
):
    """(B(0,0), I0, <g|A-a|g>) behind trial_gap.

    I0 = integral_R B(0,q) ghat(q) dq and
    <g|A-a|g> = integral ghat(p)^2 (A(p)-a) dp
                - (1/4pi) double integral ghat(p) B(p,q) ghat(q) dp dq.
    All integrals run over the whole line; the kernels are even in each
    momentum separately, so they fold onto the half-line grid with
    ghat(p) + ghat(-p) (squares of ghat fold as the sum of squares).
    """
    grid = build_grid(params, cfg.tol, knobs)
    p, w = grid.nodes, grid.weights
    gfold, gsq = _gauss_fold(p, params.mu, cfg.b)
    a = float(eval_a(params, grid))
    K = _B_matrix(grid.nodes, params)
    diag, _ = _A_rows(params, grid, K)
    wg = w * gfold
    cross = wg @ K @ wg
    denom = float(w @ (gsq * (diag - a)) - cross / (4.0 * np.pi))
    i0 = float(wg @ eval_B(0.0, p, params))
    b00 = float(eval_B(0.0, 0.0, params))
    return b00, i0, denom


def trial_gap(
    params: ModelParams,
    cfg: TrialConfig | None = None,
    knobs: GridKnobs = GridKnobs(),
) -> float:
    """Lower bound -B(0,0)/4 - I0^2 / (16 pi <g|A-a|g>) on the Dirichlet gap.

    The denominator is negative on any resolving grid, so the second
    term is positive; a positive return value certifies that the
    half-line operator has spectrum strictly above its essential
    supremum a.  cfg defaults to TrialConfig(b=params.mu), which keeps
    the trial width tied to the Fermi momentum; the quadrature grid is
    built with knobs.

    Raises DenominatorNonnegative when <g|A-a|g> >= 0 numerically,
    which signals an unresolved grid rather than physics.
    """
    if not params.mu > 0:
        raise ValueError(f"mu must be positive, got {params.mu}")
    if cfg is None:
        cfg = TrialConfig(b=params.mu)
    b00, i0, denom = _pieces(params, cfg, knobs)
    if denom >= 0.0:
        raise DenominatorNonnegative(
            f"<g|A-a|g> = {denom:.3e} >= 0 at T={params.T:g}, "
            f"mu={params.mu:g}, b={cfg.b:g}; grid failed to resolve the kernel"
        )
    value = -0.25 * b00 - i0 * i0 / (16.0 * np.pi * denom)
    logger.debug(
        "trial_gap(T=%g, mu=%g, b=%g): B00=%.6g I0=%.6g denom=%.6g -> %.6g",
        params.T,
        params.mu,
        cfg.b,
        b00,
        i0,
        denom,
        value,
    )
    return float(value)


def int_F_residual(params: ModelParams, tol: float = 1e-10) -> float:
    """integral_R F  minus  (2/sqrt(mu)) (ln(mu/T) + gamma + ln(8/pi)).

    The integrated diagonal grows logarithmically as T -> 0; this
    returns the remainder after subtracting the closed-form log, which
    decays to zero and bounds how fast the weak-coupling asymptotics
    become quantitative.
    """
    if not params.mu > 0:
        raise ValueError(f"mu must be positive, got {params.mu}")
    grid = build_grid(params, tol)
    total = 2.0 * float(grid.weights @ eval_F(grid.nodes, params))
    smu = np.sqrt(params.mu)
    asy = (2.0 / smu) * (
        np.log(params.mu / params.T) + EULER_GAMMA + np.log(8.0 / np.pi)
    )
    return total - asy


def scaled_sup(
    T: float, mu: float, bc: BoundaryCondition, tol: float = 1e-9
) -> float:
    """sqrt(T) times the top eigenvalue of the half-line operator.

    Rescaling p -> p / sqrt(T) maps the (T, mu) operator to 1/sqrt(T)
    times the (1, mu/T) one, so this combination has a finite large-T
    limit: the top of the (1, 0) operator, which equals a for Dirichlet
    and exceeds it by a fixed amount for Neumann.
    """
    params = ModelParams(T=T, mu=mu)
    grid = build_grid(params, tol)
    return float(np.sqrt(T) * _top_value(assemble(params, grid, bc)))
