"""Trial-state gap bound and temperature limits.

Reference constants come from tools/oracle_constants.py (mpmath at 30
digits, independent of the package code).
"""

import numpy as np
import pytest

from bcs_edge.bs_operator import BoundaryCondition, assemble, spectral_gap
from bcs_edge.errors import DenominatorNonnegative
from bcs_edge.kernels import ModelParams, eval_F
from bcs_edge.quadrature import _panels_to_grid, build_grid
from bcs_edge.variational import (
    _pieces,
    int_F_residual,
    scaled_sup,
    trial_gap,
)

I_G_ORACLE = 18.161754073186723
SANDWICH_LO = 0.073262555554936721
SANDWICH_HI = 4.0
A_1_0 = 0.42890235186151114
# r(T) = int_R F - 2 (ln(mu/T) + gamma + ln(8/pi)) at mu = 1
R_ORACLE = {
    1e-1: -0.013125613880913827,
    1e-2: -1.2343231115674998e-4,
    1e-3: -1.2337067651458341e-6,
    1e-4: -1.2337006122852099e-8,
}


@pytest.fixture(scope="module")
def pieces_small_T():
    return _pieces(ModelParams(T=1e-4, mu=1.0), 1.0, 1e-9, 16)


def test_trial_config_validation():
    params = ModelParams(T=1e-2, mu=1.0)
    with pytest.raises(ValueError, match="b must be positive"):
        trial_gap(params, b=0.0)
    with pytest.raises(ValueError, match="b must be positive"):
        trial_gap(params, b=-1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        trial_gap(params, b=1.0, tol=0.0)


def test_trial_config_refuses_an_infinite_tol():
    with pytest.raises(ValueError, match="positive and finite"):
        trial_gap(ModelParams(T=1e-2, mu=1.0), b=1.0, tol=np.inf)


def test_trial_pieces_match_oracle(pieces_small_T):
    b00, i0, denom = pieces_small_T
    assert b00 == pytest.approx(1.0, rel=1e-15)
    assert i0 == pytest.approx(I_G_ORACLE, rel=1e-10)
    assert denom < 0.0


def test_sandwich_bounds(pieces_small_T):
    _, i0, _ = pieces_small_T
    ratio = i0 / np.log(1.0 / 1e-4)
    assert SANDWICH_LO < ratio < SANDWICH_HI
    # the bounds hold down to the smallest supported temperatures
    _, i0_cold, _ = _pieces(ModelParams(T=1e-6, mu=1.0), 1.0, 1e-8, 16)
    assert SANDWICH_LO < i0_cold / np.log(1e6) < SANDWICH_HI


def test_denominator_negative_and_log_bounded():
    # <g|A-a|g> stays negative with |denom|/ln(mu/T) bounded as T drops
    for T in (1e-3, 1e-5):
        for b in (0.5, 2.0):
            _, _, denom = _pieces(ModelParams(T=T, mu=1.0), b, 1e-7, 16)
            assert denom < 0.0
            assert abs(denom) / np.log(1.0 / T) < 1.0


def test_trial_gap_sign_change_in_T():
    assert trial_gap(ModelParams(T=1e-4, mu=1.0), b=1.0, tol=1e-8) > 0.0
    assert trial_gap(ModelParams(T=0.5, mu=1.0), b=1.0, tol=1e-8) < 0.0


def test_trial_gap_default_config_and_bad_mu():
    val = trial_gap(ModelParams(T=1e-3, mu=2.0))
    assert np.isfinite(val) and val > 0.0
    with pytest.raises(ValueError):
        trial_gap(ModelParams(T=1.0, mu=0.0))


def test_positive_trial_gap_implies_eigensolver_gap():
    # the trial value is not itself the gap, but its positivity certifies one
    for T in (1e-4, 1e-2):
        params = ModelParams(T=T, mu=1.0)
        assert trial_gap(params, b=1.0, tol=1e-8) > 0.0
        op = assemble(params, build_grid(params, 1e-8), BoundaryCondition.DIRICHLET)
        assert spectral_gap(op) > 0.0


def test_denominator_guard():
    # a trial state narrower than any node spacing sees A - a as exactly 0
    with pytest.raises(DenominatorNonnegative):
        trial_gap(ModelParams(T=1.0, mu=1.0), b=1e-12)


def test_int_F_residual_matches_oracle():
    for T, r in R_ORACLE.items():
        val = int_F_residual(ModelParams(T=T, mu=1.0), tol=1e-12)
        assert val == pytest.approx(r, abs=1e-11), f"T={T}"


def test_int_F_residual_decays():
    vals = [
        abs(int_F_residual(ModelParams(T=T, mu=1.0), tol=1e-10))
        for T in (1e-2, 1e-3, 1e-4)
    ]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(ValueError):
        int_F_residual(ModelParams(T=1.0, mu=0.0))


def test_int_F_window_bounded():
    # mass of F beyond sqrt(2 mu) stays O(1): below 2 integral_{sqrt(2)}^inf
    # dp/(p^2-1) = 2 ln(1+sqrt 2), approached as T -> 0 where tanh -> 1
    bound = 2.0 * np.log(1.0 + np.sqrt(2.0))
    smu2 = np.sqrt(2.0)
    for T, slack in ((1.0, -0.05), (1e-4, 1e-8)):
        params = ModelParams(T=T, mu=1.0)
        grid = build_grid(params, 1e-9)
        edges = np.union1d(grid.panel_edges, [smu2])
        nodes, weights = _panels_to_grid(edges, grid.policy.points_per_panel)
        m = nodes > smu2
        w = 2.0 * float(weights[m] @ eval_F(nodes[m], params))
        assert 1.0 < w <= bound + slack


def test_scaled_sup_dirichlet_approaches_flat_band_edge():
    diffs = [
        abs(scaled_sup(T, 1.0, BoundaryCondition.DIRICHLET) - A_1_0)
        for T in (10.0, 100.0, 1000.0)
    ]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-4
    # at mu = 0 the rescaling is trivial and the top sits at the edge
    assert scaled_sup(1.0, 0.0, BoundaryCondition.DIRICHLET) == pytest.approx(
        A_1_0, abs=1e-5
    )


def test_scaled_sup_neumann_keeps_positive_excess():
    d = scaled_sup(1.0, 0.0, BoundaryCondition.NEUMANN) - A_1_0
    assert d > 0.1
    excess = scaled_sup(1000.0, 1.0, BoundaryCondition.NEUMANN) - A_1_0
    assert excess == pytest.approx(d, rel=1e-2)


def test_scaled_sup_exact_rescaling_identity():
    for bc in BoundaryCondition:
        lhs = scaled_sup(10.0, 1.0, bc, tol=1e-9)
        rhs = scaled_sup(1.0, 0.1, bc, tol=1e-9)
        assert lhs == pytest.approx(rhs, abs=5e-9)


def test_scaled_sup_bad_T():
    with pytest.raises(ValueError):
        scaled_sup(0.0, 1.0, BoundaryCondition.DIRICHLET)
