"""Root-finders for the bulk and half-line critical temperatures."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bcs_edge import GridKnobs, ModelParams, build_grid, eval_a
from bcs_edge.bs_operator import BoundaryCondition, assemble, spectral_gap
from bcs_edge.critical_temperature import (
    RatioCurve,
    RatioRow,
    _grid_tol,
    _root_decreasing,
    ratio_curve,
    tc_boundary,
    tc_bulk,
    tc_bulk_asymptotic,
    v_of_T,
)
from bcs_edge.errors import BracketFailure, ToleranceUnreachable

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN

# roots of the earlier plain bisection in log T at v=0.49, mu=1, tol=1e-6
BISECTION_TC_BOUNDARY = 0.0078014580717139315
BISECTION_TC_BULK = 0.007450152003057238

ROOT = 0.0123


def _solve_synthetic(f, lo, hi, tol=1e-6):
    h = lambda T: (f(T), None)
    return _root_decreasing(h, lo, hi, h(lo), h(hi), tol, "synthetic")


@pytest.mark.parametrize(
    "f",
    [
        # the high-temperature form of a_{T,mu}: smooth, convex in log T
        lambda T: T**-0.5 - ROOT**-0.5,
        # steep crossover: slope 50 in log T at the root, flat elsewhere
        lambda T: -np.tanh(50.0 * np.log(T / ROOT) - 0.3),
    ],
    ids=["smooth", "steep-tanh"],
)
@pytest.mark.parametrize("start", [0.55, 0.7, 0.9])
def test_root_decreasing_converges_from_factor_two_bracket(f, start):
    tol = 1e-6
    lo, hi = start * ROOT, 2.0 * start * ROOT
    tc, resid, (b_lo, b_hi), evals, _ = _solve_synthetic(f, lo, hi, tol)
    assert evals <= 12
    assert lo <= b_lo <= tc <= b_hi <= hi
    assert b_hi - b_lo <= tol * b_lo
    assert abs(resid) <= tol
    assert resid == f(tc)


@pytest.mark.parametrize("lo, hi", [(0.3, 4.0), (0.2, 3.0), (0.5, 5.0), (0.7, 8.0)])
def test_root_decreasing_never_slower_than_bisection(lo, hi):
    # exp(-30 log(T/r)) - 1 bends so hard that the secant alone creeps in
    # from one side; the Illinois rule and the bisection guard keep the
    # count below what plain bisection needs to pin log T to tol / 30
    tol = 1e-6
    f = lambda T: np.expm1(-30.0 * np.log(T / ROOT))
    bisection = int(np.ceil(np.log2(np.log(hi / lo) / (tol / 30.0))))
    _, resid, _, evals, _ = _solve_synthetic(f, lo * ROOT, hi * ROOT, tol)
    assert evals <= bisection
    assert abs(resid) <= tol


def test_root_decreasing_rejects_non_monotone_bump():
    def bump(T):
        x = np.log(T / ROOT)
        return 0.1 - x + 2.0 * np.exp(-(((x - 0.35) / 0.2) ** 2))

    with pytest.raises(BracketFailure, match="escapes"):
        _solve_synthetic(bump, ROOT, 2.0 * ROOT)


def test_root_decreasing_rejects_unbracketed_pair():
    with pytest.raises(BracketFailure, match="not bracketed"):
        _solve_synthetic(lambda T: -T, ROOT, 2.0 * ROOT)


def test_root_decreasing_step_function_hits_the_cap():
    # |h| = 1 everywhere, so the residual test never passes
    with pytest.raises(ToleranceUnreachable):
        _solve_synthetic(lambda T: 1.0 if T < ROOT else -1.0, 0.5 * ROOT, 1.5 * ROOT)


def test_asymptotic_closed_form():
    assert tc_bulk_asymptotic(1e-3, 1.0) < 1e-100
    # mu-scaling identity of the formula itself
    for v, mu in ((0.7, 2.0), (1.3, 0.5)):
        assert tc_bulk_asymptotic(v, mu) == pytest.approx(
            mu * tc_bulk_asymptotic(v / np.sqrt(mu), 1.0), rel=1e-14
        )
    with pytest.raises(ValueError):
        tc_bulk_asymptotic(-1.0, 1.0)
    with pytest.raises(ValueError):
        tc_bulk_asymptotic(1.0, 0.0)


def test_tc_bulk_solves_the_equation():
    res = tc_bulk(0.5, 1.0)
    assert abs(res.residual) <= 1e-6
    lo, hi = res.bracket
    assert lo < res.tc < hi or lo <= res.tc <= hi
    # residual re-evaluated on a twice-refined grid stays small
    params = ModelParams(T=res.tc, mu=1.0)
    grid = build_grid(params, 1e-8, GridKnobs(points_per_panel=32))
    assert abs(eval_a(params, grid) - 2.0) <= 1e-5


def test_tc_bulk_weak_coupling_matches_asymptotics():
    res = tc_bulk(0.4, 1.0)
    assert res.tc == pytest.approx(tc_bulk_asymptotic(0.4, 1.0), rel=0.1)


def test_tc_bulk_monotone_in_v():
    ts = [tc_bulk(v, 1.0).tc for v in (0.4, 0.8, 1.6, 3.2)]
    assert ts == sorted(ts)


def test_tc_bulk_strong_coupling_escapes_seed_bracket():
    # at v=50 the asymptotic seed is off by 10x+; expansion must recover
    res = tc_bulk(50.0, 1.0)
    assert abs(res.residual) <= 1e-6
    # high-T limit: a ~ T^(-1/2) * a_{1,0}, so tc ~ (a_{1,0} v)^2
    assert res.tc == pytest.approx((0.42890235 * 50.0) ** 2, rel=0.01)


def test_concurrent_tc_bulk_keeps_each_callers_knobs():
    # overlapping solves with different knob records must not see each
    # other's grids; a short switch interval makes them interleave often
    knobs = (GridKnobs(), GridKnobs(points_per_panel=32))
    expected = {k: tc_bulk(1.0, 1.0, 1e-3, k).numerics["grid_nodes"] for k in knobs}
    assert expected[knobs[0]] < expected[knobs[1]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [(k, pool.submit(tc_bulk, 1.0, 1.0, 1e-3, k)) for k in knobs * 2]
            got = [(k, f.result(timeout=300)) for k, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, result in got:
        assert result.numerics["grid_nodes"] == expected[k]


def test_tc_bulk_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tc_bulk(0.0, 1.0)
    with pytest.raises(ValueError):
        tc_bulk(1.0, -1.0)


def test_tc_boundary_dirichlet_enhancement():
    res = tc_boundary(0.5, 1.0, D)
    bulk = tc_bulk(0.5, 1.0)
    assert res.tc > bulk.tc
    assert (res.tc - bulk.tc) / bulk.tc > 0.01
    assert abs(res.residual) <= 1e-6


def test_tc_boundary_neumann_enhancement():
    res = tc_boundary(2.0, 1.0, N)
    bulk = tc_bulk(2.0, 1.0)
    assert res.tc > bulk.tc


def test_tc_boundary_strong_coupling_dirichlet_clamps_to_bulk():
    res = tc_boundary(5.0, 1.0, D)
    bulk = tc_bulk(5.0, 1.0)
    assert res.tc == bulk.tc
    assert res.residual <= 0.0
    assert abs(res.residual) < 1e-6


def test_tc_solves_take_few_evaluations():
    bulk = tc_bulk(0.49, 1.0, 1e-6)
    assert bulk.evaluations <= 10
    assert bulk.tc == pytest.approx(BISECTION_TC_BULK, rel=2e-6)
    res = tc_boundary(0.49, 1.0, D, 1e-6)
    assert res.evaluations <= 10
    assert res.numerics["bulk_evaluations"] == bulk.evaluations
    assert res.tc == pytest.approx(BISECTION_TC_BOUNDARY, rel=2e-6)


def test_v_of_T_round_trip():
    T = 0.5
    v = v_of_T(T, 1.0, N)
    back = tc_boundary(v, 1.0, N)
    assert back.tc <= T * (1.0 + 2e-6)
    assert back.tc == pytest.approx(T, rel=1e-5)
    assert v_of_T(back.tc, 1.0, N) == pytest.approx(v, rel=1e-5)


def test_v_of_T_monotone():
    vs = [v_of_T(T, 1.0, D) for T in (0.1, 0.3, 1.0, 3.0)]
    assert vs == sorted(vs)
    with pytest.raises(ValueError):
        v_of_T(0.0, 1.0, D)


def test_ratio_curve_rows_and_invariants():
    curve = ratio_curve([0.5, 1.0], 1.0, D, tol=1e-5)
    assert [r.v for r in curve.rows] == [0.5, 1.0]
    for row in curve.rows:
        assert row.error is None
        assert row.relative_shift >= -curve.tol
        assert row.tc_boundary >= row.tc_bulk
        assert row.grid_nodes > 0
        assert row.t_noise < 1e-10
        # enhancement regime: significant positive gap and shift agree
        assert row.gap_at_tc_bulk > 0
        assert row.tc_boundary - row.tc_bulk > 10.0 * row.t_noise
        # the gap comes from the boundary solver's own solve at tc_bulk
        params = ModelParams(T=row.tc_bulk, mu=1.0)
        grid = build_grid(params, _grid_tol(curve.tol), GridKnobs())
        assert grid.n == row.grid_nodes
        op = assemble(params, grid, D)
        assert row.gap_at_tc_bulk == spectral_gap(op)
        assert row.matrix_nodes == op.n < grid.n
        assert row.tc_bulk_evaluations == tc_bulk(row.v, 1.0, curve.tol).evaluations
        bound = tc_boundary(row.v, 1.0, D, curve.tol)
        assert row.tc_boundary_evaluations == bound.evaluations
        numerics = bound.numerics
        assert 0 < numerics["matrix_nodes"] < numerics["grid_nodes"]
        assert 0.0 <= numerics["cut_bound"] <= numerics["grid_tol"] / 2.0


def test_ratio_curve_rejects_unsorted():
    with pytest.raises(ValueError):
        ratio_curve([1.0, 0.5], 1.0, D)
    with pytest.raises(ValueError):
        ratio_curve([-1.0, 0.5], 1.0, D)


def test_ratio_curve_validation():
    row = RatioRow(
        v=1.0,
        mu=1.0,
        bc=D,
        tc_bulk=1.0,
        tc_boundary=0.5,
        relative_shift=-0.5,
        gap_at_tc_bulk=0.0,
        grid_nodes=10,
        t_noise=0.0,
    )
    with pytest.raises(ValueError):
        RatioCurve(rows=(row,))
