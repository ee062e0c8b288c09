"""Root-finders for the bulk and half-line critical temperatures."""

import logging
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bcs_edge import ModelParams, build_grid, eval_a
from bcs_edge.bs_operator import (
    BoundaryCondition,
    _nystroem,
    _schur_gap,
    _top_value,
    assemble,
    spectral_gap,
)
from bcs_edge.critical_temperature import (
    _MAX_STEPS,
    BRACKET_STEP,
    RatioCurve,
    RatioRow,
    TcResult,
    _grid_tol,
    _root_decreasing,
    ratio_curve,
    tc_boundary,
    tc_bulk,
    tc_bulk_asymptotic,
    v_of_T,
)
from bcs_edge.errors import BracketFailure, ToleranceUnreachable
from bcs_edge.quadrature import _A_meshes
from bcs_edge.variational import _pieces, trial_gap

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN

# roots of the earlier plain bisection in log T at v=0.49, mu=1, tol=1e-6
BISECTION_TC_BOUNDARY = 0.0078014580717139315
BISECTION_TC_BULK = 0.007450152003057238

ROOT = 0.0123

# synthetic decreasing functions of T with their root at ROOT
FACTOR_TWO_FUNCTIONS = [
    # the high-temperature form of a_{T,mu}: smooth, convex in log T
    lambda T: T**-0.5 - ROOT**-0.5,
    # steep crossover: slope 50 in log T at the root, flat elsewhere
    lambda T: -np.tanh(50.0 * np.log(T / ROOT) - 0.3),
]
FACTOR_TWO_STARTS = [0.55, 0.7, 0.9]


# exp(-30 log(T/r)) - 1 bends so hard that the secant alone creeps in
# from one side
def bent(T):
    return np.expm1(-30.0 * np.log(T / ROOT))


BENT_BRACKETS = [(0.3, 4.0), (0.2, 3.0), (0.5, 5.0), (0.7, 8.0)]


def _solve_synthetic(f, lo, hi, tol=1e-6):
    h = lambda T: (f(T), None)
    return _root_decreasing(h, [(lo, h(lo)), (hi, h(hi))], 0.0, tol, "synthetic")


@pytest.mark.parametrize("f", FACTOR_TWO_FUNCTIONS, ids=["smooth", "steep-tanh"])
@pytest.mark.parametrize("start", FACTOR_TWO_STARTS)
def test_root_decreasing_converges_from_factor_two_bracket(f, start):
    tol = 1e-6
    lo, hi = start * ROOT, 2.0 * start * ROOT
    tc, resid, (b_lo, b_hi), evals, _ = _solve_synthetic(f, lo, hi, tol)
    assert evals <= 12
    assert lo <= b_lo <= tc <= b_hi <= hi
    assert b_hi - b_lo <= tol * b_lo
    assert abs(resid) <= tol
    assert resid == f(tc)


@pytest.mark.parametrize("lo, hi", BENT_BRACKETS)
def test_root_decreasing_never_slower_than_bisection(lo, hi):
    # the Illinois rule and the bisection guard keep the count below
    # what plain bisection needs to pin log T to tol / 30
    tol = 1e-6
    bisection = int(np.ceil(np.log2(np.log(hi / lo) / (tol / 30.0))))
    _, resid, _, evals, _ = _solve_synthetic(bent, lo * ROOT, hi * ROOT, tol)
    assert evals <= bisection
    assert abs(resid) <= tol


def test_root_decreasing_battery_count():
    # every synthetic solve above, 126 in all; a bisection guard with a
    # two-step window, which discards the step after an Illinois halving,
    # took 133
    runs = [
        (f, s * ROOT, 2.0 * s * ROOT)
        for f in FACTOR_TWO_FUNCTIONS
        for s in FACTOR_TWO_STARTS
    ]
    runs += [(bent, lo * ROOT, hi * ROOT) for lo, hi in BENT_BRACKETS]
    counts = [_solve_synthetic(f, lo, hi)[3] for f, lo, hi in runs]
    assert counts == [6, 6, 5, 9, 8, 9, 21, 19, 18, 25]


def test_root_decreasing_rejects_non_monotone_bump():
    def bump(T):
        x = np.log(T / ROOT)
        return 0.1 - x + 2.0 * np.exp(-(((x - 0.35) / 0.2) ** 2))

    with pytest.raises(BracketFailure, match="escapes"):
        _solve_synthetic(bump, ROOT, 2.0 * ROOT)


def test_root_decreasing_rejects_unbracketed_pair():
    # both values are negative: the search steps down from the lower T,
    # where -T only creeps toward zero, until the step cap
    asked = []

    def h(T):
        asked.append(T)
        return -T, None

    with pytest.raises(BracketFailure, match=f"no root in {_MAX_STEPS} steps"):
        _root_decreasing(h, [(ROOT, h(ROOT)), (2.0 * ROOT, h(2.0 * ROOT))], 0.0, 1e-6, "pair")
    assert len(asked) == 2 + _MAX_STEPS
    assert all(0.0 < T < ROOT for T in asked[2:])


def test_root_decreasing_step_function_hits_the_cap():
    # |h| = 1 everywhere, so the residual test never passes
    with pytest.raises(ToleranceUnreachable):
        _solve_synthetic(lambda T: 1.0 if T < ROOT else -1.0, 0.5 * ROOT, 1.5 * ROOT)


def test_root_decreasing_refuses_a_non_finite_value_at_once():
    asked = []

    def h(T):
        asked.append(T)
        return np.nan, None

    pair = [(ROOT, (1.0, None)), (2.0 * ROOT, (-1.0, None))]
    with pytest.raises(BracketFailure, match=r"h\(0\.01\d*\) = nan is not finite"):
        _root_decreasing(h, pair, 0.0, 1e-6, "nan")
    assert len(asked) == 1


@pytest.mark.parametrize("T0", [1.0, 1.5], ids=["up-to-zero", "down-from-zero"])
def test_root_decreasing_takes_an_exact_zero_as_a_root(T0):
    # h is 1 up to T = 1 and exactly 0 above, so a value of 0.0 closes the
    # bracket as its hi end, whether met by a step or at the start
    def h(T):
        return (1.0 if T <= 1.0 else 0.0), None

    tc, resid, (lo, hi), _, _ = _root_decreasing(h, [(T0, h(T0))], -1.0, 1e-6, "zero")
    assert lo <= 1.0 < hi <= lo * (1.0 + 1e-6)
    assert (tc, resid) == (hi, 0.0)


def _bracket_synthetic(f, T0, slope, asked):
    """_root_decreasing on h(T) = (f(T), None) from T0 alone; every T it
    steps to is appended to asked."""

    def h(T):
        asked.append(T)
        return f(T), None

    return _root_decreasing(h, [(T0, (f(T0), None))], slope, 1e-6, "synthetic")


def linear(T):
    return -0.7 * np.log(T / ROOT)


def test_root_decreasing_searches_on_from_a_same_sign_pair():
    tc, _, (lo, hi), _, _ = _solve_synthetic(linear, 1.3 * ROOT, 2.0 * ROOT)
    assert lo <= ROOT <= hi < 1.3 * ROOT
    assert tc == pytest.approx(ROOT, rel=1e-6)


@pytest.mark.parametrize("start", [1.0 / 1.3, 1.3], ids=["up", "down"])
def test_bracket_crosses_a_linear_root_in_one_step(start):
    asked = []
    tc, _, (lo, hi), evals, _ = _bracket_synthetic(linear, start * ROOT, -0.7, asked)
    # the first step lands tol/2 past the root; secant steps then close in
    assert abs(np.log(asked[0] / ROOT)) == pytest.approx(0.5e-6, rel=1e-6)
    assert linear(asked[0]) * linear(start * ROOT) < 0.0
    assert evals == len(asked) <= 3
    assert lo < ROOT < hi
    assert tc == pytest.approx(ROOT, rel=1e-6)


@pytest.mark.parametrize("start", [1.0 / 1.3, 1.3], ids=["up", "down"])
def test_bracket_moves_its_start_and_steps_by_secant(start):
    # a wrong first slope: the secant of the two values then finds the root
    asked = []
    tc, _, (lo, hi), evals, _ = _bracket_synthetic(linear, start * ROOT, -5.0, asked)
    signs = [np.sign(linear(T)) for T in [start * ROOT] + asked[:2]]
    assert signs[0] == signs[1] == -signs[2]
    assert abs(np.log(asked[1] / ROOT)) == pytest.approx(0.5e-6, rel=1e-3)
    assert evals == len(asked) <= 4
    assert lo < ROOT < hi
    assert tc == pytest.approx(ROOT, rel=1e-6)


def test_bracket_rejects_a_value_moving_away_from_zero():
    with pytest.raises(BracketFailure, match=r"escapes \[-inf, 1\.000e-01\]"):
        _bracket_synthetic(lambda T: 0.1 + np.log(T / ROOT), ROOT, -1.0, [])
    with pytest.raises(BracketFailure, match=r"escapes \[-1\.000e-01, inf\]"):
        _bracket_synthetic(lambda T: -0.1 + np.log(T / ROOT), ROOT, -1.0, [])


def test_bracket_refuses_a_non_finite_value_at_once():
    asked = []
    with pytest.raises(BracketFailure, match="is not finite"):
        _bracket_synthetic(lambda T: 1.0 if T == ROOT else np.nan, ROOT, -1.0, asked)
    assert len(asked) == 1
    with pytest.raises(BracketFailure, match="is not finite"):
        _root_decreasing(lambda T: (1.0, None), [(ROOT, (np.inf, None))], -1.0, 1e-6, "inf")


@pytest.mark.parametrize("value", [1.0, -1.0], ids=["up", "down"])
def test_bracket_without_sign_change_fails_in_bounded_steps(value):
    # a constant never changes sign: steps double from log(1 + BRACKET_STEP)
    # until T leaves the floating-point range, with no overflow warning
    asked = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketFailure, match="no sign change"):
            _bracket_synthetic(lambda T: value, ROOT, 0.0, asked)
    steps = np.abs(np.diff(np.log([ROOT] + asked)))
    assert steps == pytest.approx(np.log1p(BRACKET_STEP) * 2.0 ** np.arange(len(asked)))
    assert len(asked) <= 12 < _MAX_STEPS
    assert all(0.0 < T < np.inf for T in asked)


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
    grid = build_grid(params, 1e-8, points_per_panel=32)
    assert abs(eval_a(params, grid) - 2.0) <= 1e-5


def test_tc_bulk_weak_coupling_matches_asymptotics():
    res = tc_bulk(0.4, 1.0)
    assert res.tc == pytest.approx(tc_bulk_asymptotic(0.4, 1.0), rel=0.1)


def test_tc_bulk_monotone_in_v():
    ts = [tc_bulk(v, 1.0).tc for v in (0.4, 0.8, 1.6, 3.2)]
    assert ts == sorted(ts)


def test_tc_bulk_strong_coupling_escapes_seed_bracket():
    # the asymptotic seed is off by about 100x at v=50 and 4e4x at v=1000;
    # the doubling step limit must still reach the root
    for v in (50.0, 300.0, 1000.0):
        res = tc_bulk(v, 1.0)
        assert abs(res.residual) <= 1e-6
        # high-T limit: a ~ T^(-1/2) * a_{1,0}, so tc ~ (a_{1,0} v)^2
        assert res.tc == pytest.approx((0.42890235 * v) ** 2, rel=0.01)


# the couplings of the benchmark's edge-row workload, tc_bulk / mu from
# about 4e-3 to 0.13
EDGE_ROW_COUPLINGS = (
    0.45, 0.47, 0.49, 0.51, 0.60, 0.61, 0.62, 0.63, 0.80, 0.83, 0.86, 0.89
)


def test_tc_bulk_solves_across_the_edge_row_range():
    # steps predicted from the weak-coupling seed land next to the root;
    # the decade bracket [seed/10, 10 seed] took 79 evaluations here
    results = [tc_bulk(v, 1.0, 1e-6) for v in EDGE_ROW_COUPLINGS]
    assert all(abs(res.residual) <= 1e-6 for res in results)
    assert sum(res.evaluations for res in results) <= 40


def test_concurrent_tc_bulk_keeps_each_callers_knobs():
    # overlapping solves with different points per panel must not see
    # each other's grids; a short switch interval makes them interleave often
    knobs = (16, 32)
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


def test_points_per_panel_reaches_every_solvers_grid():
    # each solver builds its grids with the points per panel it is given:
    # its grid size or its value is the 8-point grid's at the same T, and
    # differs from the default grid's
    v, mu, tol, T = 0.5, 1.0, 1e-3, 1e-2
    gtol = _grid_tol(tol)

    def nodes(T, points_per_panel):
        return build_grid(ModelParams(T=T, mu=mu), gtol, points_per_panel).n

    bulk = tc_bulk(v, mu, tol, 8)
    assert bulk.numerics["grid_nodes"] == nodes(bulk.tc, 8) != nodes(bulk.tc, 16)
    assert tc_boundary(v, mu, D, tol, 8).numerics["grid_nodes"] == nodes(bulk.tc, 8)
    (row,) = ratio_curve([v], mu, D, tol, 8).rows
    assert row.grid_nodes == nodes(row.tc_bulk, 8)
    params = ModelParams(T=T, mu=mu)
    op = assemble(params, build_grid(params, gtol, 8), D)
    at_8 = 1.0 / max(_top_value(op.matrix), op.a_edge)
    assert v_of_T(T, mu, D, tol, 8) == at_8 != v_of_T(T, mu, D, tol)
    b00, i0, denom = _pieces(params, mu, 1e-9, 8)
    at_8 = -0.25 * b00 - i0 * i0 / (16.0 * np.pi * denom)
    assert trial_gap(params, points_per_panel=8) == at_8 != trial_gap(params)


def test_tc_bulk_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tc_bulk(0.0, 1.0)
    with pytest.raises(ValueError):
        tc_bulk(1.0, -1.0)


@pytest.mark.parametrize("v", [np.inf, np.nan], ids=["inf", "nan"])
def test_solvers_refuse_non_finite_coupling(v):
    calls = [
        lambda: tc_bulk(v, 1.0, tol=1e-3),
        lambda: tc_boundary(v, 1.0, D, tol=1e-3),
        lambda: ratio_curve([v], 1.0, D, tol=1e-3),
        lambda: tc_bulk_asymptotic(v, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("tol", [np.inf, 0.0, -1e-6], ids=["inf", "zero", "negative"])
def test_solvers_refuse_a_tol_that_is_not_positive_and_finite(tol):
    calls = [
        lambda: tc_bulk(0.5, 1.0, tol),
        lambda: tc_boundary(0.5, 1.0, N, tol),
        lambda: v_of_T(0.01, 1.0, N, tol),
        lambda: ratio_curve([0.5], 1.0, N, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


def test_tc_results_hold_python_floats():
    for result in (tc_bulk(0.5, 1.0, tol=1e-4), tc_boundary(0.5, 1.0, N, tol=1e-4)):
        assert [type(x) for x in (result.tc, *result.bracket)] == [float] * 3


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


def _schur_at(T, mu, grid, bc, v):
    """(G, kept order) of _schur_gap at t = 1/v for the matrix at (T, mu)."""
    block, _ = _nystroem(ModelParams(T=T, mu=mu), grid, bc, _A_meshes(grid, grid.nodes))
    return _schur_gap(block, bc.sign, 1.0 / v)


@pytest.mark.parametrize("bc", [D, N])
def test_tc_boundary_solves_every_temperature_on_the_grid_at_tc_bulk(bc):
    v, mu, tol = 0.5, 1.0, 1e-4
    res = tc_boundary(v, mu, bc, tol)
    bulk = tc_bulk(v, mu, tol)
    assert res.tc > bulk.tc
    grid = build_grid(ModelParams(T=bulk.tc, mu=mu), _grid_tol(tol))
    # the residual is the root find's G at the root, on the grid at tc_bulk
    G, kept = _schur_at(res.tc, mu, grid, bc, v)
    assert (res.residual, res.numerics["schur_nodes"]) == (G, kept)
    top = _top_value(assemble(ModelParams(T=res.tc, mu=mu), grid, bc).matrix)
    assert np.sign(res.residual) == np.sign(top - 1.0 / v) != 0.0
    # the grid built at the root itself gives other bits
    own = build_grid(ModelParams(T=res.tc, mu=mu), _grid_tol(tol))
    assert res.residual != _schur_at(res.tc, mu, own, bc, v)[0]
    assert res.numerics["grid_nodes"] == grid.n


@pytest.mark.parametrize("v, bc", [(0.49, D), (0.86, N)])
def test_tc_boundary_brackets_the_top_eigenvalue_at_tight_tol(v, bc):
    # G has the sign of lambda_max - 1/v, so the bracket of its root find
    # brackets the top eigenvalue's crossing too
    tol = 1e-8
    res = tc_boundary(v, 1.0, bc, tol)
    grid = build_grid(ModelParams(T=tc_bulk(v, 1.0, tol).tc, mu=1.0), _grid_tol(tol))
    lo, hi = res.bracket
    top_lo, top_hi = (_top_value(assemble(ModelParams(T=T, mu=1.0), grid, bc).matrix)
                      for T in (lo, hi))
    assert top_lo > 1.0 / v >= top_hi
    assert hi - lo <= tol * lo


def test_tc_boundary_logs_one_schur_split_per_solve(caplog):
    # the solve at tc_bulk takes the full eigensolve and the split, every
    # later solve the split alone
    with caplog.at_level(logging.DEBUG, logger="bcs_edge"):
        res = tc_boundary(0.5, 1.0, N, 1e-4)
    splits = [r.getMessage() for r in caplog.records if "Schur split" in r.getMessage()]
    assert len(splits) == res.evaluations > 1
    for line in splits:
        assert all(word in line for word in ("kept", "dropped", "margin", "G "))
    assert 0 < res.numerics["schur_nodes"] < res.numerics["matrix_nodes"]


def test_tc_boundary_strong_coupling_dirichlet_clamps_to_bulk():
    res = tc_boundary(5.0, 1.0, D)
    bulk = tc_bulk(5.0, 1.0)
    assert res.tc == bulk.tc
    assert res.residual <= 0.0
    assert abs(res.residual) < 1e-6


def test_tc_solves_take_few_evaluations():
    bulk = tc_bulk(0.49, 1.0, 1e-6)
    assert bulk.evaluations <= 4
    assert bulk.tc == pytest.approx(BISECTION_TC_BULK, rel=2e-6)
    res = tc_boundary(0.49, 1.0, D, 1e-6)
    assert res.evaluations <= 4
    assert res.numerics["bulk_evaluations"] == bulk.evaluations
    assert res.tc == pytest.approx(BISECTION_TC_BOUNDARY, rel=2e-6)


def test_tc_boundary_solves_across_the_edge_row_range():
    # the bracket's first step is predicted from the essential edge's
    # slope; stepping blindly to 1.5 tc_bulk took 35 solves here
    rows = [
        row
        for bc in (D, N)
        for row in ratio_curve([0.49, 0.61, 0.86], 1.0, bc, tol=1e-6).rows
    ]
    assert all(row.error is None for row in rows)
    assert sum(row.tc_boundary_evaluations for row in rows) <= 27


def test_v_of_T_round_trip():
    T = 0.5
    v = v_of_T(T, 1.0, N)
    back = tc_boundary(v, 1.0, N)
    assert back.tc <= T * (1.0 + 2e-6)
    assert back.tc == pytest.approx(T, rel=1e-5)
    assert v_of_T(back.tc, 1.0, N) == pytest.approx(v, rel=1e-5)
    # past the Dirichlet binding threshold no eigenvalue sits above the
    # essential edge, so the supremum is a_edge and T the bulk temperature
    for T in (0.7, 0.864):
        assert tc_boundary(v_of_T(T, 1.0, D), 1.0, D).tc == pytest.approx(T, rel=1e-6)


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
        grid = build_grid(params, _grid_tol(curve.tol))
        assert grid.n == row.grid_nodes
        op = assemble(params, grid, D)
        assert row.gap_at_tc_bulk == spectral_gap(op)
        assert row.matrix_nodes == op.n < grid.n
        bulk = tc_bulk(row.v, 1.0, curve.tol)
        assert (row.tc_bulk, row.tc_bulk_evaluations) == (bulk.tc, bulk.evaluations)
        bound = tc_boundary(row.v, 1.0, D, curve.tol)
        assert (row.tc_boundary, row.tc_boundary_evaluations) == (bound.tc, bound.evaluations)
        numerics = bound.numerics
        assert numerics["grid_tol"] == _grid_tol(curve.tol)
        assert 0 < numerics["matrix_nodes"] < numerics["grid_nodes"]
        assert 0.0 <= numerics["cut_bound"] <= numerics["grid_tol"] / 2.0


def test_ratio_curve_rejects_unsorted():
    with pytest.raises(ValueError):
        ratio_curve([1.0, 0.5], 1.0, D)
    with pytest.raises(ValueError):
        ratio_curve([-1.0, 0.5], 1.0, D)
    rows = (RatioRow(v=1.0, mu=1.0, bc=D), RatioRow(v=0.5, mu=1.0, bc=D))
    with pytest.raises(ValueError, match="sorted by v"):
        RatioCurve(rows=rows)


def test_tc_result_refuses_tc_outside_its_bracket():
    with pytest.raises(ValueError, match="outside bracket"):
        TcResult(tc=2.0, residual=0.0, bracket=(0.5, 1.0), evaluations=1, numerics={})


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
