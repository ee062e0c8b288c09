#!/usr/bin/env python3
"""Eight sha256 lines: operator matrices, integrals, solver outputs, raw
kernel values, the inequality checks, A(p) and E(p) off the nodes, the
edge-row RatioRows, then the solvers' numerics records.

First line: for every (T, mu, tol, points per panel) point of a fixed
battery, the raw bytes of assemble(...).matrix for both boundary
conditions.  Second line: for the same points, the grid size, the essential edge a_edge =
eval_a, the diagonal eval_A(grid.nodes) and trial_gap.  Third line: the
results of tc_bulk, tc_boundary (both boundary conditions), v_of_T
(both) and one ratio_curve row (both), all at tol 1e-4: each TcResult's
tc, residual, bracket and evaluations, the v_of_T values and every
RatioRow field.  Fourth line:
the raw outputs of eval_F, eval_L, eval_B and eval_a on a kernel battery
(T/mu from 1e-8 to 1e3, momenta whose exponentials straddle the
underflow band, array lengths around the 2**14-element kernel block,
scalar inputs).  A point or call that raises contributes the name of the
error type instead.  Fifth line: name, samples, violations and
worst_margin of each of the eight CheckReports of the verify battery at
mu = 1, seed 0 and 10,000 samples.  Sixth line: on the battery's mu > 0
points, eval_A and eval_E at the OFF_NODE momenta (zero, negative, and
far past the grid's core at tol 1e-5 and 1e-8), as one vector call and
one scalar call per momentum.  Seventh line: every field of the 24
ratio_curve rows at EDGE_VS, both boundary conditions, mu = 1 and tol
1e-6, the inputs of the edge-row benchmark.  Eighth line: the numerics
record of each TcResult of the third line's battery, so a bookkeeping key
added or dropped moves this line alone.  Two checkouts that print the
same lines build bit-identical operators and solve to bit-identical
temperatures on the batteries; a change meant to alter the matrix alone
shows as a change of the first, third and seventh lines with the second
kept.
One command per checkout:

    PYTHONPATH=src python3 tools/operator_digest.py

Pass -v to print one line per operator point as well (its points per
panel ppp, matrix and integral hashes, then the grid's order n, the matrix order m for each
boundary condition, Dirichlet first, and the count of fresh kernel
evaluations that A(p)'s sub-meshes take on the grid's nodes), and one
line per inequality check.

A change to A(p)'s sub-meshes alone moves the lines that integrate
A(p): the matrices (1), the integrals (2), the solver results (3 and 7)
and the off-node line (6), and the verify line (5) only where E(p) sets a
check's worst margin.  The raw kernel line (4) must not move.  A change
to the root finder alone, such as the function tc_boundary's search
runs on, moves the solver lines (3 and 7), and the records (8) where a
solve count moves, and no other: the operators, the integrals, the
kernels, the checks and A(p) off the nodes keep their bits.
"""

import dataclasses
import hashlib
import struct
import sys

import numpy as np

from bcs_edge import (
    ModelParams,
    TcResult,
    build_grid,
    eval_A,
    eval_B,
    eval_E,
    eval_F,
    eval_L,
    eval_a,
    ratio_curve,
    tc_boundary,
    tc_bulk,
    trial_gap,
    v_of_T,
)
from bcs_edge.bs_operator import BoundaryCondition, assemble
from bcs_edge.cli import cmd_verify
from bcs_edge.quadrature import _A_meshes

TS = (1e-5, 7.8e-3, 1.0, 20.0)
MUS = (-0.5, 0.0, 0.3, 1.0, 4.0)
TOLS = (1e-8, 1e-5)
KNOBS = (16, 8)  # points per panel

SOLVER_TOL = 1e-4
SOLVER_MU = 1.0
SOLVER_V = 0.5
SOLVER_T = 1e-2

EDGE_VS = (0.45, 0.47, 0.49, 0.51, 0.60, 0.61, 0.62, 0.63, 0.80, 0.83, 0.86, 0.89)
EDGE_TOL = 1e-6

KERNEL_MU = 1.0
KERNEL_TS = tuple(10.0**k for k in range(-8, 4))  # T/mu from 1e-8 to 1e3
KERNEL_PARAMS = tuple(ModelParams(T=T, mu=KERNEL_MU) for T in KERNEL_TS) + (
    ModelParams(T=1e-3, mu=-0.5),
    ModelParams(T=1e-3, mu=0.0),
)
KERNEL_LENGTHS = (2**14 - 1, 2**14, 2**14 + 1)  # around the kernel block
KERNEL_SCALARS = ((0.0, 0.0), (1.0, 1.0), (0.3, 2.0), (np.sqrt(2.0), 0.0), (50.0, 3.0))

CHECK_CONFIG = {"mu": 1.0, "seed": 0, "samples": 10_000}

OFF_NODE = np.array([0.0, -0.77, 0.77, 1.9, -1.9, 3.3, -12.5, 1e3, 3e4])


def _attempt(call) -> bytes:
    """call()'s bytes, or the name of the error type it raises."""
    try:
        return call()
    except Exception as exc:  # the error type is part of the digest
        return type(exc).__name__.encode()


def _pieces(params, tol, points_per_panel):
    """(matrix pieces, integral pieces, off-node pieces, sizes) of one
    point; sizes reads the grid's order n, the matrix order m of each
    boundary condition and the fresh kernel evaluations of A(p)'s
    sub-meshes on the grid's nodes.  A failed grid build makes the
    pieces its error type's name, and so does a failed assemble its
    matrix piece and its m."""
    try:
        grid = build_grid(params, tol, points_per_panel)
    except Exception as exc:
        failed = [type(exc).__name__.encode()]
        return failed, failed, failed, failed[0].decode()
    matrices, orders = [], []
    for bc in BoundaryCondition:
        try:
            op = assemble(params, grid, bc)
        except Exception as exc:  # the error type is part of the digest
            matrices.append(type(exc).__name__.encode())
            orders.append(type(exc).__name__)
        else:
            matrices.append(op.matrix.tobytes())
            orders.append(str(op.n))
    fresh = _attempt(lambda: b"%d" % _A_meshes(grid, grid.nodes).x.size).decode()
    sizes = f"n={grid.n} m={'/'.join(orders)} fresh={fresh}"
    integrals = [
        struct.pack("<q", grid.n),
        _attempt(lambda: struct.pack("<d", eval_a(params, grid))),
        _attempt(lambda: eval_A(grid.nodes, params, grid).tobytes()),
        _attempt(lambda: struct.pack(
            "<d", trial_gap(params, points_per_panel=points_per_panel))),
    ]
    off_node = []
    for f in (eval_A, eval_E):
        off_node.append(_attempt(lambda f=f: f(OFF_NODE, params, grid).tobytes()))
        off_node += [
            _attempt(lambda f=f, p=p: struct.pack("<d", f(p, params, grid)))
            for p in OFF_NODE
        ]
    return matrices, integrals, off_node, sizes


def _canon(x):
    """x with numpy scalars as Python numbers and enums as their values,
    so that its repr depends only on the numbers."""
    if isinstance(x, BoundaryCondition):
        return x.value
    if isinstance(x, (tuple, list)):
        return tuple(map(_canon, x))
    if isinstance(x, dict):
        return tuple(sorted((k, _canon(v)) for k, v in x.items()))
    return x.item() if hasattr(x, "item") else x


def _result_bytes(result):
    """Every field of a RatioRow or of a TcResult but its numerics."""
    values = tuple(
        getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "numerics"
    )
    return repr(_canon(values)).encode()


def _solver_pieces():
    """(results, records) of the solver battery: the bytes of each result
    and the numerics record of each TcResult among them.  An error becomes
    its type's name among the results."""
    v, mu, tol = SOLVER_V, SOLVER_MU, SOLVER_TOL
    calls = [lambda: tc_bulk(v, mu, tol)]
    for bc in BoundaryCondition:
        calls += [
            lambda bc=bc: tc_boundary(v, mu, bc, tol),
            lambda bc=bc: v_of_T(SOLVER_T, mu, bc, tol),
            lambda bc=bc: ratio_curve([v], mu, bc, tol).rows[0],
        ]
    results, records = [], []
    for call in calls:
        try:
            result = call()
        except Exception as exc:  # the error type is part of the digest
            results.append(type(exc).__name__.encode())
            continue
        if isinstance(result, float):
            results.append(struct.pack("<d", result))
            continue
        results.append(_result_bytes(result))
        if isinstance(result, TcResult):
            records.append(repr(_canon(result.numerics)).encode())
    return results, records


def _edge_row_pieces():
    """Byte strings of the edge-row RatioRows, every field of each."""
    return [
        _attempt(lambda v=v, bc=bc: _result_bytes(
            ratio_curve([v], SOLVER_MU, bc, EDGE_TOL).rows[0]))
        for v in EDGE_VS
        for bc in BoundaryCondition
    ]


def _kernel_pieces():
    """Byte strings of the kernel battery; an error becomes its type's name.

    For each parameter point: scalar calls; a 2-d broadcast of momenta
    with u = (p^2 - mu)/2T in [340, 390], so that exp(-2u) crosses
    [-760, -700], where exp underflows through the subnormals, plus a
    NaN; arrays of KERNEL_LENGTHS drawn from a momentum box; and eval_a
    on the grid at each of TOLS.
    """
    rng = np.random.default_rng(20260501)
    pieces = []
    for params in KERNEL_PARAMS:
        T, mu = params.T, params.mu
        for p, q in KERNEL_SCALARS:
            for f in (eval_L, eval_B):
                pieces.append(_attempt(lambda f=f: struct.pack("<d", f(p, q, params))))
            pieces.append(_attempt(lambda: struct.pack("<d", eval_F(p, params))))
        edge = np.sqrt(mu + 2.0 * T * np.linspace(340.0, 390.0, 101))
        band = np.concatenate([edge, -edge, [np.nan]])
        arrays = [(band[:, None], band[None, :])]
        box = 4.0 * (np.sqrt(abs(mu)) + np.sqrt(T))
        for n in KERNEL_LENGTHS:
            arrays.append(tuple(rng.uniform(-box, box, (2, n))))
        for p, q in arrays:
            for f in (eval_L, eval_B):
                pieces.append(_attempt(lambda f=f: np.asarray(f(p, q, params)).tobytes()))
            pieces.append(_attempt(lambda: eval_F(p, params).tobytes()))
        for tol in TOLS:
            pieces.append(_attempt(
                lambda: struct.pack("<d", eval_a(params, build_grid(params, tol)))))
    return pieces


def _check_pieces():
    """(name, byte strings) of each report of the verify battery."""
    _, rows, _, _ = cmd_verify(CHECK_CONFIG)
    return [
        (row["name"], [
            row["name"].encode(),
            struct.pack("<q", row["samples"]),
            struct.pack("<q", row["violations"]),
            struct.pack("<d", row["worst_margin"]),
        ])
        for row in rows
    ]


def _digest(pieces):
    h = hashlib.sha256()
    for piece in pieces:
        h.update(struct.pack("<q", len(piece)))
        h.update(piece)
    return h


def main(argv) -> int:
    verbose = "-v" in argv
    matrix_total, integral_total = hashlib.sha256(), hashlib.sha256()
    off_node_total = hashlib.sha256()
    for ppp in KNOBS:
        for tol in TOLS:
            for mu in MUS:
                for T in TS:
                    params = ModelParams(T=T, mu=mu)
                    matrices, integrals, off_node, sizes = _pieces(params, tol, ppp)
                    m, i = _digest(matrices), _digest(integrals)
                    matrix_total.update(m.digest())
                    integral_total.update(i.digest())
                    if mu > 0:
                        off_node_total.update(_digest(off_node).digest())
                    if verbose:
                        print(
                            f"T={T:g} mu={mu:g} tol={tol:g} "
                            f"ppp={ppp} "
                            f"{m.hexdigest()[:16]} {i.hexdigest()[:16]} {sizes}"
                        )
    print(matrix_total.hexdigest())
    print(integral_total.hexdigest())
    results, records = _solver_pieces()
    print(_digest(results).hexdigest())
    print(_digest(_kernel_pieces()).hexdigest())
    check_total = hashlib.sha256()
    for name, pieces in _check_pieces():
        h = _digest(pieces)
        check_total.update(h.digest())
        if verbose:
            print(f"check {name} {h.hexdigest()[:16]}")
    print(check_total.hexdigest())
    print(off_node_total.hexdigest())
    print(_digest(_edge_row_pieces()).hexdigest())
    print(_digest(records).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
