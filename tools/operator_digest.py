#!/usr/bin/env python3
"""Two sha256 lines: operator bytes, then solver outputs, of fixed batteries.

First line: for every (T, mu, tol, knobs) point the digest takes the raw
bytes of assemble(...).matrix for both boundary conditions, of the
diagonal _diag_A, and of trial_gap.  Second line: the results of
tc_bulk, tc_boundary (both boundary conditions), v_of_T (both) and one
ratio_curve row (both), all at tol 1e-4.  A point or call that raises
contributes the name of the error type instead.  Two checkouts that
print the same lines build bit-identical operators and solve to
bit-identical temperatures on the batteries, so a change meant to keep
the arithmetic can be checked with one command per checkout:

    PYTHONPATH=src python3 tools/operator_digest.py

Pass -v to print one line per operator point as well.
"""

import dataclasses
import hashlib
import struct
import sys

from bcs_edge import (
    GridKnobs,
    ModelParams,
    build_grid,
    ratio_curve,
    tc_boundary,
    tc_bulk,
    trial_gap,
    v_of_T,
)
from bcs_edge.bs_operator import BoundaryCondition, _diag_A, assemble

TS = (1e-5, 7.8e-3, 1.0, 20.0)
MUS = (-0.5, 0.0, 0.3, 1.0, 4.0)
TOLS = (1e-8, 1e-5)
KNOBS = (GridKnobs(16, 3.0), GridKnobs(8, 2.0))

SOLVER_TOL = 1e-4
SOLVER_MU = 1.0
SOLVER_V = 0.5
SOLVER_T = 1e-2


def _pieces(params, tol, knobs):
    """Byte strings of one point; an error becomes its type's name."""
    try:
        grid = build_grid(params, tol, knobs)
    except Exception as exc:  # the error type is part of the digest
        return [type(exc).__name__.encode()]
    out = []
    for bc in BoundaryCondition:
        try:
            out.append(assemble(params, grid, bc).matrix.tobytes())
        except Exception as exc:
            out.append(type(exc).__name__.encode())
    try:
        out.append(_diag_A(params, grid).tobytes())
    except Exception as exc:
        out.append(type(exc).__name__.encode())
    try:
        out.append(struct.pack("<d", trial_gap(params, knobs=knobs)))
    except Exception as exc:
        out.append(type(exc).__name__.encode())
    return out


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
    return repr(_canon(dataclasses.astuple(result))).encode()


def _solver_pieces():
    """Byte strings of the solver battery; an error becomes its type's name."""
    v, mu, tol = SOLVER_V, SOLVER_MU, SOLVER_TOL
    calls = [lambda: _result_bytes(tc_bulk(v, mu, tol))]
    for bc in BoundaryCondition:
        calls += [
            lambda bc=bc: _result_bytes(tc_boundary(v, mu, bc, tol)),
            lambda bc=bc: struct.pack("<d", v_of_T(SOLVER_T, mu, bc, tol)),
            lambda bc=bc: _result_bytes(ratio_curve([v], mu, bc, tol).rows[0]),
        ]
    out = []
    for call in calls:
        try:
            out.append(call())
        except Exception as exc:  # the error type is part of the digest
            out.append(type(exc).__name__.encode())
    return out


def main(argv) -> int:
    verbose = "-v" in argv
    total = hashlib.sha256()
    for knobs in KNOBS:
        for tol in TOLS:
            for mu in MUS:
                for T in TS:
                    point = hashlib.sha256()
                    for piece in _pieces(ModelParams(T=T, mu=mu), tol, knobs):
                        point.update(struct.pack("<q", len(piece)))
                        point.update(piece)
                    total.update(point.digest())
                    if verbose:
                        print(
                            f"T={T:g} mu={mu:g} tol={tol:g} "
                            f"knobs={knobs.points_per_panel}/{knobs.cutoff_factor:g} "
                            f"{point.hexdigest()[:16]}"
                        )
    print(total.hexdigest())
    solvers = hashlib.sha256()
    for piece in _solver_pieces():
        solvers.update(struct.pack("<q", len(piece)))
        solvers.update(piece)
    print(solvers.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
