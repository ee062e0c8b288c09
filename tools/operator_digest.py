#!/usr/bin/env python3
"""One sha256 over the operator bytes of a fixed battery of grids.

For every (T, mu, tol, knobs) point the digest takes the raw bytes of
assemble(...).matrix for both boundary conditions, of the diagonal
_diag_A, and of trial_gap; a point that raises contributes the name of
the error type instead.  Two checkouts that print the same digest build
bit-identical operators on the battery, so a change meant to keep the
arithmetic can be checked with one command per checkout:

    PYTHONPATH=src python3 tools/operator_digest.py

Pass -v to print one line per point as well.
"""

import hashlib
import struct
import sys

from bcs_edge import GridKnobs, ModelParams, build_grid, trial_gap
from bcs_edge.bs_operator import BoundaryCondition, _diag_A, assemble

TS = (1e-5, 7.8e-3, 1.0, 20.0)
MUS = (-0.5, 0.0, 0.3, 1.0, 4.0)
TOLS = (1e-8, 1e-5)
KNOBS = (GridKnobs(16, 3.0), GridKnobs(8, 2.0))


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
