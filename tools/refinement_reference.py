#!/usr/bin/env python3
"""Refinement reference at 16, 32 and 64 Gauss points per panel: the top
eigenvalue and the essential edge at fixed T, and tc_boundary.

For each T in TS and each boundary condition, at mu = 1 and grid tol
1e-8, it builds the grid at each points-per-panel level, assembles the
operator there and records the top eigenvalue lam (bs_operator._top_value
of the cut matrix), a_edge, the grid order n, the matrix order m and
the wall time of the point (grid build, assembly and eigensolve).  Each
entry's spread is |lam64 - lam32|, the move of the finest doubling.

For each coupling in VS and each boundary condition, at mu = 1, it
solves tc_boundary at tol 1e-8 on each level and records tc, the
number of half-line solves (evaluations), the grid order n, the matrix
order m at the returned root and the wall time of the root find (bulk
root find included).  Each row's spread is |tc64 - tc32| / tc64.

The file also names the commit and the machine it was computed on.
Run from the repository root:

    PYTHONPATH=src python3 tools/refinement_reference.py

It writes tools/refinement_reference.json (about a minute on two cores,
most of it in the ppp-64 points).  The last bits of lam follow the BLAS
thread count, so a reader compares lam to about 1e-12 relative, not bit
for bit, and tc to about twice the tol, since those bits can flip the
side a secant step lands on.  tests/test_bs_operator.py recomputes two
of the ppp-16 fixed-T points and one ppp-16 tc_boundary row; a change
that moves them regenerates this file.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bcs_edge import ModelParams, assemble, build_grid, tc_boundary
from bcs_edge.bs_operator import BoundaryCondition, _top_value

TS = (1e-5, 1e-4, 1e-3, 8.5e-3, 0.1, 0.3)
MU = 1.0
GRID_TOL = 1e-8
LEVELS = (16, 32, 64)  # points per panel
VS = (0.45, 0.51, 0.61, 0.80, 0.89)  # couplings across the edge-row range
TC_TOL = 1e-8

OUT = Path(__file__).with_name("refinement_reference.json")


def point(T: float, bc: BoundaryCondition, ppp: int) -> dict:
    """One level of one entry: lam, a_edge, grid and matrix orders, wall time."""
    start = time.perf_counter()
    params = ModelParams(T=T, mu=MU)
    op = assemble(params, build_grid(params, GRID_TOL, ppp), bc)
    lam = _top_value(op.matrix)
    return {
        "points_per_panel": ppp,
        "lam": lam,
        "a_edge": op.a_edge,
        "n": op.grid.n,
        "m": op.n,
        "wall_s": round(time.perf_counter() - start, 3),
    }


def tc_point(v: float, bc: BoundaryCondition, ppp: int) -> dict:
    """One level of one tc_boundary row: tc, solves, orders, wall time."""
    start = time.perf_counter()
    result = tc_boundary(v, MU, bc, TC_TOL, ppp)
    return {
        "points_per_panel": ppp,
        "tc": result.tc,
        "evaluations": result.evaluations,
        "n": result.numerics["grid_nodes"],
        "m": result.numerics["matrix_nodes"],
        "wall_s": round(time.perf_counter() - start, 3),
    }


def _git(*args) -> str:
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    entries = []
    for T in TS:
        for bc in BoundaryCondition:
            levels = [point(T, bc, ppp) for ppp in LEVELS]
            entries.append({
                "T": T,
                "bc": bc.value,
                "levels": levels,
                "spread": abs(levels[2]["lam"] - levels[1]["lam"]),
            })
            print(f"T={T:g} {bc.value}: " + " ".join(
                f"ppp{lv['points_per_panel']} {lv['lam']:.15g} ({lv['wall_s']:.2f} s)"
                for lv in levels), file=sys.stderr)
    tc_rows = []
    for v in VS:
        for bc in BoundaryCondition:
            levels = [tc_point(v, bc, ppp) for ppp in LEVELS]
            tc_rows.append({
                "v": v,
                "bc": bc.value,
                "levels": levels,
                "spread": abs(levels[2]["tc"] - levels[1]["tc"]) / levels[2]["tc"],
            })
            print(f"v={v:g} {bc.value}: " + " ".join(
                f"ppp{lv['points_per_panel']} {lv['tc']:.15g} ({lv['wall_s']:.2f} s)"
                for lv in levels), file=sys.stderr)
    src_clean = _git("status", "--porcelain", "--", "src") == ""
    doc = {
        "what": "top eigenvalue lam and essential edge a_edge at 16, 32 and 64 "
                "points per panel, spread = |lam64 - lam32|; tc_boundary rows at "
                "the same levels, spread = |tc64 - tc32| / tc64",
        "command": "PYTHONPATH=src python3 tools/refinement_reference.py",
        "commit": _git("rev-parse", "HEAD"),
        "src_matches_commit": src_clean,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "mu": MU,
        "grid_tol": GRID_TOL,
        "entries": entries,
        "tc_tol": TC_TOL,
        "tc_boundary": tc_rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
