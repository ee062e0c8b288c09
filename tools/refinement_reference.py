#!/usr/bin/env python3
"""Fixed-T refinement reference: the top eigenvalue and the essential
edge at 16, 32 and 64 Gauss points per panel.

For each T in TS and each boundary condition, at mu = 1 and grid tol
1e-8, it builds the grid at each points-per-panel level, assembles the
operator there and records the top eigenvalue lam (bs_operator._top_value
of the cut matrix), a_edge, the grid order n, the matrix order m and
the wall time of the point (grid build, assembly and eigensolve).  Each
entry's spread is |lam64 - lam32|, the move of the finest doubling.
The file also names the commit and the machine it was computed on.
Run from the repository root:

    PYTHONPATH=src python3 tools/refinement_reference.py

It writes tools/refinement_reference.json (under a minute on two cores,
most of it in the ppp-64 points at T = 1e-5).  The last bits of lam
follow the BLAS thread count, so a reader compares to about 1e-12
relative, not bit for bit.  tests/test_bs_operator.py recomputes two of
the ppp-16 points; a change that moves them regenerates this file.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bcs_edge import ModelParams, assemble, build_grid
from bcs_edge.bs_operator import BoundaryCondition, _top_value

TS = (1e-5, 1e-4, 1e-3, 8.5e-3, 0.1, 0.3)
MU = 1.0
GRID_TOL = 1e-8
LEVELS = (16, 32, 64)  # points per panel

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
    src_clean = _git("status", "--porcelain", "--", "src") == ""
    doc = {
        "what": "top eigenvalue lam and essential edge a_edge at 16, 32 and 64 "
                "points per panel; spread = |lam64 - lam32|",
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
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
