"""Regenerate reference.json: results for every lattice input of the workloads.

Run from the repository root (takes a few minutes on 2 cores):

    python3 perfbench/make_reference.py

The checks in workloads.py compare each benchmark output with these
values, within bounds tied to the requested tolerance.  Regenerate only
when the benchmark's input lattices change, never to make a check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    modules = run.load_modules()
    runner = workloads.Runner(modules, None, 1)
    refs = {"rows": {}, "spectrum": {}, "trial_gap": {}}
    for stratum in workloads.EDGE_STRATA:
        for v in stratum:
            for bc in workloads.BCS:
                (row,) = runner.run(workloads.Op("row", {"v": v, "bc": bc}, 1)).rows
                if row.error is not None:
                    raise RuntimeError(f"row v={v} {bc}: {row.error}")
                refs["rows"][f"{v!r}:{bc}"] = {"tc_bulk": row.tc_bulk,
                                               "tc_boundary": row.tc_boundary}
                print("row", v, bc, refs["rows"][f"{v!r}:{bc}"], flush=True)
    for stratum in workloads.SPECTRUM_STRATA:
        for T in stratum:
            for bc in workloads.BCS:
                refs["spectrum"][f"{T!r}:{bc}"] = runner.run(
                    workloads.Op("solve", {"T": T, "bc": bc}, 1))
    kernels, variational = modules["kernels"], modules["variational"]
    for stratum in workloads.TRIAL_STRATA:
        for T in stratum:
            refs["trial_gap"][repr(T)] = variational.trial_gap(
                kernels.ModelParams(T=T, mu=workloads.MU))
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
