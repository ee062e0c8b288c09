"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned.  A workload's inputs come in
cycles.  A cycle draws one input from each stratum of the workload's
input range (lattices below), so every cycle has the same mix of cheap
and expensive inputs and a run's mean time per operation depends little
on which values the seed picked.  Inputs come from fixed lattices so that every
possible input has a reference result in reference.json.

Why these workloads:
- edge-row: one ratio_curve row at tol 1e-6, the headline use.  Root
  finding, mesh marching, the B matrix and eigh do most of the work.
- sweep: the ratio-curve CLI at tol 1e-4 over a weak-to-strong coupling
  range (Dirichlet), with a row pool of nproc threads.  It is the only workload
  that runs the row pool, CSV rendering and the manifest writer.
- fixed-t: work at fixed temperatures with no root finding, so a
  root-finder change should not move it.  Operator solves as
  `bcs-edge spectrum` does them show a grid or operator-build change in
  full; the `verify` inequality battery and trial-state gaps evaluate
  kernels on random samples and build _diag_A and the dense B form with
  no eigensolve, and are the only users of lemma_suite and variational.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MU = 1.0
EDGE_TOL = 1e-6
SWEEP_TOL = 1e-4
SWEEP_COUNT = 4
SPECTRUM_TOL = 1e-8
TRIAL_TOL = 1e-9  # TrialConfig's default quadrature tolerance
# grid tol of the independent a = 1/v check; the solvers use 1e-8 at
# both tols above, and the check's own quadrature error stays far below them
CHECK_GRID_TOL = 1e-8
VERIFY_SAMPLES = 100_000
VERIFY_CHECKS = 8  # inequality checks in the verify battery

# A checked result may differ from its reference by this many requested
# tolerances.  Two roots that both sit inside a bracket of relative width
# tol differ by up to 2 tol; the rest is room for discretisation changes
# (refining a grid built at tol moves the top eigenvalue by up to ~9 tol).
TC_SLACK = 5.0
VALUE_SLACK = 20.0

CURVE_COLUMNS = ["v", "mu", "bc", "tc_bulk", "tc_boundary", "relative_shift",
                 "gap_at_tc_bulk", "grid_nodes"]
BCS = ("dirichlet", "neumann")


def _log_lattice(lo, hi, strata, per_stratum):
    """strata lists of per_stratum log-spaced points covering [lo, hi]."""
    count = strata * per_stratum
    points = [float(f"{lo * (hi / lo) ** (k / (count - 1)):.6g}") for k in range(count)]
    return [points[i * per_stratum:(i + 1) * per_stratum] for i in range(strata)]


# Couplings with tc_bulk / mu from about 4e-3 to 0.13.  Row cost falls
# steeply with v (about 12 s to 5 s on 2 cores).  A cycle solves the
# middle stratum's v under both boundary conditions and the outer strata
# under one each, alternating.
EDGE_STRATA = (
    (0.45, 0.47, 0.49, 0.51),
    (0.60, 0.61, 0.62, 0.63),
    (0.80, 0.83, 0.86, 0.89),
)
SPECTRUM_STRATA = _log_lattice(1e-5, 1.0, 12, 3)
TRIAL_STRATA = _log_lattice(1e-5, 1e-1, 4, 3)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: its inputs and how many results it yields."""

    kind: str
    inputs: dict
    items: int


def cycle(workload: str, rng: random.Random) -> list:
    """One cycle of operations for workload, drawn from rng."""
    if workload == "edge-row":
        lo, mid, hi = (rng.choice(stratum) for stratum in EDGE_STRATA)
        first = rng.randrange(2)
        return [Op("row", {"v": lo, "bc": BCS[first]}, 1),
                Op("row", {"v": mid, "bc": BCS[0]}, 1),
                Op("row", {"v": mid, "bc": BCS[1]}, 1),
                Op("row", {"v": hi, "bc": BCS[1 - first]}, 1)]
    if workload == "sweep":
        # ends jitter by up to 2% inside [0.3, 5].  Dirichlet only: a
        # Neumann sweep costs about a quarter more, so a seed-drawn bc
        # would dominate the run-to-run spread.
        return [Op("sweep", {
            "v_min": round(0.3 * 1.02 ** rng.random(), 6),
            "v_max": round(5.0 / 1.02 ** rng.random(), 6),
            "bc": "dirichlet",
        }, SWEEP_COUNT)]
    if workload == "fixed-t":
        ops = [Op("solve", {"T": rng.choice(stratum), "bc": bc}, 1)
               for stratum in SPECTRUM_STRATA for bc in BCS]
        rng.shuffle(ops)
        return ops + [Op("certify", {
            "seed": rng.randrange(2**31),
            "T": [rng.choice(stratum) for stratum in TRIAL_STRATA],
        }, VERIFY_CHECKS + len(TRIAL_STRATA))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("edge-row", "sweep", "fixed-t")


class Runner:
    """Runs operations against the bcs_edge modules it is given.

    Calls go through module attributes at call time, so a tracer
    installed on those modules sees them.
    """

    def __init__(self, modules, workdir: Path, threads: int):
        self.m = modules
        self.workdir = workdir
        self.threads = threads
        self._outputs = 0

    def warm_up(self):
        """One small solve: loads LAPACK and fills the quadrature caches."""
        k, q, b = self.m["kernels"], self.m["quadrature"], self.m["bs_operator"]
        params = k.ModelParams(T=1.0, mu=MU)
        op = b.assemble(params, q.build_grid(params, 1e-4), b.BoundaryCondition.NEUMANN)
        return b.top_eigenpair(op)

    def run(self, op: Op, threads: int | None = None):
        return getattr(self, "_" + op.kind)(op.inputs, threads or self.threads)

    def _row(self, x, threads):
        ct, b = self.m["critical_temperature"], self.m["bs_operator"]
        return ct.ratio_curve([x["v"]], MU, b.BoundaryCondition(x["bc"]), tol=EDGE_TOL)

    def _sweep(self, x, threads):
        self._outputs += 1
        out = self.workdir / f"curve{self._outputs}.csv"
        argv = ["ratio-curve", "--mu", repr(MU), "--bc", x["bc"],
                "--v-min", repr(x["v_min"]), "--v-max", repr(x["v_max"]),
                "--v-count", str(SWEEP_COUNT), "--tol", repr(SWEEP_TOL),
                "--threads", str(threads), "--out", str(out)]
        code = self.m["cli"].main(argv)
        return {"code": code, "out": out}

    def _solve(self, x, threads):
        k, q, b = self.m["kernels"], self.m["quadrature"], self.m["bs_operator"]
        params = k.ModelParams(T=x["T"], mu=MU)
        op = b.assemble(params, q.build_grid(params, SPECTRUM_TOL),
                        b.BoundaryCondition(x["bc"]))
        lam, _ = b.top_eigenpair(op)
        return {"lam": lam, "gap": lam - op.a_edge}

    def _certify(self, x, threads):
        k, v = self.m["kernels"], self.m["variational"]
        self._outputs += 1
        out = self.workdir / f"verify{self._outputs}.json"
        code = self.m["cli"].main(["verify", "--samples", str(VERIFY_SAMPLES),
                                   "--seed", str(x["seed"]), "--out", str(out)])
        gaps = [v.trial_gap(k.ModelParams(T=T, mu=MU)) for T in x["T"]]
        return {"code": code, "out": out, "trial_gaps": gaps}


# --- output checks ---------------------------------------------------------
# Each check returns a list of failure strings; empty means correct.


def _close(value, ref, bound):
    return math.isfinite(value) and abs(value - ref) <= bound


def _bulk_residual_ok(m, v, tc, tol):
    """tc_bulk solves a_{T,mu} = 1/v on a freshly built grid."""
    k, q = m["kernels"], m["quadrature"]
    params = k.ModelParams(T=tc, mu=MU)
    a = k.eval_a(params, q.build_grid(params, CHECK_GRID_TOL))
    return abs(a - 1.0 / v) <= tol


def check_row(m, x, curve, refs) -> list:
    (row,) = curve.rows
    if row.error is not None:
        return [f"row v={x['v']} {x['bc']}: {row.error}"]
    fails = []
    tol = EDGE_TOL
    if not _bulk_residual_ok(m, x["v"], row.tc_bulk, tol):
        fails.append("tc_bulk does not solve a = 1/v")
    if not row.tc_boundary >= row.tc_bulk:
        fails.append("tc_boundary < tc_bulk")
    if not row.relative_shift >= -tol:
        fails.append("relative_shift < -tol")
    ref = refs["rows"][f"{x['v']!r}:{x['bc']}"]
    for key in ("tc_bulk", "tc_boundary"):
        if not _close(getattr(row, key), ref[key], TC_SLACK * tol * ref[key]):
            fails.append(f"{key} {getattr(row, key)!r} vs reference {ref[key]!r}")
    return [f"row v={x['v']} {x['bc']}: {f}" for f in fails]


def check_sweep(m, x, result, refs) -> list:
    fails = []
    if result["code"] != 0:
        fails.append(f"exit code {result['code']}")
    out = result["out"]
    text = out.read_text() if out.is_file() else ""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CURVE_COLUMNS):
        fails.append("header is not the 8 ratio-curve columns")
    rows = list(csv.DictReader(lines))
    if any(cell == "nan" for r in rows for cell in r.values()):
        fails.append("nan in output")
    if len(rows) != SWEEP_COUNT:
        fails.append(f"{len(rows)} rows, expected {SWEEP_COUNT}")
    for r in rows:
        try:
            v, bulk, bound = float(r["v"]), float(r["tc_bulk"]), float(r["tc_boundary"])
            shift = float(r["relative_shift"])
        except (KeyError, ValueError):
            fails.append(f"unparsable row {r}")
            continue
        if not bound >= bulk:
            fails.append(f"v={v}: tc_boundary < tc_bulk")
        if not shift >= -SWEEP_TOL:
            fails.append(f"v={v}: relative_shift < -tol")
        if not _bulk_residual_ok(m, v, bulk, SWEEP_TOL):
            fails.append(f"v={v}: tc_bulk does not solve a = 1/v")
    sidecar = out.with_name(out.name + ".manifest.json")
    try:
        argv = json.loads(sidecar.read_text()).get("argv")
    except (OSError, ValueError):
        argv = None
    if not (isinstance(argv, list) and argv[:1] == ["ratio-curve"]):
        fails.append("manifest has no replay argv")
    return [f"sweep {x}: {f}" for f in fails]


def output_bytes(result) -> int:
    out = result["out"]
    sidecar = out.with_name(out.name + ".manifest.json")
    return sum(p.stat().st_size for p in (out, sidecar) if p.is_file())


def check_solve(m, x, result, refs) -> list:
    ref = refs["spectrum"][f"{x['T']!r}:{x['bc']}"]
    bound = VALUE_SLACK * SPECTRUM_TOL * max(1.0, abs(ref["lam"]))
    fails = []
    if not _close(result["lam"], ref["lam"], bound):
        fails.append(f"top eigenvalue {result['lam']!r} vs reference {ref['lam']!r}")
    # lambda and the edge may each move by bound, so only a reference gap
    # beyond 2 bound has a sign that must hold
    gap = result["gap"]
    if abs(ref["gap"]) > 2.0 * bound:
        if not gap * ref["gap"] > 0:
            fails.append(f"gap {gap!r} has the wrong sign (reference {ref['gap']!r})")
    elif not abs(gap) <= 4.0 * bound:
        fails.append(f"gap {gap!r} should be ~0 (reference {ref['gap']!r})")
    return [f"solve T={x['T']} {x['bc']}: {f}" for f in fails]


def check_certify(m, x, result, refs) -> list:
    fails = []
    if result["code"] != 0:
        fails.append(f"verify exit code {result['code']}")
    try:
        rows = json.loads(result["out"].read_text())["rows"]
    except (OSError, ValueError, KeyError):
        rows = []
    if len(rows) != VERIFY_CHECKS or any(r.get("violations") != 0 for r in rows):
        fails.append("verify battery reports violations or missing checks")
    for T, gap in zip(x["T"], result["trial_gaps"]):
        ref = refs["trial_gap"][repr(T)]
        if not (gap > 0 and _close(gap, ref, VALUE_SLACK * TRIAL_TOL * max(1.0, ref))):
            fails.append(f"trial_gap(T={T}) = {gap!r} vs reference {ref!r}")
    return [f"certify seed={x['seed']}: {f}" for f in fails]


CHECKS = {"row": check_row, "sweep": check_sweep, "solve": check_solve,
          "certify": check_certify}
