"""Benchmark of bcs-edge: seeded workloads, output checks, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload edge-row --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for why each exists): edge-row, sweep,
fixed-t.  The package is imported from ./src, so nothing has to be
installed.

--trace 0 measures the end-to-end metrics and installs nothing in the
package.  It runs whole input cycles, at least one, and stops at the
cycle boundary nearest to --seconds of operation time; set-up probes and
checks come on top of that.
  setup_s      median over 9 fresh processes of start to bcs_edge
               imported and one warm-up solve done; the probes run
               between operations, spread over the run
  op_s         mean wall time of one operation: a row (edge-row), a
               4-row CLI sweep (sweep), a fixed-T solve or the verify
               battery plus trial gaps (fixed-t)
  items_per_s  checked results per wall second: rows (edge-row, sweep);
               solves, inequality checks and trial gaps (fixed-t)
  peak_rss_mb  ru_maxrss of the benchmark process
--trace 1 runs one cycle, each operation untraced and, right next to
it, with timing wrappers installed (tracer.py).  It reports the
per-layer metrics from the traced passes and trace_overhead_frac, the
median over operations of traced wall over untraced wall.  The sweep
workload also runs each operation with --threads 1 next to its untraced
pass for cli.pool_speedup.  Counts in a traced run repeat exactly for a
given seed.

BCS_EDGE_THREADS would override the sweep's --threads, so it is removed
from the environment before anything runs; its value is recorded.

Every output is checked after the timed region against the invariants
and the reference results in reference.json.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it records the seed, the generated inputs, sample counts, every
operation's wall time and the machine.  A failed check makes the exit
code 1; missing sources make it 2.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MODULES = ("kernels", "quadrature", "bs_operator", "critical_temperature",
           "variational", "lemma_suite", "cli", "errors")

import workloads  # noqa: E402  (stdlib only; sits next to this file)


def load_modules() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"bcs_edge.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"bcs_edge imported from {origin}, not from {SRC}")
    return modules


def setup_probe() -> float:
    """Wall time of one fresh process from start to warm-up done."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {probe.returncode})")
    return elapsed


def run_record(modules, thread_env) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": thread_env,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run_op(runner, op, threads=None, tracer=None, request=None) -> tuple:
    """One operation; returns (op, wall seconds, output, error text)."""
    call = functools.partial(runner.run, op, threads)
    start = time.perf_counter()
    try:
        out = tracer.op(request, call) if tracer else call()
        err = None
    except Exception:  # one failed operation must not end the run
        out, err = None, traceback.format_exc(limit=3)
    return (op, time.perf_counter() - start, out, err)


def check(modules, refs, done) -> list:
    """Failure texts per operation, computed outside any timed region."""
    out = []
    for op, _, result, err in done:
        if err is None:
            try:
                out.append(workloads.CHECKS[op.kind](modules, op.inputs, result, refs))
                continue
            except Exception:  # a check that cannot run has not passed
                err = traceback.format_exc(limit=3)
        out.append([f"{op.kind} {op.inputs}: {err.strip().splitlines()[-1]}"])
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "bcs_edge" / "__init__.py").is_file():
        print(f"perfbench: no bcs_edge package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.Runner(load_modules(), None, 1).warm_up()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    # read, never set; BCS_EDGE_THREADS is removed because cli.main lets
    # it override --threads, which would change what the sweep measures
    thread_env = {k: v for k, v in sorted(os.environ.items())
                  if k.endswith("_NUM_THREADS") or k == "BCS_EDGE_THREADS"}
    os.environ.pop("BCS_EDGE_THREADS", None)
    modules = load_modules()
    refs = json.loads((HERE / "reference.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = workloads.Runner(modules, workdir, nproc)
        runner.warm_up()
        rng = random.Random(args.seed)
        if args.trace:
            metrics, done, inputs, ratios = traced_run(modules, runner, rng, args)
        else:
            done, inputs, elapsed, setup = timed_run(runner, rng, args)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check(modules, refs, done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(f) for f in failures)
    if not args.trace:
        items = sum(op.items for (op, *_), fails in zip(done, failures) if not fails)
        metrics = {
            # the mean, not the median: a cycle mixes cheap and expensive
            # inputs on purpose, and the median of such a mix jumps between
            # cost levels from run to run while the mean does not
            "op_s": metric(elapsed / len(done), "s"),
            "items_per_s": metric(items / elapsed, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(setup), "s"),
        }
        samples = {"op_s": len(done), "items_per_s": items, "peak_rss_mb": 1,
                   "setup_s": len(setup)}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "fail_frac": failed / len(done),
        "failures": [f for fs in failures for f in fs],
        "record": run_record(modules, thread_env),
    }
    if "BCS_EDGE_THREADS" in thread_env:
        record["notes"] = {"BCS_EDGE_THREADS": "removed from the environment "
                           "before the run"}
    if args.trace:
        record |= ratios
        record.setdefault("notes", {})["bs_operator.matrix_mb"] = (
            "computed: sum of 8 n^2 bytes over eigensolves, not measured memory traffic")
    else:
        record["samples"] = samples
        record["setup_probes_s"] = setup
        record["op_walls_s"] = [t for _, t, _, _ in done]
        record["issue_metrics"] = issue_metrics(args.workload, metrics, samples, done)
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def timed_run(runner, rng, args):
    """Whole cycles, stopping at the boundary nearest to --seconds.

    elapsed is the operations' wall time.  The set-up probes run between
    operations, as many so far as the share of --seconds measured, so
    that setup_s samples the same stretch of machine time as the
    operations rather than only its start.
    """
    done, inputs, setup = [], [], []
    elapsed = 0.0
    while True:
        ops = workloads.cycle(args.workload, rng)
        inputs.append([op.inputs for op in ops])
        for op in ops:
            due = min(SETUP_PROBES - 1, int(SETUP_PROBES * elapsed / args.seconds))
            while len(setup) < due:
                setup.append(setup_probe())
            done.append(run_op(runner, op))
            elapsed += done[-1][1]
        # stop if one more cycle of the mean length so far would end
        # further past --seconds than this boundary falls short of it
        if elapsed * (1.0 + 0.5 / len(inputs)) >= args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    return done, inputs, elapsed, setup


def issue_metrics(workload, metrics, samples, done) -> dict:
    """Medians per operation kind, under the names the design uses.

    row_s, solve_s and certify_s are medians over one kind of operation;
    rows_per_s is the sweep's items_per_s.  Recorded, not gated.
    """
    names = {"row": "row_s", "solve": "solve_s", "certify": "certify_s"}
    out = {}
    for kind, name in names.items():
        walls = [t for op, t, _, _ in done if op.kind == kind]
        if walls:
            out[name] = metric(statistics.median(walls), "s") | {"samples": len(walls)}
    if workload == "sweep":
        out["rows_per_s"] = metrics["items_per_s"] | {"samples": samples["items_per_s"]}
    return out


def traced_run(modules, runner, rng, args):
    """One cycle; each operation untraced and traced back to back.

    The machine's speed drifts by more than the tracer costs over the
    length of a cycle, so the overhead is the median over operations of
    traced wall over the untraced wall next to it.  Which pass goes first
    alternates between operations.  The sweep also runs each operation
    with --threads 1 next to its untraced pass for cli.pool_speedup.
    """
    from tracer import Tracer, layer_metrics

    ops = workloads.cycle(args.workload, rng)
    tracer = Tracer()
    done, traced, overhead, speedup = [], [], [], []

    def run_traced(i, op):
        tracer.install(modules)
        try:
            traced.append(run_op(runner, op, tracer=tracer, request=f"op{i}"))
        finally:
            tracer.uninstall()
        return traced[-1]

    for i, op in enumerate(ops):
        # the sweep's untraced pass sits in the middle, next to both others
        passes = {"untraced": lambda: run_op(runner, op),
                  "traced": lambda: run_traced(i, op)}
        if args.workload == "sweep":
            passes = {"single": lambda: run_op(runner, op, threads=1)} | passes
        walls = {}
        for name in (list(passes) if i % 2 == 0 else reversed(passes)):
            done.append(passes[name]())
            walls[name] = done[-1][1]
        overhead.append(walls["traced"] / walls["untraced"])
        if "single" in walls:
            speedup.append(walls["single"] / walls["untraced"])

    metrics = layer_metrics(tracer.spans, modules["errors"].NumericsError)
    out_bytes = sum(workloads.output_bytes(out) for op, _, out, err in traced
                    if err is None and isinstance(out, dict) and "out" in out)
    metrics["cli.pool_speedup"] = metric(statistics.median(speedup) if speedup else 0.0,
                                         "x")
    metrics["cli.out_bytes"] = metric(out_bytes, "bytes")
    metrics["trace_overhead_frac"] = metric(statistics.median(overhead), "frac")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps([s.as_json() for s in tracer.spans]))
    ratios = {"trace_overhead_per_op": overhead, "pool_speedup_per_op": speedup}
    return metrics, done, [[op.inputs for op in ops]], ratios


if __name__ == "__main__":
    sys.exit(main())
