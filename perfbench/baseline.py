"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root, for example:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) /
median, over the seeds.  With --out it also writes that summary, the
per-run values and the machine record to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]),
            "record": json.loads(lines[-2])["perfbench"]}


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--note", default="", help="free text stored in the --out file")
    args = ap.parse_args()

    report = {"note": args.note, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            metrics = runs[-1]["result"]["metrics"]
            print(f"{workload} seed={seed} wall={runs[-1]['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
                  flush=True)
        names = runs[0]["result"]["metrics"]
        stats = {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
                 | {"unit": names[name]["unit"]} for name in names}
        for name, s in stats.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={spread}", flush=True)
        report["workloads"][workload] = {
            "metrics": stats,
            "wall_s": summary([r["wall_s"] for r in runs]),
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
                     for r in runs],
        }
        report["record"] = runs[-1]["record"]["record"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
