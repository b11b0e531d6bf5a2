"""Record a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 --out perfbench/baseline_seed.json

Runs ``perfbench/run.py`` once per (workload, seed) untraced and once per
workload traced, one process at a time, from the root of the checkout. For
each end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e. the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}.json"
    with open(ROOT / ".perfbench_out" / tag) as fh:
        result["record"] = json.load(fh)
    result["wall_s"] = wall_s
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", default=None, help="JSON file to write")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {
            "why": runs[0]["record"]["why"],
            "inputs": runs[0]["record"]["inputs"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "rates": {},
            "calibration_ms": [
                [r["record"]["calibration_ms_before"], r["record"]["calibration_ms_after"]]
                for r in runs
            ],
            "machine": runs[0]["record"]["machine"],
            "run_wall_s": [r["wall_s"] for r in runs],
        }
        ok &= entry["failed"] == 0
        for name in runs[0]["metrics"]:
            entry["end_to_end"][name] = spread([r["metrics"][name]["value"] for r in runs])
            s = entry["end_to_end"][name]
            flag = "" if s["spread"] <= bounds[name] else "  OVER BOUND"
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        for name in runs[0]["record"]["rates"]:
            entry["rates"][name] = spread([r["record"]["rates"][name]["value"] for r in runs])
        traced = run_once(workload, seeds[0], bench["run_seconds"], 1)
        ok &= traced["failed"] == 0
        entry["traced"] = {
            "seed": seeds[0],
            "run_wall_s": traced["wall_s"],
            "per_layer": traced["record"]["per_layer"],
            "top_self_time": traced["record"]["top_self_time"],
        }
        overhead = traced["record"]["per_layer"]["trace_overhead_frac"]["value"]
        print(f"{workload} trace_overhead_frac {overhead:.3f}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
