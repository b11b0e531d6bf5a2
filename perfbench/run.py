"""marsbid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every CLI call runs twice, untraced
and traced, and the run reports the per-layer metrics,
``trace_overhead_frac`` among them. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run (machine,
inputs, every sample, the per-layer table) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import machine
from tracer import Tracer
from workloads import WORKLOADS, Runner, SetupError

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def import_program():
    """Import ``marsbid.cli`` from this checkout's ``src/`` and nowhere
    else. Returns None when the sources are not there."""
    src = ROOT / "src"
    if not (src / "marsbid" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    # The CLI reads MARSBID_* variables as config overrides; the benchmark
    # passes its whole config on the command line.
    for name in [n for n in os.environ if n.startswith("MARSBID_")]:
        del os.environ[name]
    import marsbid.cli

    if Path(marsbid.cli.__file__).resolve().parent != (src / "marsbid").resolve():
        return None
    return marsbid.cli


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- measuring ---------------------------------------------------------------


def timed_setup(workload, runner, i: int) -> float:
    """Set up into a fresh directory; only the first one's is kept."""
    dest = workload.work / f"setup{i}"
    t0 = time.perf_counter()
    workload.setup(runner, dest)
    seconds = time.perf_counter() - t0
    if i:
        shutil.rmtree(dest, ignore_errors=True)
    return seconds


def measure(workload, runner, seconds: float, trace: bool):
    """Set up, then run rounds until the next one would pass ``seconds``.

    Untraced, the set-up is repeated ``workload.setups_per_round`` times
    between rounds, so that its samples are spread over the run like the
    rounds are, not bunched into one of the host's fast or slow phases.
    With ``trace`` every operation of a round also runs traced, next to
    its untraced call, and the set-up runs once."""
    setup_s = [timed_setup(workload, runner, 0)]
    workload.prepare()

    runner.tracer = Tracer() if trace else None
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(workload.run_round(runner, len(rounds)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds) > seconds:
            break
        if not trace:
            for _ in range(workload.setups_per_round):
                setup_s.append(timed_setup(workload, runner, len(setup_s)))
    return setup_s, rounds


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(names: list, tracer: Tracer, spans: dict, rounds: list) -> dict:
    """name -> {value, samples, status} for every per-layer metric.

    Counts and seconds are per round; percentiles are over every call. A
    metric whose function no longer exists is ``absent`` (value 0).
    """
    n = len(rounds)
    root_s = spans.get("cli.main", {}).get("s", 0.0)
    out = {}
    for name in names:
        if name == "trace_overhead_frac":
            t = sum(r.traced_seconds for r in rounds)
            u = sum(r.seconds for r in rounds)
            calls = sum(len(r.ops) for r in rounds)
            out[name] = {"value": t / u - 1.0, "samples": calls, "status": "ok"}
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "self_share":
            if span in tracer.absent_layers:
                out[name] = {"value": 0.0, "samples": 0, "status": "absent"}
                continue
            self_s = sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == span)
            calls = sum(v["calls"] for k, v in spans.items() if k.split(".")[0] == span)
            out[name] = {"value": self_s / root_s, "samples": calls, "status": "ok"}
            continue
        if name == "ppo_trainer.minibatch_ratio":
            span, stat = "ppo_trainer.Adam.step", "ratio"
        if span not in tracer.wrapped:
            out[name] = {"value": 0.0, "samples": 0, "status": "absent"}
            continue
        s = spans.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": np.zeros(0)})
        calls = s["calls"]
        entry = {"samples": calls, "status": "ok" if calls else "no calls"}
        if stat == "calls":
            value = calls / n
        elif stat in ("s", "self_s"):
            value = s[stat] / n
        elif stat in ("p50_us", "p99_us"):
            q = 50 if stat == "p50_us" else 99
            value = float(np.percentile(s["durations"], q)) * 1e6 if calls else 0.0
        elif stat in ("hours_per_s", "steps_per_s"):
            counter = "hours" if stat == "hours_per_s" else "env_steps"
            value = tracer.counters.get(f"{span}.{counter}", 0) / s["s"] if s["s"] else 0.0
        elif stat == "ratio":
            most = tracer.counters.get("ppo_trainer.train.minibatch_max", 0)
            value = calls / most if most else 0.0
        else:
            key = f"{span}.{stat}"
            if span in tracer.hook_errors:
                entry["status"] = f"counter failed: {tracer.hook_errors[span]}"
            value = tracer.counters.get(key, 0) / n
        entry["value"] = float(value)
        out[name] = entry
    return out


def top_spans(spans: dict, n_rounds: int, limit: int = 30) -> list:
    rows = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:limit]
    return [
        {"span": k, "calls": v["calls"] // n_rounds, "s": v["s"] / n_rounds,
         "self_s": v["self_s"] / n_rounds}
        for k, v in rows
    ]


# -- reporting -----------------------------------------------------------------


def print_table(title: str, rows: list) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        print("perfbench: no marsbid sources under src/ of this checkout", file=sys.stderr)
        return 2
    bench = spec()
    workload_cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    record = {
        "workload": args.workload,
        "why": workload_cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.record(ROOT),
        "calibration_ms_before": machine.calibration_ms(),
    }
    workload = workload_cls(args.seed, work, tiny=args.tiny)
    runner = Runner(cli)
    try:
        setup_s, rounds = measure(workload, runner, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}; {runner.failures}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["calibration_ms_after"] = machine.calibration_ms()
    record["loadavg_after"] = list(os.getloadavg())
    record["inputs"] = workload.properties()
    record["setup_s_samples"] = setup_s
    record["rounds"] = [{"seconds": r.seconds, "ops": [vars(op) for op in r.ops]} for r in rounds]
    record["failures"] = runner.failures
    record["peak_rss_rise_by_checks_mb"] = runner.check_rss_rise_kb / 1024.0
    rates = workload.rates(rounds)
    record["rates"] = {k: {"value": v, "unit": u} for k, (v, u) in rates.items()}

    tracer = runner.tracer
    if args.trace:
        spans = tracer.summary()
        names = [m["name"] for m in bench["per_layer"]]
        per_layer = layer_metrics(names, tracer, spans, rounds)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        record["per_layer"] = per_layer
        record["top_self_time"] = top_spans(spans, len(rounds))
        record["absent_layers"] = tracer.absent_layers
        record["counter_errors"] = tracer.hook_errors
        metrics = {k: {"value": v["value"], "unit": units[k]} for k, v in per_layer.items()}
        tracer.save(OUT / f"{tag}.spans.npz")
    else:
        metrics = {
            "setup_s": {"value": float(np.median(setup_s)), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "round_s": {"value": float(np.median([r.seconds for r in rounds])), "unit": "s"},
        }
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    m = record["machine"]
    print(
        f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
        f"blas {m['blas']['name']} {m['blas']['version']} threads {m['blas']['threads']}, "
        f"git {m['git_sha']}, load {m['loadavg']}, calibration "
        f"{record['calibration_ms_before']:.1f}/{record['calibration_ms_after']:.1f} ms"
    )
    print(f"workload {args.workload} (seed {args.seed}): {workload_cls.why}")
    print(f"inputs: {json.dumps(record['inputs'], default=str)}")
    print(f"rounds: {len(rounds)}{' (each call run untraced and traced)' if args.trace else ''}; "
          f"setups {[round(s, 3) for s in setup_s]}")
    print(f"peak RSS raised by the output checks: {record['peak_rss_rise_by_checks_mb']:.1f} MB")
    for name, (value, unit) in rates.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        print_table(
            "per-layer (per round; percentiles over all calls):",
            [(k, f"{v['value']:.6g}", units[k], f"n={v['samples']}", v["status"])
             for k, v in per_layer.items()],
        )
        print_table(
            "top self time (s per round):",
            [(r["span"], r["calls"], f"{r['self_s']:.4f}") for r in record["top_self_time"]],
        )
    else:
        for name, v in metrics.items():
            print(f"{name} {v['value']:.6g} {v['unit']}")
    for failure in runner.failures:
        print(f"FAILED {failure['op']}: {failure['problems']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
