"""Fast self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced: the result line carries every
   metric of ``BENCHMARK.json`` with its unit, and no operation fails. The
   traced gap-fill counts match the gaps the harness punched.
2. Every output check reports a problem on a deliberately corrupted
   artifact, and a failing CLI call counts as a failed operation.
3. A layer that no longer exists is reported absent, once.

Exits 0 when all pass, 1 otherwise. Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
import tracer
from checks import check_ledger, check_repaired, compare_digests, digest_tree, read_csv
from workloads import EvaluateLong, MarketIo, Runner, _sets

SEED = 5
failures: list = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def check_result_lines(bench: dict) -> None:
    for workload in sorted(run.WORKLOADS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            buf = io.StringIO()
            argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                    "--trace", str(trace), "--tiny"]
            with contextlib.redirect_stdout(buf):
                rc = run.main(argv)
            result = json.loads(buf.getvalue().strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            expect(rc == 0, f"{label}: exit code 0")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(got == want, f"{label}: every {section} metric with its unit")
            expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                   f"{label}: numeric values")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: {result['attempted']} operations, none failed")
    with open(run.OUT / f"market_io-seed{SEED}-tiny-trace1.json") as fh:
        record = json.load(fh)
    gaps, layer = record["inputs"]["gaps"], record["per_layer"]
    filled = (layer["market_data.repair_gaps.filled_linear"]["value"],
              layer["market_data.repair_gaps.filled_seasonal"]["value"])
    expect(filled == (gaps["short_cells"], gaps["long_cells"]),
           f"traced (linear, seasonal) fills {filled} match the punched short and long gaps")


def corrupt_cell(path: Path, column: str, row: int, new_value: str) -> None:
    header, rows = read_csv(path)
    rows[row][header.index(column)] = new_value
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


def check_checks(cli, work: Path) -> None:
    runner = Runner(cli)

    # evaluate_long artifacts: ledger identity and byte identity
    ev = EvaluateLong(SEED, work / "ev", tiny=True)
    ev.setup(runner, work / "ev" / "setup")
    ev.prepare()
    ev.run_round(runner, 0)
    eval_dir = work / "ev" / "setup" / "always_on" / "eval" / "mars" / "test1"
    ledger = eval_dir / f"seed{SEED}.ledger.csv"
    expect(runner.failed == 0, "tiny evaluate round passes its checks")
    expect(check_ledger(ledger)[0] == [], "intact ledger passes the profit identity")
    reference = digest_tree(eval_dir)
    bad = work / "bad_ledger.csv"
    shutil.copy(ledger, bad)
    header, rows = read_csv(bad)
    profit = float(rows[3][header.index("profit")])
    corrupt_cell(bad, "profit", 3, repr(profit + 0.01))
    expect(check_ledger(bad)[0] != [], "ledger with one altered profit fails")
    expect(check_ledger(ledger, expected_rows=1)[0] != [], "ledger of the wrong length fails")
    agg = eval_dir / "aggregate.json"
    agg.write_bytes(agg.read_bytes().replace(b"{", b"{ ", 1))
    expect(compare_digests(reference, digest_tree(eval_dir)) != [],
           "one changed byte in a repeat's artifacts fails byte identity")

    # market_io artifacts: the repaired CSV
    mio = MarketIo(SEED, work / "mio", tiny=True)
    mio.setup(runner, work / "mio" / "setup")
    mio.prepare()
    out = work / "mio" / "out"
    sets = mio.overrides()
    sets["data.csv_path"] = str(mio._holes)
    rc, _, _ = runner.call(["ingest", "--out", str(out)] + _sets(sets))
    repaired = out / "data" / "repaired.csv"
    expect(rc == 0, "tiny ingest exits 0")
    expect(check_repaired(mio._holes, repaired, mio._removed) == [], "intact repaired.csv passes")
    name = next(iter(mio._removed))
    filled_row = int(mio._removed[name][0])
    observed_row = int(np.setdiff1d(np.arange(10), mio._removed[name])[0])

    cases = {
        "an unfilled gap": (name, filled_row, ""),
        "an altered observed cell": (name, observed_row, "123.456"),
    }
    for label, (col, row, value) in cases.items():
        bad = work / "bad_repaired.csv"
        shutil.copy(repaired, bad)
        corrupt_cell(bad, col, row, value)
        expect(check_repaired(mio._holes, bad, mio._removed) != [], f"repaired.csv with {label} fails")
    fewer = dict(mio._removed)
    fewer[name] = fewer[name][1:]
    expect(check_repaired(mio._holes, repaired, fewer) != [],
           "a gap the input generator did not record fails")

    # operations: a non-zero exit code and a failed check both count
    before = runner.failed
    runner.op("evaluate", ["evaluate", "--policy", "mars", "--out", str(work / "empty")])
    expect(runner.failed == before + 1, "a CLI call with a non-zero exit code counts as failed")
    runner.op("generate-data", ["generate-data", "--out", str(work / "g")] + _sets(mio.overrides()),
              check=lambda: ["corrupted"])
    expect(runner.failed == before + 2, "a CLI call whose output check fails counts as failed")


def check_absent_layer() -> None:
    layers = tracer.LAYERS
    tracer.LAYERS = layers + ("no_such_layer",)
    try:
        t = tracer.Tracer()
        for _ in range(2):
            t.install()
            t.uninstall()
    finally:
        tracer.LAYERS = layers
    expect(t.absent_layers == ["no_such_layer"], "a missing layer is listed as absent once")
    metrics = run.layer_metrics(["no_such_layer.self_share", "no_such_layer.f.calls"], t, {}, [None])
    expect(all(m["status"] == "absent" for m in metrics.values()),
           "its per-layer metrics are reported absent")


def main() -> int:
    bench = run.spec()
    cli = run.import_program()
    if cli is None:
        print("selftest: no marsbid sources under src/", file=sys.stderr)
        return 2
    check_result_lines(bench)
    check_absent_layer()
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_checks(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
