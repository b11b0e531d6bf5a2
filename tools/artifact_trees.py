"""Write every CLI artifact of a small seeded pipeline, for a byte-identity
check between two versions of the code.

    python tools/artifact_trees.py SRC OUT

``SRC`` is the directory that holds the ``marsbid`` package to run (a
checkout's ``src``); ``OUT`` must not exist yet. In one process, with the
end-to-end reproducibility test's overrides (seed 7), each tree runs
``generate-data``; ``train`` for the university, meta, vanilla and cvar
phases with ``--workers 2``; ``evaluate`` of eight policies on test1;
``report``; and ``ablate --workers 2``. The trees are ``always_on``,
``economic`` and ``economic_weather`` (``economic`` with
``env.include_weather=true`` and ``generator.ramp_rate=30``, so a restarted
unit climbs to ``p_max`` over several hours and its ramp clamps are fined).
``economic`` also sets ``io.checkpoint_every=1``, so its ``train`` runs
write the periodic ``<role>_u<update>.ckpt`` checkpoints after every PPO
update. One more, ``ablate_3seeds``, runs
``ablate --workers 2`` alone with ``eval.seeds=0,1,2``, so its seeds run in
a process pool where the machine has two CPUs. ``ablate_64`` runs
``ablate --workers 2`` alone with the default 64-64 nets
(``ppo.base.hidden`` and ``ppo.meta.hidden``), whose products take other
BLAS paths than the 8-8 nets of every other tree. ``ingest`` runs
``generate-data``, writes ``data/holes.csv``, a copy of ``synthetic.csv``
with fixed gaps punched in and some rows moved (see :func:`punch_gaps`),
and then ``ingest``, ``train --phase vanilla`` and ``evaluate --policy
vanilla`` on it with ``data.source=csv``. ``tiny_prices`` runs
``generate-data``, ``ingest`` and ``evaluate --policy rolling_opt`` on a
market whose prices lie mostly below 1e-4 (see :data:`TINY_PRICES`), so its
CSVs hold thousands of floats that ``repr`` writes in exponent form, the
cells ``market_data.float_cells`` formats one by one; the other trees
write one such cell in all.

Each tree's files land in ``OUT/<tree>/``, and its exit codes, stdout and
stderr in ``OUT/<tree>.log``, with the tree's path masked as ``OUT``. Run
it at two commits and compare with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

OVERRIDES = {
    "synthetic.n_hours": "3600",
    "split.train_start": "2021-01-01",
    "split.train_end": "2021-03-15",
    "split.test1_start": "2021-03-15",
    "split.test1_end": "2021-04-15",
    "split.test2_start": "2021-04-15",
    "split.test2_end": "2021-05-30",
    "ppo.base.total_steps": "2048",
    "ppo.base.buffer_size": "512",
    "ppo.base.hidden": "8,8",
    "ppo.meta.total_steps": "1024",
    "ppo.meta.buffer_size": "512",
    "ppo.meta.hidden": "8,8",
    "eval.seeds": "7",
    "eval.rolling_window": "200",
}
SEED = "7"
PHASES = ("university", "meta", "vanilla", "cvar")
POLICIES = ("mars", "static", "safe", "spec", "vanilla", "cvar", "rolling_opt", "best_single")
TREES = {
    "always_on": {"env.dispatch_mode": "always_on"},
    "economic": {"env.dispatch_mode": "economic", "io.checkpoint_every": "1"},
    "economic_weather": {
        "env.dispatch_mode": "economic",
        "env.include_weather": "true",
        "generator.ramp_rate": "30",
    },
}

# Prices around $5e-5/MWh: below 1e-4, where repr switches to exponent form.
TINY_PRICES = {
    "synthetic.calm_mean": "4e-5",
    "synthetic.calm_std": "5e-6",
    "synthetic.volatile_mean": "6e-5",
    "synthetic.volatile_std": "2.5e-5",
    "synthetic.rt_spread_std": "8e-6",
    "synthetic.diurnal_amplitude": "1e-5",
}


def pipeline() -> list:
    """The argument lists of one tree, in order."""
    runs = [["generate-data"]]
    runs += [["train", "--phase", p, "--seed", SEED, "--workers", "2"] for p in PHASES]
    runs += [["evaluate", "--policy", p, "--split", "test1", "--seed", SEED] for p in POLICIES]
    runs += [["report"], ["ablate", "--workers", "2"]]
    return runs


# Blank cells in holes.csv. Two boundary gaps, repaired from hour-of-week
# means, as (field, first data row, rows): a leading one of 100 h and a
# trailing one of 30 h. Inner gaps, as (first row, rows), in every field,
# 31 rows later per column: short ones (under 4 h) are interpolated.
BOUNDARY_GAPS = (("lmp_da", 0, 100), ("gas_price", 3570, 30))
INNER_GAPS = ((400, 1), (700, 2), (1100, 3), (1500, 4), (2300, 40), (3100, 150))
DROPPED_ROWS = range(2000, 2005)  # five whole hours missing
MOVED_ROWS = (range(1200, 1230), range(2600, 2610))  # each block written reversed


def punch_gaps(data_dir: str) -> str:
    """Write ``holes.csv`` next to ``synthetic.csv`` in ``data_dir``, with
    the gaps above blanked, the :data:`DROPPED_ROWS` left out and the
    :data:`MOVED_ROWS` reversed; returns its path relative to the tree."""
    with open(os.path.join(data_dir, "synthetic.csv")) as fh:
        comment, header, *rows = fh.read().splitlines()
    names = header.split(",")
    rows = [row.split(",") for row in rows]
    gaps = [(names.index(name), first, length) for name, first, length in BOUNDARY_GAPS]
    gaps += [(col, first + 31 * col, length) for col in range(1, len(names))
             for first, length in INNER_GAPS]
    for col, first, length in gaps:
        for row in rows[first : first + length]:
            row[col] = ""
    for block in MOVED_ROWS:
        rows[block.start : block.stop] = rows[block.start : block.stop][::-1]
    kept = [",".join(row) for i, row in enumerate(rows) if i not in DROPPED_ROWS]
    with open(os.path.join(data_dir, "holes.csv"), "w") as fh:
        fh.write("\n".join([comment, header, *kept]) + "\n")
    return os.path.join("data", "holes.csv")


def ingest_tree(main, out: str, overrides: dict):
    """The ``ingest`` tree: returns its log and failure count as
    :func:`run_tree` does. The CSV path is given relative to the tree, so
    the config hash stamped in its files does not depend on ``out``."""
    log, failed = run_tree(main, out, [["generate-data"]], overrides)
    holes = punch_gaps(os.path.join(out, "data"))
    runs = [
        ["ingest"],
        ["train", "--phase", "vanilla", "--seed", SEED, "--workers", "2"],
        ["evaluate", "--policy", "vanilla", "--split", "test1", "--seed", SEED],
    ]
    cwd = os.getcwd()
    os.chdir(out)
    try:
        csv_overrides = {**overrides, "data.source": "csv", "data.csv_path": holes}
        more_log, more_failed = run_tree(main, out, runs, csv_overrides)
    finally:
        os.chdir(cwd)
    return log + more_log, failed + more_failed, 1 + len(runs)


def run_tree(main, out: str, runs: list, overrides: dict):
    """Run each argument list against ``out``; returns the log, with ``out``
    masked, and the number of commands that exited non-zero."""
    sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    log, failed = [], 0
    for argv in runs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([*argv, "--out", out, *sets])
        failed += rc != 0
        log.append(f"$ {' '.join(argv)}\nexit {rc}\n{stdout.getvalue()}{stderr.getvalue()}")
    return "".join(log).replace(out, "OUT"), failed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/artifact_trees.py SRC OUT", file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in args)
    if os.path.exists(out):
        print(f"{out} exists; choose a new directory", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from marsbid import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"marsbid was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    trees = {name: (pipeline(), {**OVERRIDES, **extra}) for name, extra in TREES.items()}
    trees["ablate_3seeds"] = ([["ablate", "--workers", "2"]], {**OVERRIDES, "eval.seeds": "0,1,2"})
    wide = {"ppo.base.hidden": "64,64", "ppo.meta.hidden": "64,64"}
    trees["ablate_64"] = ([["ablate", "--workers", "2"]], {**OVERRIDES, **wide})
    tiny = [["generate-data"], ["ingest"], ["evaluate", "--policy", "rolling_opt", "--split", "test1"]]
    trees["tiny_prices"] = (tiny, {**OVERRIDES, **TINY_PRICES})
    os.makedirs(out)
    failed = 0
    for name, (runs, overrides) in trees.items():
        log, n_failed = run_tree(cli.main, os.path.join(out, name), runs, overrides)
        failed += report(out, name, log, n_failed, len(runs))
    log, n_failed, n_runs = ingest_tree(cli.main, os.path.join(out, "ingest"), OVERRIDES)
    failed += report(out, "ingest", log, n_failed, n_runs)
    return 1 if failed else 0


def report(out: str, name: str, log: str, failed: int, runs: int) -> int:
    """Write a tree's log to ``OUT/<name>.log`` and print its tally."""
    with open(os.path.join(out, f"{name}.log"), "w") as fh:
        fh.write(log)
    print(f"{name}: {runs - failed} of {runs} commands exited 0")
    return failed


if __name__ == "__main__":
    sys.exit(main())
