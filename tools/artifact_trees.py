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
``env.include_weather=true``). One more, ``ablate_3seeds``, runs
``ablate --workers 2`` alone with ``eval.seeds=0,1,2``, so its seeds run in
a process pool where the machine has two CPUs.

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
    "economic": {"env.dispatch_mode": "economic"},
    "economic_weather": {"env.dispatch_mode": "economic", "env.include_weather": "true"},
}


def pipeline() -> list:
    """The argument lists of one tree, in order."""
    runs = [["generate-data"]]
    runs += [["train", "--phase", p, "--seed", SEED, "--workers", "2"] for p in PHASES]
    runs += [["evaluate", "--policy", p, "--split", "test1", "--seed", SEED] for p in POLICIES]
    runs += [["report"], ["ablate", "--workers", "2"]]
    return runs


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
    os.makedirs(out)
    failed = 0
    for name, (runs, overrides) in trees.items():
        log, n_failed = run_tree(cli.main, os.path.join(out, name), runs, overrides)
        with open(os.path.join(out, f"{name}.log"), "w") as fh:
            fh.write(log)
        print(f"{name}: {len(runs) - n_failed} of {len(runs)} commands exited 0")
        failed += n_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
