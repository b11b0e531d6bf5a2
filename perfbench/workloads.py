"""The benchmark workloads.

Each workload drives marsbid only through ``marsbid.cli.main(argv)``, in
this process. An operation is one CLI command; it fails on a non-zero exit
code or on a failed output check. Inputs come only from the workload seed:
it sets the synthetic market's seed, the training seeds and the cells
removed from the ingested CSV.
"""

from __future__ import annotations

import contextlib
import csv
import io
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    check_ledger,
    check_repaired,
    compare_digests,
    csv_rows,
    digest_tree,
    file_digest,
    read_csv,
)


@dataclass
class Op:
    kind: str
    ok: bool
    seconds: float
    work: int = 0  # hours settled or rows handled, where the kind has one
    traced_seconds: float | None = None


@dataclass
class Round:
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def traced_seconds(self) -> float:
        return sum(op.traced_seconds for op in self.ops)


class Runner:
    """Calls the CLI in-process and keeps the operation tally.

    With a tracer, every operation runs twice back to back, traced and
    untraced, so the tracing overhead is measured on calls made seconds
    apart rather than across a host's slow and fast phases. The order
    alternates from one operation to the next, because a repeat of a call
    runs a little faster than the call before it.
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.pairs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        # How far the output checks pushed the process's peak RSS above
        # the peak the program had reached: 0 when peak_rss_mb is the
        # program's own.
        self.check_rss_rise_kb = 0

    def call(self, argv: list) -> tuple:
        """(exit code, seconds, captured output). ``cli.main`` is looked up
        on every call so that an installed tracer sees it."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects unknown arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - t0
        return rc, seconds, buf.getvalue()

    def _attempt(self, kind: str, argv: list, check) -> tuple:
        rc, seconds, output = self.call(argv)
        self.attempted += 1
        problems = [f"exit code {rc}: {output.strip()[-500:]}"] if rc != 0 else []
        if not problems and check is not None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                problems = check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output check could not read the artifacts: {exc!r}"]
            rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak
            self.check_rss_rise_kb += rise
        if problems:
            self.failed += 1
            self.failures.append({"op": kind, "problems": problems[:5]})
        return not problems, seconds

    def op(self, kind: str, argv: list, check=None, work: int = 0) -> Op:
        """Run one operation; ``check()`` returns a list of problems and is
        only consulted after a zero exit code."""
        if self.tracer is None:
            return Op(kind, *self._attempt(kind, argv, check), work)
        # Alternate per kind of operation, and start the kinds on
        # alternating sides, so that one round is balanced too.
        self.pairs[kind] = self.pairs[kind] + 1 if kind in self.pairs else len(self.pairs)
        traced_first = self.pairs[kind] % 2 == 1
        if not traced_first:
            ok, seconds = self._attempt(kind, argv, check)
        self.tracer.install()
        try:
            traced_ok, traced_seconds = self._attempt(f"{kind} (traced)", argv, check)
        finally:
            self.tracer.uninstall()
        if traced_first:
            ok, seconds = self._attempt(kind, argv, check)
        return Op(kind, ok and traced_ok, seconds, work, traced_seconds)


def _sets(overrides: dict) -> list:
    argv = []
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _splits(train, test1, test2, end) -> dict:
    keys = ("train_start", "train_end", "test1_start", "test1_end", "test2_start", "test2_end")
    bounds = (train, test1, test1, test2, test2, end)
    return {f"split.{k}": f"{v}T00:00:00Z" for k, v in zip(keys, bounds)}


def _budget(section: str, total_steps: int, buffer_size: int) -> dict:
    return {f"{section}.total_steps": total_steps, f"{section}.buffer_size": buffer_size}


class SetupError(RuntimeError):
    pass


class Workload:
    name = ""
    why = ""
    # Untraced runs repeat the set-up this many times after every round
    # but the last, so that setup_s, the median, samples the whole run.
    setups_per_round = 1

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = Path(work)
        self.tiny = tiny
        self._reference: dict = {}

    def overrides(self) -> dict:
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def setup(self, runner: Runner, dest: Path) -> None:
        """The timed set-up: CLI commands only. The rounds use the first
        set-up's products; repeats must reproduce them byte for byte."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed harness work on the first set-up's products."""

    def run_round(self, runner: Runner, k: int) -> Round:
        raise NotImplementedError

    def rates(self, rounds: list) -> dict:
        """Outside-in rates under the names the workload reports them by,
        over the untraced calls: name -> (value, unit)."""
        raise NotImplementedError

    def _same_as_first(self, key: str, digests: dict) -> list:
        """Byte-identity of a repeat against the first run of the same
        command in this invocation."""
        reference = self._reference.setdefault(key, digests)
        return [] if reference is digests else compare_digests(reference, digests)


class AblateSmall(Workload):
    name = "ablate_small"
    why = (
        "the paper's full ablate pipeline on two seeds: PPO training (autodiff, Adam, GAE, "
        "CVaR shaping), best-single selection, seven evaluation passes, checkpoints"
    )
    WORKERS = 2
    setups_per_round = 3

    def overrides(self) -> dict:
        if self.tiny:
            sets = {"synthetic.n_hours": 672}
            sets.update(_splits("2021-01-01", "2021-01-15", "2021-01-22", "2021-01-29"))
            steps, buffer = 64, 64
        else:
            sets = {"synthetic.n_hours": 2160}
            sets.update(_splits("2021-01-01", "2021-02-01", "2021-03-01", "2021-04-01"))
            steps, buffer = 768, 256
        sets.update(_budget("ppo.base", steps, buffer))
        sets.update(_budget("ppo.meta", steps, buffer))
        sets["synthetic.seed"] = self.seed
        sets["eval.seeds"] = f"{self.seed},{self.seed + 1}"
        return sets

    def properties(self) -> dict:
        o = self.overrides()
        return {
            "series_hours": o["synthetic.n_hours"],
            "train_split": [o["split.train_start"], o["split.train_end"]],
            "test1_split": [o["split.test1_start"], o["split.test1_end"]],
            "ablate_seeds": o["eval.seeds"],
            "workers": self.WORKERS,
            "ppo_budget": {
                "total_steps": o["ppo.base.total_steps"],
                "buffer_size": o["ppo.base.buffer_size"],
                "other_ppo_settings": "program defaults",
                "trainings_per_seed": "3 university (safe, spec, neutral), 2 meta, vanilla, cvar",
            },
            "dispatch_mode": "always_on",
        }

    def setup(self, runner: Runner, dest: Path) -> None:
        # One of the ablate's trainings on its own: the config, series,
        # env, PPO and checkpoint paths are warm before the first timed
        # ablate.
        argv = ["train", "--phase", "vanilla", "--seed", str(self.seed), "--out", str(dest)]

        def check():
            return self._same_as_first("setup", digest_tree(dest))

        if not runner.op("setup train", argv + _sets(self.overrides()), check).ok:
            raise SetupError("warm-up training failed")

    def run_round(self, runner: Runner, k: int) -> Round:
        out = self.work / f"round{k}"
        argv = ["ablate", "--out", str(out), "--workers", str(self.WORKERS)]
        n_seeds = len(self.overrides()["eval.seeds"].split(","))

        def check():
            header, rows = read_csv(out / "ablation.csv")
            if len(rows) != 7 or any(r[-1] != str(n_seeds) for r in rows):
                return [f"ablation.csv: expected 7 configurations over {n_seeds} seeds"]
            return self._same_as_first("ablate", digest_tree(out))

        op = runner.op("ablate", argv + _sets(self.overrides()), check)
        shutil.rmtree(out, ignore_errors=True)
        return Round([op])

    def rates(self, rounds: list) -> dict:
        # The workload's rate, ablate_s, is round_s itself.
        return {}


class EvaluateLong(Workload):
    name = "evaluate_long"
    why = (
        "mars, static, vanilla and rolling_opt evaluated over a one-year test split in "
        "always_on and economic dispatch: env steps and forwards, no gradients"
    )
    POLICIES = ("mars", "static", "vanilla", "rolling_opt")
    MODES = ("always_on", "economic")
    setups_per_round = 5

    def overrides(self) -> dict:
        if self.tiny:
            sets = {"synthetic.n_hours": 1416}
            sets.update(_splits("2021-01-01", "2021-01-15", "2021-02-15", "2021-03-01"))
        else:
            sets = {"synthetic.n_hours": 18264}
            sets.update(_splits("2021-01-01", "2022-01-01", "2023-01-01", "2023-02-01"))
        # Checkpoints only need to exist: one PPO update per phase.
        sets.update(_budget("ppo.base", 256, 256))
        sets.update(_budget("ppo.meta", 256, 256))
        sets["synthetic.seed"] = self.seed
        return sets

    def _test1_hours(self) -> int:
        o = self.overrides()
        start = np.datetime64(o["split.test1_start"][:-1])
        end = np.datetime64(o["split.test1_end"][:-1])
        return int((end - start) / np.timedelta64(1, "h"))

    def properties(self) -> dict:
        o = self.overrides()
        return {
            "series_hours": o["synthetic.n_hours"],
            "test1_split": [o["split.test1_start"], o["split.test1_end"]],
            "hours_per_pass": self._test1_hours() - 24,
            "policies": list(self.POLICIES),
            "dispatch_modes": list(self.MODES),
            "seed": self.seed,
            "checkpoint_budget": "one PPO update (256 steps) per phase",
            "economic_rows_with_startup_or_fine": getattr(self, "_economic_rows", None),
        }

    def setup(self, runner: Runner, dest: Path) -> None:
        sets = _sets(self.overrides())
        trained = dest / self.MODES[0]
        for phase in ("university", "meta", "vanilla"):
            argv = ["train", "--phase", phase, "--seed", str(self.seed), "--out", str(trained)]

            def check(phase=phase):
                return self._same_as_first(f"setup {phase}", digest_tree(trained))

            if not runner.op(f"setup train {phase}", argv + sets, check).ok:
                raise SetupError(f"training {phase} checkpoints failed")
        if not hasattr(self, "_inputs"):
            self._inputs = dest

    def prepare(self) -> None:
        trained = self._inputs / self.MODES[0] / "checkpoints"
        for mode in self.MODES[1:]:
            shutil.copytree(trained, self._inputs / mode / "checkpoints")

    def run_round(self, runner: Runner, k: int) -> Round:
        rnd = Round()
        hours = self._test1_hours() - 24
        for mode in self.MODES:
            out = self._inputs / mode
            for policy in self.POLICIES:
                eval_dir = out / "eval" / policy / "test1"
                argv = ["evaluate", "--policy", policy, "--split", "test1"]
                argv += ["--seed", str(self.seed), "--out", str(out)]
                sets = self.overrides()
                sets["env.dispatch_mode"] = mode
                key = f"{policy}/{mode}"
                first = key not in self._reference

                def check(eval_dir=eval_dir, key=key, first=first, mode=mode):
                    problems = []
                    if first:
                        ledger = eval_dir / f"seed{self.seed}.ledger.csv"
                        problems, busy = check_ledger(ledger, expected_rows=hours)
                        if mode == "economic" and not problems:
                            self._economic_rows = busy
                    return problems + self._same_as_first(key, digest_tree(eval_dir))

                rnd.ops.append(runner.op(f"evaluate {key}", argv + _sets(sets), check, hours))
        return rnd

    def rates(self, rounds: list) -> dict:
        ops = [op for r in rounds for op in r.ops]
        hours = sum(op.work for op in ops)
        return {"eval_hours_per_s": (hours / sum(op.seconds for op in ops), "h/s")}


MISSING_SHARE = 0.025
SHORT_GAP_HOURS = (1, 3)  # interpolated by repair_gaps
LONG_GAP_HOURS = (4, 24)  # filled with hour-of-week means


def _gap_starts(rng, n: int, lengths: np.ndarray) -> np.ndarray:
    """Random non-overlapping gap positions with at least one observed cell
    before, between and after the gaps, so each gap keeps its length class
    and none touches a series boundary."""
    k = len(lengths)
    slack = n - 2 - int(lengths.sum()) - (k - 1)
    if slack < 0:
        raise ValueError("series too short for the requested gaps")
    cuts = np.sort(rng.choice(slack + k, size=k, replace=False)) - np.arange(k)
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1] + 1)))
    return 1 + cuts + offsets


def punch_holes(src: Path, dst: Path, rng, share: float = MISSING_SHARE) -> tuple:
    """Copy the CSV at ``src`` to ``dst``, row by row, with about ``share``
    of every field's cells removed, half of them in short gaps and half in
    long ones. Returns (removed row indices per column, gap statistics)."""
    with open(src, newline="") as fh:
        rows = csv_rows(fh)
        header = next(rows)
        n = sum(1 for _ in rows)
    removed = {}
    empty = np.zeros((n, len(header)), dtype=bool)
    stats = {"short_cells": 0, "long_cells": 0, "short_gaps": 0, "long_gaps": 0}
    for j, name in enumerate(header[1:], start=1):
        target = int(round(share * n))
        lengths = []
        for kind, (lo, hi), goal in (
            ("short", SHORT_GAP_HOURS, target // 2),
            ("long", LONG_GAP_HOURS, target - target // 2),
        ):
            cells = 0
            while cells < goal:
                length = int(rng.integers(lo, hi + 1))
                lengths.append(length)
                cells += length
                stats[f"{kind}_gaps"] += 1
            stats[f"{kind}_cells"] += cells
        lengths = rng.permutation(np.array(lengths, dtype=np.int64))
        starts = _gap_starts(rng, n, lengths)
        idx = np.concatenate([np.arange(s, s + g) for s, g in zip(starts, lengths)])
        empty[idx, j] = True
        removed[name] = np.sort(idx)
    with open(src, newline="") as fh, open(dst, "w", newline="") as out:
        rows = csv_rows(fh)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(next(rows))
        for row, blank in zip(rows, empty):
            if blank.any():
                for j in np.flatnonzero(blank):
                    row[j] = ""
            writer.writerow(row)
    stats["fields"] = len(header) - 1
    stats["missing_cells"] = stats["short_cells"] + stats["long_cells"]
    stats["missing_share"] = stats["missing_cells"] / (n * stats["fields"])
    return removed, stats


class MarketIo(Workload):
    name = "market_io"
    why = (
        "generate-data then ingest of a five-year CSV with 2.5% missing cells: "
        "market_data parsing, gap repair and CSV formatting"
    )

    def overrides(self) -> dict:
        if self.tiny:
            sets = {"synthetic.n_hours": 2160}
            sets.update(_splits("2021-01-01", "2021-02-01", "2021-03-01", "2021-04-01"))
        else:
            # The default splits (2021-2023) lie inside the five years.
            sets = {"synthetic.n_hours": 43824}
        sets["synthetic.seed"] = self.seed
        return sets

    def properties(self) -> dict:
        return {
            "rows": self.overrides()["synthetic.n_hours"],
            "missing_share_target": MISSING_SHARE,
            "short_gap_hours": list(SHORT_GAP_HOURS),
            "long_gap_hours": list(LONG_GAP_HOURS),
            "gaps": getattr(self, "_gap_stats", None),
            "seed": self.seed,
        }

    def setup(self, runner: Runner, dest: Path) -> None:
        argv = ["generate-data", "--out", str(dest)] + _sets(self.overrides())
        generated = dest / "data" / "synthetic.csv"

        def check():
            return self._same_as_first("generated", digest_tree(generated.parent))

        if not runner.op("setup generate-data", argv, check).ok:
            raise SetupError("generating the market CSV failed")
        if not hasattr(self, "_generated"):
            self._generated = generated

    def prepare(self) -> None:
        self._holes = self._generated.parent.parent / "holes.csv"
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])
        self._removed, self._gap_stats = punch_holes(self._generated, self._holes, rng)

    def run_round(self, runner: Runner, k: int) -> Round:
        out = self.work / f"round{k}"
        data = out / "data"
        rows = self.overrides()["synthetic.n_hours"]
        sets = self.overrides()

        def check_generated():
            return self._same_as_first("generated", digest_tree(data))

        argv = ["generate-data", "--out", str(out)] + _sets(sets)
        generate = runner.op("generate-data", argv, check_generated, rows)
        sets["data.csv_path"] = str(self._holes)
        first = "repaired" not in self._reference

        def check_repair():
            repaired = data / "repaired.csv"
            problems = check_repaired(self._holes, repaired, self._removed) if first else []
            digest = {"repaired.csv": file_digest(repaired)}
            return problems + self._same_as_first("repaired", digest)

        ingest = runner.op("ingest", ["ingest", "--out", str(out)] + _sets(sets), check_repair, rows)
        shutil.rmtree(out, ignore_errors=True)
        return Round([generate, ingest])

    def rates(self, rounds: list) -> dict:
        out = {}
        for kind, name in (("generate-data", "generate_rows_per_s"), ("ingest", "ingest_rows_per_s")):
            ops = [op for r in rounds for op in r.ops if op.kind == kind]
            out[name] = (sum(op.work for op in ops) / sum(op.seconds for op in ops), "rows/s")
        return out


WORKLOADS = {w.name: w for w in (AblateSmall, EvaluateLong, MarketIo)}
