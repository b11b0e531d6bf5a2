"""Command-line entry point.

Subcommands: generate-data, ingest, train, evaluate, ablate, report. All
artifacts land under the output directory and embed the config hash and
seed, so identical (hash, seed) runs produce byte-identical files.

Exit codes: 0 success, 2 config error, 3 missing prerequisite, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

import numpy as np

from . import market_data as md
from .bidding_env import StrategicBiddingEnv
from .config import RunConfig, build_config
from .errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    MarsbidError,
    MissingPrerequisiteError,
)
from .evaluation import (
    aggregate_reports,
    compute_report,
    greedy,
    rolling_metrics,
    rolling_opt,
    run_policy_episode,
    sharpe,
    write_reports_csv,
    write_rolling_csv,
)
from .mars_hierarchy import (
    AgentEnsemble,
    BlendPolicy,
    train_meta,
    train_university,
    train_worker,
)
from .policy_net import PolicyNetwork
from .ppo_trainer import write_log

SINGLE_POLICIES = ("safe", "spec", "neutral", "vanilla", "cvar")
POLICY_NAMES = ("mars", "static", "rolling_opt", "best_single") + SINGLE_POLICIES


def _stamp(cfg: RunConfig, seed) -> str:
    return f"config_hash={cfg.config_hash} seed={seed}"


def _outdir(cfg: RunConfig, args) -> str:
    return args.out if args.out else cfg.out_dir


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def load_series(cfg: RunConfig):
    """The repaired series' splits by name, and the load scale: the
    configured one, else the train split's peak load forecast."""
    if cfg.data_source == "synthetic":
        series = md.generate_synthetic(cfg.synthetic)
    else:
        path = cfg.csv_path
        if not path:
            raise ConfigError("data.source=csv requires data.csv_path")
        if not os.path.exists(path):
            raise MissingPrerequisiteError(f"data file not found: {path}")
        series = md.ingest_csv(path)
    if series.has_missing():
        series = md.repair_gaps(series)
    splits = dict(zip(md.SPLIT_NAMES, md.split(series, cfg.split)))
    load_scale = cfg.load_scale
    if load_scale is None:
        load_scale = float(np.max(splits["train"].fields["load_forecast"])) or 1.0
    return splits, load_scale


def make_env(cfg: RunConfig, series, load_scale, episode_len=None) -> StrategicBiddingEnv:
    """The configured env over ``series``: training passes ``cfg.episode_len``;
    by default one episode covers the whole split, evaluation's one pass."""
    return StrategicBiddingEnv(
        series,
        spec=cfg.generator,
        episode_len=episode_len,
        price_scale=cfg.price_scale,
        load_scale=load_scale,
        dispatch_mode=cfg.dispatch_mode,
        include_weather=cfg.include_weather,
    )


def _ckpt_dir(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, "checkpoints", f"seed{seed}")


def _ckpt_path(out_dir: str, seed: int, name: str) -> str:
    return os.path.join(_ckpt_dir(out_dir, seed), f"{name}.ckpt")


def _load_ckpt(out_dir: str, seed: int, name: str, obs_dim: int) -> PolicyNetwork:
    path = _ckpt_path(out_dir, seed, name)
    if not os.path.exists(path):
        raise MissingPrerequisiteError(
            f"checkpoint {path} not found; run `marsbid train` first"
        )
    return PolicyNetwork.load(path, expect_obs_dim=obs_dim)


def _load_ensemble(out_dir: str, seed: int, obs_dim: int, roles) -> AgentEnsemble:
    workers = []
    for role in roles:
        net = _load_ckpt(out_dir, seed, role, obs_dim)
        net.freeze()
        workers.append((role, net))
    return AgentEnsemble(workers=tuple(workers))


def _checkpoint_cb(cfg: RunConfig, out_dir: str, seed: int):
    """Save ``<role>_u<update>`` every ``io.checkpoint_every`` updates."""
    if cfg.checkpoint_every <= 0:
        return None

    def cb(net, update):
        if update % cfg.checkpoint_every == 0:
            net.save(
                _ckpt_path(out_dir, seed, f"{net.role}_u{update}"), config_hash=cfg.config_hash
            )

    return cb


def _check_workers(workers: int, ppo_by_section: dict) -> None:
    """``--workers`` must fit the buffer of every PPO section the command
    trains."""
    for section, ppo in ppo_by_section.items():
        if not 1 <= workers <= ppo.buffer_size:
            raise ConfigError(
                f"--workers must be in [1, {section}.buffer_size={ppo.buffer_size}], "
                f"got {workers}"
            )


# -- subcommands -----------------------------------------------------------


def cmd_generate_data(cfg: RunConfig, args) -> int:
    series = md.generate_synthetic(cfg.synthetic)
    da = series.fields["lmp_da"]
    with np.errstate(over="ignore", invalid="ignore"):  # squares of prices near the float limit
        mean, std = da.mean(), da.std()
    if not np.isfinite([mean, std]).all():
        raise DivergenceError("non-finite lmp_da mean or std in the synthetic market")
    out_dir = _ensure_dir(os.path.join(_outdir(cfg, args), "data"))
    path = os.path.join(out_dir, "synthetic.csv")
    md.write_csv(series, path, header_comment=_stamp(cfg, cfg.synthetic.seed))
    print(f"wrote {path}: {len(series)} hours")
    print(
        f"lmp_da mean {mean:.2f} std {std:.2f} $/MWh; "
        f"volatile fraction {np.mean(series.regimes == 1):.3f}"
    )
    return 0


def cmd_ingest(cfg: RunConfig, args) -> int:
    out_dir = _ensure_dir(os.path.join(_outdir(cfg, args), "data"))
    path = cfg.csv_path or os.path.join(out_dir, "synthetic.csv")
    if not os.path.exists(path):
        raise MissingPrerequisiteError(
            f"no input CSV at {path}; set data.csv_path or run generate-data"
        )
    series = md.ingest_csv(path)
    n_hours = len(series)
    n_missing = sum(int(np.isnan(v).sum()) for v in series.fields.values())
    repaired = md.repair_gaps(series) if n_missing else series
    del series  # frees the unrepaired fields before write_csv and split copy
    n_filled = sum(int(m.sum()) for m in repaired.fill_mask.values())
    out_path = os.path.join(out_dir, "repaired.csv")
    md.write_csv(repaired, out_path, header_comment=_stamp(cfg, "-"))
    splits = zip(md.SPLIT_NAMES, md.split(repaired, cfg.split))
    print(f"ingested {path}: {n_hours} hours, {n_missing} missing values")
    print(f"wrote {out_path}: {n_filled} values filled")
    print("splits: " + ", ".join(f"{name} {len(part)}h" for name, part in splits))
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    out_dir = _outdir(cfg, args)
    seed = args.seed
    _check_workers(
        args.workers,
        {"ppo.meta": cfg.ppo_meta} if args.phase == "meta" else {"ppo.base": cfg.ppo_base},
    )
    splits, load_scale = load_series(cfg)
    env = make_env(cfg, splits["train"], load_scale, cfg.episode_len)
    _ensure_dir(_ckpt_dir(out_dir, seed))
    logs_dir = _ensure_dir(os.path.join(out_dir, "logs"))
    checkpoint_cb = _checkpoint_cb(cfg, out_dir, seed)

    if args.phase == "university":
        ensemble, logs = train_university(
            env,
            cfg.ppo_base,
            cfg.shaping,
            roles=cfg.roles,
            seed=seed,
            workers=args.workers,
            checkpoint_cb=checkpoint_cb,
        )
        # (checkpoint name, net, log, log name), saved in this order
        trained = [(role, net, logs[role], f"university_{role}") for role, net in ensemble.workers]
        done = f"university phase done: {len(ensemble.workers)} workers"
    elif args.phase == "meta":
        ensemble = _load_ensemble(out_dir, seed, env.obs_dim, cfg.roles)
        meta, log = train_meta(
            env,
            ensemble,
            cfg.ppo_meta,
            cfg.shaping,
            seed=seed,
            workers=args.workers,
            checkpoint_cb=checkpoint_cb,
        )
        trained = [("meta", meta, log, "meta")]
        done = "meta phase done"
    else:  # vanilla or cvar
        net, log = train_worker(
            env,
            cfg.ppo_base,
            cfg.shaping,
            np.random.SeedSequence(seed),
            args.phase,
            workers=args.workers,
            checkpoint_cb=checkpoint_cb,
        )
        trained = [(args.phase, net, log, args.phase)]
        done = f"{args.phase} training done"
    for name, net, log, log_name in trained:
        net.save(_ckpt_path(out_dir, seed, name), config_hash=cfg.config_hash)
        write_log(os.path.join(logs_dir, f"{log_name}_seed{seed}.csv"), log, _stamp(cfg, seed))
    print(f"{done} -> {out_dir}")
    return 0


def _eval_policy(cfg, out_dir, policy, splits, load_scale, seed, obs_dim, roles):
    """The policy object that ``evaluate --policy <policy>`` runs; mars and
    static blend the workers ``roles``."""
    if policy in ("mars", "static"):
        ensemble = _load_ensemble(out_dir, seed, obs_dim, roles)
        if policy == "mars":
            meta = _load_ckpt(out_dir, seed, "meta", obs_dim)
            if meta.action_dim != ensemble.k:
                path = _ckpt_path(out_dir, seed, "meta")
                raise CheckpointError(f"{path}: action_dim {meta.action_dim} != {ensemble.k} roles")
            return BlendPolicy(ensemble, meta)
        return BlendPolicy(ensemble, np.full(ensemble.k, 1.0 / ensemble.k))
    if policy == "rolling_opt":
        return rolling_opt
    if policy == "best_single":
        policy = _pick_best_single(cfg, out_dir, splits, load_scale, seed)
    return greedy(_load_ckpt(out_dir, seed, policy, obs_dim))


def select_best_single(sharpes: dict) -> str:
    """The name of the highest Sharpe, None the lowest; ties go to the first name."""
    return min(sorted(sharpes), key=lambda n: np.inf if sharpes[n] is None else -sharpes[n])


def _pick_best_single(cfg, out_dir, splits, load_scale, seed) -> str:
    """Train-split Sharpe selection among available single-policy checkpoints."""
    names = [n for n in SINGLE_POLICIES if os.path.exists(_ckpt_path(out_dir, seed, n))]
    if not names:
        raise MissingPrerequisiteError(
            f"best_single: no single-policy checkpoints for seed {seed}"
        )
    env = make_env(cfg, splits["train"], load_scale)
    sharpes = {}
    for name in names:
        policy = greedy(_load_ckpt(out_dir, seed, name, env.obs_dim))
        sharpes[name] = sharpe(run_policy_episode(env, policy).profit)
    return select_best_single(sharpes)


def _evaluate(cfg: RunConfig, env, policy, seed: int, prefix: str):
    """Run ``policy`` over ``env``'s contiguous pass and write
    ``<prefix>.metrics.json``, ``<prefix>.ledger.csv`` and, over a pass of at
    least ``eval.rolling_window`` hours, ``<prefix>.rolling.csv``; returns
    the report."""
    ledger = run_policy_episode(env, policy, shaping=cfg.shaping)
    report = compute_report(ledger, config_hash=cfg.config_hash, seed=seed)
    report.to_json(f"{prefix}.metrics.json")
    stamp = _stamp(cfg, seed)
    ledger.to_csv(f"{prefix}.ledger.csv", header_comment=stamp)
    if len(ledger) >= cfg.eval_rolling_window:
        means, sharpes = rolling_metrics(ledger.profit, window=cfg.eval_rolling_window)
        write_rolling_csv(f"{prefix}.rolling.csv", means, sharpes, header_comment=stamp)
    return report


def _fmt4(value) -> str:
    """A printed metric: 4 decimals, or NA when undefined."""
    return "NA" if value is None else f"{value:.4f}"


def cmd_evaluate(cfg: RunConfig, args) -> int:
    out_dir = _outdir(cfg, args)
    policy = args.policy
    split_name = args.split or cfg.eval_split
    if policy not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    seeds = (args.seed,) if args.seed is not None else cfg.eval_seeds

    splits, load_scale = load_series(cfg)
    eval_dir = _ensure_dir(os.path.join(out_dir, "eval", policy, split_name))
    env = make_env(cfg, splits[split_name], load_scale)
    reports = []
    for seed in seeds:
        built = _eval_policy(cfg, out_dir, policy, splits, load_scale, seed, env.obs_dim, cfg.roles)
        report = _evaluate(cfg, env, built, seed, os.path.join(eval_dir, f"seed{seed}"))
        reports.append(report)
        print(
            f"{policy}/{split_name} seed {seed}: cumulative "
            f"{report.cumulative_return:.0f} $, sharpe {_fmt4(report.sharpe)}"
        )

    write_reports_csv(
        os.path.join(eval_dir, "per_seed.csv"),
        {f"seed{r.seed}": r for r in reports},
        header_comment=_stamp(cfg, ",".join(str(s) for s in seeds)),
    )
    agg = aggregate_reports(reports)
    with open(os.path.join(eval_dir, "aggregate.json"), "w") as fh:
        json.dump(
            {"config_hash": cfg.config_hash, "seeds": list(seeds), "metrics": agg},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return 0


# Each ablation configuration and the ``evaluate --policy`` it equals on
# the same seed; mars_k3_neutral has none, as its meta controller is never
# saved. The ablation's ensembles blend these workers whatever
# ensemble.roles says.
ABLATION_CONFIGS = {
    "mars_k2": "mars",
    "mars_k3_neutral": None,
    "static_5050": "static",
    "vanilla": "vanilla",
    "cvar": "cvar",
    "rolling_opt": "rolling_opt",
    "best_single": "best_single",
}
ABLATION_ROLES = ("safe", "spec")

# ablation.csv's aggregate columns, each named <metric>_<statistic>
ABLATION_COLUMNS = (
    ("sharpe", "mean"),
    ("sharpe", "std"),
    ("max_drawdown_abs", "mean"),
    ("max_drawdown_rel", "mean"),
)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Set only in a forked child, by the pool's initializer. A forked child
# inherits the initializer's arguments instead of unpickling them, which
# matters: unpickled MarketSeries arrays would lose their read-only flag.
_seed_job = None


def _set_seed_job(job) -> None:
    global _seed_job
    _seed_job = job


def _run_seed_job(seed: int):
    return _seed_job(seed)


def _map_seeds(job, seeds):
    """Yield ``job(seed)`` for each seed, in seed order.

    With more than one seed and CPU, the seeds run in a pool of up to one
    forked process per CPU; only the seed goes to a child and only the
    result comes back. An error a job raises reaches the caller unchanged.
    Otherwise, or without the ``fork`` start method, the jobs run here.
    """
    # imported here: the pool machinery costs about 1 MB of RSS that no
    # other command needs
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    processes = min(len(seeds), _usable_cpus())
    if processes < 2 or "fork" not in mp.get_all_start_methods():
        yield from map(job, seeds)
        return
    with ProcessPoolExecutor(
        processes,
        mp_context=mp.get_context("fork"),
        initializer=_set_seed_job,
        initargs=(job,),
    ) as pool:
        yield from pool.map(_run_seed_job, seeds)


def _ablate_seed(cfg: RunConfig, out_dir, splits, load_scale, workers, seed):
    """Train the ablation's seven networks on one seed, save their
    checkpoints, and evaluate the seven configurations, each with
    :func:`_evaluate` at ``ablation/<configuration>_seed<seed>``; returns
    ``(reports by configuration, the lines to print)``."""
    train_env = make_env(cfg, splits["train"], load_scale, cfg.episode_len)
    _ensure_dir(_ckpt_dir(out_dir, seed))
    # one call, so the neutral worker gets its own init and rollout
    # seeds; spawn(3)[:2] == spawn(2) keeps safe and spec unchanged
    ens_k3, _ = train_university(
        train_env, cfg.ppo_base, cfg.shaping, roles=(*ABLATION_ROLES, "neutral"),
        seed=seed, workers=workers,
    )
    ens2 = AgentEnsemble(workers=ens_k3.workers[:2])

    # both meta controllers take this seed (common random numbers for
    # the K=2 vs K=3 comparison): the same body weights at init and the
    # same episode starts
    meta2, _ = train_meta(train_env, ens2, cfg.ppo_meta, cfg.shaping, seed=seed, workers=workers)
    meta3, _ = train_meta(train_env, ens_k3, cfg.ppo_meta, cfg.shaping, seed=seed, workers=workers)
    seed_seq = np.random.SeedSequence(seed)
    singles = [
        (role, train_worker(train_env, cfg.ppo_base, cfg.shaping, seed_seq, role, workers)[0])
        for role in ("vanilla", "cvar")
    ]
    for name, net in (*ens_k3.workers, ("meta", meta2), *singles):
        net.save(_ckpt_path(out_dir, seed, name), config_hash=cfg.config_hash)

    # one env, its episode at the same contiguous start for every
    # configuration: the paired design
    env = make_env(cfg, splits[cfg.eval_split], load_scale)
    reports, lines = {}, []
    for name, policy in ABLATION_CONFIGS.items():
        if policy is None:
            built = BlendPolicy(ens_k3, meta3)
        else:  # built from the checkpoints just saved
            built = _eval_policy(
                cfg, out_dir, policy, splits, load_scale, seed, env.obs_dim, ABLATION_ROLES
            )
        prefix = os.path.join(out_dir, "ablation", f"{name}_seed{seed}")
        reports[name] = report = _evaluate(cfg, env, built, seed, prefix)
        lines.append(
            f"ablate seed {seed} {name}: sharpe {_fmt4(report.sharpe)}, "
            f"mdd {report.max_drawdown_abs:.0f} $"
        )
    return reports, lines


def cmd_ablate(cfg: RunConfig, args) -> int:
    """Train and evaluate the ablation matrix on shared seeds.

    The seeds share nothing, so they run in parallel processes
    (:func:`_map_seeds`); every artifact and line of output is the same
    whatever the number of processes.
    """
    _check_workers(args.workers, {"ppo.base": cfg.ppo_base, "ppo.meta": cfg.ppo_meta})
    out_dir = _outdir(cfg, args)
    splits, load_scale = load_series(cfg)
    _ensure_dir(os.path.join(out_dir, "ablation"))

    job = functools.partial(_ablate_seed, cfg, out_dir, splits, load_scale, args.workers)
    per_config: dict[str, list] = {name: [] for name in ABLATION_CONFIGS}
    for reports, lines in _map_seeds(job, cfg.eval_seeds):
        for line in lines:
            print(line)
        for name, report in reports.items():
            per_config[name].append(report)

    table_path = os.path.join(out_dir, "ablation.csv")
    aggs = [aggregate_reports(reports) for reports in per_config.values()]
    # a float array holds a None statistic as NaN, written NA
    columns = [np.array(list(per_config), dtype=str)]
    columns += [np.array([a[m][stat] for a in aggs], float) for m, stat in ABLATION_COLUMNS]
    columns.append(np.array([len(reports) for reports in per_config.values()]))
    header = ("configuration", *(f"{m}_{stat}" for m, stat in ABLATION_COLUMNS), "n_seeds")
    stamp = _stamp(cfg, ",".join(str(s) for s in cfg.eval_seeds))
    md.write_table(table_path, stamp, header, columns, missing="NA")
    print(f"wrote {table_path}")
    return 0


# report.csv's metric columns: (column, metric), each the metric's mean
# over seeds
REPORT_COLUMNS = (
    ("sharpe", "sharpe"),
    ("sortino", "sortino"),
    ("mdd_abs", "max_drawdown_abs"),
    ("entropy", "allocation_entropy"),
    ("alignment", "regime_alignment"),
)


def cmd_report(cfg: RunConfig, args) -> int:
    """Aggregate all per-seed metric JSONs under the output directory."""
    out_dir = _outdir(cfg, args)
    eval_root = os.path.join(out_dir, "eval")
    if not os.path.isdir(eval_root):
        raise MissingPrerequisiteError(f"no evaluation outputs under {eval_root}")
    rows = []
    for policy in sorted(next(os.walk(eval_root))[1]):  # directories only
        for split_name in sorted(os.listdir(os.path.join(eval_root, policy))):
            agg_path = os.path.join(eval_root, policy, split_name, "aggregate.json")
            if not os.path.exists(agg_path):
                continue
            try:
                with open(agg_path) as fh:
                    m = json.load(fh)["metrics"]
                means = [_fmt4(m[metric]["mean"]) for _, metric in REPORT_COLUMNS]
            except (OSError, ValueError, LookupError, TypeError) as exc:
                raise MarsbidError(f"{agg_path}: not an evaluation aggregate: {exc!r}") from exc
            rows.append((policy, split_name, *means))
    header = ("policy", "split", *(column for column, _ in REPORT_COLUMNS))
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))

    columns = np.array(rows, dtype=str).reshape(-1, len(header)).T  # one per header cell
    md.write_table(
        os.path.join(out_dir, "report.csv"), f"config_hash={cfg.config_hash}", header, columns
    )
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marsbid",
        description="Two-settlement electricity market bidding with hierarchical RL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory (overrides io.out_dir)")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="config override, repeatable",
        )
        p.add_argument("--workers", type=int, default=1, help="rollout envs (train, ablate)")

    p = sub.add_parser("generate-data", help="write the synthetic market CSV")
    common(p)

    p = sub.add_parser("ingest", help="ingest, repair and summarize a market CSV")
    common(p)

    p = sub.add_parser("train", help="run a training phase")
    common(p)
    p.add_argument(
        "--phase",
        required=True,
        choices=("university", "meta", "vanilla", "cvar"),
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="evaluate a policy on a split")
    common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--split", default=None, choices=md.SPLIT_NAMES)
    p.add_argument("--seed", type=int, default=None, help="single seed (default: eval.seeds)")

    p = sub.add_parser("ablate", help="train/evaluate the ablation matrix")
    common(p)

    p = sub.add_parser("report", help="aggregate evaluation outputs into one table")
    common(p)
    return parser


COMMANDS = {
    "generate-data": cmd_generate_data,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers != 1 and args.command not in ("train", "ablate"):
            raise ConfigError(f"--workers applies to train and ablate only, got {args.workers}")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = build_config(args.config, overrides=args.overrides)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingPrerequisiteError as exc:
        print(f"missing prerequisite: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except MarsbidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
