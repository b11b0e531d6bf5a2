"""Command-line entry point.

Subcommands: generate-data, ingest, train, evaluate, ablate, report. All
artifacts land under the output directory and embed the config hash and
seed, so identical (hash, seed) runs produce byte-identical files.

Exit codes: 0 success, 2 config error, 3 missing prerequisite, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback

import numpy as np

from . import market_data as md
from .baselines import RollingOptPolicy, select_best_single, train_cvar, train_vanilla
from .bidding_env import OBS_HISTORY_HOURS, StrategicBiddingEnv
from .config import RunConfig, build_config
from .errors import ConfigError, DivergenceError, MarsbidError, MissingPrerequisiteError
from .evaluation import (
    aggregate_reports,
    compute_report,
    greedy,
    rolling_metrics,
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
)
from .policy_net import PolicyNetwork

SINGLE_POLICIES = ("safe", "spec", "neutral", "vanilla", "cvar")
POLICY_NAMES = ("mars", "static", "rolling_opt", "best_single") + SINGLE_POLICIES


def _stamp(cfg: RunConfig, seed) -> str:
    return f"config_hash={cfg.config_hash} seed={seed}"


def _outdir(cfg: RunConfig, args) -> str:
    return args.out if args.out else cfg.out_dir


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def load_series(cfg: RunConfig, out_dir: str):
    """Materialize the repaired series and its (train, test1, test2) splits."""
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
    return series, md.split(series, cfg.split)


def resolve_load_scale(cfg: RunConfig, train_series) -> float:
    if cfg.load_scale is not None:
        return cfg.load_scale
    return float(np.max(train_series.fields["load_forecast"])) or 1.0


def make_env_factory(cfg: RunConfig, series, episode_len, load_scale):
    def factory():
        return StrategicBiddingEnv(
            series,
            spec=cfg.generator,
            episode_len=episode_len,
            price_scale=cfg.price_scale,
            load_scale=load_scale,
            dispatch_mode=cfg.dispatch_mode,
            include_weather=cfg.include_weather,
        )

    return factory


def eval_env(cfg: RunConfig, series, load_scale) -> StrategicBiddingEnv:
    """One contiguous pass over the given split."""
    return make_env_factory(cfg, series, len(series) - OBS_HISTORY_HOURS, load_scale)()


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


def _load_ensemble(cfg: RunConfig, out_dir: str, seed: int, obs_dim: int) -> AgentEnsemble:
    workers = []
    for role in cfg.roles:
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
    out_dir = _ensure_dir(os.path.join(_outdir(cfg, args), "data"))
    series = md.generate_synthetic(cfg.synthetic)
    path = os.path.join(out_dir, "synthetic.csv")
    md.write_csv(series, path, header_comment=_stamp(cfg, cfg.synthetic.seed))
    da = series.fields["lmp_da"]
    volatile = series.regimes == 1
    print(f"wrote {path}: {len(series)} hours")
    print(
        f"lmp_da mean {da.mean():.2f} std {da.std():.2f} $/MWh; "
        f"volatile fraction {volatile.mean():.3f}"
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
    n_missing = sum(int(np.isnan(v).sum()) for v in series.fields.values())
    repaired = md.repair_gaps(series) if series.has_missing() else series
    n_filled = sum(int(m.sum()) for m in repaired.fill_mask.values())
    out_path = os.path.join(out_dir, "repaired.csv")
    md.write_csv(repaired, out_path, header_comment=_stamp(cfg, "-"))
    train, test1, test2 = md.split(repaired, cfg.split)
    print(f"ingested {path}: {len(series)} hours, {n_missing} missing values")
    print(f"wrote {out_path}: {n_filled} values filled")
    print(f"splits: train {len(train)}h, test1 {len(test1)}h, test2 {len(test2)}h")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    out_dir = _outdir(cfg, args)
    seed = args.seed
    _check_workers(
        args.workers,
        {"ppo.meta": cfg.ppo_meta} if args.phase == "meta" else {"ppo.base": cfg.ppo_base},
    )
    series, (train_split, _, _) = load_series(cfg, out_dir)
    load_scale = resolve_load_scale(cfg, train_split)
    factory = make_env_factory(cfg, train_split, cfg.episode_len, load_scale)
    _ensure_dir(_ckpt_dir(out_dir, seed))
    logs_dir = _ensure_dir(os.path.join(out_dir, "logs"))
    checkpoint_cb = _checkpoint_cb(cfg, out_dir, seed)

    if args.phase == "university":
        ensemble, logs = train_university(
            factory,
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
        ensemble = _load_ensemble(cfg, out_dir, seed, factory().obs_dim)
        meta, log = train_meta(
            factory,
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
        trainer = train_vanilla if args.phase == "vanilla" else train_cvar
        net, log = trainer(
            factory,
            cfg.ppo_base,
            cfg.shaping,
            seed=seed,
            workers=args.workers,
            checkpoint_cb=checkpoint_cb,
        )
        trained = [(args.phase, net, log, args.phase)]
        done = f"{args.phase} training done"
    for name, net, log, log_name in trained:
        net.save(_ckpt_path(out_dir, seed, name), config_hash=cfg.config_hash)
        log.to_csv(
            os.path.join(logs_dir, f"{log_name}_seed{seed}.csv"), header_comment=_stamp(cfg, seed)
        )
    print(f"{done} -> {out_dir}")
    return 0


def _eval_policy(cfg, out_dir, policy, series_by_split, load_scale, seed, obs_dim):
    """The policy object that ``evaluate --policy <policy>`` runs."""
    if policy in ("mars", "static"):
        ensemble = _load_ensemble(cfg, out_dir, seed, obs_dim)
        if policy == "mars":
            return BlendPolicy(ensemble, _load_ckpt(out_dir, seed, "meta", obs_dim))
        return BlendPolicy(ensemble, np.full(ensemble.k, 1.0 / ensemble.k))
    if policy == "rolling_opt":
        return RollingOptPolicy()
    if policy == "best_single":
        policy = _pick_best_single(cfg, out_dir, series_by_split, load_scale, seed)
    return greedy(_load_ckpt(out_dir, seed, policy, obs_dim))


def _pick_best_single(cfg, out_dir, series_by_split, load_scale, seed) -> str:
    """Train-split Sharpe selection among available single-policy checkpoints."""
    names = [n for n in SINGLE_POLICIES if os.path.exists(_ckpt_path(out_dir, seed, n))]
    if not names:
        raise MissingPrerequisiteError(
            f"best_single: no single-policy checkpoints for seed {seed}"
        )
    env = eval_env(cfg, series_by_split["train"], load_scale)
    sharpes = {}
    for name in names:
        policy = greedy(_load_ckpt(out_dir, seed, name, env.obs_dim))
        sharpes[name] = sharpe(run_policy_episode(env, policy, start=env.min_start).profits)
    return select_best_single(sharpes)


def cmd_evaluate(cfg: RunConfig, args) -> int:
    out_dir = _outdir(cfg, args)
    policy = args.policy
    split_name = args.split or cfg.eval_split
    if split_name not in ("train", "test1", "test2"):
        raise ConfigError(f"unknown split {split_name!r}")
    if policy not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    seeds = (args.seed,) if args.seed is not None else cfg.eval_seeds

    series, (train_s, test1_s, test2_s) = load_series(cfg, out_dir)
    series_by_split = {"train": train_s, "test1": test1_s, "test2": test2_s}
    load_scale = resolve_load_scale(cfg, train_s)

    eval_dir = _ensure_dir(os.path.join(out_dir, "eval", policy, split_name))
    env = eval_env(cfg, series_by_split[split_name], load_scale)
    reports = []
    for seed in seeds:
        ledger = run_policy_episode(
            env,
            _eval_policy(cfg, out_dir, policy, series_by_split, load_scale, seed, env.obs_dim),
            start=env.min_start,
            shaping=cfg.shaping,
        )
        report = compute_report(ledger, config_hash=cfg.config_hash, seed=seed)
        report.to_json(os.path.join(eval_dir, f"seed{seed}.metrics.json"))
        ledger.to_csv(
            os.path.join(eval_dir, f"seed{seed}.ledger.csv"),
            header_comment=_stamp(cfg, seed),
        )
        if len(ledger) >= cfg.eval_rolling_window:
            means, sharpes_series = rolling_metrics(
                ledger.profits, window=cfg.eval_rolling_window
            )
            write_rolling_csv(
                os.path.join(eval_dir, f"seed{seed}.rolling.csv"),
                means,
                sharpes_series,
                header_comment=_stamp(cfg, seed),
            )
        reports.append(report)
        print(
            f"{policy}/{split_name} seed {seed}: cumulative "
            f"{report.cumulative_return:.0f} $, sharpe "
            f"{'NA' if report.sharpe is None else f'{report.sharpe:.4f}'}"
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


ABLATION_CONFIGS = (
    "mars_k2",
    "mars_k3_neutral",
    "static_5050",
    "vanilla",
    "cvar",
    "rolling_opt",
    "best_single",
)


def cmd_ablate(cfg: RunConfig, args) -> int:
    """Train and evaluate the ablation matrix on shared seeds."""
    _check_workers(args.workers, {"ppo.base": cfg.ppo_base, "ppo.meta": cfg.ppo_meta})
    out_dir = _outdir(cfg, args)
    series, (train_s, test1_s, test2_s) = load_series(cfg, out_dir)
    series_by_split = {"train": train_s, "test1": test1_s, "test2": test2_s}
    load_scale = resolve_load_scale(cfg, train_s)
    factory = make_env_factory(cfg, train_s, cfg.episode_len, load_scale)
    split_name = cfg.eval_split
    workers = args.workers

    per_config: dict[str, list] = {name: [] for name in ABLATION_CONFIGS}
    abl_dir = _ensure_dir(os.path.join(out_dir, "ablation"))

    for seed in cfg.eval_seeds:
        _ensure_dir(_ckpt_dir(out_dir, seed))
        # one call, so the neutral worker gets its own init and rollout
        # seeds; spawn(3)[:2] == spawn(2) keeps safe and spec unchanged
        ens_k3, _ = train_university(
            factory, cfg.ppo_base, cfg.shaping, roles=("safe", "spec", "neutral"),
            seed=seed, workers=workers,
        )
        ens2 = AgentEnsemble(workers=ens_k3.workers[:2])

        # both meta controllers take this seed (common random numbers for
        # the K=2 vs K=3 comparison): the same body weights at init and the
        # same episode starts
        meta2, _ = train_meta(
            factory, ens2, cfg.ppo_meta, cfg.shaping, seed=seed, workers=workers
        )
        meta3, _ = train_meta(
            factory, ens_k3, cfg.ppo_meta, cfg.shaping, seed=seed, workers=workers
        )
        singles = {
            name: trainer(factory, cfg.ppo_base, cfg.shaping, seed=seed, workers=workers)[0]
            for name, trainer in (("vanilla", train_vanilla), ("cvar", train_cvar))
        }
        for name, net in (*ens_k3.workers, ("meta", meta2), *singles.items()):
            net.save(_ckpt_path(out_dir, seed, name), config_hash=cfg.config_hash)

        # one env per seed, reset at the same contiguous start for every
        # configuration: the paired design
        env = eval_env(cfg, series_by_split[split_name], load_scale)
        best_name = _pick_best_single(cfg, out_dir, series_by_split, load_scale, seed)
        policies = {
            "mars_k2": BlendPolicy(ens2, meta2),
            "mars_k3_neutral": BlendPolicy(ens_k3, meta3),
            "static_5050": BlendPolicy(ens2, np.full(2, 0.5)),
            "vanilla": greedy(singles["vanilla"]),
            "cvar": greedy(singles["cvar"]),
            "rolling_opt": RollingOptPolicy(),
            "best_single": greedy(_load_ckpt(out_dir, seed, best_name, env.obs_dim)),
        }
        for name in ABLATION_CONFIGS:
            ledger = run_policy_episode(
                env, policies[name], start=env.min_start, shaping=cfg.shaping
            )
            report = compute_report(ledger, config_hash=cfg.config_hash, seed=seed)
            report.to_json(os.path.join(abl_dir, f"{name}_seed{seed}.metrics.json"))
            per_config[name].append(report)
            print(
                f"ablate seed {seed} {name}: sharpe "
                f"{'NA' if report.sharpe is None else f'{report.sharpe:.4f}'}, "
                f"mdd {report.max_drawdown_abs:.0f} $"
            )
        # this seed's networks are not kept while the next seed trains
        del policies

    table_path = os.path.join(out_dir, "ablation.csv")
    with open(table_path, "w", newline="") as fh:
        fh.write(f"# {_stamp(cfg, ','.join(str(s) for s in cfg.eval_seeds))}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "configuration",
                "sharpe_mean",
                "sharpe_std",
                "max_drawdown_abs_mean",
                "max_drawdown_rel_mean",
                "n_seeds",
            ]
        )
        for name in ABLATION_CONFIGS:
            agg = aggregate_reports(per_config[name])

            def cell(metric, stat):
                v = agg[metric][stat]
                return "NA" if v is None else repr(float(v))

            writer.writerow(
                [
                    name,
                    cell("sharpe", "mean"),
                    cell("sharpe", "std"),
                    cell("max_drawdown_abs", "mean"),
                    cell("max_drawdown_rel", "mean"),
                    len(per_config[name]),
                ]
            )
    print(f"wrote {table_path}")
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    """Aggregate all per-seed metric JSONs under the output directory."""
    out_dir = _outdir(cfg, args)
    eval_root = os.path.join(out_dir, "eval")
    if not os.path.isdir(eval_root):
        raise MissingPrerequisiteError(f"no evaluation outputs under {eval_root}")
    rows = []
    for policy in sorted(os.listdir(eval_root)):
        for split_name in sorted(os.listdir(os.path.join(eval_root, policy))):
            agg_path = os.path.join(eval_root, policy, split_name, "aggregate.json")
            if not os.path.exists(agg_path):
                continue
            with open(agg_path) as fh:
                agg = json.load(fh)
            m = agg["metrics"]

            def fmt(metric):
                v = m[metric]["mean"]
                return "NA" if v is None else f"{v:.4f}"

            rows.append(
                (
                    policy,
                    split_name,
                    fmt("sharpe"),
                    fmt("sortino"),
                    fmt("max_drawdown_abs"),
                    fmt("allocation_entropy"),
                    fmt("regime_alignment"),
                )
            )
    header = ("policy", "split", "sharpe", "sortino", "mdd_abs", "entropy", "alignment")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
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
    p.add_argument("--split", default=None, choices=("train", "test1", "test2"))
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
