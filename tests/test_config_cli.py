import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from marsbid import cli
from marsbid.bidding_env import GeneratorSpec
from marsbid.cli import main
from marsbid.config import DEFAULTS, build_config, config_hash, load_raw
from marsbid.errors import ConfigError, DivergenceError
from marsbid.market_data import SyntheticConfig, format_timestamp, ingest_csv
from marsbid.mars_hierarchy import train_meta
from marsbid.policy_net import PolicyNetwork
from marsbid.ppo_trainer import PpoConfig
from marsbid.reward_shaping import ShapingParams

# small-but-real settings shared by the CLI round-trip tests
TINY = [
    "--set", "synthetic.n_hours=3000",
    "--set", "split.train_start=2021-01-01", "--set", "split.train_end=2021-03-01",
    "--set", "split.test1_start=2021-03-01", "--set", "split.test1_end=2021-04-01",
    "--set", "split.test2_start=2021-04-01", "--set", "split.test2_end=2021-05-05",
    "--set", "ppo.base.total_steps=512", "--set", "ppo.base.buffer_size=256",
    "--set", "ppo.base.hidden=8,8",
    "--set", "ppo.meta.total_steps=256", "--set", "ppo.meta.buffer_size=256",
    "--set", "ppo.meta.hidden=8,8",
    "--set", "eval.seeds=0", "--set", "eval.rolling_window=100",
]


# -- config --------------------------------------------------------------------


def test_defaults_build():
    cfg = build_config(environ={})
    assert cfg.generator.p_max == 100.0
    assert cfg.ppo_base.clip_epsilon == 0.2
    assert cfg.shaping.lambda_risk == 5.0
    assert cfg.roles == ("safe", "spec")
    assert cfg.eval_seeds == (0, 1, 2, 3, 4)
    assert len(cfg.config_hash) == 16
    # the typed sections take the dataclass defaults, apart from the CLI's two
    assert cfg.synthetic == SyntheticConfig(n_hours=17520)
    assert cfg.generator == GeneratorSpec()
    assert cfg.shaping == ShapingParams()
    assert cfg.ppo_base == PpoConfig()
    assert cfg.ppo_meta == PpoConfig(total_steps=100000)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[env]\nepsiode_len = 3\n")
    with pytest.raises(ConfigError, match="epsiode_len"):
        build_config(str(p), environ={})


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="nope"):
        build_config(str(p), environ={})


def test_file_and_set_precedence(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[env]\nepisode_len = 100\n")
    cfg = build_config(str(p), environ={})
    assert cfg.episode_len == 100
    cfg = build_config(str(p), overrides=["env.episode_len=50"], environ={})
    assert cfg.episode_len == 50


def test_env_var_override():
    env = {"MARSBID_PPO_BASE__TOTAL_STEPS": "7777"}
    cfg = build_config(environ=env)
    assert cfg.ppo_base.total_steps == 7777
    with pytest.raises(ConfigError):
        build_config(environ={"MARSBID_NOPE__X": "1"})


def test_hash_stable_and_sensitive():
    raw = load_raw(environ={})
    h1 = config_hash(raw)
    h2 = config_hash(load_raw(environ={}))
    assert h1 == h2
    raw2 = load_raw(overrides=["env.episode_len=24"], environ={})
    assert config_hash(raw2) != h1


def test_default_config_hash_pinned():
    # every artifact is stamped with this hash: a change to the default key
    # set or values must be deliberate
    assert config_hash(load_raw(environ={})) == "f445d3a05c16644a"


def test_every_default_key_parses():
    # guards against DEFAULTS drifting from the typed builder
    cfg = build_config(environ={})
    for section in DEFAULTS:
        assert section in cfg.raw


def test_bad_values_are_config_errors():
    for override in (
        "ppo.base.total_steps=abc",
        "env.dispatch_mode=sometimes",
        "eval.split=test9",
        "synthetic.n_hours=3",
        "ensemble.roles=safe,turbo",
        "ppo.meta.hidden=",
        "generator.min_up=1.5",
        "synthetic.start=2021-01-01T00:30:00Z",
        "shaping.cvar_window=x",
        "env.episode_len=0",
        "env.episode_len=-5",
        "env.price_scale=0",
        "env.price_scale=nan",
        "env.load_scale=0",
        "env.load_scale=-1",
        "eval.rolling_window=0",
        "eval.rolling_window=-3",
        "eval.seeds=0,-1",
        # a 10-hour test1 split, and a train split shorter than 24 h of
        # history plus one 168-hour episode
        "split.test1_end=2022-01-01T10:00:00Z",
        "split.train_start=2021-12-25T00:00:00Z",
    ):
        # the message names the key
        with pytest.raises(ConfigError, match=override.split("=")[0].rsplit(".", 1)[1]):
            build_config(overrides=[override], environ={})


TYPED_SECTIONS = {
    "synthetic": ("synthetic", SyntheticConfig),
    "generator": ("generator", GeneratorSpec),
    "shaping": ("shaping", ShapingParams),
    "ppo.base": ("ppo_base", PpoConfig),
    "ppo.meta": ("ppo_meta", PpoConfig),
}


def test_typed_keys_round_trip():
    # every field of the five dataclasses is a key; a value set on it lands
    # on the same-named attribute with the declared type. Values are unique
    # across keys, so a key wired to the wrong field or section shows.
    default = build_config(environ={})
    declared = {"int": int, "float": float, "tuple": tuple}
    overrides, expected = [], {}
    i = 0
    for section, (attr, cls) in TYPED_SECTIONS.items():
        assert set(DEFAULTS[section]) == {f.name for f in dataclasses.fields(cls)}
        for f in dataclasses.fields(cls):
            i += 1
            old = getattr(getattr(default, attr), f.name)
            if (section, f.name) == ("synthetic", "start"):
                new = old + 24 * i
                text = format_timestamp(new)
            elif f.type == "tuple":
                new = (i, i + 1)
                text = f"{i},{i + 1}"
            elif f.type == "int":
                new = old + i
                text = str(new)
            else:
                new = old / 2 + 0.001 * i
                text = repr(new)
            overrides.append(f"{section}.{f.name}={text}")
            expected[attr, f.name] = (new, declared[f.type])
    cfg = build_config(overrides=overrides, environ={})
    for (attr, key), (new, typ) in expected.items():
        got = getattr(getattr(cfg, attr), key)
        assert got == new and type(got) is typ, (attr, key, got, new)
    assert all(type(h) is int for h in cfg.ppo_base.hidden + cfg.ppo_meta.hidden)


# -- CLI round trips --------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_invalid_ppo_setting_exits_2(tmp_path):
    rc = run_cli(
        "train", "--phase", "vanilla", "--out", str(tmp_path), *TINY,
        "--set", "ppo.base.epochs_per_update=0",
    )
    assert rc == 2


def test_workers_out_of_range_exits_2(tmp_path):
    out = str(tmp_path)
    # TINY sets ppo.base.buffer_size=256
    for workers in ("0", "257"):
        rc = run_cli("train", "--phase", "vanilla", "--workers", workers, "--out", out, *TINY)
        assert rc == 2
    # ablate trains both sections: --workers above ppo.meta's buffer alone is enough
    rc = run_cli(
        "ablate", "--workers", "200", "--out", out, *TINY, "--set", "ppo.meta.buffer_size=128"
    )
    assert rc == 2


def test_workers_on_commands_without_rollouts_exits_2(tmp_path):
    out = str(tmp_path)
    assert run_cli("generate-data", "--workers", "0", "--out", out, *TINY) == 2
    assert not (tmp_path / "data").exists()
    rc = run_cli("evaluate", "--policy", "rolling_opt", "--split", "test1", "--workers", "-5",
                 "--out", out, "--seed", "0", *TINY)
    assert rc == 2
    # --workers 1 is the default, so it stays accepted everywhere
    assert run_cli("generate-data", "--workers", "1", "--out", out, *TINY) == 0
    assert run_cli("evaluate", "--policy", "rolling_opt", "--split", "test1", "--workers", "1",
                   "--out", out, "--seed", "0", *TINY) == 0


def test_negative_seed_and_short_split_exit_2(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli("train", "--phase", "vanilla", "--seed", "-1", "--out", out, *TINY) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    # an evaluation pass starts after 24 h of history, and its Sharpe
    # ratio needs two hours: TINY's test1 starts at 2021-03-01T00
    evaluate = ("evaluate", "--policy", "rolling_opt", "--seed", "0", "--out", out, *TINY)
    assert run_cli(*evaluate, "--set", "split.test1_end=2021-03-02T01:00:00Z") == 2
    assert "the test1 split needs at least 26h" in capsys.readouterr().err
    assert run_cli(*evaluate, "--set", "split.test1_end=2021-03-02T02:00:00Z") == 0


def test_periodic_checkpoints(tmp_path):
    # TINY gives every worker two PPO updates and the meta controller one
    def run(every):
        out = str(tmp_path / f"every{every}")
        sets = ["--set", f"io.checkpoint_every={every}"]
        for phase in ("university", "meta", "vanilla"):
            assert run_cli("train", "--phase", phase, "--out", out, *TINY, *sets) == 0
        stamp = build_config(overrides=[a for a in TINY + sets if a != "--set"]).config_hash
        return Path(out) / "checkpoints" / "seed0", stamp.encode()

    periodic, stamp1 = run(1)
    final_only, stamp0 = run(0)
    names = {p.stem for p in periodic.glob("*.ckpt")}
    assert {"safe_u1", "safe_u2", "spec_u1", "spec_u2", "meta_u1", "vanilla_u1"} <= names
    assert {p.stem for p in final_only.glob("*.ckpt")} == {"safe", "spec", "meta", "vanilla"}
    # periodic saves leave training alone: the final checkpoints differ
    # only in the stamped config hash, and equal the last periodic save
    for name, last in (("safe", 2), ("spec", 2), ("meta", 1), ("vanilla", 2)):
        final = (periodic / f"{name}.ckpt").read_bytes()
        assert final.replace(stamp1, stamp0) == (final_only / f"{name}.ckpt").read_bytes()
        assert final == (periodic / f"{name}_u{last}.ckpt").read_bytes()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipeline"))
    assert run_cli("generate-data", "--out", out, *TINY) == 0
    assert run_cli("train", "--phase", "university", "--out", out, "--seed", "0", *TINY) == 0
    assert run_cli("train", "--phase", "meta", "--out", out, "--seed", "0", *TINY) == 0
    return out


def test_generate_data_row_count_and_round_trip(tmp_path):
    out = str(tmp_path)
    assert run_cli("generate-data", "--out", out, *TINY) == 0
    path = Path(out) / "data" / "synthetic.csv"
    series = ingest_csv(path)
    assert len(series) == 3000
    # determinism: regenerate and compare bytes
    out2 = str(tmp_path / "again")
    assert run_cli("generate-data", "--out", out2, *TINY) == 0
    assert path.read_bytes() == (Path(out2) / "data" / "synthetic.csv").read_bytes()


def test_university_emits_expected_checkpoints(pipeline_dir):
    d = Path(pipeline_dir) / "checkpoints" / "seed0"
    assert (d / "safe.ckpt").exists() and (d / "spec.ckpt").exists()
    assert (d / "meta.ckpt").exists()


def test_training_log_header(pipeline_dir):
    lines = (Path(pipeline_dir) / "logs" / "university_safe_seed0.csv").read_text().splitlines()
    assert lines[1] == (
        "update,steps,mean_reward,mean_profit,policy_loss,value_loss,entropy,approx_kl"
    )
    assert len(lines) == 2 + 2  # stamp, header, and TINY's two updates


def test_meta_refuses_without_workers(tmp_path):
    rc = run_cli("train", "--phase", "meta", "--out", str(tmp_path), "--seed", "3", *TINY)
    assert rc == 3


def test_evaluate_unknown_split_is_config_error(pipeline_dir):
    rc = run_cli("evaluate", "--policy", "mars", "--split", "test1", "--out",
                 pipeline_dir, "--set", "eval.split=bogus", *TINY)
    # the --split flag is validated by argparse; config-level validation here
    assert rc == 2


def test_evaluate_mars_and_static_paired(pipeline_dir):
    assert run_cli("evaluate", "--policy", "mars", "--split", "test1",
                   "--out", pipeline_dir, "--seed", "0", *TINY) == 0
    assert run_cli("evaluate", "--policy", "static", "--split", "test1",
                   "--out", pipeline_dir, "--seed", "0", *TINY) == 0
    base = Path(pipeline_dir) / "eval"
    mars_ledger = (base / "mars" / "test1" / "seed0.ledger.csv").read_text().splitlines()
    stat_ledger = (base / "static" / "test1" / "seed0.ledger.csv").read_text().splitlines()
    # paired design: identical episode hours
    ts = lambda lines: [l.split(",")[0] for l in lines[2:]]
    assert ts(mars_ledger) == ts(stat_ledger)
    agg = json.loads((base / "mars" / "test1" / "aggregate.json").read_text())
    assert agg["seeds"] == [0]


def test_evaluate_aggregate_matches_per_seed_files(pipeline_dir):
    assert run_cli("evaluate", "--policy", "safe", "--split", "test1",
                   "--out", pipeline_dir, "--seed", "0", *TINY) == 0
    d = Path(pipeline_dir) / "eval" / "safe" / "test1"
    per_seed = json.loads((d / "seed0.metrics.json").read_text())
    agg = json.loads((d / "aggregate.json").read_text())
    assert agg["metrics"]["sharpe"]["mean"] == pytest.approx(per_seed["sharpe"])


def test_evaluate_best_single_runs_the_policy_it_picked(pipeline_dir):
    base = Path(pipeline_dir) / "eval"
    # best_single ranks the single-policy checkpoints (safe and spec here)
    # by their Sharpe ratio over the train split
    train_sharpe = {}
    for name in ("safe", "spec"):
        for split in ("train", "test1"):
            assert run_cli("evaluate", "--policy", name, "--split", split,
                           "--out", pipeline_dir, "--seed", "0", *TINY) == 0
        metrics = json.loads((base / name / "train" / "seed0.metrics.json").read_text())
        train_sharpe[name] = metrics["sharpe"]
    assert train_sharpe["safe"] != train_sharpe["spec"]
    picked = max(train_sharpe, key=train_sharpe.get)
    other = min(train_sharpe, key=train_sharpe.get)
    assert run_cli("evaluate", "--policy", "best_single", "--split", "test1",
                   "--out", pipeline_dir, "--seed", "0", *TINY) == 0
    ledger = lambda name: (base / name / "test1" / "seed0.ledger.csv").read_bytes()
    assert ledger("best_single") == ledger(picked)
    assert ledger("best_single") != ledger(other)


def test_evaluate_unknown_policy(pipeline_dir):
    assert run_cli("evaluate", "--policy", "nope", "--out", pipeline_dir, *TINY) == 2


def test_rolling_opt_needs_no_checkpoints(tmp_path):
    out = str(tmp_path)
    assert run_cli("evaluate", "--policy", "rolling_opt", "--split", "test1",
                   "--out", out, "--seed", "0", *TINY) == 0


def evaluate_mars(out):
    """Write ``evaluate --policy mars``'s test1 outputs for seed 0; a rerun
    writes the same bytes."""
    assert run_cli("evaluate", "--policy", "mars", "--split", "test1",
                   "--out", out, "--seed", "0", *TINY) == 0


def test_report_command(pipeline_dir, capsys):
    evaluate_mars(pipeline_dir)
    capsys.readouterr()
    assert run_cli("report", "--out", pipeline_dir, *TINY) == 0
    lines = (Path(pipeline_dir) / "report.csv").read_text().splitlines()
    assert lines[1] == "policy,split,sharpe,sortino,mdd_abs,entropy,alignment"
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == lines[1].split(",")
    assert len(printed) == len(lines) - 1 > 1


def test_outputs_embed_config_hash(pipeline_dir):
    from marsbid.config import build_config as bc

    cfg = bc(overrides=[a for a in TINY if a != "--set"], environ={})
    evaluate_mars(pipeline_dir)
    ledger_head = (
        Path(pipeline_dir) / "eval" / "mars" / "test1" / "seed0.ledger.csv"
    ).read_text().splitlines()[0]
    assert ledger_head.startswith("# config_hash=")
    assert cfg.config_hash in ledger_head


def test_missing_data_csv_is_prereq_error(tmp_path):
    rc = run_cli(
        "train", "--phase", "vanilla", "--out", str(tmp_path), "--seed", "0",
        "--set", "data.source=csv", "--set", "data.csv_path=/does/not/exist.csv", *TINY,
    )
    assert rc == 3


def test_tiny_budget_training_smoke_under_60s(tmp_path):
    import time

    start = time.monotonic()
    rc = run_cli(
        "train", "--phase", "vanilla", "--out", str(tmp_path), "--seed", "1",
        *TINY, "--set", "ppo.base.total_steps=1024",
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 60.0, f"1k-step smoke took {elapsed:.1f}s"


def test_ablate_matrix(tmp_path):
    out = str(tmp_path)
    args = TINY + ["--set", "eval.seeds=0,1"]
    assert run_cli("ablate", "--out", out, *args) == 0
    lines = (Path(out) / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == (
        "configuration,sharpe_mean,sharpe_std,max_drawdown_abs_mean,max_drawdown_rel_mean,n_seeds"
    )
    header = lines[1].split(",")
    rows = {l.split(",")[0]: l.split(",") for l in lines[2:]}
    # one row per configuration
    assert set(rows) == {
        "mars_k2", "mars_k3_neutral", "static_5050", "vanilla", "cvar",
        "rolling_opt", "best_single",
    }
    # the heuristic is training-free: identical across seeds
    std_idx = header.index("sharpe_std")
    assert float(rows["rolling_opt"][std_idx]) == 0.0
    # static 50/50 required no meta checkpoint (none was saved for it), yet
    # its row exists with a defined sharpe
    assert rows["static_5050"][header.index("sharpe_mean")] != "NA"


def test_evaluate_reproduces_ablate(tmp_path):
    # six ablation configurations are evaluate's policies on the same
    # seeds and checkpoints, so their metrics files match byte for byte
    out = str(tmp_path)
    args = TINY + ["--set", "eval.seeds=0,1"]
    assert run_cli("ablate", "--out", out, *args) == 0
    same = {
        "mars": "mars_k2",
        "static": "static_5050",
        "vanilla": "vanilla",
        "cvar": "cvar",
        "rolling_opt": "rolling_opt",
        "best_single": "best_single",
    }
    for policy, config in same.items():
        assert run_cli("evaluate", "--policy", policy, "--out", out, *args) == 0
        for seed in (0, 1):
            evaluated = Path(out) / "eval" / policy / "test1" / f"seed{seed}.metrics.json"
            ablated = Path(out) / "ablation" / f"{config}_seed{seed}.metrics.json"
            assert evaluated.read_bytes() == ablated.read_bytes(), (policy, seed)


def test_ablate_neutral_worker_has_its_own_seeds(tmp_path):
    # zero training budget: the saved workers are their initial parameters
    out = str(tmp_path)
    args = TINY + ["--set", "ppo.base.total_steps=0", "--set", "ppo.meta.total_steps=0"]
    assert run_cli("ablate", "--out", out, *args) == 0
    ckpt = Path(out) / "checkpoints" / "seed0"
    init = {r: PolicyNetwork.load(ckpt / f"{r}.ckpt").param_hash() for r in ("safe", "spec", "neutral")}
    assert len(set(init.values())) == 3


def test_ablate_paired_roles_share_seeds_as_common_random_numbers(tmp_path, monkeypatch):
    # zero training budget: every trained net is its initial parameters
    metas = []

    def recording_train_meta(*args, **kwargs):
        meta, log = train_meta(*args, **kwargs)
        metas.append(meta)
        return meta, log

    monkeypatch.setattr(cli, "train_meta", recording_train_meta)
    # one seed runs in this process whatever the CPU count, so the
    # recording above sees both meta controllers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = str(tmp_path)
    args = TINY + ["--set", "ppo.base.total_steps=0", "--set", "ppo.meta.total_steps=0"]
    assert run_cli("ablate", "--out", out, *args) == 0
    ckpt = Path(out) / "checkpoints" / "seed0"
    init = {r: PolicyNetwork.load(ckpt / f"{r}.ckpt") for r in ("vanilla", "cvar")}
    assert init["vanilla"].param_hash() == init["cvar"].param_hash()
    meta2, meta3 = metas
    assert (meta2.action_dim, meta3.action_dim) == (2, 3)
    assert np.array_equal(meta2.params["W0"], meta3.params["W0"])


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_ablate_seeds_in_processes_equal_inline(tmp_path, monkeypatch, capsys):
    args = TINY + ["--set", "eval.seeds=0,1,2"]
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run_cli("ablate", "--out", str(out), "--workers", "2", *args) == 0
        runs[cpus] = (_tree(out), capsys.readouterr().out.replace(str(out), "OUT"))
    inline, pooled = runs[1], runs[2]
    assert len(inline[0]) == 3 * 6 + 3 * 7 + 1  # checkpoints, metrics, ablation.csv
    assert pooled[0] == inline[0]
    assert pooled[1] == inline[1]
    assert [line.split(":")[0] for line in inline[1].splitlines()[:8:7]] == [
        "ablate seed 0 mars_k2",
        "ablate seed 1 mars_k2",
    ]


def test_divergence_in_a_seed_process_exits_4(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_train_cvar = cli.train_cvar

    def diverging_in_child(*args, seed, **kwargs):
        if os.getpid() != parent and seed == 1:
            raise DivergenceError("non-finite loss at update 0")
        return real_train_cvar(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "train_cvar", diverging_in_child)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    args = TINY + [
        "--set", "eval.seeds=0,1", "--set", "ppo.base.total_steps=0", "--set", "ppo.meta.total_steps=0"
    ]
    assert run_cli("ablate", "--out", str(tmp_path), *args) == 4
    assert "numeric divergence: non-finite loss at update 0" in capsys.readouterr().err
