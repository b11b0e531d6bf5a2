import dataclasses
import json
import os
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from marsbid import cli
from marsbid.bidding_env import EpisodeLedger, GeneratorSpec
from marsbid.cli import main
from marsbid.config import DEFAULTS, build_config, config_hash, load_raw
from marsbid.errors import ConfigError, DivergenceError
from marsbid.evaluation import compute_report
from marsbid.market_data import SyntheticConfig, format_timestamp, ingest_csv
from marsbid.mars_hierarchy import train_meta
from marsbid.policy_net import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, PolicyNetwork
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
        "ensemble.roles=safe,safe",
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
        "eval.seeds=0,0",
        # a 10-hour test1 split, and a train split shorter than 24 h of
        # history plus one 168-hour episode
        "split.test1_end=2022-01-01T10:00:00Z",
        "split.train_start=2021-12-25T00:00:00Z",
        # the observations divide by p_max
        "generator.p_min=0 generator.p_max=0",
        "io.checkpoint_every=-3",
        # numpy seeds are >= 0; a negative heat rate is a negative fuel cost
        "synthetic.seed=-1",
        "generator.heat_rate=-7.5",
        # a series past 9999-12-31T23:00Z cannot be read back; a huge one
        # is rejected before anything is allocated
        "synthetic.start=9999-12-01 synthetic.n_hours=2000",
        "synthetic.n_hours=100000000000",
    ):
        # the message names the (last) key
        overrides = override.split()
        with pytest.raises(ConfigError, match=overrides[-1].split("=")[0].rsplit(".", 1)[1]):
            build_config(overrides=overrides, environ={})


@pytest.mark.parametrize(
    "override, message",
    [
        ("io.checkpoint_every=x", "io.checkpoint_every: expected integer, got 'x'"),
        ("shaping.cvar_window=x", "shaping.cvar_window: expected integer, got 'x'"),
        ("ppo.meta.hidden=8,x", "ppo.meta.hidden: expected integer, got 'x'"),
        ("env.price_scale=abc", "env.price_scale: expected number, got 'abc'"),
        ("shaping.lambda_risk=abc", "shaping.lambda_risk: expected number, got 'abc'"),
        ("env.include_weather=maybe", "env.include_weather: expected true/false, got 'maybe'"),
        (
            "split.train_start=yesterday",
            "split.train_start: bad timestamp 'yesterday': unparseable timestamp 'yesterday'",
        ),
        (
            "synthetic.start=2021-01-01T00:30:00Z",
            "synthetic.start: bad timestamp '2021-01-01T00:30:00Z': "
            "timestamp '2021-01-01T00:30:00Z' is not on an hour boundary",
        ),
    ],
)
def test_unparsable_value_messages(override, message):
    # one case per value kind, through build_config and through the typed
    # sections' fields
    with pytest.raises(ConfigError) as info:
        build_config(overrides=[override], environ={})
    assert str(info.value) == message


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


def test_ablate_saves_train_periodic_checkpoints(tmp_path):
    # ablate trains each phase with train's checkpoint callback; its K=3
    # meta controller is never saved, so it writes no meta_u<n> over the
    # K=2 one's
    sets = ["--set", "io.checkpoint_every=1"]
    trained, ablated = tmp_path / "train", tmp_path / "ablate"
    for phase in ("university", "meta", "vanilla", "cvar"):
        assert run_cli("train", "--phase", phase, "--out", str(trained), *TINY, *sets) == 0
    assert run_cli("ablate", "--out", str(ablated), *TINY, *sets) == 0
    t, a = (d / "checkpoints" / "seed0" for d in (trained, ablated))
    names = {p.name for p in t.glob("*_u*.ckpt")}
    assert "meta_u1.ckpt" in names
    assert {p.name for p in a.glob("*_u*.ckpt")} == names | {"neutral_u1.ckpt", "neutral_u2.ckpt"}
    for name in names:
        assert (a / name).read_bytes() == (t / name).read_bytes(), name


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


def test_meta_checkpoint_of_wrong_width_exits_2(pipeline_dir, tmp_path, capsys):
    # a third worker beside a meta controller trained to blend two
    ckpts = tmp_path / "checkpoints" / "seed0"
    shutil.copytree(Path(pipeline_dir) / "checkpoints" / "seed0", ckpts)
    shutil.copy(ckpts / "safe.ckpt", ckpts / "neutral.ckpt")
    rc = run_cli("evaluate", "--policy", "mars", "--split", "test1", "--seed", "0",
                 "--out", str(tmp_path), *TINY, "--set", "ensemble.roles=safe,spec,neutral")
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ckpts / 'meta.ckpt'}: action_dim 2 != 3 roles\n"
    assert not (tmp_path / "eval").exists()


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


def test_report_skips_stray_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("evaluate", "--policy", "rolling_opt", "--split", "test1",
                   "--out", str(out), "--seed", "0", *TINY) == 0
    assert run_cli("report", "--out", str(out), *TINY) == 0
    clean = (out / "report.csv").read_bytes()
    (out / "eval" / ".DS_Store").touch()
    capsys.readouterr()
    assert run_cli("report", "--out", str(out), *TINY) == 0
    assert capsys.readouterr().err == ""
    assert (out / "report.csv").read_bytes() == clean


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


@pytest.mark.parametrize(
    "kind, contents",
    [
        ("config", b"[env]\nepisode_len = 100\n# \xff\n"),
        ("config", None),
        ("csv", b"timestamp,lmp_da\n\xff\xfe\n"),
        ("csv", None),
    ],
    ids=["config-not-utf8", "config-directory", "csv-not-utf8", "csv-directory"],
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, kind, contents):
    # None stands for a directory where the file should be
    path = tmp_path / f"input.{kind}"
    if contents is None:
        path.mkdir()
    else:
        path.write_bytes(contents)
    out = tmp_path / "out"
    if kind == "config":
        rc = run_cli("ingest", "--out", str(out), "--config", str(path), *TINY)
        prefix = "config error"
    else:
        rc = run_cli("ingest", "--out", str(out), *TINY, "--set", f"data.csv_path={path}")
        prefix = "error"
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}: {path}: cannot read: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "synthetic.calm_mean=nan",
        "synthetic.regime_dwell_hours=nan",
        "generator.ramp_rate=nan",
        "shaping.lambda_role=nan",
        "synthetic.volatile_mean=inf",
        "shaping.lambda_risk=-inf",
        "generator.startup_cost=1e999",
    ],
)
def test_non_finite_float_setting_exits_2(tmp_path, capsys, override):
    # each passed every range check: a NaN compares false both ways
    key, value = override.split("=")
    assert run_cli("generate-data", "--out", str(tmp_path), *TINY, "--set", override) == 2
    assert capsys.readouterr().err == f"config error: {key}: expected number, got {value!r}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "override, sizes",
    [("ppo.base.hidden=-5", (-5,)), ("ppo.base.hidden=0", (0,)), ("ppo.meta.hidden=8,0", (8, 0))],
)
def test_hidden_size_below_1_exits_2(tmp_path, capsys, override, sizes):
    rc = run_cli("train", "--phase", "vanilla", "--out", str(tmp_path), *TINY, "--set", override)
    assert rc == 2
    section = override.split(".hidden")[0]
    message = f"config error: {section}: hidden sizes must be >= 1, got {sizes}\n"
    assert capsys.readouterr().err == message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            ("generator.p_min=0", "generator.p_max=0"),
            "generator: generator requires 0 <= p_min <= p_max and p_max > 0",
        ),
        (("io.checkpoint_every=-3",), "io.checkpoint_every must be >= 0, got -3"),
    ],
    ids=["p_max", "checkpoint_every"],
)
def test_zero_p_max_and_negative_checkpoint_every_exit_2(tmp_path, capsys, overrides, message):
    # at p_max 0 training diverged (exit 4); a negative period meant "final only"
    sets = [arg for override in overrides for arg in ("--set", override)]
    rc = run_cli("train", "--phase", "vanilla", "--out", str(tmp_path), *TINY, *sets)
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "overrides, code, message",
    [
        (("synthetic.seed=-1",), 2, "config error: synthetic: seed must be >= 0, got -1"),
        (
            ("generator.heat_rate=-7.5",),
            2,
            "config error: generator: heat_rate must be >= 0, got -7.5",
        ),
        (
            ("synthetic.start=9999-12-01", "synthetic.n_hours=2000"),
            2,
            "config error: synthetic: n_hours=2000 from 9999-12-01T00:00:00Z runs past "
            "9999-12-31T23:00:00Z",
        ),
        (
            ("synthetic.volatile_std=1e308",),
            4,
            "numeric divergence: non-finite lmp_da in the synthetic market",
        ),
        (
            ("synthetic.rt_spread_std=1e308",),
            4,
            "numeric divergence: non-finite lmp_rt in the synthetic market",
        ),
        (
            # finite prices whose squares overflow: generate-data's summary
            # and the env's 24-h volatility
            ("synthetic.calm_mean=1e300",),
            4,
            {
                "generate-data": "numeric divergence: non-finite lmp_da mean or std in the "
                "synthetic market",
                "train": "numeric divergence: non-finite 24-h volatility of lmp_da in the "
                "observations",
            },
        ),
    ],
    ids=["seed", "heat_rate", "past_9999", "volatile_std", "rt_spread_std", "calm_mean"],
)
@pytest.mark.parametrize("command", [("generate-data",), ("train", "--phase", "vanilla")])
def test_bad_market_and_generator_settings_fail_closed(
    tmp_path, capsys, command, overrides, code, message
):
    # before: a numpy traceback (exit 1), a negative fuel cost, rows stamped
    # in year 10000 that ingest rejects, inf cells written with exit 0, and a
    # summary of `std inf` with exit 0 or a loss named after warnings
    sets = [arg for override in overrides for arg in ("--set", override)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli(*command, "--out", str(tmp_path), *TINY, *sets)
    assert rc == code
    if isinstance(message, dict):  # one message per command
        message = message[command[0]]
    assert capsys.readouterr().err == message + "\n"
    assert not any(tmp_path.iterdir())  # not even an empty data directory


def test_validator_errors_name_their_section(tmp_path, capsys):
    # ppo.base and ppo.meta share one validator: only the section tells them apart
    errs = []
    for section in ("ppo.base", "ppo.meta"):
        rc = run_cli("generate-data", "--out", str(tmp_path), *TINY, "--set", f"{section}.hidden=4,0")
        assert rc == 2
        errs.append(capsys.readouterr().err)
    assert errs == [
        f"config error: {section}: hidden sizes must be >= 1, got (4, 0)\n"
        for section in ("ppo.base", "ppo.meta")
    ]
    assert not any(tmp_path.iterdir())


def test_zero_kl_target_exits_2_naming_its_section(tmp_path, capsys):
    rc = run_cli("generate-data", "--out", str(tmp_path), *TINY, "--set", "ppo.meta.kl_target=0")
    assert rc == 2
    assert capsys.readouterr().err == "config error: ppo.meta: kl_target must be > 0\n"
    assert not any(tmp_path.iterdir())


def write_checkpoint_header(path, role: bytes, dims, action_dim: int) -> None:
    """A checkpoint laid out as ``PolicyNetwork.save`` writes one, with the
    header's fields as given and zeros for as many parameters as its dims
    imply."""
    n_params = PolicyNetwork(dims[0], dims[1:], action_dim).params.flat.size if dims else 0
    path.write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<IB", CHECKPOINT_VERSION, len(role)) + role
        + struct.pack(f"<BI{len(dims)}IIQHQ", 1, len(dims), *dims, action_dim, 0, 0, n_params)
        + bytes(8 * n_params)
    )


@pytest.mark.parametrize(
    "role, dims, action_dim, message",
    [
        (b"\xff\xfe", ("obs", 8), 1, "unknown role '\ufffd\ufffd'"),
        (b"turbo", ("obs", 8), 1, "unknown role 'turbo'"),
        (b"vanilla", (), 1, "bad dims [], action_dim 1"),
        (b"vanilla", ("obs", 0), 1, "bad dims [{obs}, 0], action_dim 1"),
        (b"vanilla", ("obs", 8), 0, "bad dims [{obs}, 8], action_dim 0"),
        # a valid checkpoint under another role's name evaluated that role
        (b"cvar", ("obs", 8), 1, "stored role 'cvar' != file name 'vanilla'"),
    ],
    ids=["role-not-ascii", "role-unknown", "no-dims", "hidden-0", "action-dim-0", "role-renamed"],
)
def test_corrupt_checkpoint_header_exits_2(
    pipeline_dir, tmp_path, capsys, role, dims, action_dim, message
):
    # "obs" stands for the configured obs dim, so only the named field is wrong
    obs = PolicyNetwork.load(Path(pipeline_dir) / "checkpoints" / "seed0" / "safe.ckpt")
    dims = tuple(obs.layer_dims[0] if d == "obs" else d for d in dims)
    path = tmp_path / "checkpoints" / "seed0" / "vanilla.ckpt"
    path.parent.mkdir(parents=True)
    write_checkpoint_header(path, role, dims, action_dim)
    rc = run_cli("evaluate", "--policy", "vanilla", "--split", "test1", "--seed", "0",
                 "--out", str(tmp_path), *TINY)
    assert rc == 2
    expected = f"error: {path}: {message.format(obs=obs.layer_dims[0])}\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "contents",
    [None, '{"seeds": [0]}', '{"metrics": {}}', "[]"],
    ids=["truncated", "no-metrics", "empty-metrics", "not-an-object"],
)
def test_unreadable_aggregate_exits_2(tmp_path, capsys, contents):
    # None stands for the file evaluate wrote, cut off halfway
    out = tmp_path / "out"
    assert run_cli("evaluate", "--policy", "rolling_opt", "--split", "test1",
                   "--out", str(out), "--seed", "0", *TINY) == 0
    path = out / "eval" / "rolling_opt" / "test1" / "aggregate.json"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] if contents is None else contents.encode())
    files = sorted(out.rglob("*"))
    capsys.readouterr()
    assert run_cli("report", "--out", str(out), *TINY) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not an evaluation aggregate: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(out.rglob("*")) == files


@pytest.mark.parametrize("cell", ["inf", "1e999"])
def test_infinite_cell_exits_2_naming_the_row(tmp_path, capsys, cell):
    out = str(tmp_path)
    assert run_cli("generate-data", "--out", out, *TINY) == 0
    path = Path(out) / "data" / "synthetic.csv"
    lines = path.read_text().splitlines()
    # the stamp comment and the header come first, so data row 5 is line 7
    stamp, _, rest = lines[6].split(",", 2)
    lines[6] = f"{stamp},{cell},{rest}"
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: malformed row 5: bad value '{cell}' for lmp_da"
    assert run_cli("ingest", "--out", out, *TINY) == 2
    assert message in capsys.readouterr().err
    csv_sets = ["--set", "data.source=csv", "--set", f"data.csv_path={path}"]
    assert run_cli("train", "--phase", "vanilla", "--out", out, *csv_sets, *TINY) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [("train", "--phase", "university"), ("ablate",)])
def test_neutral_band_of_one_half_exits_2_before_training(tmp_path, capsys, command):
    # the neutral reward divides by 0.5 - neutral_band; safe would train first
    rc = run_cli(
        *command, "--out", str(tmp_path), *TINY,
        "--set", "ensemble.roles=safe,neutral", "--set", "shaping.neutral_band=0.5",
    )
    assert rc == 2
    assert "neutral_band must be in [0, 0.5)" in capsys.readouterr().err
    assert not (tmp_path / "checkpoints").exists()


@pytest.mark.parametrize(
    "command, override, message",
    [
        (
            ("train", "--phase", "university"),
            "ensemble.roles=safe,safe",
            "ensemble.roles: duplicate worker role 'safe'",
        ),
        (("ablate",), "eval.seeds=0,0", "eval.seeds: duplicate seed 0"),
    ],
    ids=["roles", "seeds"],
)
def test_duplicates_exit_2_before_training(tmp_path, capsys, command, override, message):
    # unchecked, a repeated role would train its first worker before the
    # ensemble rejects it, and repeated seeds would write the same files
    # from two processes at once
    rc = run_cli(*command, "--out", str(tmp_path), *TINY, "--set", override)
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "checkpoints").exists()
    assert not (tmp_path / "ablation").exists()


def _scale_lmp_rt(src: Path, dst: Path, factor: float) -> None:
    lines = src.read_text().splitlines()
    j = lines[1].split(",").index("lmp_rt")  # after the stamp comment
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        row[j] = repr(float(row[j]) * factor)
    dst.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")


@pytest.mark.parametrize(
    "policy, factor, message",
    [
        # finite profits of about 1e162 whose meta reward overflows
        ("static", 1e160, "non-finite r_meta from hour 24"),
        # finite profits near the float limit whose running total overflows
        ("spec", 1e304, "non-finite profit or profit total from hour 24"),
        # finite profits of about 1e162 whose squares overflow the sample std
        ("spec", 1e160, "non-finite sample std of returns"),
    ],
)
def test_overflowing_evaluation_exits_4(pipeline_dir, tmp_path, capsys, policy, factor, message):
    out = tmp_path / "out"
    shutil.copytree(Path(pipeline_dir) / "checkpoints", out / "checkpoints")
    path = tmp_path / "scaled.csv"
    _scale_lmp_rt(Path(pipeline_dir) / "data" / "synthetic.csv", path, factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli(
            "evaluate", "--policy", policy, "--split", "test1", "--seed", "0", "--out", str(out),
            *TINY, "--set", "data.source=csv", "--set", f"data.csv_path={path}",
        )
    assert rc == 4
    assert capsys.readouterr().err == f"numeric divergence: {message}\n"
    assert not (out / "eval").exists()


@pytest.mark.parametrize(
    "factor, message",
    [
        # finite profits whose squared value errors overflow
        (1e160, "non-finite loss at update 0"),
        # profits that overflow to inf, caught before a reward's input check
        (5e305, "non-finite profit at update 0"),
    ],
)
def test_overflowing_training_exits_4(pipeline_dir, tmp_path, capsys, factor, message):
    path = tmp_path / "scaled.csv"
    _scale_lmp_rt(Path(pipeline_dir) / "data" / "synthetic.csv", path, factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli(
            "train", "--phase", "university", "--seed", "0", "--out", str(tmp_path / "out"),
            *TINY, "--set", "data.source=csv", "--set", f"data.csv_path={path}",
        )
    assert rc == 4
    assert capsys.readouterr().err == f"numeric divergence: {message}\n"


@pytest.mark.parametrize(
    "override",
    ["ppo.base.value_coef=1e300", "ppo.base.value_coef=1e154", "ppo.base.entropy_coef=1e300"],
)
def test_overflowing_gradient_norm_exits_4(tmp_path, capsys, override):
    # before: the squares of the gradient overflowed its norm to inf, so
    # clipping scaled every update to zero and train exited 0 with a policy
    # that never moved
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli(
            "train", "--phase", "vanilla", "--out", str(tmp_path), *TINY, "--set", override
        )
    assert rc == 4
    assert capsys.readouterr().err == "numeric divergence: non-finite gradient norm at update 0\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, code",
    [
        (("evaluate", "--policy", "mars", "--seed", "0"), 3),
        (("ablate", "--set", "ppo.base.value_coef=1e300"), 4),
        (("ingest",), 3),
        (("train", "--phase", "meta"), 3),
    ],
    ids=["evaluate-no-checkpoints", "ablate-diverges", "ingest-no-csv", "meta-no-workers"],
)
def test_failed_command_leaves_no_directory(tmp_path, capsys, args, code):
    # before: evaluate left an empty eval/mars/test1/, ablate checkpoints/seed0/
    # and ablation/, ingest data/, and train checkpoints/seed0/ and logs/
    assert run_cli(*args, "--out", str(tmp_path), *TINY) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not any(tmp_path.iterdir())


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


ABLATE_ARGS = TINY + ["--set", "eval.seeds=0,1"]


@pytest.fixture(scope="module")
def ablate_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ablate"))
    assert run_cli("ablate", "--out", out, *ABLATE_ARGS) == 0
    return out


def test_ablate_matrix(ablate_dir):
    lines = (Path(ablate_dir) / "ablation.csv").read_text().splitlines()
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


def test_evaluate_reproduces_ablate(ablate_dir):
    # six ablation configurations are evaluate's policies on the same
    # seeds and checkpoints, so their evaluation files match byte for byte
    out = ablate_dir
    same = {
        "mars": "mars_k2",
        "static": "static_5050",
        "vanilla": "vanilla",
        "cvar": "cvar",
        "rolling_opt": "rolling_opt",
        "best_single": "best_single",
    }
    for policy, config in same.items():
        assert run_cli("evaluate", "--policy", policy, "--out", out, *ABLATE_ARGS) == 0
        for seed in (0, 1):
            for kind in ("metrics.json", "ledger.csv", "rolling.csv"):
                evaluated = Path(out) / "eval" / policy / "test1" / f"seed{seed}.{kind}"
                ablated = Path(out) / "ablation" / f"{config}_seed{seed}.{kind}"
                assert evaluated.read_bytes() == ablated.read_bytes(), (policy, seed, kind)


def test_train_reproduces_ablate(ablate_dir, tmp_path):
    # ablate trains and saves each phase with train's code, so on the same
    # seeds its checkpoints and training logs match train's byte for byte
    nets = ("safe", "spec", "meta", "vanilla", "cvar")
    logs = ("university_safe", "university_spec", "meta", "vanilla", "cvar")
    for seed in (0, 1):
        for phase in ("university", "meta", "vanilla", "cvar"):
            rc = run_cli("train", "--phase", phase, "--seed", str(seed), "--out", str(tmp_path),
                         *ABLATE_ARGS)
            assert rc == 0
        names = [f"checkpoints/seed{seed}/{n}.ckpt" for n in nets]
        names += [f"logs/{n}_seed{seed}.csv" for n in logs]
        for name in names:
            assert (tmp_path / name).read_bytes() == (Path(ablate_dir) / name).read_bytes(), name


def _read_ledger(path: Path):
    """A written ledger as ``(EpisodeLedger, config hash, seed)``. Every
    float cell is the shortest round-trip decimal, so each column reads
    back bit for bit; compute_report ignores the timestamps."""
    comment, header, *rows = path.read_text().splitlines()
    stamp = dict(item.split("=") for item in comment.removeprefix("# ").split())
    names = header.split(",")[1:]
    columns = dict(zip(names, np.array([[float(c) for c in r.split(",")[1:]] for r in rows]).T))
    roles = tuple(name.removeprefix("w_") for name in names if name.startswith("w_"))
    hourly = [f.name for f in dataclasses.fields(EpisodeLedger) if f.name in columns]
    ledger = EpisodeLedger(timestamps=None, roles=roles, **{n: columns[n] for n in hourly})
    if roles:
        ledger.weights = np.column_stack([columns[f"w_{r}"] for r in roles])
        ledger.proposals = np.column_stack([columns[f"prop_{r}"] for r in roles])
    return ledger, stamp["config_hash"], int(stamp["seed"])


@pytest.mark.parametrize("config", ["mars_k2", "vanilla"])
def test_ablate_ledger_reproduces_its_metrics(ablate_dir, tmp_path, config):
    # every metric is a function of the written hours: a blended and a
    # single-policy ledger give their metrics.json back byte for byte
    for seed in (0, 1):
        prefix = Path(ablate_dir) / "ablation" / f"{config}_seed{seed}"
        ledger, config_hash, stamped_seed = _read_ledger(Path(f"{prefix}.ledger.csv"))
        assert stamped_seed == seed and (ledger.weights is not None) == (config == "mars_k2")
        compute_report(ledger, config_hash=config_hash, seed=seed).to_json(tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == Path(f"{prefix}.metrics.json").read_bytes()


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
    # checkpoints; training logs; metrics, ledger and rolling files; ablation.csv
    assert len(inline[0]) == 3 * 6 + 3 * 6 + 3 * 7 * 3 + 1
    assert pooled[0] == inline[0]
    assert pooled[1] == inline[1]
    assert [line.split(":")[0] for line in inline[1].splitlines()[:8:7]] == [
        "ablate seed 0 mars_k2",
        "ablate seed 1 mars_k2",
    ]


def test_divergence_in_a_seed_process_exits_4(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_train_worker = cli.train_worker

    def diverging_in_child(env, cfg, shaping, seed_seq, role, *args, **kwargs):
        if os.getpid() != parent and role == "cvar" and seed_seq.entropy == 1:
            raise DivergenceError("non-finite loss at update 0")
        return real_train_worker(env, cfg, shaping, seed_seq, role, *args, **kwargs)

    monkeypatch.setattr(cli, "train_worker", diverging_in_child)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    args = TINY + [
        "--set", "eval.seeds=0,1", "--set", "ppo.base.total_steps=0", "--set", "ppo.meta.total_steps=0"
    ]
    assert run_cli("ablate", "--out", str(tmp_path), *args) == 4
    assert "numeric divergence: non-finite loss at update 0" in capsys.readouterr().err
