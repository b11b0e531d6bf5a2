"""Run configuration: one INI-style text file, environment variable and
command-line overrides, strict key validation, and a stable content hash
that is embedded in every output file.

Precedence (lowest to highest): built-in defaults, config file,
``MARSBID_<SECTION>__<KEY>`` environment variables (dots in section names
become underscores), ``--set section.key=value`` flags.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, fields

from .bidding_env import OBS_HISTORY_HOURS, GeneratorSpec
from .errors import ConfigError, MarketDataError
from .market_data import (
    SPLIT_NAMES,
    DateRange,
    SplitSpec,
    SyntheticConfig,
    format_timestamp,
    parse_timestamp,
)
from .ppo_trainer import PpoConfig
from .reward_shaping import WORKER_ROLES, ShapingParams

ENV_PREFIX = "MARSBID_"

# The five sections that configure a library dataclass, each with the
# defaults the CLI sets apart from the library's: the library makes the
# caller size the synthetic market, and the CLI's meta budget is half the
# workers'. Every other default is the dataclass's own.
_TYPED_SECTIONS = {
    "synthetic": (SyntheticConfig, {"n_hours": 17520}),
    "generator": (GeneratorSpec, {}),
    "shaping": (ShapingParams, {}),
    "ppo.base": (PpoConfig, {}),
    "ppo.meta": (PpoConfig, {"total_steps": 100_000}),
}

# The one typed field that holds an epoch hour; it is written and read as
# an ISO-8601 timestamp.
_TIMESTAMP_FIELD = ("synthetic", "start")


def _format_field(section: str, f, value) -> str:
    if (section, f.name) == _TIMESTAMP_FIELD:
        return format_timestamp(value)
    if f.type == "tuple":
        return ",".join(str(v) for v in value)
    return str(value)


def _typed_defaults(section: str) -> dict:
    cls, cli_defaults = _TYPED_SECTIONS[section]
    return {
        f.name: _format_field(section, f, cli_defaults.get(f.name, f.default))
        for f in fields(cls)
    }


DEFAULTS = {
    "data": {
        "source": "synthetic",  # synthetic | csv
        "csv_path": "",
    },
    "synthetic": _typed_defaults("synthetic"),
    "split": {
        "train_start": "2021-01-01T00:00:00Z",
        "train_end": "2022-01-01T00:00:00Z",
        "test1_start": "2022-01-01T00:00:00Z",
        "test1_end": "2022-07-01T00:00:00Z",
        "test2_start": "2022-07-01T00:00:00Z",
        "test2_end": "2023-01-01T00:00:00Z",
    },
    "generator": _typed_defaults("generator"),
    "env": {
        "episode_len": "168",
        "price_scale": "100.0",
        "load_scale": "auto",  # auto = max train-split load forecast
        "dispatch_mode": "always_on",
        "include_weather": "false",
    },
    "shaping": _typed_defaults("shaping"),
    "ppo.base": _typed_defaults("ppo.base"),
    "ppo.meta": _typed_defaults("ppo.meta"),
    "ensemble": {
        "roles": "safe,spec",
    },
    "eval": {
        "rolling_window": "720",
        "seeds": "0,1,2,3,4",
        "split": "test1",
    },
    "io": {
        "out_dir": "out",
        "checkpoint_every": "0",  # updates between periodic checkpoints; 0 = final only
    },
}


_BOOLS = dict.fromkeys(("true", "1", "yes"), True) | dict.fromkeys(("false", "0", "no"), False)


def _finite_float(text: str) -> float:
    """No float setting takes NaN or an infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


# value kind -> (converter of the text, message for a text it rejects)
_CONVERTERS = {
    "int": (int, "expected integer, got {value!r}"),
    "float": (_finite_float, "expected number, got {value!r}"),
    "hour": (parse_timestamp, "bad timestamp {value!r}: {exc}"),
    "bool": (lambda text: _BOOLS[text.strip().lower()], "expected true/false, got {value!r}"),
}


def _parse(kind: str, section: str, key: str, value: str):
    convert, message = _CONVERTERS[kind]
    try:
        return convert(value)
    except Exception as exc:
        raise ConfigError(f"{section}.{key}: " + message.format(value=value, exc=exc)) from exc


def _parse_list(value: str) -> list:
    return [v.strip() for v in value.split(",") if v.strip()]


def _parse_field(section: str, f, text: str):
    """Parse by the declared type. The dataclass modules postpone their
    annotations, so ``f.type`` is the annotation's text."""
    key = f.name
    if (section, key) == _TIMESTAMP_FIELD:
        return _parse("hour", section, key, text)
    if f.type == "tuple":
        sizes = tuple(_parse("int", section, key, v) for v in _parse_list(text))
        if not sizes:
            raise ConfigError(f"{section}.{key} must list at least one layer size")
        return sizes
    return _parse(f.type, section, key, text)


def _build_typed(raw: dict, section: str):
    cls, _ = _TYPED_SECTIONS[section]
    kwargs = {f.name: _parse_field(section, f, raw[section][f.name]) for f in fields(cls)}
    try:
        return cls(**kwargs)
    except (ValueError, MarketDataError) as exc:
        # the dataclass validators' messages name the field, not the section
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    config_hash: str
    data_source: str
    csv_path: str
    synthetic: SyntheticConfig
    split: SplitSpec
    generator: GeneratorSpec
    episode_len: int
    price_scale: float
    load_scale: float | None  # None = auto
    dispatch_mode: str
    include_weather: bool
    shaping: ShapingParams
    ppo_base: PpoConfig
    ppo_meta: PpoConfig
    roles: tuple
    eval_rolling_window: int
    eval_seeds: tuple
    eval_split: str
    out_dir: str
    checkpoint_every: int


def _apply_override(raw: dict, section: str, key: str, value: str, origin: str) -> None:
    if section not in raw:
        raise ConfigError(f"{origin}: unknown section {section!r}")
    if key not in raw[section]:
        raise ConfigError(f"{origin}: unknown key {section}.{key}")
    raw[section][key] = value


def load_raw(
    config_path: str | None = None,
    overrides=None,
    environ: dict | None = None,
) -> dict:
    """Resolve the layered string-valued configuration."""
    raw = {s: dict(kv) for s, kv in DEFAULTS.items()}

    if config_path:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            with open(config_path) as fh:
                parser.read_file(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{config_path}: cannot read: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        for section in parser.sections():
            for key, value in parser.items(section):
                _apply_override(raw, section, key, value, config_path)

    environ = os.environ if environ is None else environ
    section_by_env = {s.replace(".", "_").upper(): s for s in DEFAULTS}
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX) or "__" not in name:
            continue
        sec_part, key_part = name[len(ENV_PREFIX) :].split("__", 1)
        section = section_by_env.get(sec_part.upper())
        if section is None:
            raise ConfigError(f"{name}: unknown section {sec_part!r}")
        _apply_override(raw, section, key_part.lower(), value, name)

    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.rsplit(".", 1)
        _apply_override(raw, section.strip(), key.strip(), value.strip(), "--set")
    return raw


def config_hash(raw: dict) -> str:
    canon = "\n".join(
        f"{section}.{key}={raw[section][key]}"
        for section in sorted(raw)
        for key in sorted(raw[section])
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_config(
    config_path: str | None = None,
    overrides=None,
    environ: dict | None = None,
) -> RunConfig:
    raw = load_raw(config_path, overrides, environ)

    def get(section, key):
        return raw[section][key]

    def value(kind, section, key):
        return _parse(kind, section, key, get(section, key))

    def hour(split_key):
        return value("hour", "split", split_key)

    source = get("data", "source")
    if source not in ("synthetic", "csv"):
        raise ConfigError(f"data.source must be synthetic or csv, got {source!r}")

    synthetic = _build_typed(raw, "synthetic")
    try:
        split = SplitSpec(
            **{name: DateRange(hour(f"{name}_start"), hour(f"{name}_end")) for name in SPLIT_NAMES}
        )
    except MarketDataError as exc:
        raise ConfigError(f"split: {exc}") from exc
    generator = _build_typed(raw, "generator")
    shaping = _build_typed(raw, "shaping")
    ppo_base = _build_typed(raw, "ppo.base")
    ppo_meta = _build_typed(raw, "ppo.meta")

    roles = tuple(_parse_list(get("ensemble", "roles")))
    if not roles:
        raise ConfigError("ensemble.roles must not be empty")
    for i, role in enumerate(roles):
        if role not in WORKER_ROLES:
            raise ConfigError(f"ensemble.roles: unknown worker role {role!r}")
        if role in roles[:i]:
            raise ConfigError(f"ensemble.roles: duplicate worker role {role!r}")

    load_scale_raw = get("env", "load_scale")
    load_scale = None if load_scale_raw == "auto" else value("float", "env", "load_scale")
    price_scale = value("float", "env", "price_scale")
    for key, scale in (("price_scale", price_scale), ("load_scale", load_scale)):
        # the observations are divided by the scales
        if scale is not None and scale <= 0.0:
            raise ConfigError(f"env.{key} must be > 0, got {scale!r}")
    episode_len = value("int", "env", "episode_len")
    if episode_len < 1:
        raise ConfigError(f"env.episode_len must be >= 1, got {episode_len}")
    # every split is evaluated in one pass after OBS_HISTORY_HOURS of
    # history, and a Sharpe ratio needs two hours; the train split also
    # hosts the training episodes
    for name in SPLIT_NAMES:
        hours = getattr(split, name).end - getattr(split, name).start
        need = OBS_HISTORY_HOURS + (max(2, episode_len) if name == "train" else 2)
        if hours < need:
            raise ConfigError(
                f"split.{name}_start to split.{name}_end spans {hours}h; "
                f"the {name} split needs at least {need}h"
            )
    dispatch_mode = get("env", "dispatch_mode")
    if dispatch_mode not in ("always_on", "economic"):
        raise ConfigError(f"env.dispatch_mode must be always_on or economic, got {dispatch_mode!r}")

    eval_split = get("eval", "split")
    if eval_split not in SPLIT_NAMES:
        raise ConfigError(f"eval.split must be train, test1 or test2, got {eval_split!r}")
    rolling_window = value("int", "eval", "rolling_window")
    if rolling_window < 2:
        raise ConfigError(f"eval.rolling_window must be >= 2, got {rolling_window}")
    checkpoint_every = value("int", "io", "checkpoint_every")
    if checkpoint_every < 0:
        raise ConfigError(f"io.checkpoint_every must be >= 0, got {checkpoint_every}")
    seeds = tuple(_parse("int", "eval", "seeds", s) for s in _parse_list(get("eval", "seeds")))
    if not seeds:
        raise ConfigError("eval.seeds must not be empty")
    if min(seeds) < 0:
        raise ConfigError(f"eval.seeds must be >= 0, got {min(seeds)}")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"eval.seeds: duplicate seed {seed}")

    return RunConfig(
        raw=raw,
        config_hash=config_hash(raw),
        data_source=source,
        csv_path=get("data", "csv_path"),
        synthetic=synthetic,
        split=split,
        generator=generator,
        episode_len=episode_len,
        price_scale=price_scale,
        load_scale=load_scale,
        dispatch_mode=dispatch_mode,
        include_weather=value("bool", "env", "include_weather"),
        shaping=shaping,
        ppo_base=ppo_base,
        ppo_meta=ppo_meta,
        roles=roles,
        eval_rolling_window=rolling_window,
        eval_seeds=seeds,
        eval_split=eval_split,
        out_dir=get("io", "out_dir"),
        checkpoint_every=checkpoint_every,
    )
