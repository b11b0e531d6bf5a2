"""Actor-critic MLP with explicit float64 parameters.

A shared tanh body feeds a Gaussian policy head (optionally tanh-squashed
into [-1, 1]) and a scalar value head. Everything is plain numpy: the
forward pass here, and the closed-form PPO loss gradient over the same
parameter arrays in :func:`.ppo_trainer.loss_and_grads`.

Checkpoint format (little-endian):

    magic            8 bytes  b"MARSDA01"
    format_version   u32
    role             u8 length + ascii bytes
    squash           u8
    n_body_dims      u32, then body layer dims as u32 (input first)
    action_dim       u32
    step_count       u64
    config_hash      u16 length + ascii bytes
    n_params         u64, then float64 parameter values in declaration
                     order: W0,b0,...,W_last,b_last,Wp,bp,Wv,bv,log_std
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, DivergenceError

CHECKPOINT_MAGIC = b"MARSDA01"
CHECKPOINT_VERSION = 1

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

ROLES = ("safe", "spec", "neutral", "meta", "vanilla", "cvar")


class ActionSample(NamedTuple):
    action: np.ndarray  # what the environment sees
    log_prob: np.ndarray  # summed over action components
    pre_squash: np.ndarray  # Gaussian draw before any squashing


def gaussian_log_prob(u, mean, log_std) -> np.ndarray:
    """Per-component diagonal Gaussian log density, summed over the last
    axis."""
    u = np.asarray(u, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    z = (u - mean) / np.exp(log_std)
    per_dim = -0.5 * z**2 - log_std - HALF_LOG_2PI
    return per_dim.sum(axis=-1)


def squash_correction(a_raw) -> np.ndarray:
    """Change-of-variables term subtracted from the Gaussian log density
    when the draw is squashed through tanh."""
    a = np.asarray(a_raw, dtype=np.float64)
    return np.log(1.0 - a**2 + SQUASH_EPS).sum(axis=-1)


def sample_action(mean, log_std, rng: np.random.Generator, squash: bool = True, size=None):
    """Draw a diagonal-Gaussian action, tanh-squashed into (-1, 1) when
    ``squash`` (the meta controller's raw logits are not squashed).

    ``mean``/``log_std`` are float64 arrays of shape (A,), as
    :meth:`PolicyNetwork.forward` returns them; the draw consumes
    ``rng.standard_normal`` of shape (A,), or (*size, A) with ``size``
    given. Returns an :class:`ActionSample`; ``log_prob`` is summed over
    action components: the Gaussian density of the pre-squash draw, minus
    the tanh change-of-variables term when squashed. A non-finite mean or
    log_std raises :class:`DivergenceError`.
    """
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(log_std))):
        raise DivergenceError("non-finite policy mean or log_std")
    shape = mean.shape if size is None else tuple(np.atleast_1d(size)) + mean.shape
    u = mean + np.exp(log_std) * rng.standard_normal(shape)
    log_prob = gaussian_log_prob(u, mean, log_std)
    if not squash:
        return ActionSample(action=u, log_prob=log_prob, pre_squash=u)
    a = np.tanh(u)
    return ActionSample(action=a, log_prob=log_prob - squash_correction(a), pre_squash=u)


class PolicyNetwork:
    """MLP actor-critic with named float64 parameter arrays.

    ``layer_dims`` are the body dims, input first (default two hidden layers
    of 64). ``squash=True`` gives a tanh-squashed Gaussian policy for scalar
    bidding actions; ``squash=False`` leaves the head as a plain Gaussian
    over logits, which the meta controller softmaxes into blend weights.
    """

    def __init__(
        self,
        obs_dim: int,
        hidden=(64, 64),
        action_dim: int = 1,
        role: str = "vanilla",
        squash: bool = True,
        seed: int = 0,
        params: dict | None = None,
        step_count: int = 0,
    ):
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}, expected one of {ROLES}")
        self.layer_dims = [int(obs_dim)] + [int(h) for h in hidden]
        self.action_dim = int(action_dim)
        self.role = role
        self.squash = bool(squash)
        self.step_count = int(step_count)
        self.frozen = False
        self.params = params if params is not None else self._init_params(seed)
        for name in self.param_names():
            if not np.all(np.isfinite(self.params[name])):
                raise ValueError(f"non-finite parameter {name}")

    # -- parameters ------------------------------------------------------
    def param_names(self) -> list:
        names = []
        for i in range(len(self.layer_dims) - 1):
            names += [f"W{i}", f"b{i}"]
        names += ["Wp", "bp", "Wv", "bv", "log_std"]
        return names

    def _init_params(self, seed: int) -> dict:
        # Scaled-uniform init (Glorot-style limits); the tiny policy-head
        # gain keeps early actions near zero while the value head trains.
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}

        def uniform(fan_in, fan_out, gain):
            limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        dims = self.layer_dims
        for i in range(len(dims) - 1):
            params[f"W{i}"] = uniform(dims[i], dims[i + 1], 1.0)
            params[f"b{i}"] = np.zeros(dims[i + 1])
        body_out = dims[-1]
        params["Wp"] = uniform(body_out, self.action_dim, 0.01)
        params["bp"] = np.zeros(self.action_dim)
        params["Wv"] = uniform(body_out, 1, 1.0)
        params["bv"] = np.zeros(1)
        params["log_std"] = np.zeros(self.action_dim)
        return params

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for name in self.param_names():
            h.update(self.params[name].tobytes())
        return h.hexdigest()

    def freeze(self) -> None:
        for name in self.param_names():
            self.params[name].flags.writeable = False
        self.frozen = True

    def clamp_log_std(self) -> None:
        np.clip(self.params["log_std"], LOG_STD_MIN, LOG_STD_MAX, out=self.params["log_std"])

    # -- inference -------------------------------------------------------
    def forward(self, obs):
        """Deterministic forward pass.

        Returns ``(mean, log_std, value)``; for a single observation the
        mean has shape (action_dim,) and value is a float.
        """
        x = np.asarray(obs, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"observation dim {x.shape[1]} does not match network input "
                f"dim {self.layer_dims[0]}"
            )
        h = x
        for i in range(len(self.layer_dims) - 1):
            h = np.tanh(h @ self.params[f"W{i}"] + self.params[f"b{i}"])
        mean = h @ self.params["Wp"] + self.params["bp"]
        value = (h @ self.params["Wv"] + self.params["bv"])[:, 0]
        log_std = self.params["log_std"].copy()
        if single:
            return mean[0], log_std, float(value[0])
        return mean, log_std, value

    def act_deterministic(self, obs) -> np.ndarray:
        """Mean action: tanh of the policy mean when squashed, raw logits
        otherwise."""
        mean, _, _ = self.forward(obs)
        return np.tanh(mean) if self.squash else mean

    def value(self, obs) -> float:
        _, _, v = self.forward(np.asarray(obs))
        return float(v) if np.ndim(v) == 0 else v

    # -- persistence -------------------------------------------------------
    def save(self, path, config_hash: str = "") -> None:
        role_b = self.role.encode("ascii")
        hash_b = config_hash.encode("ascii")
        flat = np.concatenate([self.params[n].ravel() for n in self.param_names()])
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<B", len(role_b)))
            fh.write(role_b)
            fh.write(struct.pack("<B", 1 if self.squash else 0))
            fh.write(struct.pack("<I", len(self.layer_dims)))
            for d in self.layer_dims:
                fh.write(struct.pack("<I", d))
            fh.write(struct.pack("<I", self.action_dim))
            fh.write(struct.pack("<Q", self.step_count))
            fh.write(struct.pack("<H", len(hash_b)))
            fh.write(hash_b)
            fh.write(struct.pack("<Q", flat.size))
            fh.write(flat.astype("<f8").tobytes())

    @classmethod
    def load(cls, path, expect_obs_dim: int | None = None) -> "PolicyNetwork":
        with open(path, "rb") as fh:
            data = fh.read()
        off = 0

        def take(n: int) -> bytes:
            nonlocal off
            if off + n > len(data):
                raise CheckpointError(f"{path}: truncated checkpoint")
            chunk = data[off : off + n]
            off += n
            return chunk

        if take(8) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<I", take(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
            )
        (role_len,) = struct.unpack("<B", take(1))
        role = take(role_len).decode("ascii")
        (squash,) = struct.unpack("<B", take(1))
        (n_dims,) = struct.unpack("<I", take(4))
        dims = [struct.unpack("<I", take(4))[0] for _ in range(n_dims)]
        (action_dim,) = struct.unpack("<I", take(4))
        (step_count,) = struct.unpack("<Q", take(8))
        (hash_len,) = struct.unpack("<H", take(2))
        take(hash_len)  # config hash is informational
        (n_params,) = struct.unpack("<Q", take(8))
        flat = np.frombuffer(take(int(n_params) * 8), dtype="<f8").astype(np.float64)
        if off != len(data):
            raise CheckpointError(f"{path}: trailing bytes after parameters")
        if expect_obs_dim is not None and dims[0] != expect_obs_dim:
            raise CheckpointError(
                f"{path}: checkpoint obs dim {dims[0]} does not match "
                f"configured obs dim {expect_obs_dim}"
            )

        net = cls(
            obs_dim=dims[0],
            hidden=dims[1:],
            action_dim=action_dim,
            role=role,
            squash=bool(squash),
            seed=0,
            step_count=step_count,
        )
        expected = sum(net.params[n].size for n in net.param_names())
        if flat.size != expected:
            raise CheckpointError(
                f"{path}: {flat.size} parameters for dims {dims}, expected {expected}"
            )
        pos = 0
        for name in net.param_names():
            size = net.params[name].size
            net.params[name] = flat[pos : pos + size].reshape(net.params[name].shape).copy()
            pos += size
        return net
