"""Outside-in span tracer for the marsbid layers.

The tracer wraps the public functions and methods that each module of
``src/marsbid`` defines, so every call records a span (name, start, end,
parent span). Nothing inside ``src/`` changes: wrappers are installed into
the module namespaces for a traced call and removed afterwards, so
untraced calls run the original code.

Spans are kept in memory in compact arrays and written out once, at the
end of the benchmark. A layer or function that no longer exists (a later
change may delete ``autodiff`` or ``run_policy_episode``) is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "marsbid"
LAYERS = (
    "market_data",
    "bidding_env",
    "policy_net",
    "autodiff",
    "ppo_trainer",
    "reward_shaping",
    "mars_hierarchy",
    "baselines",
    "evaluation",
    "config",
    "cli",
)

# Dunder methods worth a span; other dunders (operators, dataclass hooks)
# are reached through the module functions they call. A dataclass's
# generated ``__init__`` only stores fields (plus its ``__post_init__``
# checks); its time stays with the caller, which keeps the per-step
# record constructors from dominating the tracing overhead.
_DUNDERS = {"__init__": "init", "__call__": "call"}

# ``PolicyNetwork`` is the only class of ``policy_net``; its spans are named
# after the module, as in ``policy_net.forward``.
_ALIASES = {"policy_net.PolicyNetwork.": "policy_net."}


def _span_name(layer: str, qualname: str) -> str:
    parts = [_DUNDERS.get(p, p) for p in qualname.split(".")]
    name = f"{layer}.{'.'.join(parts)}"
    for prefix, alias in _ALIASES.items():
        if name.startswith(prefix):
            return alias + name[len(prefix) :]
    return name


def _rows(args) -> int:
    x = args[1]
    return 1 if np.ndim(x) == 1 else len(x)


def _filled_cells(series, repaired) -> dict:
    """Cells ``repair_gaps`` filled, read off its result: a gap whose filled
    values lie on the straight line between the observations on either
    side counts as linear, any other filled gap as seasonal."""
    linear = seasonal = 0
    for name, values in series.fields.items():
        isnan = np.isnan(values)
        if not isnan.any():
            continue
        filled = repaired.fields[name]
        edges = np.flatnonzero(np.diff(np.concatenate(([0], isnan.view(np.int8), [0]))))
        for start, stop in zip(edges[0::2], edges[1::2]):
            n = int(stop - start)
            if 0 < start and stop < len(values):
                left, right = filled[start - 1], filled[stop]
                line = left + (right - left) * np.arange(1, n + 1) / (n + 1)
                if np.allclose(filled[start:stop], line, rtol=1e-9, atol=1e-9):
                    linear += n
                    continue
            seasonal += n
    return {"filled_linear": linear, "filled_seasonal": seasonal}


def _last_steps(log) -> int:
    return log.records[-1].steps if log.records else 0


def _train_counts(bound, result):
    """Env steps and the most minibatches ``train`` could run before its KL
    early stop: updates x epochs x ceil(buffer rows / minibatch)."""
    cfg = bound.arguments["cfg"]
    workers = bound.arguments["workers"]
    rows = max(1, cfg.buffer_size // workers) * workers
    updates = len(result.records)
    per_epoch = math.ceil(rows / cfg.minibatch_size)
    return {
        "env_steps": _last_steps(result),
        "minibatch_max": updates * cfg.epochs_per_update * per_epoch,
    }


def _phase_steps(bound, result):
    logs = result[1]
    if isinstance(logs, dict):
        return {"env_steps": sum(_last_steps(log) for log in logs.values())}
    return {"env_steps": _last_steps(logs)}


# Counters taken at a span boundary: span name -> hook(bound arguments or
# positional args, result) -> {counter: amount}. ``bound`` hooks see the
# call's arguments by parameter name; the others see the raw args tuple.
COUNTERS = {
    "policy_net.forward": ("args", lambda args, result: {"rows": _rows(args)}),
    "bidding_env.EpisodeLedger.to_csv": ("args", lambda args, result: {"rows": len(args[0])}),
    "market_data.write_csv": ("args", lambda args, result: {"rows": len(args[0])}),
    "market_data.ingest_csv": ("args", lambda args, result: {"rows": len(result)}),
    "market_data.repair_gaps": ("args", lambda args, result: _filled_cells(args[0], result)),
    "mars_hierarchy.run_hierarchical_episode": ("args", lambda args, result: {"hours": len(result)}),
    "evaluation.run_policy_episode": ("args", lambda args, result: {"hours": len(result)}),
    "ppo_trainer.train": ("bound", _train_counts),
    "mars_hierarchy.train_university": ("bound", _phase_steps),
    "mars_hierarchy.train_meta": ("bound", _phase_steps),
    "baselines.train_vanilla": ("bound", _phase_steps),
    "baselines.train_cvar": ("bound", _phase_steps),
}


class Tracer:
    """In-memory span store plus the wrapping of the marsbid layers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.hook_errors: dict[str, str] = {}
        self.absent_layers: list[str] = []
        self.wrapped: set[str] = set()
        self._patches: list = []

    # -- span recording -------------------------------------------------
    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _count(self, name: str, amounts: dict) -> None:
        for key, value in amounts.items():
            full = f"{name}.{key}"
            self.counters[full] = self.counters.get(full, 0) + value

    def _wrap(self, name: str, fn):
        idx = self._intern(name)
        hook = COUNTERS.get(name)
        signature = inspect.signature(fn) if hook and hook[0] == "bound" else None
        perf = time.perf_counter
        span_name, parent, start, end, stack = (
            self.span_name,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()
            if hook is not None:
                self._run_hook(name, hook, signature, args, kwargs, result)
            return result

        return traced

    def _run_hook(self, name, hook, signature, args, kwargs, result) -> None:
        try:
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amounts = hook[1](bound, result)
            else:
                amounts = hook[1](args, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return
        self._count(name, amounts)

    # -- installation ---------------------------------------------------
    def _targets(self, layer: str, module):
        """(owner, attribute, span name, original, wrapper kind) for every
        public function and method the module defines."""
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, attr, _span_name(layer, attr), obj, None
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname not in _DUNDERS:
                        continue
                    if mname == "__init__" and dataclasses.is_dataclass(obj):
                        continue
                    qual = f"{attr}.{mname}"
                    if isinstance(member, (classmethod, staticmethod)):
                        yield obj, mname, _span_name(layer, qual), member, type(member)
                    elif inspect.isfunction(member):
                        yield obj, mname, _span_name(layer, qual), member, None

    def install(self) -> None:
        """Wrap every layer; rebind every reference the package holds to a
        wrapped function, including imported names and dispatch dicts."""
        replacements = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                if layer not in self.absent_layers:
                    self.absent_layers.append(layer)
                continue
            for owner, attr, name, original, kind in self._targets(layer, module):
                if kind is None:
                    wrapped = self._wrap(name, original)
                else:
                    wrapped = kind(self._wrap(name, original.__func__))
                self._patch(owner, attr, wrapped)
                self.wrapped.add(name)
                if kind is None:
                    replacements[id(original)] = wrapped
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._patch(module, attr, replacements[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacements:
                            self._patch_item(obj, key, replacements[id(value)])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value) -> None:
        self._patches.append((mapping, key, mapping[key], True))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results --------------------------------------------------------
    def arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parents = np.frombuffer(self.parent, dtype=np.int32).copy()
        starts = np.frombuffer(self.start, dtype=np.float64).copy()
        ends = np.frombuffer(self.end, dtype=np.float64).copy()
        return names, parents, starts, ends

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, per-call
        durations (for percentiles)."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        per_name = np.split(dur[np.argsort(names, kind="stable")], np.cumsum(calls)[:-1])
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i]),
                   "durations": per_name[i]}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        names, parents, starts, ends = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=names,
            parent=parents,
            start=starts,
            end=ends,
        )
