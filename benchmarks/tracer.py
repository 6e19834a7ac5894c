"""Span tracing of hsrl from the outside.

`hsrl` modules import functions by name (`trainer` binds `forward`,
`select_slate`, `value_of_context`, ...; `policy` and `env` bind `encode`),
so patching the defining module alone misses every call made through those
bindings. `Tracer.install` therefore replaces the function under every name
in every loaded `hsrl` module that is bound to it, and methods on their class.
`Tracer.remove` puts every original back.

Each span records its name, phase, request id (the optimizer update or eval
episode it belongs to), parent span, start and end times, the tape node ids
consumed inside it, an optional work count and whether it raised. Spans stay
in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import hsrl.autodiff as ad

# (defining module, function, span name)
FUNCTIONS = (
    ("hsrl.autodiff", "backward", "autodiff.backward"),
    ("hsrl.tokenizer", "fit_codebook", "tokenizer.fit_codebook"),
    ("hsrl.encoder", "encode", "encoder.encode"),
    ("hsrl.policy", "forward", "policy.forward"),
    ("hsrl.policy", "select_slate", "policy.select_slate"),
    ("hsrl.critic", "value_of_context", "critic.value"),
    ("hsrl.critic", "aggregate", "critic.aggregate"),
    ("hsrl.env", "generate_synthetic", "env.generate_synthetic"),
    ("hsrl.env", "fit_response_model", "env.fit_response_model"),
    ("hsrl.trainer", "rollout", "trainer.rollout"),
    ("hsrl.trainer", "train_step", "trainer.train_step"),
    ("hsrl.trainer", "evaluate", "trainer.evaluate"),
)
# (defining module, class, method, span name)
METHODS = (
    ("hsrl.optim", "Optimizer", "step", "optim.step"),
    ("hsrl.tokenizer", "SidIndex", "sid_matrix", "tokenizer.sid_matrix"),
    ("hsrl.critic", "TargetCritic", "value", "critic.target_value"),
    ("hsrl.critic", "TargetCritic", "soft_update", "critic.target_update"),
    ("hsrl.critic", "TargetCritic", "hard_sync", "critic.target_update"),
    ("hsrl.env", "Environment", "step", "env.step"),
)
# Work units a span processes, read from its positional arguments.
WORK = {
    "policy.select_slate": lambda args: len(args[2]),            # candidates
    "env.fit_response_model": lambda args: len(args[0]) * args[2].epochs,  # records
}

# Span record fields, kept as a list for low overhead.
NAME, PHASE, REQUEST, PARENT, START, END, NODE0, NODE1, WORKED, FAILED = range(10)


def node_counter() -> int:
    """Id the tape will give its next node, read without consuming one."""
    return int(repr(ad._NODE_IDS)[len("count("):-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.phase = "setup"
        self.request = "setup"
        self._counter = 0

    def set_phase(self, phase: str) -> None:
        """Start a phase; `train` numbers requests by update, `eval` by episode."""
        self.phase = phase
        self._counter = 0
        self.request = {"train": "update-0", "eval": "episode-0"}.get(phase, phase)

    def _advance(self, name: str) -> None:
        if ((self.phase == "train" and name == "trainer.train_step")
                or (self.phase == "eval" and name == "trainer.rollout")):
            self._counter += 1
            prefix = "update" if self.phase == "train" else "episode"
            self.request = f"{prefix}-{self._counter}"

    def _wrap(self, fn, name: str):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.phase, self.request, stack[-1] if stack else -1,
                   0.0, 0.0, node_counter(), 0, work(args) if work else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[FAILED] = 1
                raise
            finally:
                rec[END] = perf_counter()
                rec[NODE1] = node_counter()
                stack.pop()
                self._advance(name)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            traced = self._wrap(original, name)
            for mod in [m for k, m in sys.modules.items()
                        if k == "hsrl" or k.startswith("hsrl.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def write(self, path) -> None:
        """One JSON object per span, with its wall self time, gzip-compressed."""
        _, self_s = self_times(self.spans)
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "phase": s[PHASE],
                    "request": s[REQUEST], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "self_s": self_s[i],
                    "nodes": s[NODE1] - s[NODE0], "work": s[WORKED],
                    "error": s[FAILED]}) + "\n")


def wall(a: float, b: float) -> float:
    return b - a


def self_times(spans: list[list], seconds=wall) -> tuple[list[float], list[float]]:
    """Span durations, and each minus the time its direct children cover."""
    total = [seconds(s[START], s[END]) for s in spans]
    own = list(total)
    for s, d in zip(spans, total):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return total, own


class Summary:
    """Per (phase, span name) totals: calls, seconds, self seconds, nodes, work.
    `seconds(start, end)` turns a span's wall interval into seconds."""

    def __init__(self, spans: list[list], seconds=wall):
        total, own = self_times(spans, seconds)
        self._t = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.errors = 0
        for s, d, o in zip(spans, total, own):
            t = self._t[s[PHASE], s[NAME]]
            t[0] += 1
            t[1] += d
            t[2] += o
            t[3] += s[NODE1] - s[NODE0]
            t[4] += s[WORKED]
            self.errors += s[FAILED]

    def _sum(self, phases, name, field):
        return sum(self._t[p, name][field] for p in phases if (p, name) in self._t)

    def calls(self, name, phases=("train",)):
        return self._sum(phases, name, 0)

    def seconds(self, name, phases=("train",)):
        return self._sum(phases, name, 1)

    def self_seconds(self, name, phases=("train",)):
        return self._sum(phases, name, 2)

    def nodes(self, name, phases=("train",)):
        return self._sum(phases, name, 3)

    def work(self, name, phases=("train",)):
        return self._sum(phases, name, 4)

    def per_call(self, name, phases=("train", "eval"), self_time=False):
        calls = self.calls(name, phases)
        total = (self.self_seconds if self_time else self.seconds)(name, phases)
        return total / calls if calls else 0.0
