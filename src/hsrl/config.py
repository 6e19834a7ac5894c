"""Declarative run configuration (key=value sections) and run manifests.

A single INI-style document captures every tunable across the pipeline so
sweeps and ablations can snapshot the full configuration. Parsing is
strict: unknown sections or keys are rejected before any work starts, and
every value is type-checked against the schema below.
"""

from __future__ import annotations

import configparser
import ctypes
import json
import math
import platform
import subprocess
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .critic import CriticConfig
from .env import EnvConfig, SimFitConfig, SynthConfig
from .errors import ConfigError
from .policy import PolicyConfig
from .tokenizer import MAX_VOCAB_SIZE
from .trainer import TrainConfig


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    if not math.isfinite(value := float(raw)):  # nan passes every range check
        raise ValueError(raw)
    return value


_PARSERS = {bool: _parse_bool, float: _parse_float}

# Module sections: the dataclass is the only declaration of the section's
# keys, parsers and defaults. Fields that another section supplies are not
# keys of this one.
_MODULES = {
    "data": (SynthConfig, ("slate_size",)),
    "policy": (PolicyConfig, ("n_items", "vocab_sizes", "history_window")),
    "critic": (CriticConfig, ("d_model", "levels")),
    "simulator": (SimFitConfig, ("history_window",)),
    "env": (EnvConfig, ()),
    "training": (TrainConfig, ()),
}
# (section, field) -> INI key, where the two names differ
_KEY_OF_FIELD = {("data", "dim"): "embed_dim"}


def _keyed_fields(section: str):
    """(INI key, dataclass field) pairs of a module section."""
    cls, supplied = _MODULES[section]
    return [(_KEY_OF_FIELD.get((section, f.name), f.name), f)
            for f in fields(cls) if f.name not in supplied]


def _section_schema(section: str) -> dict:
    """key -> (parser, default) of a module section: the parser follows the
    type of the field's default."""
    return {key: (_PARSERS.get(type(f.default), type(f.default)), f.default)
            for key, f in _keyed_fields(section)}


# section -> key -> (parser, default); literal entries are the keys that no
# module dataclass declares.
SCHEMA = {
    "data": {
        "source": (str, "synthetic"),
        **_section_schema("data"),
        "embeddings_path": (str, ""),
        "records_path": (str, ""),
        "ratings_path": (str, ""),
    },
    "tokenizer": {
        "levels": (int, 3),
        "vocab_size": (int, 64),
    },
    "policy": _section_schema("policy"),
    "critic": _section_schema("critic"),
    "simulator": _section_schema("simulator"),
    "env": _section_schema("env"),
    "training": {**_section_schema("training"), "num_seeds": (int, 1)},
    "seeds": {
        "tokenizer": (int, 7),
        "simulator": (int, 11),
        "agent": (int, 13),
    },
}


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def flat(self) -> dict[str, object]:
        return {f"{s}.{k}": v for s, sec in self.values.items()
                for k, v in sec.items()}

    # -- derived module configs ------------------------------------------

    def vocab_sizes(self) -> tuple[int, ...]:
        tok = self.values["tokenizer"]
        return (tok["vocab_size"],) * tok["levels"]

    def _module(self, section: str, **supplied):
        """The section's dataclass, built from its keys plus the fields
        that other sections supply."""
        values = self.values[section]
        return _MODULES[section][0](
            **{f.name: values[key] for key, f in _keyed_fields(section)},
            **supplied)

    def synth_config(self) -> SynthConfig:
        return self._module("data", slate_size=self.values["env"]["slate_size"])

    def policy_config(self, n_items: int) -> PolicyConfig:
        return self._module(
            "policy", n_items=n_items, vocab_sizes=self.vocab_sizes(),
            history_window=self.values["env"]["history_window"])

    def critic_config(self) -> CriticConfig:
        return self._module("critic", d_model=self.values["policy"]["d_model"],
                            levels=len(self.vocab_sizes()))

    def env_config(self) -> EnvConfig:
        return self._module("env")

    def sim_config(self) -> SimFitConfig:
        return self._module(
            "simulator", history_window=self.values["env"]["history_window"])

    def train_config(self) -> TrainConfig:
        return self._module("training")

    def seeds(self) -> dict[str, int]:
        return dict(self.values["seeds"])

    def agent_seeds(self) -> list[int]:
        base = self.values["seeds"]["agent"]
        return [base + i for i in range(self.values["training"]["num_seeds"])]


def default_config() -> RunConfig:
    return RunConfig({s: {k: default for k, (_, default) in sec.items()}
                      for s, sec in SCHEMA.items()})


def _validate(cfg: RunConfig) -> RunConfig:
    """Range checks on module fields live in each dataclass's
    `__post_init__`; building every module config that needs no data runs
    them all at load time."""
    d = cfg.values["data"]
    if d["source"] not in ("synthetic", "files"):
        raise ConfigError(f"data.source must be synthetic or files, got {d['source']!r}")
    if cfg.values["training"]["num_seeds"] < 1:
        raise ConfigError("training.num_seeds must be >= 1")
    for name, value in cfg.values["seeds"].items():
        if value < 0:
            raise ConfigError(f"seeds.{name} must be non-negative")
    if cfg.values["tokenizer"]["vocab_size"] > MAX_VOCAB_SIZE:
        raise ConfigError(f"tokenizer.vocab_size must be <= {MAX_VOCAB_SIZE}: the "
                          f"codebook file stores each token in a uint16 field")
    cfg.synth_config()
    cfg.policy_config(n_items=1)  # its checks do not read the catalog size
    cfg.critic_config()
    cfg.env_config()
    cfg.sim_config()
    cfg.train_config()
    return cfg


def load_config(path) -> RunConfig:
    """Parse and validate a config document; unknown keys are rejected."""
    # configparser spreads a `[DEFAULT]` section's keys over every other
    # section; a default-section name no header line can hold makes
    # `[DEFAULT]` an ordinary, and so unknown, section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind, _ = SCHEMA[section][key]
            try:
                cfg.values[section][key] = kind(raw)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r}") from None
    return _validate(cfg)


def apply_seed_overrides(cfg: RunConfig, tokenizer=None, simulator=None,
                         agent=None) -> RunConfig:
    for name, value in (("tokenizer", tokenizer), ("simulator", simulator),
                        ("agent", agent)):
        if value is not None:
            if value < 0:
                raise ConfigError(f"--seed-{name} must be non-negative")
            cfg.values["seeds"][name] = value
    return cfg


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def _git_stamp() -> str:
    """HEAD of the checkout hsrl runs from, not of the caller's directory."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5, cwd=Path(__file__).parent)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas_build() -> dict | None:
    """numpy's BLAS build; bitwise reruns hold only on the same one."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 cannot report its build as a dict
        return None
    return deps.get("blas")


def _blas_core() -> str:
    """The kernel set OpenBLAS picked for this CPU at run time, which bits
    depend on too; "unknown" when numpy's BLAS does not report it."""
    query = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                    "scipy_openblas_get_corename64_", None)
    if query is None:
        return "unknown"
    query.restype = ctypes.c_char_p
    return query().decode()


class Manifest:
    """Written with status=running before any work; finalized afterwards,
    so a crash leaves a manifest that marks the run incomplete. It records
    the Python, numpy and BLAS builds and the BLAS core the run's bytes
    depend on."""

    def __init__(self, out_dir: Path, command: str, cfg: RunConfig,
                 outputs: list[str]):
        from . import __version__

        self.path = Path(out_dir) / "manifest.json"
        self._t0 = time.time()
        self.payload = {
            "command": command,
            "version": __version__,
            "git": _git_stamp(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_build(),
            "blas_core": _blas_core(),
            "config": cfg.flat(),
            "seeds": cfg.seeds(),
            "outputs": outputs,
            "status": "running",
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(self._t0)),
        }
        self._write()

    def _write(self) -> None:
        write_atomic(self.path, (json.dumps(self.payload, indent=2, sort_keys=True)
                                 + "\n").encode("utf-8"))

    def record(self, key: str, value) -> None:
        """Add a measurement of the run and rewrite the manifest at once."""
        self.payload[key] = value
        self._write()

    def finalize(self, status: str = "complete", error: str | None = None,
                 trace: str | None = None) -> None:
        self.payload["status"] = status
        self.payload["wall_clock_s"] = round(time.time() - self._t0, 3)
        if error is not None:
            self.payload["error"] = error
        if trace is not None:
            self.payload["traceback"] = trace
        self._write()
