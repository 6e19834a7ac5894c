import configparser
import shutil
import subprocess
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrl.cli import main
from hsrl.config import (SCHEMA, _MODULES, _git_stamp, _keyed_fields,
                         default_config, load_config)
from hsrl.critic import CriticConfig
from hsrl.env import EnvConfig, SimFitConfig, SynthConfig
from hsrl.errors import ConfigError
from hsrl.policy import PolicyConfig
from hsrl.trainer import TrainConfig

from test_cli import BASE_CONFIG

N_ITEMS = 50


def _built(cfg, section):
    """The module dataclass a section configures, built as the CLI builds it."""
    return {
        "data": cfg.synth_config,
        "policy": lambda: cfg.policy_config(N_ITEMS),
        "critic": cfg.critic_config,
        "simulator": cfg.sim_config,
        "env": cfg.env_config,
        "training": cfg.train_config,
    }[section]()


@pytest.mark.parametrize("field", ["advantage_clip", "lambda_bc",
                                   "lambda_entropy", "learning_rate"])
def test_train_config_rejects_nan(field):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: float("nan")})


def test_default_config_builds_dataclass_defaults():
    cfg = default_config()
    vocab = cfg.vocab_sizes()
    assert cfg.synth_config() == SynthConfig()
    assert cfg.policy_config(N_ITEMS) == PolicyConfig(n_items=N_ITEMS,
                                                      vocab_sizes=vocab)
    assert cfg.critic_config() == CriticConfig(d_model=PolicyConfig.d_model,
                                               levels=len(vocab))
    assert cfg.sim_config() == SimFitConfig()
    assert cfg.env_config() == EnvConfig()
    assert cfg.train_config() == TrainConfig()


# One valid non-default value per field.
_OTHER_STR = {"variant": "bc_only"}


def _other_value(name, default):
    if isinstance(default, bool):
        return str(not default).lower()
    if isinstance(default, int):
        return str(default + 1)
    if isinstance(default, float):
        return repr(default / 2)
    return _OTHER_STR[name]


_MODULE_KEYS = [(section, key, f) for section in _MODULES
                for key, f in _keyed_fields(section)]


@pytest.mark.parametrize("section, key, field", _MODULE_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in _MODULE_KEYS])
def test_each_module_key_sets_exactly_its_field(tmp_path, section, key, field):
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{key} = "
                    f"{_other_value(field.name, field.default)}\n")
    before = asdict(_built(default_config(), section))
    after = asdict(_built(load_config(path), section))
    assert {name for name in before if before[name] != after[name]} == {field.name}


@pytest.mark.parametrize("section, key", [("policy", "profile_dim"),
                                          ("training", "detach_critic_encoder"),
                                          ("simulator", "freeze_item_emb"),
                                          ("training", "batch_episodes"),
                                          ("training", "target_mode"),
                                          ("training", "target_period"),
                                          ("critic", "per_level_heads"),
                                          ("policy", "item_emb_from_features"),
                                          ("tokenizer", "vocab_sizes")])
def test_removed_keys_are_unknown(tmp_path, section, key):
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{key} = 0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_vocab_size_past_uint16_token_field_rejected(tmp_path):
    # the codebook file stores tokens as uint16: 65535 tokens fit, 65536 do not
    path = tmp_path / "run.ini"
    path.write_text("[tokenizer]\nvocab_size = 65535\n")
    assert load_config(path)["tokenizer"]["vocab_size"] == 65535
    path.write_text("[tokenizer]\nvocab_size = 65536\n")
    with pytest.raises(ConfigError, match="vocab_size must be <= 65535.*uint16"):
        load_config(path)


# ---------------------------------------------------------------------------
# generated configs
# ---------------------------------------------------------------------------

# Per-type edge values of an INI entry: 0, -1, 1, NaN, +-inf, empty,
# non-numeric and 2**63.
EDGES = ["0", "-1", "1", "nan", "inf", "-inf", "", "x", str(2 ** 63)]
# Keys that size a table or a loop draw only small values: sizes have no
# upper bound at load, and a huge one can exhaust memory or run for hours.
# That gap is out of scope here.
SIZE_KEYS = {
    ("data", "n_items"), ("data", "n_clusters"), ("data", "embed_dim"),
    ("data", "n_users"), ("data", "slates_per_user"),
    ("tokenizer", "levels"), ("tokenizer", "vocab_size"),
    ("policy", "d_model"), ("policy", "embed_dim"),
    ("critic", "hidden"), ("simulator", "embed_dim"), ("simulator", "epochs"),
    ("simulator", "batch_size"), ("env", "slate_size"), ("env", "horizon"),
    ("env", "history_window"), ("training", "iterations"),
    ("training", "eval_episodes"), ("training", "num_seeds"),
}
SMALL = ["0", "-1", "1", "2", "3", "nan", "inf", "", "x"]
# every key gets its edge set; at most 40 interaction steps per train
EDGE_VALUES = {(section, key): SMALL if (section, key) in SIZE_KEYS else EDGES
               for section, keys in SCHEMA.items() for key in keys}
EDGE_VALUES["training", "iterations"] = ["0", "-1", "1", "40", "nan", "", "x"]
GENERATED = settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)


def _tiny_config(path: Path, overrides) -> Path:
    """test_cli's BASE_CONFIG with the given (section, key) -> raw values."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG)
    for (section, key), raw in overrides:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, raw)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def _loads(path: Path) -> bool:
    try:
        load_config(path)
    except ConfigError:
        return False
    return True


def test_every_schema_key_alone_loads_or_raises_config_error(tmp_path):
    path = tmp_path / "run.ini"
    for key, values in EDGE_VALUES.items():
        for raw in values:
            _loads(_tiny_config(path, [(key, raw)]))


@GENERATED
@given(st.lists(st.sampled_from(sorted(EDGE_VALUES)), min_size=1, max_size=3,
                unique=True).flatmap(lambda keys: st.tuples(*[
                    st.tuples(st.just(key), st.sampled_from(EDGE_VALUES[key]))
                    for key in keys])))
def test_generated_config_never_exits_internal_error(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = _tiny_config(Path(tmp) / "run.ini", overrides)
        if _loads(path):
            assert main(["train", "--config", str(path),
                         "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_stamp_names_hsrl_checkout_not_working_directory(tmp_path, monkeypatch):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "x"]):
        subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True, text=True).stdout.strip()
    monkeypatch.chdir(tmp_path)
    assert _git_stamp() != head


def test_git_stamp_timeout_is_unknown(monkeypatch):
    def timeout(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", timeout)
    assert _git_stamp() == "unknown"
