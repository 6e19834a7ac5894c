from dataclasses import asdict

import pytest

from hsrl.config import _MODULES, _keyed_fields, default_config, load_config
from hsrl.critic import CriticConfig
from hsrl.env import EnvConfig, SimFitConfig, SynthConfig
from hsrl.errors import ConfigError
from hsrl.policy import PolicyConfig
from hsrl.trainer import TrainConfig

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
                                          ("policy", "item_emb_from_features")])
def test_removed_keys_are_unknown(tmp_path, section, key):
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{key} = 0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
