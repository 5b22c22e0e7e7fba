import pytest

from medc.config import ConfigError, RunConfig
from medc.data import SyntheticConfig
from medc.losses import LossWeights
from medc.training import TrainConfig


def raw_config(**sections):
    raw = {"seed": 7, "data": {"C": 3, "D": 4, "L": 2, "counts": [14, 8, 4]}}
    for name, values in sections.items():
        raw.setdefault(name, {}).update(values)
    return raw


@pytest.mark.parametrize("section,key,value", [
    ("train", "temporal_attention", "false"),
    ("train", "active_experts", "uniform"),
    ("train", "active_experts", ["uniform", 2]),
    ("train", "epochs", "abc"),
    ("train", "epochs", True),
    ("train", "batch_size", 8.5),
    ("train", "lambda1", "0.8"),
    ("train", "learning_rate", None),
    ("data", "counts", [14, "8", 4]),
    ("data", "noise", False),
    ("eval", "head_threshold", "10"),
    ("eval", "test_fraction", [0.3]),
])
def test_a_value_of_the_wrong_type_is_refused_by_name(section, key, value):
    with pytest.raises(ConfigError, match=f"section '{section}': key '{key}' must be"):
        RunConfig(raw_config(**{section: {key: value}}))


@pytest.mark.parametrize("key,value", [("seed", "7"), ("seed", 7.0), ("version", True)])
def test_a_root_value_of_the_wrong_type_is_refused_by_name(key, value):
    with pytest.raises(ConfigError, match=f"key '{key}' must be an integer"):
        RunConfig(dict(raw_config(), **{key: value}))


def test_an_int_is_accepted_for_a_float():
    cfg = RunConfig(raw_config(train={"learning_rate": 1, "lambda3": 2},
                               data={"noise": 0}, eval={"test_fraction": 0}))
    tcfg = cfg.train_config(cfg.seed)
    assert type(tcfg.learning_rate) is float and tcfg.learning_rate == 1.0
    assert type(tcfg.weights.lambda3) is float and tcfg.weights == LossWeights(lambda3=2.0)
    assert type(cfg.synthetic_config(cfg.seed).noise) is float
    assert type(cfg.test_fraction) is float


def test_omitted_keys_take_the_dataclass_defaults():
    cfg = RunConfig(raw_config())
    assert cfg.train_config(cfg.seed) == TrainConfig(seed=7)
    assert cfg.synthetic_config(cfg.seed) == SyntheticConfig(C=3, D=4, L=2, counts=[14, 8, 4],
                                                             seed=7)
    assert (cfg.head_threshold, cfg.medium_threshold) == (TrainConfig().head_threshold,
                                                          TrainConfig().medium_threshold)


@pytest.mark.parametrize("key", ["tau", "gamma_low", "gamma_high", "gamma_uniform", "strict_cls"])
def test_a_fixed_loss_constant_is_an_unknown_train_key(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in config section 'train'"):
        RunConfig(raw_config(train={key: 1}))


def test_the_dropped_phi_depth_is_an_unknown_train_key():
    # each head branch is one normalized ReLU layer and an output layer, at no other depth
    with pytest.raises(ConfigError, match="unknown key 'phi_depth' in config section 'train'"):
        RunConfig(raw_config(train={"phi_depth": 2}))


def test_out_dir_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'out_dir'"):
        RunConfig(dict(raw_config(), out_dir="run/"))


@pytest.mark.parametrize("make,field", [
    (lambda v: TrainConfig(learning_rate=v), "learning_rate"),
    (lambda v: LossWeights(lambda1=v), "lambda1"),
    (lambda v: SyntheticConfig(C=3, D=4, L=2, counts=[3, 2, 1], temporal_jitter=v),
     "temporal_jitter"),
    (lambda v: SyntheticConfig(C=3, D=4, L=2, counts=[3, 2, 1], multilabel_prob=v),
     "multilabel_prob"),
], ids=["TrainConfig", "LossWeights", "SyntheticConfig-jitter", "SyntheticConfig-multilabel"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_library_caller_with_a_non_finite_float_is_refused_by_name(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        make(value)
