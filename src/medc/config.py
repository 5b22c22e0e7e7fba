"""JSON run configuration with strict key and type validation.

The keys of the `data`, `train` and `eval` sections, their types and their
defaults are those of the fields of SyntheticConfig, TrainConfig and
LossWeights; only the keys a config gives are passed on, so every other
field keeps its dataclass default.
"""

import json
import typing
from dataclasses import fields

from .data import SyntheticConfig, fits_type, zipf_counts
from .losses import LossWeights
from .training import TrainConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


def _check_keys(section, d, allowed):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in config section "
                          f"{section!r} (allowed: {sorted(allowed)})")


def _types(cls, exclude=()):
    return {f.name: f.type for f in fields(cls) if f.name not in exclude}


_THRESHOLDS = ("head_threshold", "medium_threshold")
_DATA_TYPES = _types(SyntheticConfig, ("seed",))
_ZIPF_TYPES = {"max_count": int, "exponent": float, "min_count": int}
_WEIGHT_TYPES = _types(LossWeights)
_TRAIN_TYPES = {**_types(TrainConfig, ("weights", "seed") + _THRESHOLDS), **_WEIGHT_TYPES}
_EVAL_TYPES = {k: _types(TrainConfig)[k] for k in _THRESHOLDS} | {"test_fraction": float}
_TOP_KEYS = ("version", "seed", "data", "train", "eval")
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _coerce(section, key, value, kind):
    """`value` as a field annotated `kind`; a JSON value that does not fit it is a ConfigError."""
    origin = typing.get_origin(kind)
    if fits_type(value, kind):
        return origin(value) if origin else float(value) if kind is float else value
    what = (f"a list of {typing.get_args(kind)[0].__name__} values" if origin
            else _TYPE_NAMES[kind])
    raise ConfigError(f"config section {section!r}: key {key!r} must be {what}, got {value!r}")


def _section(raw, section, types, extra=()):
    """The keys given in config section `section`, each coerced to its type."""
    d = raw.get(section, {})
    if not isinstance(d, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    _check_keys(section, d, tuple(types) + extra)
    return {k: v if k in extra else _coerce(section, k, v, types[k]) for k, v in d.items()}


class RunConfig:
    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys("<root>", raw, _TOP_KEYS)
        if _coerce("<root>", "version", raw.get("version", CONFIG_VERSION), int) != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {raw.get('version')}")
        if "seed" not in raw:
            raise ConfigError("config is missing required key 'seed'")
        self.seed = _coerce("<root>", "seed", raw["seed"], int)
        self._data = _section(raw, "data", _DATA_TYPES, extra=("zipf",))
        self._train = _section(raw, "train", _TRAIN_TYPES)
        ev = _section(raw, "eval", _EVAL_TYPES)
        defaults = TrainConfig()
        self.head_threshold = ev.get("head_threshold", defaults.head_threshold)
        self.medium_threshold = ev.get("medium_threshold", defaults.medium_threshold)
        self.test_fraction = ev.get("test_fraction", 0.25)

    def synthetic_config(self, seed):
        d = dict(self._data)
        if "C" not in d or "D" not in d or "L" not in d:
            raise ConfigError("config section 'data' needs C, D and L")
        if "counts" in d and "zipf" in d:
            raise ConfigError("config section 'data': give either counts or zipf, not both")
        if "zipf" in d:
            z = _section({"data.zipf": d.pop("zipf")}, "data.zipf", _ZIPF_TYPES)
            if "max_count" not in z:
                raise ConfigError("config section 'data.zipf' needs max_count")
            d["counts"] = zipf_counts(d["C"], **z)
        elif "counts" not in d:
            raise ConfigError("config section 'data' needs counts or zipf")
        return SyntheticConfig(**d, seed=seed)

    def train_config(self, seed):
        tr = dict(self._train)
        weights = LossWeights(**{k: tr.pop(k) for k in _WEIGHT_TYPES if k in tr})
        return TrainConfig(**tr, weights=weights, seed=seed,
                           head_threshold=self.head_threshold,
                           medium_threshold=self.medium_threshold)


def load_config(path):
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: line {e.lineno}: {e.msg}")
    return RunConfig(raw)
