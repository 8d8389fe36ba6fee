"""Flat ``key = value`` experiment configuration, one section per component.

Every default is overridable from the file; unknown keys are rejected so
typos fail loudly. Sub-seeds for each component are derived deterministically
from one root seed, and the stages' ``max_len`` follows ``data.max_len``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from restyle.base import derive_seed
from restyle.training import LrpConfig, Stage1Config, Stage2Config, resolve_ablation


@dataclass
class DataConfig:
    train_style0: str = ""
    train_style1: str = ""
    dev_style0: str = ""
    dev_style1: str = ""
    test_style0: str = ""
    test_style1: str = ""
    test_refs_style0: str = ""   # comma-separated reference files for 0 -> 1
    test_refs_style1: str = ""   # comma-separated reference files for 1 -> 0
    max_len: int = 16
    min_freq: int = 2
    lowercase: bool = True


@dataclass
class ClassifierSection:
    embed_dim: int = 64
    num_filters: int = 32
    filter_widths: tuple = (2, 3, 4)
    epochs: int = 5
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    batch_size: int = 32
    optimizer: str = "adam"
    label_smoothing: float = 0.0
    word_dropout: float = 0.0


@dataclass
class LmSection:
    embed_dim: int = 64
    hidden_dim: int = 64
    epochs: int = 5
    learning_rate: float = 2e-3
    clip_norm: float = 5.0
    batch_size: int = 32
    optimizer: str = "adam"


@dataclass
class ModelSection:
    embed_dim: int = 64
    hidden_dim: int = 64
    attn_dim: int = 64
    head_dim: int = 32
    style_dim: int = 16
    mlp_dim: int = 64


@dataclass
class LrpSection:
    eta: str = "auto"          # positive float or "auto" (calibrated per run)
    eta_target: float = 0.7
    epsilon: float = 0.3
    stabilizer: float = 1e-9


@dataclass
class ExperimentConfig:
    root_seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    classifier: ClassifierSection = field(default_factory=ClassifierSection)
    lm: LmSection = field(default_factory=LmSection)
    model: ModelSection = field(default_factory=ModelSection)
    lrp: LrpSection = field(default_factory=LrpSection)
    # a stage seed left as None is derived from the root seed
    stage1: Stage1Config = field(default_factory=lambda: Stage1Config(seed=None))
    stage2: Stage2Config = field(default_factory=lambda: Stage2Config(seed=None))

    def __post_init__(self):
        for name in ("stage1", "stage2"):
            stage = getattr(self, name)
            if stage.seed is None:
                stage.seed = self.seed_for(name)
            stage.max_len = self.data.max_len

    def seed_for(self, component: str) -> int:
        return derive_seed(self.root_seed, component)

    def to_dict(self) -> dict:
        out = {"root_seed": self.root_seed}
        for name in SECTIONS:
            section = getattr(self, name)
            out[name] = {f.name: _plain(getattr(section, f.name))
                         for f in fields(section)}
        return out

    def lrp_config(self, calibrated_eta: float | None = None) -> LrpConfig:
        if self.lrp.eta == "auto":
            if calibrated_eta is None:
                raise ValueError("lrp.eta is 'auto' but no calibrated value was supplied")
            eta = calibrated_eta
        else:
            eta = float(self.lrp.eta)
        return LrpConfig(eta=eta, epsilon=self.lrp.epsilon, stabilizer=self.lrp.stabilizer)


def _plain(v):
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def _coerce(current, raw: str):
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(x) for x in raw.replace(",", " ").split())
    if isinstance(current, frozenset):
        parts = [p for p in raw.replace(",", " ").split() if p]
        out = frozenset()
        for p in parts:
            out |= resolve_ablation(p)
        return out
    return raw


SECTIONS = {"data": DataConfig, "classifier": ClassifierSection, "lm": LmSection,
            "model": ModelSection, "lrp": LrpSection, "stage1": Stage1Config,
            "stage2": Stage2Config}
# fields the config derives from others rather than reads
DERIVED_KEYS = ("stage1.max_len", "stage2.max_len")


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Parse an INI-style file onto the defaults; ``overrides`` maps
    'section.key' -> raw string."""
    items: list[tuple[str, str, str]] = []
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
        for section in parser.sections():
            for key, raw in parser.items(section):
                items.append((section, key, raw))
    for dotted, raw in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        items.append((section, key, str(raw)))

    root_seed = 0
    values = {name: {} for name in SECTIONS}
    values["stage1"]["seed"] = values["stage2"]["seed"] = None
    for section, key, raw in items:
        if section == "run":
            if key == "root_seed":
                root_seed = int(raw)
                continue
            raise ValueError(f"unknown config key run.{key}")
        if section not in SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        default = SECTIONS[section]()
        if key not in {f.name for f in fields(default)} or f"{section}.{key}" in DERIVED_KEYS:
            raise ValueError(f"unknown config key {section}.{key}")
        values[section][key] = _coerce(getattr(default, key), raw)
    return ExperimentConfig(root_seed=root_seed,
                            **{name: cls(**values[name]) for name, cls in SECTIONS.items()})
