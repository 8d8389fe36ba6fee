"""Flat ``key = value`` experiment configuration, one section per component.

The ``[classifier]``, ``[lm]`` and ``[model]`` sections are built from the
model constructors: their keys are the constructors' keyword parameters, less
those a run sets itself (vocabulary size, seeds, style, direction, LM length),
and their defaults are the constructors' defaults. Every default is
overridable from the file; unknown keys are rejected so typos fail loudly.
Sub-seeds for each component are derived deterministically from one root
seed, the stages' ``max_len`` follows ``data.max_len``, and whether stage 1
trains ``L_xλ`` follows the ablation variant ``stage2.ablation``.
"""

from __future__ import annotations

import configparser
import inspect
from dataclasses import asdict, dataclass, field, fields, make_dataclass

from restyle.base import derive_seed
from restyle.language_model import DirectionalLanguageModel
from restyle.lrp import EPSILON, ETA_TARGET, STABILIZER
from restyle.seq2seq import Seq2seqModel
from restyle.textcnn import TextCnnStyleClassifier
from restyle.training import VARIANTS, Stage1Config, Stage2Config


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


def constructor_section(name: str, model_cls, run_keys: tuple) -> type:
    """A config section whose keys and defaults are ``model_cls``'s keyword
    parameters, less ``run_keys``, the ones a run sets itself."""
    params = inspect.signature(model_cls.__init__).parameters
    return make_dataclass(name, [(key, type(p.default), field(default=p.default))
                                 for key, p in params.items()
                                 if key != "self" and key not in run_keys],
                          namespace={"__module__": __name__})   # so configs pickle


ClassifierSection = constructor_section("ClassifierSection", TextCnnStyleClassifier,
                                        ("vocab_size", "seed", "dev_fraction"))
LmSection = constructor_section("LmSection", DirectionalLanguageModel,
                                ("vocab_size", "style", "direction", "max_len", "seed",
                                 "dev_fraction"))
ModelSection = constructor_section("ModelSection", Seq2seqModel, ("vocab_size", "seed"))


@dataclass
class LrpSection:
    eta: str = "auto"          # positive float or "auto" (calibrated per run)
    eta_target: float = ETA_TARGET
    epsilon: float = EPSILON
    stabilizer: float = STABILIZER


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
        self.stage1.lxlambda_off = not self.stage2.variant.lxlambda

    def seed_for(self, component: str) -> int:
        return derive_seed(self.root_seed, component)

    def to_dict(self) -> dict:
        out = {"root_seed": self.root_seed}
        for name in SECTIONS:
            out[name] = {k: list(v) if isinstance(v, tuple) else v
                         for k, v in asdict(getattr(self, name)).items()}
        return out


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
    return raw


SECTIONS = {"data": DataConfig, "classifier": ClassifierSection, "lm": LmSection,
            "model": ModelSection, "lrp": LrpSection, "stage1": Stage1Config,
            "stage2": Stage2Config}
# fields the config derives rather than reads, and what sets each
DERIVED_KEYS = {"stage1.max_len": "data.max_len", "stage2.max_len": "data.max_len",
                "stage1.lxlambda_off": "stage2.ablation = " + " or ".join(
                    name for name, v in VARIANTS.items() if not v.lxlambda)}


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
        dotted = f"{section}.{key}"
        if key not in {f.name for f in fields(default)} or dotted in DERIVED_KEYS:
            follows = f"; it follows {DERIVED_KEYS[dotted]}" if dotted in DERIVED_KEYS else ""
            raise ValueError(f"unknown config key {dotted}{follows}")
        values[section][key] = _coerce(getattr(default, key), raw)
    return ExperimentConfig(root_seed=root_seed,
                            **{name: cls(**values[name]) for name, cls in SECTIONS.items()})
