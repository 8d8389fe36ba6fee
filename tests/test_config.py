import inspect
import pytest

from restyle.config import ExperimentConfig, load_config
from restyle.language_model import DirectionalLanguageModel
from restyle.seq2seq import Seq2seqModel
from restyle.textcnn import TextCnnStyleClassifier

# each model section and the constructor parameters a run sets itself
MODEL_SECTIONS = [
    ("classifier", TextCnnStyleClassifier, ("vocab_size", "seed", "dev_fraction")),
    ("lm", DirectionalLanguageModel,
     ("vocab_size", "style", "direction", "max_len", "seed", "dev_fraction")),
    ("model", Seq2seqModel, ("vocab_size", "seed")),
]


def write_cfg(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return p


class TestLoadConfig:
    def test_defaults_match_stated_values(self):
        cfg = load_config(None)
        assert cfg.stage2.alpha == 1.0
        assert cfg.stage2.beta == 2.0
        assert cfg.stage2.gamma == 0.5
        assert cfg.stage2.learning_rate == 1e-5
        assert cfg.stage2.clip_norm == 1e-2
        assert cfg.stage1.replace_prob == 0.15
        assert cfg.data.max_len == 16
        assert cfg.lrp.epsilon == 0.3

    def test_typed_coercion(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, """
[stage2]
alpha = 2.5
epochs = 7
gumbel_noise = false

[classifier]
filter_widths = 2, 3
"""))
        assert cfg.stage2.alpha == 2.5
        assert cfg.stage2.epochs == 7
        assert cfg.stage2.gumbel_noise is False
        assert cfg.classifier.filter_widths == (2, 3)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(write_cfg(tmp_path, "[stage1]\nwat = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(write_cfg(tmp_path, "[nope]\nx = 1\n"))

    def test_seeds_derived_from_root(self, tmp_path):
        a = load_config(write_cfg(tmp_path, "[run]\nroot_seed = 5\n"))
        b = load_config(None, overrides={"run.root_seed": "5"})
        c = load_config(None, overrides={"run.root_seed": "6"})
        assert a.stage1.seed == b.stage1.seed
        assert a.stage1.seed != c.stage1.seed
        assert a.stage1.seed != a.stage2.seed

    def test_explicit_seed_pinned(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[stage1]\nseed = 123\n"))
        assert cfg.stage1.seed == 123

    def test_code_and_file_configs_derive_the_same_stage_seeds(self):
        built, loaded = ExperimentConfig(), load_config(None)
        assert built.stage1.seed == loaded.stage1.seed == built.seed_for("stage1")
        assert built.stage2.seed == loaded.stage2.seed == built.seed_for("stage2")
        assert built == loaded
        assert ExperimentConfig(root_seed=5).stage1.seed == \
            load_config(None, {"run.root_seed": "5"}).stage1.seed

    def test_stage_max_len_follows_data_max_len(self):
        cfg = load_config(None, {"data.max_len": "20"})
        assert cfg.stage1.max_len == cfg.stage2.max_len == 20
        for key in ("stage1.max_len", "stage2.max_len"):
            with pytest.raises(ValueError, match=f"unknown config key {key}"):
                load_config(None, {key: "20"})

    def test_ablation_names_parsed(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[stage2]\nablation = nsc-lambda\n"))
        assert cfg.stage2.ablation == "nsc-lambda"
        assert cfg.to_dict()["stage2"]["ablation"] == "nsc-lambda"

    def test_one_variant_per_run_and_lxlambda_off_follows_it(self):
        assert load_config(None).stage1.lxlambda_off is False
        assert load_config(None, {"stage2.ablation": "-lxlambda"}).stage1.lxlambda_off is True
        with pytest.raises(ValueError, match="unknown config key stage1.lxlambda_off; "
                                             "it follows stage2.ablation = no-lxlambda"):
            load_config(None, {"stage1.lxlambda_off": "true"})
        for value in ("nsc-lambda,no-lm", "nsc-lambda no-lm"):
            with pytest.raises(ValueError, match="in stage2.ablation; one per run"):
                load_config(None, {"stage2.ablation": value})

    def test_replace_prob_validated(self):
        for prob in ("1.5", "-0.1"):
            with pytest.raises(ValueError, match="replace_prob"):
                load_config(None, {"stage1.replace_prob": prob})
        assert load_config(None, {"stage1.replace_prob": "1"}).stage1.replace_prob == 1.0

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonnegative"):
            load_config(write_cfg(tmp_path, "[stage2]\nalpha = -1\n"))

    def test_resolve_lrp_calibrates_only_an_auto_eta(self, small_classifier, encoded_dev,
                                                      monkeypatch):
        import restyle.pipeline as pipeline_module
        from restyle.lrp import calibrate_eta
        from restyle.training import LrpConfig

        mapping = {"lrp.epsilon": "0.4", "lrp.stabilizer": "1e-6"}
        cfg = load_config(None, mapping)
        eta = calibrate_eta(small_classifier, encoded_dev.sentences, encoded_dev.labels,
                            target_lambda=cfg.lrp.eta_target, stabilizer=1e-6,
                            seed=cfg.seed_for("eta"))
        assert pipeline_module.resolve_lrp(cfg, small_classifier, encoded_dev) == \
            LrpConfig(eta=eta, epsilon=0.4, stabilizer=1e-6)

        def calibrate(*args, **kwargs):
            raise AssertionError("a numeric lrp.eta was calibrated")

        monkeypatch.setattr(pipeline_module, "calibrate_eta", calibrate)
        cfg = load_config(None, {**mapping, "lrp.eta": "2.5"})
        assert pipeline_module.resolve_lrp(cfg, small_classifier, encoded_dev) == \
            LrpConfig(eta=2.5, epsilon=0.4, stabilizer=1e-6)

    def test_pickles(self):
        import pickle

        cfg = load_config(None, {"classifier.filter_widths": "2, 3", "lm.hidden_dim": "8"})
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_to_dict_round_trips_hashable(self):
        cfg = ExperimentConfig()
        d = cfg.to_dict()
        assert d["stage2"]["alpha"] == 1.0
        import json
        json.dumps(d)


class TestModelSections:
    @pytest.mark.parametrize("section,cls,run_keys", MODEL_SECTIONS)
    def test_run_level_parameters_rejected(self, section, cls, run_keys):
        for key in run_keys:
            with pytest.raises(ValueError, match=f"unknown config key {section}.{key}"):
                load_config(None, {f"{section}.{key}": "1"})

    @pytest.mark.parametrize("section,cls,run_keys", MODEL_SECTIONS)
    def test_every_other_keyword_accepted(self, section, cls, run_keys):
        def other(default):
            if isinstance(default, tuple):
                return (3, 5), "3, 5"
            if isinstance(default, str):
                return "sgd", "sgd"
            return default + 1, str(default + 1)

        for key, p in inspect.signature(cls.__init__).parameters.items():
            if key == "self" or key in run_keys:
                continue
            value, raw = other(p.default)
            cfg_section = getattr(load_config(None, {f"{section}.{key}": raw}), section)
            assert getattr(cfg_section, key) == value
