import numpy as np
import pytest

from restyle.config import load_config
from restyle.pipeline import StyleTransferPipeline, evaluate_transfer
from restyle.synthetic import generate_marker_corpus


@pytest.fixture(scope="module")
def fitted_pipeline():
    corpus = generate_marker_corpus(n_train=1500, n_dev=150, n_test=80, seed=21)
    cfg = load_config(None, {
        "run.root_seed": "9", "data.min_freq": "1",
        "model.embed_dim": "32", "model.hidden_dim": "32",
        "classifier.embed_dim": "32", "classifier.num_filters": "16",
        "classifier.epochs": "3",
        "lm.embed_dim": "24", "lm.hidden_dim": "24", "lm.epochs": "2",
        "stage1.epochs": "6", "stage1.learning_rate": "2e-3", "stage1.optimizer": "adam",
        "stage1.patience": "2",
        "stage2.optimizer": "adam", "stage2.learning_rate": "5e-4", "stage2.clip_norm": "1.0",
        "stage2.epochs": "1",
    })
    pipe = StyleTransferPipeline(cfg)
    pipe.fit(corpus.train_sentences, corpus.train_labels,
             corpus.dev_sentences, corpus.dev_labels)
    return pipe, corpus


class TestStyleTransferPipeline:
    """API mechanics at small scale; end-to-end quality is asserted by the
    acceptance suite at full corpus size."""

    def test_fit_populates_artifacts(self, fitted_pipeline):
        pipe, _ = fitted_pipeline
        assert pipe.classifier_.dev_accuracy_ >= 0.95
        assert pipe.stage1_metrics_["token_accuracy"] >= 0.5
        assert len(pipe.lms_) == 4
        assert pipe.lrp_config_.eta > 0

    def test_transform_returns_decoded_sentences(self, fitted_pipeline):
        pipe, _ = fitted_pipeline
        outs = pipe.transform(["the food was awful .", "the pasta was terrible ."],
                              target_style=1)
        assert len(outs) == 2
        vocab_tokens = set(pipe.vocab_.id_to_token)
        for out in outs:
            assert out and all(tok in vocab_tokens for tok in out.split())

    def test_transform_with_relevance(self, fitted_pipeline):
        pipe, _ = fitted_pipeline
        outs, lams = pipe.transform(["the food was awful ."], target_style=1,
                                    return_relevance=True)
        assert len(outs) == 1
        assert len(lams[0]) == len(outs[0].split())
        assert all(0.0 <= x <= 1.0 for x in lams[0])

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            StyleTransferPipeline().transform(["hello"], target_style=0)

    def test_get_params_includes_configs(self):
        cfg = load_config(None, {"model.embed_dim": "16"})
        assert StyleTransferPipeline(cfg).get_params() == {"config": cfg}
        assert StyleTransferPipeline().get_params() == {"config": load_config(None)}


class TestEvaluateTransfer:
    def test_report_on_oracle_substitution(self, fitted_pipeline):
        # feeding reference transfers as 'outputs' of an identity model measures
        # the scoring path: accuracy near classifier quality, BLEU = 100
        pipe, corpus = fitted_pipeline

        class IdentityModel:
            vocab_size = len(pipe.vocab_)

            def generate_greedy(self, ids, lengths, target_style=None, styled=True,
                                max_len=16, gate_override=None):
                outs = [row[:l].tolist() for row, l in zip(ids, lengths)]
                return outs, np.zeros((len(outs), max_len))

        refs_as_inputs = [refs[0] for refs in corpus.test_references]
        report, decoded = evaluate_transfer(
            IdentityModel(), pipe.classifier_, pipe.vocab_, refs_as_inputs,
            corpus.test_labels, corpus.test_references, max_len=16)
        assert report.bleu == pytest.approx(100.0)
        assert report.acc >= 95.0
        assert decoded[0] == refs_as_inputs[0]
