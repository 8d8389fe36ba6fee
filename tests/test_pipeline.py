import numpy as np
import pytest
from _oracles import randomize

import restyle.pipeline as pipeline_module
from restyle.checkpoint import params_hash
from restyle.config import load_config
from restyle.data import PAD, Vocabulary, build_vocab
from restyle.pipeline import (
    StyleTransferPipeline,
    encode_corpus,
    evaluate_transfer,
    train_classifier,
    train_stage1,
    transfer_sentences,
)
from restyle.seq2seq import Seq2seqModel
from restyle.synthetic import generate_marker_corpus
from restyle.training import TrainLog

# a small run: every stage trains in seconds
SMALL_RUN = {
    "run.root_seed": "4", "data.min_freq": "1",
    "classifier.embed_dim": "16", "classifier.num_filters": "8", "classifier.epochs": "1",
    "lm.embed_dim": "8", "lm.hidden_dim": "8", "lm.epochs": "1",
    "model.embed_dim": "16", "model.hidden_dim": "16", "model.attn_dim": "16",
    "model.head_dim": "8", "model.style_dim": "4", "model.mlp_dim": "8",
    "stage1.epochs": "1", "stage1.optimizer": "adam", "stage1.learning_rate": "2e-3",
    "stage2.optimizer": "adam", "stage2.learning_rate": "1e-2", "stage2.clip_norm": "1.0",
}


def random_tiny_model(seed):
    return randomize(Seq2seqModel(vocab_size=12, embed_dim=6, hidden_dim=5, attn_dim=5,
                                  head_dim=4, style_dim=3, mlp_dim=4, seed=0), seed)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_marker_corpus(n_train=240, n_dev=20, n_test=20, seed=5)


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

    def test_relevance_pairs_each_decoded_word_with_its_gate(self):
        # the fixed seed-13 tiny model of test_soft_lengths_equal_greedy_lengths_at_low_
        # temperature emits PAD inside its outputs, which decoding drops
        model = random_tiny_model(13)
        pipe = StyleTransferPipeline(load_config(None, {"data.max_len": "8"}))
        pipe.vocab_, pipe.model_ = Vocabulary([f"w{i}" for i in range(4, 12)]), model
        X = [" ".join(f"w{i}" for i in ids) for ids in
             ([4, 5, 6, 7], [8, 9, 10], [5, 4], [11, 6, 9, 7, 4], [7], [9, 9, 10])]
        tokens, gates = transfer_sentences(model, [pipe.vocab_.encode(x) for x in X], 1,
                                           max_len=8)
        assert any(PAD in t for t in tokens)
        outs, lams = pipe.transform(X, target_style=1, return_relevance=True)
        assert [len(lam) for lam in lams] == [len(out.split()) for out in outs]
        for t, g, lam in zip(tokens, gates, lams):
            assert lam == [float(g[j]) for j, tok in enumerate(t) if tok != PAD]

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            StyleTransferPipeline().transform(["hello"], target_style=0)

    def test_get_params_includes_configs(self):
        cfg = load_config(None, {"model.embed_dim": "16"})
        assert StyleTransferPipeline(cfg).get_params() == {"config": cfg}
        assert StyleTransferPipeline().get_params() == {"config": load_config(None)}


class TestAblationVariants:
    def test_no_nsc_fit_keeps_the_stage1_model_and_decodes_unstyled(self, small_corpus,
                                                                    monkeypatch):
        stage1_hash = []

        def record_stage1(*args, **kwargs):
            model, lrp, metrics = train_stage1(*args, **kwargs)
            stage1_hash.append(params_hash(model.params))
            return model, lrp, metrics

        monkeypatch.setattr(pipeline_module, "train_stage1", record_stage1)
        cfg = load_config(None, {**SMALL_RUN, "stage2.ablation": "no-nsc"})
        pipe = StyleTransferPipeline(cfg).fit(small_corpus.train_sentences,
                                              small_corpus.train_labels)
        assert pipe.model_.weights_hash() == stage1_hash[0]
        assert pipe.lms_ == {}
        X = small_corpus.test_sentences
        ids = [pipe.vocab_.encode(s) for s in X]
        unstyled, _ = transfer_sentences(pipe.model_, ids, 1, max_len=cfg.data.max_len,
                                         styled=False)
        assert pipe.transform(X, target_style=1) == [pipe.vocab_.decode(o) for o in unstyled]

    @pytest.mark.parametrize("setting", [{"stage2.ablation": "no-lm"}, {"stage2.gamma": "0"}],
                             ids=["no-lm", "gamma-0"])
    def test_fit_without_fluency_trains_no_language_model(self, small_corpus, setting):
        pipe = StyleTransferPipeline(load_config(None, {**SMALL_RUN, **setting}))
        pipe.fit(small_corpus.train_sentences, small_corpus.train_labels)
        assert pipe.lms_ == {}

    def test_no_lxlambda_trains_stage1_without_the_relevance_term(self, small_corpus):
        cfg = load_config(None, {**SMALL_RUN, "stage2.ablation": "no-lxlambda"})
        vocab = build_vocab(small_corpus.train_sentences)
        train = encode_corpus(cfg, vocab, small_corpus.train_sentences,
                              small_corpus.train_labels)
        log = TrainLog()
        train_stage1(cfg, len(vocab), train_classifier(cfg, len(vocab), train), train, log=log)
        assert log.rows and all(row["l_xlambda"] == 0.0 for row in log.rows)
        assert all(row["total"] == row["l_sr"] > 0.0 for row in log.rows)


class TestTransferSentences:
    def test_length_ordered_batches_decode_as_each_sentence_alone(self):
        model = random_tiny_model(13)
        rng = np.random.default_rng(8)
        id_seqs = [rng.integers(4, 12, size=n).tolist() for n in (4, 3, 2, 5, 1, 3, 6, 2, 4)]
        widths = []
        generate = model.generate_greedy

        def spy(ids, lengths, **kwargs):
            widths.append(ids.shape[1])
            return generate(ids, lengths, **kwargs)

        model.generate_greedy = spy
        tokens, gates = transfer_sentences(model, id_seqs, 1, max_len=8, batch_size=2)
        assert widths == sorted(widths) and len(widths) == 5
        del model.generate_greedy
        assert len({len(t) for t in tokens}) >= 3
        for seq, out, row in zip(id_seqs, tokens, gates, strict=True):
            alone_tokens, alone_gates = transfer_sentences(model, [seq], 1, max_len=8)
            assert out == alone_tokens[0]
            decoded = min(len(out) + 1, 8)
            np.testing.assert_allclose(row[:decoded], alone_gates[0][:decoded], rtol=0,
                                       atol=1e-12)

    def test_one_target_per_sentence_decodes_as_per_style_calls(self):
        model = random_tiny_model(21)
        rng = np.random.default_rng(3)
        id_seqs = [rng.integers(4, 12, size=n).tolist() for n in (5, 2, 4, 1, 3, 6, 2, 5, 3, 4)]
        targets = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0])
        tokens, gates = transfer_sentences(model, id_seqs, targets, max_len=8, batch_size=3)
        assert tokens != transfer_sentences(model, id_seqs, 1 - targets, max_len=8)[0]
        for style in (0, 1):
            idx = np.flatnonzero(targets == style)
            alone_tokens, alone_gates = transfer_sentences(model, [id_seqs[i] for i in idx],
                                                           style, max_len=8, batch_size=3)
            assert [tokens[i] for i in idx] == alone_tokens
            for i, row in zip(idx, alone_gates):
                decoded = min(len(tokens[i]) + 1, 8)
                np.testing.assert_allclose(gates[i][:decoded], row[:decoded], rtol=0,
                                           atol=1e-12)


class TestEvaluateTransfer:
    def test_mixed_styles_decode_as_per_style_transfer(self, fitted_pipeline):
        pipe, corpus = fitted_pipeline
        X, labels = corpus.test_sentences, np.asarray(corpus.test_labels)
        assert len(set(labels[:8])) == 2 and len({len(s.split()) for s in X}) > 1
        _, decoded = evaluate_transfer(pipe.model_, pipe.classifier_, pipe.vocab_, X, labels,
                                       corpus.test_references)
        for style in (0, 1):
            idx = np.flatnonzero(labels == style)
            outs, _ = transfer_sentences(pipe.model_, [pipe.vocab_.encode(X[i]) for i in idx],
                                         1 - style)
            assert [decoded[i] for i in idx] == [pipe.vocab_.decode(o) for o in outs]

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
