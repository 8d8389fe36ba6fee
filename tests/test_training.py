import numpy as np
import pytest
from _oracles import grads_all_zero, graph_nodes

from restyle import autodiff as ad
from restyle import training
from restyle.autodiff import backward, constant
from restyle.data import EOS, LabeledCorpus, corrupt_batch, pack_batch
from restyle.gradcheck import build_toy_system, term_fns
from restyle.language_model import DirectionalLanguageModel
from restyle.seq2seq import Seq2seqModel, sample_gumbel
from restyle.training import (
    LambdaTargetCache,
    LossBreakdown,
    LrpConfig,
    Stage1Config,
    Stage1Trainer,
    Stage2Config,
    Stage2Trainer,
    TrainLog,
    VARIANTS,
    resolve_ablation,
    stage1_losses,
    stage2_losses,
)


@pytest.fixture
def lam_cache(small_classifier):
    return LambdaTargetCache(small_classifier, LrpConfig(eta=1.0, epsilon=0.3))


def make_model(vocab, seed=0):
    return Seq2seqModel(len(vocab), embed_dim=16, hidden_dim=16, attn_dim=16,
                        head_dim=8, style_dim=4, mlp_dim=8, seed=seed)


def make_lms(vocab, styles=(0, 1)):
    lms = {}
    for style in styles:
        for direction in ("forward", "backward"):
            lm = DirectionalLanguageModel(vocab_size=len(vocab), style=style,
                                          direction=direction, embed_dim=8,
                                          hidden_dim=8, seed=1)
            lm._init_params()
            lms[(style, direction)] = lm
    return lms


def stage2_trainer(vocab, small_classifier, lam_cache, encoded_train, cfg=None):
    model = make_model(vocab)
    cfg = cfg or Stage2Config(optimizer="sgd", learning_rate=1e-3, clip_norm=1.0,
                              batch_size=4, max_len=10, gumbel_noise=False, seed=0)
    return Stage2Trainer(model, small_classifier, make_lms(vocab), lam_cache,
                         cfg, LrpConfig(eta=1.0, epsilon=0.3),
                         encoded_train), model


class TestAblationResolution:
    def test_known_variants(self):
        assert resolve_ablation("no-nsc") == "no-nsc"
        assert resolve_ablation("NSC-lambda") == "nsc-lambda"
        assert resolve_ablation("-NSC") == "no-nsc"
        assert resolve_ablation("Finetuning-") == "no-finetune"
        assert resolve_ablation("full") == "full"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation"):
            resolve_ablation("bogus-variant")


class TestStage1:
    def test_loss_accounting(self, vocab, small_classifier, lam_cache, encoded_train):
        model = make_model(vocab)
        cfg = Stage1Config(epochs=1, batch_size=4, learning_rate=0.1, seed=0)
        trainer = Stage1Trainer(model, small_classifier, lam_cache, cfg,
                                encoded_train)
        batch = pack_batch(encoded_train.sentences[:4], encoded_train.labels[:4])
        br = trainer.step(batch)
        assert br.total == pytest.approx(br.l_sr + br.l_xlambda, abs=1e-12)
        assert br.grad_norm_preclip > 0

    def test_theta_lambda_gradient_flows_only_through_relevance_loss(
            self, vocab, small_classifier, lam_cache, encoded_train):
        model = make_model(vocab)
        batch = pack_batch(encoded_train.sentences[:4], encoded_train.labels[:4])
        losses = stage1_losses(model, batch, lam_cache.batch_matrix(batch), True)

        backward(losses["l_sr"])
        head = {k: p for k, p in model.params.items() if k.startswith("head.")}
        assert grads_all_zero(head)

        backward(losses["l_xlambda"])
        assert not grads_all_zero(head)

    def test_oracle_injection_zeroes_relevance_loss(self, vocab, small_classifier,
                                                    lam_cache, encoded_train):
        model = make_model(vocab)
        batch = pack_batch(encoded_train.sentences[:4], encoded_train.labels[:4])
        with ad.no_grad():
            _, gates = model.teacher_forced_pass(batch)
        lam_hat = gates.values[:, :batch.enc_ids.shape[1]]
        assert stage1_losses(model, batch, lam_hat, True)["l_xlambda"].item() == 0.0

    def test_deterministic_loss_sequence(self, vocab, small_classifier, lam_cache,
                                         encoded_train):
        def run():
            model = make_model(vocab, seed=3)
            cfg = Stage1Config(epochs=1, batch_size=8, learning_rate=0.2, seed=5)
            small = LabeledCorpus(encoded_train.sentences[:64], encoded_train.labels[:64])
            trainer = Stage1Trainer(model, small_classifier, lam_cache, cfg, small)
            trainer.train()
            return [(r["l_sr"], r["l_xlambda"], r["total"]) for r in trainer.log.rows]

        assert run() == run()

    def test_evaluate_relevance_mse_is_the_trained_term(self, vocab, small_classifier,
                                                        lam_cache, encoded_dev):
        model = make_model(vocab, seed=2)
        trainer = Stage1Trainer(model, small_classifier, lam_cache, Stage1Config(seed=0),
                                encoded_dev)
        corpus = LabeledCorpus(encoded_dev.sentences[:150], encoded_dev.labels[:150])
        mse = trainer.evaluate(corpus, batch_size=64)["relevance_mse"]
        weighted = n = 0
        with ad.no_grad():
            for lo in range(0, len(corpus), 64):
                batch = pack_batch(corpus.sentences[lo:lo + 64],
                                   labels=corpus.labels[lo:lo + 64])
                l_xlambda = stage1_losses(model, batch, lam_cache.batch_matrix(batch),
                                          True)["l_xlambda"]
                weighted += l_xlambda.item() * len(batch.lengths)
                n += len(batch.lengths)
        assert mse > 0
        assert mse == pytest.approx(weighted / n, rel=1e-15)

    def test_lxlambda_off_drops_term(self, vocab, small_classifier, lam_cache,
                                     encoded_train):
        model = make_model(vocab)
        cfg = Stage1Config(epochs=1, batch_size=4, lxlambda_off=True, seed=0)
        trainer = Stage1Trainer(model, small_classifier, lam_cache, cfg, encoded_train)
        batch = pack_batch(encoded_train.sentences[:4], encoded_train.labels[:4])
        br = trainer.step(batch)
        assert br.l_xlambda == 0.0
        assert br.total == pytest.approx(br.l_sr, abs=1e-12)


class TestStage1Graph:
    def test_loss_graph_size(self):
        # one traced op per GRU update and nothing but the recurrence per
        # decoder step: 21 updates for 10-token sentences at the default widths
        model = Seq2seqModel(vocab_size=30, seed=0)
        batch = pack_batch([list(range(4, 14)), list(range(5, 15))])
        lam_x = np.zeros(batch.enc_ids.shape)
        losses = training.stage1_losses(model, batch, lam_x, True)
        assert batch.enc_ids.shape[1] == 10
        assert graph_nodes(losses["total"]) <= 250


class TestStage2:
    def test_loss_accounting_to_1e12(self, vocab, small_classifier, lam_cache,
                                     encoded_train):
        trainer, _ = stage2_trainer(vocab, small_classifier, lam_cache, encoded_train)
        batch = trainer.batchers[0].make_batch(np.arange(4))
        br = trainer.step(batch, source_style=0)
        cfg = trainer.cfg
        expected = br.l_st + cfg.alpha * br.l_ylambda + cfg.beta * br.l_cp \
            + cfg.gamma * br.l_lm
        assert br.total == pytest.approx(expected, abs=1e-12)

    def test_frozen_classifier_and_lms_get_zero_grads(self, vocab, small_classifier,
                                                      lam_cache, encoded_train):
        trainer, _ = stage2_trainer(vocab, small_classifier, lam_cache, encoded_train)
        batch = trainer.batchers[1].make_batch(np.arange(4))
        trainer.step(batch, source_style=1)
        assert grads_all_zero(small_classifier.params_)
        for lm in trainer.lms.values():
            assert grads_all_zero(lm.params_)
        small_classifier.set_trainable(True)

    def test_step_zero_decode_matches_basic(self, vocab, small_classifier, lam_cache,
                                            encoded_train):
        _, model = stage2_trainer(vocab, small_classifier, lam_cache, encoded_train)
        batch = pack_batch(encoded_train.sentences[:6])
        basic, _ = model.generate_greedy(batch.enc_ids, batch.lengths, styled=False,
                                         max_len=12)
        styled, _ = model.generate_greedy(batch.enc_ids, batch.lengths, target_style=1,
                                          styled=True, max_len=12)
        assert basic == styled

    def test_gate_override_logged_as_one(self, vocab, small_classifier, lam_cache,
                                         encoded_train):
        cfg = Stage2Config(optimizer="sgd", learning_rate=1e-3, clip_norm=1.0,
                           batch_size=4, max_len=10, gumbel_noise=False,
                           ablation=resolve_ablation("nsc-lambda"), seed=0)
        trainer, model = stage2_trainer(vocab, small_classifier, lam_cache,
                                        encoded_train, cfg)
        batch = pack_batch(encoded_train.sentences[:4])
        _, gates = model.generate_greedy(batch.enc_ids, batch.lengths, target_style=1,
                                         styled=True, max_len=8, gate_override=1.0)
        assert (gates[gates != 0.0] == 1.0).all()

    def test_freeze_stage1_trains_only_style_component(self, vocab, small_classifier,
                                                       lam_cache, encoded_train):
        cfg = Stage2Config(optimizer="sgd", learning_rate=1e-2, clip_norm=1.0,
                           batch_size=4, max_len=10, gumbel_noise=False,
                           ablation=resolve_ablation("no-finetune"), seed=0)
        trainer, model = stage2_trainer(vocab, small_classifier, lam_cache,
                                        encoded_train, cfg)
        before = {k: p.values.copy() for k, p in model.params.items()}
        batch = trainer.batchers[0].make_batch(np.arange(4))
        trainer.step(batch, source_style=0)
        for name, p in model.params.items():
            if name.startswith("style."):
                continue
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    def test_deterministic_breakdown_sequence(self, vocab, small_classifier, lam_cache,
                                              encoded_train):
        def run():
            small = LabeledCorpus(encoded_train.sentences[:24], encoded_train.labels[:24])
            cfg = Stage2Config(optimizer="sgd", learning_rate=1e-3, clip_norm=1.0,
                               batch_size=4, max_len=10, epochs=1, seed=2)
            model = make_model(vocab, seed=4)
            trainer = Stage2Trainer(model, small_classifier, make_lms(vocab), lam_cache,
                                    cfg, LrpConfig(eta=1.0, epsilon=0.3), small)
            trainer.train()
            return [(r["l_st"], r["l_ylambda"], r["l_cp"], r["l_lm"], r["total"])
                    for r in trainer.log.rows]

        assert run() == run()


class TestGradcheckRunsTheTrainedLosses:
    """The gradient suite's closures evaluate the trainers' own loss functions:
    on the same batch, corruption, noise and tau their values are the ones a
    training step logs, bit for bit."""

    def test_stage1_terms_equal_logged_breakdown(self, vocab, small_classifier, lam_cache,
                                                 encoded_train):
        model = make_model(vocab)
        cfg = Stage1Config(epochs=1, batch_size=4, replace_prob=0.5, seed=3)
        trainer = Stage1Trainer(model, small_classifier, lam_cache, cfg, encoded_train)
        batch = pack_batch(encoded_train.sentences[:4], encoded_train.labels[:4])
        # the trainer's first draw from its generator corrupts this batch
        corrupted = corrupt_batch(batch, model.vocab_size, cfg.replace_prob,
                                  np.random.default_rng(cfg.seed))
        lam_x = lam_cache.batch_matrix(batch)
        fns = term_fns(lambda: stage1_losses(model, batch, lam_x, True, corrupted))
        expected = {name: fn().item() for name, fn in fns.items()}
        br = trainer.step(batch)
        assert (br.l_sr, br.l_xlambda) == (expected["l_sr"], expected["l_xlambda"])
        assert br.total == expected["l_sr"] + expected["l_xlambda"]

    def test_stage2_terms_equal_logged_breakdown_with_a_zero_length_row(
            self, vocab, small_classifier, lam_cache, encoded_train, monkeypatch):
        cfg = Stage2Config(optimizer="sgd", learning_rate=1e-3, clip_norm=1.0,
                           batch_size=4, max_len=10, seed=0)
        trainer, model = stage2_trainer(vocab, small_classifier, lam_cache, encoded_train,
                                        cfg)
        batch = trainer.batchers[1].make_batch(np.arange(4))
        noise = sample_gumbel(np.random.default_rng(5), (cfg.max_len, 4, model.vocab_size))
        noise[0, 2, EOS] = 1e3   # row 2 emits EOS first: a generation of length 0
        tau = 0.3
        lam_x = lam_cache.batch_matrix(batch)
        fns = term_fns(lambda: stage2_losses(model, small_classifier, trainer.lms, batch,
                                             lam_x, 1, tau, noise, cfg, trainer.lrp_cfg)[1],
                       total="l2_combined")
        expected = {name: fn().item() for name, fn in fns.items()}

        monkeypatch.setattr(training, "sample_gumbel", lambda rng, shape: noise)
        br = trainer.step(batch, source_style=1, tau=tau)
        assert trainer.skipped_sentences == 1
        assert (br.l_st, br.l_ylambda, br.l_cp, br.l_lm, br.total) == (
            expected["l_st"], expected["l_ylambda"], expected["l_cp"], expected["l_lm"],
            expected["l2_combined"])


class TestLossDicts:
    """Each loss function returns exactly the terms the run trains plus their
    weighted ``total``; a trainer logs an absent term as 0.0."""

    STAGE2_VARIANTS = [name for name, v in VARIANTS.items() if v.nsc]

    @pytest.mark.parametrize("lxlambda", [True, False])
    def test_stage1_terms(self, lxlambda):
        model, clf, _, batches, cache, _ = build_toy_system(0)
        batch = batches[0]
        cfg = Stage1Config(replace_prob=0.5, lxlambda_off=not lxlambda, seed=3)
        corrupted = corrupt_batch(batch, model.vocab_size, cfg.replace_prob,
                                  np.random.default_rng(cfg.seed))
        losses = stage1_losses(model, batch, cache.batch_matrix(batch), lxlambda, corrupted)
        assert list(losses) == (["l_sr", "l_xlambda", "total"] if lxlambda
                                else ["l_sr", "total"])
        values = {k: v.item() for k, v in losses.items()}
        expected = values["l_sr"] + values["l_xlambda"] if lxlambda else values["l_sr"]
        assert values["total"] == expected

        trainer = Stage1Trainer(model, clf, cache, cfg, LabeledCorpus([], []))
        trainer.step(batch)
        row = trainer.log.rows[-1]
        for name in ("l_sr", "l_xlambda", "total"):
            assert row[name] == values.get(name, 0.0)

    @pytest.mark.parametrize("weights", [{}, {"alpha": 0.0}, {"beta": 0.0}, {"gamma": 0.0}],
                             ids=["default", "alpha0", "beta0", "gamma0"])
    @pytest.mark.parametrize("variant", STAGE2_VARIANTS)
    def test_stage2_terms(self, variant, weights):
        model, clf, lms, batches, cache, lrp_cfg = build_toy_system(0)
        batch = batches[1]
        cfg = Stage2Config(ablation=variant, max_len=5, gumbel_noise=False, batch_size=2,
                           **weights)
        v = cfg.variant
        trained = {"l_st"}
        if v.ylambda and cfg.alpha > 0:
            trained.add("l_ylambda")
        if cfg.beta > 0:
            trained.add("l_cp")
        if v.lm and cfg.gamma > 0:
            trained.add("l_lm")
        _, losses = stage2_losses(model, clf, lms, batch, cache.batch_matrix(batch), 1, 0.6,
                                  None, cfg, lrp_cfg)
        assert set(losses) == trained | {"total"}
        values = {k: t.item() for k, t in losses.items()}
        expected = values["l_st"]
        for name, weight in (("l_ylambda", cfg.alpha), ("l_cp", cfg.beta),
                             ("l_lm", cfg.gamma)):
            if name in values:
                expected = expected + weight * values[name]
        assert values["total"] == expected

        trainer = Stage2Trainer(model, clf, lms, cache, cfg, lrp_cfg, LabeledCorpus([], []))
        trainer.step(batch, source_style=1, tau=0.6)
        row = trainer.log.rows[-1]
        for name in ("l_st", "l_ylambda", "l_cp", "l_lm", "total"):
            assert row[name] == values.get(name, 0.0)


class TestTrainLog:
    def test_csv_written_with_all_fields(self, tmp_path):
        log = TrainLog(tmp_path / "log.csv")
        log.record(1, LossBreakdown(l_sr=1.0, total=1.0, grad_norm_preclip=0.5))
        log.close()
        text = (tmp_path / "log.csv").read_text()
        header = text.splitlines()[0].split(",")
        assert header == ["step", "l_sr", "l_xlambda", "l_st", "l_ylambda", "l_cp",
                          "l_lm", "total", "grad_norm_preclip"]
        # the benchmark and the equivalence tool read these keys
        assert list(log.rows[0]) == header
        assert "1.0" in text


class TestLambdaCache:
    def test_recomputes_missing_on_the_fly(self, small_classifier, encoded_train):
        cache = LambdaTargetCache(small_classifier, LrpConfig())
        mat = cache.get_matrix(encoded_train.sentences[:3], encoded_train.labels[:3], 12)
        assert mat.shape == (3, 12)
        assert (mat >= 0).all() and (mat < 1).all()

    def test_precompute_then_serve_identical(self, small_classifier, encoded_train):
        corpus = LabeledCorpus(encoded_train.sentences[:16], encoded_train.labels[:16])
        a = LambdaTargetCache(small_classifier, LrpConfig())
        a.precompute(corpus)
        b = LambdaTargetCache(small_classifier, LrpConfig())
        m1 = a.get_matrix(corpus.sentences, corpus.labels, 12)
        m2 = b.get_matrix(corpus.sentences, corpus.labels, 12)
        np.testing.assert_array_equal(m1, m2)
