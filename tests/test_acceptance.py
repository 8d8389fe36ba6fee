"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible on the live terminal even under capture).

The synthetic end-to-end criteria share one set of session artifacts: a 10k
marker corpus, a calibrated classifier, relevance targets, the reconstruction
model, four language models, and the fine-tuned variants.
"""

import time

import numpy as np
import pytest

from _oracles import grads_all_zero, marker_positions, naive_zrule, random_two_layer_net

from restyle import autodiff as ad
from restyle.autodiff import constant
from restyle.checkpoint import load_checkpoint, restore_params, save_checkpoint
from restyle.data import LabeledCorpus, build_vocab, pack_batch
from restyle.gradcheck import run_gradient_suite
from restyle.language_model import DirectionalLanguageModel
from restyle.lrp import RelevanceMap, calibrate_eta, word_relevance
from restyle.metrics import aggregate_scores
from restyle.pipeline import evaluate_transfer
from restyle.seq2seq import Seq2seqModel
from restyle.synthetic import generate_marker_corpus
from restyle.textcnn import TextCnnStyleClassifier
from restyle.training import (
    VARIANTS,
    LambdaTargetCache,
    LrpConfig,
    Stage1Config,
    Stage1Trainer,
    Stage2Config,
    Stage2Trainer,
    resolve_ablation,
)

STAGE2_STEPS = 550
STAGE2_LR = 5e-4


def announce(capsys, n, name, ok, detail=""):
    line = f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print("\n" + line, flush=True)


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="session")
def acceptance(tmp_path_factory):
    """Train the full system once; every stage is timed for criterion 4."""
    state = {"timings": {}}
    t_all = time.time()

    t = time.time()
    corpus = generate_marker_corpus(n_train=10000, n_dev=1000, n_test=500, seed=0)
    vocab = build_vocab(corpus.train_sentences, min_freq=2)
    train = LabeledCorpus([vocab.encode(s) for s in corpus.train_sentences],
                          list(corpus.train_labels))
    dev = LabeledCorpus([vocab.encode(s) for s in corpus.dev_sentences],
                        list(corpus.dev_labels))
    state["timings"]["corpus"] = time.time() - t
    state.update(corpus=corpus, vocab=vocab, train=train, dev=dev)

    t = time.time()
    clf = TextCnnStyleClassifier(vocab_size=len(vocab), embed_dim=64, num_filters=32,
                                 epochs=3, learning_rate=2e-3, label_smoothing=0.1,
                                 seed=1)
    clf.fit(train.sentences, train.labels)
    state["timings"]["classifier"] = time.time() - t
    state["classifier"] = clf
    state["classifier_dev_accuracy"] = clf.score(dev.sentences, dev.labels)

    t = time.time()
    eta = calibrate_eta(clf, train.sentences, train.labels, target_lambda=0.7,
                        sample=200, seed=0)
    lrp_cfg = LrpConfig(eta=eta, epsilon=0.3)
    cache = LambdaTargetCache(clf, lrp_cfg)
    cache.precompute(train)
    state["timings"]["relevance_targets"] = time.time() - t
    state.update(lrp_cfg=lrp_cfg, cache=cache)

    t = time.time()
    model = Seq2seqModel(len(vocab), embed_dim=64, hidden_dim=64, mlp_dim=16,
                         style_dim=8, seed=2)
    s1cfg = Stage1Config(epochs=12, batch_size=32, learning_rate=2e-3, clip_norm=5.0,
                         optimizer="adam", patience=3, seed=3)
    s1trainer = Stage1Trainer(model, clf, cache, s1cfg, train, dev_corpus=dev)
    s1trainer.train()
    state["stage1_metrics"] = s1trainer.evaluate(dev)
    state["timings"]["stage1"] = time.time() - t
    ckpt = tmp_path_factory.mktemp("acceptance") / "stage1.ckpt"
    save_checkpoint(ckpt, model.params, {})
    state.update(stage1_model=model, stage1_ckpt=ckpt,
                 model_dims=dict(embed_dim=64, hidden_dim=64, mlp_dim=16, style_dim=8))

    t = time.time()
    lms = {}
    for style in (0, 1):
        styled = train.by_style(style)
        for direction in ("forward", "backward"):
            lm = DirectionalLanguageModel(vocab_size=len(vocab), style=style,
                                          direction=direction, embed_dim=64,
                                          hidden_dim=64, epochs=2, learning_rate=2e-3,
                                          seed=4 + style)
            lm.fit(styled.sentences)
            lms[(style, direction)] = lm
    state["timings"]["language_models"] = time.time() - t
    state["lms"] = lms
    state["setup_seconds"] = time.time() - t_all
    return state


def fresh_stage1_copy(acceptance) -> Seq2seqModel:
    dims = acceptance["model_dims"]
    model = Seq2seqModel(len(acceptance["vocab"]), embed_dim=dims["embed_dim"],
                         hidden_dim=dims["hidden_dim"], mlp_dim=dims["mlp_dim"],
                         style_dim=dims["style_dim"], seed=2)
    _, arrays = load_checkpoint(acceptance["stage1_ckpt"])
    restore_params(model.params, arrays)
    return model


def train_variant(acceptance, variant: str, seed: int = 5):
    """Fine-tune one stage-2 variant from the shared reconstruction checkpoint."""
    ablation = resolve_ablation(variant)
    model = fresh_stage1_copy(acceptance)
    cfg = Stage2Config(optimizer="adam", learning_rate=STAGE2_LR, clip_norm=1.0,
                       epochs=4, batch_size=32, max_len=16, gumbel_noise=True,
                       ablation=ablation, seed=seed)
    trainer = Stage2Trainer(model, acceptance["classifier"], acceptance["lms"],
                            acceptance["cache"], cfg, acceptance["lrp_cfg"],
                            acceptance["train"])
    trainer.train(max_steps=STAGE2_STEPS)
    return model, trainer


def score_variant(acceptance, model, variant: str = "full"):
    """Score ``model`` decoded as ``variant`` decodes."""
    corpus = acceptance["corpus"]
    report, outputs = evaluate_transfer(
        model, acceptance["classifier"], acceptance["vocab"],
        corpus.test_sentences, corpus.test_labels, corpus.test_references,
        max_len=16, **VARIANTS[variant].decoding)
    return report, outputs


@pytest.fixture(scope="session")
def stage2_scores(acceptance):
    """Same budget for every variant; scored on the 500-sentence test split."""
    out = {}
    t = time.time()
    model, _ = train_variant(acceptance, "full")
    out["full"], full_outputs = score_variant(acceptance, model)
    acceptance["timings"]["stage2_full"] = time.time() - t
    acceptance["stage2_model"] = model

    model, _ = train_variant(acceptance, "nsc-lambda")
    out["nsc-lambda"], gate_off_outputs = score_variant(acceptance, model, "nsc-lambda")
    acceptance["gated_ungated_outputs"] = (full_outputs, gate_off_outputs)

    model, _ = train_variant(acceptance, "lcp-prime")
    out["lcp-prime"] = score_variant(acceptance, model, "lcp-prime")[0]

    out["no-nsc"] = score_variant(acceptance, fresh_stage1_copy(acceptance), "no-nsc")[0]
    return out


# ---------------------------------------------------------------------------
# criteria


class TestCriterion1GradientSuite:
    def test_every_loss_against_every_parameter_group(self, capsys):
        t0 = time.time()
        results = run_gradient_suite(seed=0, step=1e-5, max_coords_per_param=4)
        elapsed = time.time() - t0
        worst = results["max_relative_error"]
        ok = worst < 1e-3 and elapsed < 120.0
        announce(capsys, 1, "gradient suite", ok,
                 f"max_rel_error {worst:.2e}, {elapsed:.0f}s")
        assert worst < 1e-3
        assert elapsed < 120.0
        for loss in ("l_sr", "l_xlambda", "l_st", "l_ylambda", "l_cp", "l_lm",
                     "l2_combined"):
            assert loss in results


class TestCriterion2LrpOracle:
    def test_hundred_nets_match_naive_and_conserve(self, capsys):
        rng = np.random.default_rng(42)
        stab = 1e-9
        worst_gap = 0.0
        worst_leak = 0.0
        from restyle.lrp import zrule_backward

        for _ in range(100):
            v0, w1, v1, w2 = random_two_layer_net(rng)
            logits = v1 @ w2
            r2 = np.zeros_like(logits)
            target = rng.integers(len(logits))
            r2[target] = logits[target]
            with ad.no_grad():
                r1e, _ = zrule_backward(constant(v1), constant(w2), constant(r2), stab)
                r0e, _ = zrule_backward(constant(v0), constant(w1), r1e, stab)
            r1n = naive_zrule(v1, w2, r2, stab)
            r0n = naive_zrule(v0, w1, r1n, stab)
            worst_gap = max(worst_gap,
                            float(np.max(np.abs(r1e.values - r1n))),
                            float(np.max(np.abs(r0e.values - r0n))))
            for up, low in ((r2.sum(), r1e.values.sum()),
                            (r1e.values.sum(), r0e.values.sum())):
                worst_leak = max(worst_leak, abs(up - low) / max(abs(up), 1e-12))
        ok = worst_gap <= 1e-10 and worst_leak <= 1e-6
        announce(capsys, 2, "relevance oracle equivalence", ok,
                 f"max |engine-naive| {worst_gap:.2e}, max conservation leak {worst_leak:.2e}")
        assert worst_gap <= 1e-10
        assert worst_leak <= 1e-6


class TestCriterion3RelevanceMapping:
    def _wr(self, raw, eta=1.0, eps=0.3):
        rmap = RelevanceMap(constant(np.asarray(raw, dtype=float)[None, :]))
        return word_relevance(rmap, eta, eps)

    def test_range_and_threshold(self, capsys):
        rng = np.random.default_rng(0)
        raws = rng.uniform(-50, 50, size=200)
        lam = self._wr(raws, eta=1.3, eps=0.3).lam.values[0]
        in_range = bool(((lam >= 0) & (lam < 1)).all())

        boundary = self._wr([np.arctanh(0.29), np.arctanh(0.31)], eta=1.0, eps=0.3)
        below, above = boundary.lam.values[0]
        boundary_ok = below == 0.0 and above == pytest.approx(0.31, abs=1e-12)
        ok = in_range and boundary_ok
        announce(capsys, 3, "relevance mapping", ok,
                 f"0.29 -> {below}, 0.31 -> {above:.4f}")
        assert in_range
        assert below == 0.0
        assert above == pytest.approx(0.31, abs=1e-12)


class TestCriterion4SyntheticEndToEnd:
    def test_full_pipeline_quality_and_runtime(self, acceptance, stage2_scores, capsys):
        clf_acc = acceptance["classifier_dev_accuracy"]
        s1 = acceptance["stage1_metrics"]
        report = stage2_scores["full"]
        total = acceptance["setup_seconds"] + acceptance["timings"]["stage2_full"]
        checks = {
            "classifier_accuracy>=0.99": clf_acc >= 0.99,
            "stage1_token_accuracy>=0.95": s1["token_accuracy"] >= 0.95,
            "stage1_relevance_mse<=0.02": s1["relevance_mse"] <= 0.02,
            "stage2_transfer_accuracy>=90": report.acc >= 90.0,
            "stage2_bleu>=70": report.bleu >= 70.0,
            "pipeline_under_30min": total < 1800.0,
        }
        announce(capsys, 4, "synthetic end-to-end", all(checks.values()),
                 f"clf {clf_acc:.3f}, s1 acc {s1['token_accuracy']:.3f} "
                 f"mse {s1['relevance_mse']:.4f}, transfer acc {report.acc:.1f} "
                 f"bleu {report.bleu:.1f}, {total:.0f}s")
        failed = [name for name, passed in checks.items() if not passed]
        assert not failed, f"failed sub-checks: {failed}"


def marker_free_dev_accuracy(acceptance) -> float:
    """Classifier accuracy on dev sentences with their marker word removed."""
    corpus = acceptance["corpus"]
    stripped = []
    for sent in corpus.dev_sentences:
        drop = set(marker_positions(sent))
        tokens = [t for i, t in enumerate(sent.split()) if i not in drop]
        stripped.append(acceptance["vocab"].encode(" ".join(tokens)))
    return acceptance["classifier"].score(stripped, corpus.dev_labels)


class TestCriterion5AblationOrdering:
    def test_table_pattern_reproduced(self, acceptance, stage2_scores, capsys):
        full = stage2_scores["full"]
        gate_off = stage2_scores["nsc-lambda"]
        no_nsc = stage2_scores["no-nsc"]
        lcp_prime = stage2_scores["lcp-prime"]
        checks = {
            "acc(nsc-lambda)>acc(full)": gate_off.acc > full.acc,
            "bleu(nsc-lambda)<0.5*bleu(full)": gate_off.bleu < 0.5 * full.bleu,
            "bleu(no-nsc)<bleu(full)": no_nsc.bleu < full.bleu,
            "acc(lcp-prime)<acc(full)": lcp_prime.acc < full.acc,
        }
        announce(capsys, 5, "ablation ordering", all(checks.values()),
                 f"full {full.acc:.1f}/{full.bleu:.1f}, "
                 f"nsc-lambda {gate_off.acc:.1f}/{gate_off.bleu:.1f}, "
                 f"no-nsc {no_nsc.acc:.1f}/{no_nsc.bleu:.1f}, "
                 f"lcp-prime {lcp_prime.acc:.1f}/{lcp_prime.bleu:.1f}")
        failed = [name for name, passed in checks.items() if not passed]
        refs = acceptance["corpus"].test_references
        swaps = [sum(o in r for o, r in zip(outputs, refs))
                 for outputs in acceptance["gated_ungated_outputs"]]
        marker_free = 100.0 * marker_free_dev_accuracy(acceptance)
        assert not failed, (
            f"failed sub-checks: {failed}. Measured acc/BLEU: full "
            f"{full.acc:.1f}/{full.bleu:.1f}, nsc-lambda {gate_off.acc:.1f}/"
            f"{gate_off.bleu:.1f}, no-nsc {no_nsc.acc:.1f}/{no_nsc.bleu:.1f}, "
            f"lcp-prime {lcp_prime.acc:.1f}/{lcp_prime.bleu:.1f}. Accuracy is "
            "capped at 100, so acc(nsc-lambda)>acc(full) cannot hold once the "
            f"full model reaches it. Of the {len(refs)} test sentences the gated "
            f"(full) model rewrites {swaps[0]} and the ungated (nsc-lambda) "
            f"model {swaps[1]} into one of the reference marker swaps. With its "
            "marker word removed a dev sentence is classified correctly "
            f"{marker_free:.1f}% of the time (chance is 50%); at chance, "
            "rewriting content words earns the ungated model no style reward. "
            "The first two orderings of the published table need a corpus "
            "whose style is spread over content words.")


def reachable_at_table_rounding(aggregate, inputs, printed, steps=101) -> bool:
    """Whether some (acc', bleu') within +-0.05 of the printed one-decimal
    inputs makes ``aggregate`` format to both printed outputs at one decimal."""
    acc, bleu = inputs
    target = tuple(f"{v:.1f}" for v in printed)
    for a in np.linspace(acc - 0.05, acc + 0.05, steps):
        for b in np.linspace(bleu - 0.05, bleu + 0.05, steps):
            if tuple(f"{v:.1f}" for v in aggregate(a, b)) == target:
                return True
    return False


class TestCriterion6PrintedAggregates:
    # (acc, bleu) -> (G2, H2), each value as printed in the table
    PRINTED = (((94.0, 60.4), (75.4, 73.6)),
               ((98.1, 10.1), (31.5, 18.3)))

    def test_printed_values_reproduce_at_table_rounding(self, capsys):
        """The table's aggregates were computed from unrounded acc and BLEU,
        so a printed input fixes its true value only to +-0.05. At the rounded
        pair (94.0, 60.4) G2 = 75.3499 and H2 = 73.5440 round to 75.3 and
        73.5, not the printed 75.4 and 73.6. The rule applied here: for each
        printed row, some (acc', bleu') within +-0.05 of the printed inputs
        must make aggregate_scores format to both printed aggregates at one
        decimal. The (98.1, 10.1) row also reproduces at the rounded point
        and is checked there exactly. As a negative control the same rule
        must reject an arithmetic-mean G2 and swapped G2/H2 outputs."""
        def arithmetic_g2(acc, bleu):
            return (acc + bleu) / 2.0, aggregate_scores(acc, bleu)[1]

        def swapped(acc, bleu):
            return aggregate_scores(acc, bleu)[::-1]

        g2a, h2a = aggregate_scores(94.0, 60.4)
        g2b, h2b = aggregate_scores(98.1, 10.1)
        values = {
            f"g2/h2 within +-0.05 of {inputs} -> {printed}":
                reachable_at_table_rounding(aggregate_scores, inputs, printed)
            for inputs, printed in self.PRINTED
        }
        values["g2(98.1,10.1)==31.5"] = f"{g2b:.1f}" == "31.5"
        values["h2(98.1,10.1)==18.3"] = f"{h2b:.1f}" == "18.3"
        controls = {
            f"{fn.__name__} rejected for {inputs}":
                not reachable_at_table_rounding(fn, inputs, printed)
            for fn in (arithmetic_g2, swapped)
            for inputs, printed in self.PRINTED
        }
        ok = all(values.values()) and all(controls.values())
        announce(capsys, 6, "printed aggregate values", ok,
                 "each printed row reachable from inputs within +-0.05 "
                 f"(rounded point 94.0/60.4 gives {g2a:.4f}/{h2a:.4f}); "
                 f"98.1/10.1 gives {g2b:.4f}/{h2b:.4f}; wrong formulas rejected")
        failed = [name for name, passed in values.items() if not passed]
        assert not failed, (
            f"failed sub-checks: {failed}. aggregate_scores cannot reproduce "
            "these printed aggregates from any inputs within the +-0.05 "
            "interval that the printed one-decimal acc and BLEU allow.")
        weak = [name for name, passed in controls.items() if not passed]
        assert not weak, (
            f"negative control failed: {weak}. The rounding-interval rule "
            "accepts a wrong aggregate formula, so it cannot tell a correct "
            "aggregate_scores from a broken one.")


class TestCriterion7EquivalenceContracts:
    def test_three_equivalences(self, acceptance, capsys):
        vocab = acceptance["vocab"]
        clf = acceptance["classifier"]
        dev = acceptance["dev"]
        batch = pack_batch(dev.sentences[:16], min_width=4)

        # forced-zero gate reproduces basic decoding token for token
        model = fresh_stage1_copy(acceptance)
        model.params["style.w2"].values[...] = np.random.default_rng(0).normal(
            0, 0.3, model.params["style.w2"].shape)
        basic, _ = model.generate_greedy(batch.enc_ids, batch.lengths, styled=False,
                                         max_len=16)
        forced, _ = model.generate_greedy(batch.enc_ids, batch.lengths, target_style=1,
                                          styled=True, max_len=16, gate_override=0.0)
        gate_zero_ok = basic == forced

        # one-hot soft classification equals hard classification
        with ad.no_grad():
            hard = clf.forward_trace(batch.enc_ids, batch.lengths).logits.values
            rows = np.zeros((*batch.enc_ids.shape, len(vocab)))
            for b in range(batch.enc_ids.shape[0]):
                rows[b, np.arange(batch.enc_ids.shape[1]), batch.enc_ids[b]] = 1.0
            soft = clf.forward_trace_soft(constant(rows), batch.lengths).logits.values
        soft_gap = float(np.max(np.abs(soft - hard)))

        # an untouched stage-2 model (zero-initialized style output layer)
        # decodes exactly like the stage-1 checkpoint
        fresh = fresh_stage1_copy(acceptance)
        s1_tokens, _ = fresh.generate_greedy(batch.enc_ids, batch.lengths,
                                             styled=False, max_len=16)
        s2_tokens, _ = fresh.generate_greedy(batch.enc_ids, batch.lengths,
                                             target_style=1, styled=True, max_len=16)
        init_ok = s1_tokens == s2_tokens

        ok = gate_zero_ok and soft_gap <= 1e-9 and init_ok
        announce(capsys, 7, "equivalence contracts", ok,
                 f"gate-zero {gate_zero_ok}, soft/hard gap {soft_gap:.1e}, "
                 f"stage2-init {init_ok}")
        assert gate_zero_ok
        assert soft_gap <= 1e-9
        assert init_ok


class TestStyleOnlyDegeneration:
    """Without the content anchor, style-only fine-tuning degenerates: outputs
    leave the input-length band and stop matching the substitution references.
    (At this scale degeneration manifests as max-length style babble: extra
    windows are free evidence for a max-over-time classifier.)"""

    def test_alpha_beta_gamma_zero_degenerates_within_200_steps(self, acceptance,
                                                                capsys):
        model = fresh_stage1_copy(acceptance)
        cfg = Stage2Config(alpha=0.0, beta=0.0, gamma=0.0, optimizer="adam",
                           learning_rate=2e-3, clip_norm=1.0, epochs=2,
                           batch_size=32, max_len=16, gumbel_noise=True, seed=5)
        trainer = Stage2Trainer(model, acceptance["classifier"], acceptance["lms"],
                                acceptance["cache"], cfg, acceptance["lrp_cfg"],
                                acceptance["train"])
        trainer.train(max_steps=200)
        train = acceptance["train"]
        input_mean = float(np.mean([len(s) for s in train.sentences]))
        lengths = []
        with ad.no_grad():
            for style in (0, 1):
                batch = trainer.batchers[style].make_batch(np.arange(64))
                soft = model.generate_soft(batch.enc_ids, batch.lengths, 1 - style,
                                           max_len=16, tau=0.3)
                lengths.extend(soft.lengths.tolist())
        out_mean = float(np.mean(lengths))
        report, _ = score_variant(acceptance, model)
        degenerate = not (0.65 * input_mean <= out_mean <= 1.35 * input_mean)
        with capsys.disabled():
            print(f"\n[example] style-only degeneration: "
                  f"{'PASS' if degenerate and report.bleu < 30 else 'FAIL'}  "
                  f"(input mean {input_mean:.1f}, output mean {out_mean:.1f}, "
                  f"bleu {report.bleu:.1f})", flush=True)
        assert degenerate
        assert report.bleu < 30.0


class TestCriterion8FrozenModules:
    def test_classifier_and_lm_grads_identically_zero(self, acceptance, capsys):
        model = fresh_stage1_copy(acceptance)
        cfg = Stage2Config(optimizer="adam", learning_rate=STAGE2_LR, clip_norm=1.0,
                           batch_size=16, max_len=16, gumbel_noise=True, seed=9)
        trainer = Stage2Trainer(model, acceptance["classifier"], acceptance["lms"],
                                acceptance["cache"], cfg, acceptance["lrp_cfg"],
                                acceptance["train"])
        for style in (0, 1):
            batch = trainer.batchers[style].make_batch(np.arange(16))
            trainer.step(batch, source_style=style)
        clf_ok = grads_all_zero(acceptance["classifier"].params_)
        lm_ok = all(grads_all_zero(lm.params_) for lm in acceptance["lms"].values())
        announce(capsys, 8, "frozen-module contract", clf_ok and lm_ok,
                 f"classifier zero-grad {clf_ok}, lms zero-grad {lm_ok}")
        assert clf_ok
        assert lm_ok
        acceptance["classifier"].set_trainable(True)
