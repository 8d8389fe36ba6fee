"""The four workloads: set-up, one round of measured work, and output checks.

Every workload is a closed loop in one process: the next step or batch starts
when the previous call returns. A round is a fixed amount of work that starts
from the same state each time, so every round of a run does the same
operations.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace

import numpy as np

from restyle import autodiff, data, lrp, pipeline, synthetic, training
from restyle.language_model import DirectionalLanguageModel
from restyle.metrics import corpus_bleu
from restyle.seq2seq import Seq2seqModel
from restyle.textcnn import TextCnnStyleClassifier

import checks
import reference

# The program's default length (``DataConfig``, ``Stage1Config``,
# ``Stage2Config``); the longest template sentence has 10 tokens.
MAX_LEN = training.Stage2Config().max_len
# ``finetune`` alone stops stage-2 generations one step after the longest
# template sentence's EOS. At the default length, whether a generation of a
# stage-2 epoch misses EOS and runs on to 16 positions depends on the seed, and
# the widest step sets the width of the z-rule's (B, P, 256, 32) buffers, so
# peak memory and round time would vary from seed to seed (see README.md).
FINETUNE_MAX_LEN = 11
EPSILON = 0.3
# the z-rule's denominator stabilizer, the program's default
STABILIZER = training.LrpConfig().stabilizer
LRP_BATCH = 64
STAGE1_LR = 1e-2
STAGE1_BATCH = 64
STAGE2_LR = 1e-2
# ``transfer``'s few set-up steps: enough for a nonzero style component. At
# STAGE2_LR, whether greedy outputs run on to MAX_LEN depends on the seed, and
# with it the width of every batch and the classifier's peak memory (README.md)
TRANSFER_STAGE2_LR = 1e-3
STAGE2_BATCH = 32
DIRECTIONS = ("forward", "backward")
MARKER_WORDS = set(synthetic.MARKERS[0]) | set(synthetic.MARKERS[1])


@dataclass(frozen=True)
class Size:
    n_train: int = 1000
    n_dev: int = 200
    n_test: int = 1024
    clf_epochs: int = 2
    stage1_steps: int = 300
    lm_epochs: int = 3
    transfer_stage2_steps: int = 8
    setup_repeats: int = 3
    check_sample: int = 32
    # the quality floors in ``checks``; a tiny size trains too little to meet them
    quality_checks: bool = True


DEFAULT = Size()
TINY = Size(n_train=96, n_dev=32, n_test=48, clf_epochs=1, stage1_steps=4, lm_epochs=1,
            transfer_stage2_steps=2, setup_repeats=2, check_sample=4,
            quality_checks=False)


def sub_seed(seed: int, component: int) -> int:
    return int(np.random.SeedSequence([seed, component]).generate_state(1)[0] % 2 ** 31)


@dataclass
class Corpus:
    raw: synthetic.MarkerCorpus
    vocab: data.Vocabulary
    train: data.LabeledCorpus
    dev: data.LabeledCorpus
    test: data.LabeledCorpus


def make_corpus(size: Size, seed: int, n_train: int | None = None) -> Corpus:
    raw = synthetic.generate_marker_corpus(n_train or size.n_train, size.n_dev, size.n_test,
                                           seed=seed)
    vocab = data.build_vocab(raw.train_sentences)

    def encode(sentences, labels):
        return data.LabeledCorpus([vocab.encode(s) for s in sentences], list(labels))

    return Corpus(raw, vocab, encode(raw.train_sentences, raw.train_labels),
                  encode(raw.dev_sentences, raw.dev_labels),
                  encode(raw.test_sentences, raw.test_labels))


@dataclass
class Models:
    clf: TextCnnStyleClassifier
    lrp_cfg: training.LrpConfig
    cache: training.LambdaTargetCache
    model: Seq2seqModel
    lms: dict
    failed: int = 0
    stage1_losses: list = field(default_factory=list)


def pretrain(corpus: Corpus, size: Size, seed: int) -> Models:
    """Everything stage 2 depends on: classifier, eta, relevance targets,
    a fixed budget of stage-1 steps and the four directional LMs."""
    V = len(corpus.vocab)
    train = corpus.train
    clf = TextCnnStyleClassifier(vocab_size=V, epochs=size.clf_epochs, seed=sub_seed(seed, 1))
    clf.fit(train.sentences, train.labels)
    eta = lrp.calibrate_eta(clf, train.sentences, train.labels, seed=sub_seed(seed, 2))
    lrp_cfg = training.LrpConfig(eta=eta, epsilon=EPSILON)
    cache = training.LambdaTargetCache(clf, lrp_cfg)
    cache.precompute(train)

    model = Seq2seqModel(V, seed=sub_seed(seed, 3))
    cfg = training.Stage1Config(optimizer="adam", learning_rate=STAGE1_LR,
                                batch_size=STAGE1_BATCH, max_len=MAX_LEN,
                                seed=sub_seed(seed, 4))
    trainer = training.Stage1Trainer(model, clf, cache, cfg, train)
    batcher = data.Batcher(train, cfg.batch_size, MAX_LEN, seed=sub_seed(seed, 5))
    out = Models(clf, lrp_cfg, cache, model, {})
    while len(out.stage1_losses) < size.stage1_steps:
        for batch in batcher.epoch():
            skipped = trainer.optimizer.skipped_steps
            br = trainer.step(batch)
            out.stage1_losses.append(br.total)
            out.failed += int(not np.isfinite(br.total)
                              or trainer.optimizer.skipped_steps > skipped)
            if len(out.stage1_losses) == size.stage1_steps:
                break

    for style in (0, 1):
        sentences = train.by_style(style).sentences
        for d, direction in enumerate(DIRECTIONS):
            lm = DirectionalLanguageModel(vocab_size=V, style=style, direction=direction,
                                          epochs=size.lm_epochs, max_len=MAX_LEN,
                                          seed=sub_seed(seed, 6 + 2 * style + d))
            lm.fit(sentences)
            out.failed += int(not np.isfinite(lm.dev_perplexity_))
            out.lms[(style, direction)] = lm
    return out


def pretrain_ops(size: Size) -> int:
    """Classifier fit, calibration, target precompute, stage-1 steps, 4 LM fits."""
    return 3 + size.stage1_steps + 4


def stage2_trainer(m: Models, corpus: Corpus, seed: int, max_len: int = MAX_LEN,
                   lr: float = STAGE2_LR) -> training.Stage2Trainer:
    cfg = training.Stage2Config(optimizer="adam", learning_rate=lr,
                                batch_size=STAGE2_BATCH, epochs=1, max_len=max_len,
                                seed=sub_seed(seed, 20))
    return training.Stage2Trainer(m.model, m.clf, m.lms, m.cache, cfg, m.lrp_cfg, corpus.train)


def stage2_epoch_steps(corpus: Corpus) -> int:
    """Steps in one stage-2 epoch: every batch of each style once."""
    return sum(-(-len(corpus.train.by_style(s)) // STAGE2_BATCH) for s in (0, 1))


def failed_stage2_steps(trainer: training.Stage2Trainer) -> int:
    """Steps with a non-finite loss, skipped by the optimizer, or with every
    generation of zero length (the trainer then takes no step)."""
    bad = sum(int(not all(np.isfinite(v) for v in row.values())
                  or all(v == 0.0 for k, v in row.items() if k != "step"))
              for row in trainer.log.rows)
    return bad + trainer.optimizer.skipped_steps


def frozen_hashes(m: Models) -> dict:
    """Weight hashes of the modules stage 2 must leave unchanged."""
    return {"clf": m.clf.weights_hash(),
            **{f"lm{s}{d}": lm.weights_hash() for (s, d), lm in m.lms.items()}}


def snapshot(model: Seq2seqModel) -> dict:
    return {k: p.values.copy() for k, p in model.params.items()}


def restore(model: Seq2seqModel, values: dict) -> None:
    for k, v in values.items():
        model.params[k].values[...] = v


def transfer_all(model, corpus: Corpus, split: data.LabeledCorpus, **kwargs) -> list:
    """Greedy outputs toward the opposite style, in input order."""
    labels = np.asarray(split.labels)
    outputs = [None] * len(labels)
    for style in (0, 1):
        idx = np.where(labels == style)[0]
        outs, _ = pipeline.transfer_sentences(model, [split.sentences[i] for i in idx],
                                              1 - style, max_len=MAX_LEN, **kwargs)
        for i, o in zip(idx, outs):
            outputs[i] = o
    return outputs


def counted_accuracy(clf, outputs, labels) -> float:
    """Percent of outputs the classifier assigns to the opposite style; an
    empty output counts as a miss."""
    keep = [i for i, o in enumerate(outputs) if o]
    if not keep:
        return 0.0
    pred = clf.predict([outputs[i] for i in keep])
    hits = int((pred == 1 - np.asarray(labels)[keep]).sum())
    return 100.0 * hits / len(outputs)


def hard_relevance(clf, seqs, labels, eta):
    """(lam, raw, lengths) for id sequences in batches of LRP_BATCH."""
    lams, raws, lens = [], [], []
    width = max(clf.filter_widths)
    with autodiff.no_grad():
        for lo in range(0, len(seqs), LRP_BATCH):
            batch = data.pack_batch(seqs[lo:lo + LRP_BATCH], min_width=width)
            wr = lrp.hard_word_relevance(clf, batch.enc_ids, batch.lengths,
                                         np.asarray(labels[lo:lo + LRP_BATCH]), eta, EPSILON,
                                         stabilizer=STABILIZER)
            lams.append(wr.lam.values)
            raws.append(wr.raw.values)
            lens.append(batch.lengths)
    return lams, raws, lens


def check_hard_relevance(log: checks.CheckLog, clf, seqs, labels, lams, raws, lens,
                         sentences, quality: bool, prefix: str) -> None:
    """Range, padding and conservation checks of hard relevance, and with
    ``quality`` the marker floor."""
    p = reference.arrays(clf.parameters())
    rows = [lam[b, :n] for lam, ln in zip(lams, lens) for b, n in enumerate(ln)]
    log.record(f"{prefix}.lambda_range", checks.lambda_in_range(rows))
    width = max(clf.filter_widths)
    logits, totals = [], []
    for i, ln in enumerate(lens):
        part = slice(i * LRP_BATCH, i * LRP_BATCH + len(ln))
        ids = data.pack_batch(seqs[part], min_width=width).enc_ids
        logit, total = reference.zrule_total(p, reference.hard_embedding(p, ids), ln,
                                             clf.filter_widths, labels[part], STABILIZER)
        logits.append(logit)
        totals.append(total)
    log.record(f"{prefix}.conservation", checks.conservation(raws, lens, totals, logits))
    if quality:
        log.record(f"{prefix}.marker_on_top", checks.marker_on_top(rows, sentences, MARKER_WORDS))


# ---------------------------------------------------------------------------
# workloads


class Pretrain:
    """One operation: a classifier fit, the eta calibration, the target
    precompute, one stage-1 step, or one LM fit. A round is the whole pass."""

    def __init__(self, size: Size, seed: int):
        self.size, self.seed = size, seed
        self.setup_repeats = size.setup_repeats
        self.ops_per_round = pretrain_ops(size)

    def setup(self):
        warm = replace(self.size, stage1_steps=min(10, self.size.stage1_steps), clf_epochs=1,
                       lm_epochs=1)
        pretrain(make_corpus(warm, self.seed, n_train=min(128, self.size.n_train)),
                 warm, self.seed)
        self.corpus = make_corpus(self.size, self.seed)

    def round(self):
        t0 = time.perf_counter()
        self.models = pretrain(self.corpus, self.size, self.seed)
        return time.perf_counter() - t0, self.models.failed

    def check(self, log: checks.CheckLog) -> None:
        m, c, size = self.models, self.corpus, self.size
        targets = m.cache.get_matrix(c.train.sentences, c.train.labels, MAX_LEN)
        rows = [targets[i, :len(s)] for i, s in enumerate(c.train.sentences)]
        log.record("pretrain.target_range", checks.lambda_in_range(rows))
        n = min(4 * LRP_BATCH, len(c.train))
        seqs, labels = c.train.sentences[:n], np.asarray(c.train.labels[:n])
        lams, raws, lens = hard_relevance(m.clf, seqs, labels, m.lrp_cfg.eta)
        check_hard_relevance(log, m.clf, seqs, labels, lams, raws, lens,
                             c.raw.train_sentences[:n], size.quality_checks, "pretrain.sample")
        if size.quality_checks:
            log.record("pretrain.classifier_accuracy",
                       checks.classifier_accuracy(m.clf.predict(c.dev.sentences), c.dev.labels))
            log.record("pretrain.marker_on_top",
                       checks.marker_on_top(rows, c.raw.train_sentences, MARKER_WORDS))
            outs, _ = pipeline.transfer_sentences(m.model, c.dev.sentences, 0, max_len=MAX_LEN,
                                                  styled=False)
            log.record("pretrain.reconstruction", checks.exact_share(outs, c.dev.sentences))
            for (style, direction), lm in m.lms.items():
                dev = c.dev.by_style(style).sentences
                uni = reference.unigram_perplexity(c.train.by_style(style).sentences, dev,
                                                   len(c.vocab))
                log.record(f"pretrain.lm_{style}_{direction}_beats_unigram",
                           checks.below(lm.perplexity(dev), uni, "LM dev perplexity"))


class Finetune:
    """One operation: a stage-2 step. A round is one stage-2 epoch (every
    training batch of each style once) from the same stage-1 model."""

    def __init__(self, size: Size, seed: int):
        self.size, self.seed = size, seed
        self.setup_repeats = 1

    def setup(self):
        self.corpus = make_corpus(self.size, self.seed)
        self.ops_per_round = stage2_epoch_steps(self.corpus)
        self.models = pretrain(self.corpus, self.size, self.seed)
        m = self.models
        self.start = snapshot(m.model)
        self.frozen = frozen_hashes(m)
        self.acc_before = counted_accuracy(m.clf, transfer_all(m.model, self.corpus,
                                                               self.corpus.test),
                                           self.corpus.test.labels)
        stage2_trainer(m, self.corpus, self.seed, FINETUNE_MAX_LEN).train(max_steps=2)
        restore(m.model, self.start)
        self.signatures = []

    def round(self):
        m = self.models
        restore(m.model, self.start)
        trainer = stage2_trainer(m, self.corpus, self.seed, FINETUNE_MAX_LEN)
        t0 = time.perf_counter()
        trainer.train()
        elapsed = time.perf_counter() - t0
        self.trainer = trainer
        self.signatures.append(m.model.weights_hash())
        return elapsed, failed_stage2_steps(trainer)

    def check(self, log: checks.CheckLog) -> None:
        m, c, size = self.models, self.corpus, self.size
        rows = self.trainer.log.rows
        log.record("finetune.frozen_weights", checks.unchanged(self.frozen, frozen_hashes(m)))
        log.record("finetune.losses_finite", checks.losses_finite(rows))
        log.record("finetune.rounds_repeat",
                   (len(set(self.signatures)) == 1, f"{len(set(self.signatures))} distinct "
                                                    f"models from {len(self.signatures)} rounds"))
        if size.quality_checks:
            acc = counted_accuracy(m.clf, transfer_all(m.model, c, c.test), c.test.labels)
            log.record("finetune.accuracy_gain", checks.gain_at_least(self.acc_before, acc))
            log.record("finetune.l_st_falls",
                       checks.falls([r["l_st"] for r in rows], max(len(rows) // 4, 1), "l_st"))
        log.record("finetune.soft_conservation", self.soft_conservation())

    def soft_conservation(self):
        """Conservation of soft-row relevance for generated sentences of
        nonzero length, one batch per transfer direction."""
        m, c = self.models, self.corpus
        p = reference.arrays(m.clf.parameters())
        width = max(m.clf.filter_widths)
        labels = np.asarray(c.test.labels[:LRP_BATCH])
        batch = data.pack_batch(c.test.sentences[:LRP_BATCH])
        raws, lens, totals, logits = [], [], [], []
        with autodiff.no_grad():
            for style in (0, 1):
                pick = np.where(labels == 1 - style)[0]
                soft = m.model.generate_soft(batch.enc_ids[pick], batch.lengths[pick], style,
                                             max_len=FINETUNE_MAX_LEN, tau=0.5)
                rows = soft.stacked_rows().values
                if rows.shape[1] < width:
                    rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1]), (0, 0)))
                wr = lrp.soft_word_relevance(m.clf, autodiff.constant(rows), soft.lengths,
                                             style, m.lrp_cfg.eta, EPSILON,
                                             stabilizer=STABILIZER)
                logit, total = reference.zrule_total(
                    p, reference.soft_embedding(p, rows, soft.lengths), soft.lengths,
                    m.clf.filter_widths, np.full(len(pick), style), STABILIZER)
                keep = soft.lengths > 0
                raws.append(wr.raw.values[keep])
                lens.append(soft.lengths[keep])
                totals.append(total[keep])
                logits.append(logit[keep])
        return checks.conservation(raws, lens, totals, logits)


def transfer_models(corpus: Corpus, size: Size, seed: int) -> Models:
    """The ``pretrain`` path plus a few stage-2 steps, so the style component
    is nonzero."""
    m = pretrain(corpus, size, seed)
    stage2_trainer(m, corpus, seed, lr=TRANSFER_STAGE2_LR).train(
        max_steps=size.transfer_stage2_steps)
    return m


def send_transfer_models(conn, corpus: Corpus, size: Size, seed: int) -> None:
    conn.send(transfer_models(corpus, size, seed))
    conn.close()


class Transfer:
    """One operation: a test sentence decoded toward the opposite style and
    scored. A round is ``evaluate_transfer`` over every test sentence."""

    def __init__(self, size: Size, seed: int):
        self.size, self.seed = size, seed
        self.setup_repeats = 1
        self.ops_per_round = size.n_test

    def setup(self):
        self.corpus = make_corpus(self.size, self.seed)
        # the models are trained in a child process, so that the buffers of the
        # stage-2 steps do not set this process's peak memory
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_transfer_models,
                            args=(send, self.corpus, self.size, self.seed))
        child.start()
        send.close()
        try:
            self.models = receive.recv()
        finally:
            child.join()
        self.round_on(slice(0, LRP_BATCH))

    def round_on(self, part: slice):
        raw, m = self.corpus.raw, self.models
        return pipeline.evaluate_transfer(m.model, m.clf, self.corpus.vocab,
                                          raw.test_sentences[part], raw.test_labels[part],
                                          raw.test_references[part], max_len=MAX_LEN)

    def round(self):
        t0 = time.perf_counter()
        self.report, self.decoded = self.round_on(slice(None))
        return time.perf_counter() - t0, 0

    def check(self, log: checks.CheckLog) -> None:
        m, c, size = self.models, self.corpus, self.size
        test = c.test
        batched = transfer_all(m.model, c, test)
        log.record("transfer.outputs_match_evaluate",
                   checks.identical([c.vocab.decode(o).split() for o in batched],
                                    [d.split() for d in self.decoded], "evaluate_transfer outputs"))
        log.record("transfer.gate_zero_is_unstyled",
                   checks.identical(transfer_all(m.model, c, test, gate_override=0.0),
                                    transfer_all(m.model, c, test, styled=False),
                                    "gate 0 against unstyled"))
        rng = np.random.default_rng(sub_seed(self.seed, 30))
        sample = sorted(rng.choice(len(test), size=min(size.check_sample, len(test)),
                                   replace=False).tolist())
        single = [pipeline.transfer_sentences(m.model, [test.sentences[i]],
                                              1 - test.labels[i], max_len=MAX_LEN)[0][0]
                  for i in sample]
        log.record("transfer.single_equals_batched",
                   checks.identical(single, [batched[i] for i in sample], "single against batched"))
        p = reference.arrays(m.model.parameters())
        problems = [reference.greedy_disagreements(p, test.sentences[i], batched[i],
                                                   1 - test.labels[i], MAX_LEN, checks.TIE_TOL)
                    for i in sample]
        log.record("transfer.reference_decode", checks.reference_decode(problems))
        refs = c.raw.test_references
        log.record("transfer.bleu_reference",
                   checks.bleu_agrees(self.report.bleu, reference.bleu(self.decoded, refs)))
        log.record("transfer.bleu_self",
                   checks.bleu_agrees(corpus_bleu([r[0] for r in refs], refs), 100.0))


class Relevance:
    """One operation: the relevance map of one test sentence. A round is
    ``hard_word_relevance`` over every test sentence in batches of 64, the
    path ``lrp-inspect`` and the target precompute take."""

    def __init__(self, size: Size, seed: int):
        self.size, self.seed = size, seed
        self.setup_repeats = size.setup_repeats
        self.ops_per_round = size.n_test

    def setup(self):
        c = self.corpus = make_corpus(self.size, self.seed)
        self.clf = TextCnnStyleClassifier(vocab_size=len(c.vocab), epochs=self.size.clf_epochs,
                                          seed=sub_seed(self.seed, 1))
        self.clf.fit(c.train.sentences, c.train.labels)
        self.eta = lrp.calibrate_eta(self.clf, c.train.sentences, c.train.labels,
                                     seed=sub_seed(self.seed, 2))
        self.labels = np.asarray(c.test.labels)
        hard_relevance(self.clf, c.test.sentences[:LRP_BATCH], self.labels, self.eta)

    def round(self):
        t0 = time.perf_counter()
        self.out = hard_relevance(self.clf, self.corpus.test.sentences, self.labels, self.eta)
        elapsed = time.perf_counter() - t0
        lams, raws, lens = self.out
        bad = sum(int((~np.isfinite(lam[b]) | ~np.isfinite(raw[b])).any())
                  for lam, raw, ln in zip(lams, raws, lens) for b in range(len(ln)))
        return elapsed, bad

    def check(self, log: checks.CheckLog) -> None:
        c = self.corpus
        check_hard_relevance(log, self.clf, c.test.sentences, self.labels, *self.out,
                             c.raw.test_sentences, self.size.quality_checks, "relevance")


WORKLOADS = {"pretrain": Pretrain, "finetune": Finetune, "transfer": Transfer,
             "relevance": Relevance}
