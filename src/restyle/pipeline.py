"""End-to-end estimator and the stage functions it shares with the CLI.

Each ``train_*`` function runs one stage of the system from an
``ExperimentConfig``: the style classifier, stage 1 (LRP mapping, relevance
targets, reconstruction model), the four directional language models, and
stage 2. Every hyperparameter comes from the stage's config section and every
seed from ``ExperimentConfig.seed_for`` or the resolved stage seeds, so
``StyleTransferPipeline.fit`` and the ``train-*`` subcommands train the same
models from the same corpus and config.

The LRP mapping (eta, epsilon, stabilizer) is decided once, by
``resolve_lrp`` in stage 1, and travels as one ``LrpConfig``: ``train_stage1``
returns the one its targets used and ``train_stage2`` takes it, so stage 2
maps relevance as the head it fine-tunes learned to predict.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from restyle.base import ParamMixin, check_binary_labels, check_fitted
from restyle.config import ExperimentConfig, load_config
from restyle.data import (NON_WORDS, LabeledCorpus, Vocabulary, build_vocab,
                          length_ordered_batches)
from restyle.language_model import DirectionalLanguageModel
from restyle.lrp import calibrate_eta
from restyle.metrics import MetricReport, build_report, corpus_bleu, transfer_accuracy
from restyle.seq2seq import Seq2seqModel
from restyle.textcnn import TextCnnStyleClassifier
from restyle.training import (LambdaTargetCache, LrpConfig, Stage1Trainer, Stage2Trainer,
                              TrainLog)


class StyleTransferPipeline(ParamMixin):
    """fit(sentences, labels) then transform(sentences, target_style)."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = load_config(None) if config is None else config
        self.vocab_ = None
        self.classifier_ = None
        self.model_ = None
        self.lms_ = None
        self.lrp_config_ = None
        self.stage1_metrics_ = None

    def fit(self, X, y, X_dev=None, y_dev=None):
        """Train on (X, y) every stage and LM the ablation variant
        ``stage2.ablation`` reads; stage 1 early-stops on (X_dev, y_dev) if given."""
        cfg = self.config
        y = check_binary_labels(list(y), len(X))
        self.vocab_ = build_vocab(maybe_lower(X, cfg), min_freq=cfg.data.min_freq)
        train = encode_corpus(cfg, self.vocab_, X, y.tolist())
        dev = None
        if X_dev is not None:
            y_dev = check_binary_labels(list(y_dev), len(X_dev))
            dev = encode_corpus(cfg, self.vocab_, X_dev, y_dev.tolist())
        V = len(self.vocab_)
        self.classifier_ = train_classifier(cfg, V, train)
        self.model_, self.lrp_config_, self.stage1_metrics_ = train_stage1(
            cfg, V, self.classifier_, train, dev)
        self.lms_ = {}
        if cfg.stage2.variant.nsc:
            if cfg.stage2.uses_lms:
                self.lms_ = train_language_models(cfg, V, train)
            train_stage2(cfg, self.model_, self.classifier_, self.lms_, self.lrp_config_,
                         train)
        return self

    def transform(self, X, target_style: int, return_relevance: bool = False):
        """Greedy transfer of X as the variant decodes, and each word's gate."""
        check_fitted(self, "model_")
        ids = [self.vocab_.encode(s) for s in maybe_lower(X, self.config)]
        outputs, gates = transfer_sentences(self.model_, ids, target_style,
                                            max_len=self.config.data.max_len,
                                            **self.config.stage2.variant.decoding)
        decoded = [self.vocab_.decode(o) for o in outputs]
        if return_relevance:
            return decoded, [decoded_words(self.vocab_, o, g)[1] for o, g in zip(outputs, gates)]
        return decoded


# ---------------------------------------------------------------------------
# corpora and stages


def maybe_lower(sentences, cfg: ExperimentConfig) -> list[str]:
    return [s.lower() for s in sentences] if cfg.data.lowercase else list(sentences)


def encode_corpus(cfg: ExperimentConfig, vocab: Vocabulary, sentences, labels) -> LabeledCorpus:
    """Sentences lowercased by ``data.lowercase`` and encoded with ``vocab``."""
    return LabeledCorpus([vocab.encode(s) for s in maybe_lower(sentences, cfg)], list(labels))


def resolve_lrp(cfg: ExperimentConfig, clf: TextCnnStyleClassifier,
                corpus: LabeledCorpus) -> LrpConfig:
    """The mapping ``[lrp]`` names: its epsilon and stabilizer, and ``lrp.eta``
    or, with 'auto', the eta calibrated for ``clf`` on ``corpus``'s labels."""
    eta = cfg.lrp.eta
    if eta == "auto":
        eta = calibrate_eta(clf, corpus.sentences, corpus.labels,
                            target_lambda=cfg.lrp.eta_target,
                            stabilizer=cfg.lrp.stabilizer, seed=cfg.seed_for("eta"))
    return LrpConfig(eta=float(eta), epsilon=cfg.lrp.epsilon, stabilizer=cfg.lrp.stabilizer)


def train_classifier(cfg: ExperimentConfig, vocab_size: int,
                     train: LabeledCorpus) -> TextCnnStyleClassifier:
    clf = TextCnnStyleClassifier(vocab_size=vocab_size, seed=cfg.seed_for("classifier"),
                                 **asdict(cfg.classifier))
    return clf.fit(train.sentences, train.labels)


def train_stage1(cfg: ExperimentConfig, vocab_size: int, clf: TextCnnStyleClassifier,
                 train: LabeledCorpus, dev: LabeledCorpus | None = None,
                 log: TrainLog | None = None):
    """Resolve the LRP mapping, precompute the relevance targets and train the
    sequence model. Returns ``(model, lrp, metrics)``, the metrics on ``dev``
    (on ``train`` when there is none)."""
    lrp = resolve_lrp(cfg, clf, train)
    cache = LambdaTargetCache(clf, lrp)
    cache.precompute(train)
    model = Seq2seqModel(vocab_size, seed=cfg.seed_for("stage1-init"), **asdict(cfg.model))
    trainer = Stage1Trainer(model, clf, cache, cfg.stage1, train, dev_corpus=dev, log=log)
    trainer.train()
    return model, lrp, trainer.evaluate(dev if dev is not None else train)


def train_language_models(cfg: ExperimentConfig, vocab_size: int, train: LabeledCorpus,
                          styles=(0, 1), directions=("forward", "backward")) -> dict:
    """One directional LM per (style, direction), fit on that style's training
    sentences and seeded by ``cfg.seed_for("lm.{style}.{direction}")``."""
    lms = {}
    for style in styles:
        styled = train.by_style(style)
        for direction in directions:
            lm = DirectionalLanguageModel(
                vocab_size=vocab_size, style=style, direction=direction,
                max_len=cfg.data.max_len, seed=cfg.seed_for(f"lm.{style}.{direction}"),
                **asdict(cfg.lm))
            lms[(style, direction)] = lm.fit(styled.sentences)
    return lms


def train_stage2(cfg: ExperimentConfig, model: Seq2seqModel, clf: TextCnnStyleClassifier,
                 lms: dict, lrp: LrpConfig, train: LabeledCorpus,
                 log: TrainLog | None = None) -> Stage2Trainer:
    """Fine-tune ``model`` in place under ``cfg.stage2`` and the mapping ``lrp``
    its stage 1 trained with; returns the trainer."""
    trainer = Stage2Trainer(model, clf, lms, LambdaTargetCache(clf, lrp), cfg.stage2, lrp,
                            train, log=log)
    trainer.train()
    return trainer


# ---------------------------------------------------------------------------
# transfer and its evaluation


def transfer_sentences(model: Seq2seqModel, id_seqs, target_style: int | np.ndarray,
                       max_len: int = 16, gate_override=None, styled: bool = True,
                       batch_size: int = 128):
    """Greedy transfer of encoded sentences toward ``target_style``, one style
    or one per sentence; returns (token lists, gate rows) in input order.
    Batches are taken in length order, so each is padded only to its own
    longest source, and its outputs, whose lengths follow their sources', end
    at similar steps."""
    outputs, gate_rows = [None] * len(id_seqs), [None] * len(id_seqs)
    targets = np.broadcast_to(target_style, (len(id_seqs),))
    for rows, batch in length_ordered_batches(id_seqs, batch_size, targets):
        toks, gates = model.generate_greedy(batch.enc_ids, batch.lengths,
                                            target_style=batch.labels, styled=styled,
                                            max_len=max_len, gate_override=gate_override)
        for i, out, row in zip(rows, toks, gates):
            outputs[i], gate_rows[i] = out, row
    return outputs, gate_rows


def decoded_words(vocab: Vocabulary, tokens, gates) -> tuple[list[str], list[float]]:
    """The words ``vocab.decode(tokens)`` keeps, and the gate each was emitted with."""
    kept = [j for j, t in enumerate(tokens) if t not in NON_WORDS]
    return [vocab.id_to_token[tokens[j]] for j in kept], [float(gates[j]) for j in kept]


def evaluate_transfer(model: Seq2seqModel, classifier: TextCnnStyleClassifier,
                      vocab, sentences, labels, references, max_len: int = 16,
                      gate_override=None, styled: bool = True) -> tuple[MetricReport, list]:
    """Transfer each sentence to the opposite style and score the outputs.

    ``references`` holds one list of reference strings per input sentence.
    """
    targets = 1 - np.asarray(labels)
    outputs, _ = transfer_sentences(model, [vocab.encode(s) for s in sentences], targets,
                                    max_len=max_len, gate_override=gate_override,
                                    styled=styled)
    acc = transfer_accuracy(outputs, targets, classifier)
    decoded = [vocab.decode(o) if o else "" for o in outputs]
    bleu = corpus_bleu(decoded, references)
    return build_report(acc, bleu, len(outputs)), decoded
