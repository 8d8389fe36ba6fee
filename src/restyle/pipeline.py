"""End-to-end estimator: fit the full two-stage system, transform sentences.

``fit`` builds the vocabulary, trains the style classifier, derives per-word
relevance targets, trains the reconstruction model, the four directional
language models, and finally fine-tunes the style component. ``transform``
greedy-decodes inputs toward a target style.
"""

from __future__ import annotations

import logging

import numpy as np

from restyle.base import ParamMixin, check_binary_labels, check_fitted
from restyle.data import LabeledCorpus, build_vocab, pack_batch, train_dev_split
from restyle.lrp import calibrate_eta
from restyle.metrics import MetricReport, build_report, corpus_bleu, transfer_accuracy
from restyle.seq2seq import Seq2seqModel
from restyle.textcnn import TextCnnStyleClassifier
from restyle.training import (
    LambdaTargetCache,
    LrpConfig,
    Stage1Config,
    Stage2Config,
    Stage2Trainer,
    fit_language_models,
    train_stage1,
)

logger = logging.getLogger(__name__)


class StyleTransferPipeline(ParamMixin):
    """fit(sentences, labels) then transform(sentences, target_style)."""

    def __init__(self, embed_dim=64, hidden_dim=64, classifier_params=None,
                 lm_params=None, stage1=None, stage2=None, lrp=None,
                 max_len=16, min_freq=1, dev_fraction=0.1, eta="auto",
                 eta_target=0.7, seed=0):
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.classifier_params = classifier_params
        self.lm_params = lm_params
        self.stage1 = stage1
        self.stage2 = stage2
        self.lrp = lrp
        self.max_len = max_len
        self.min_freq = min_freq
        self.dev_fraction = dev_fraction
        self.eta = eta
        self.eta_target = eta_target
        self.seed = seed
        self.vocab_ = None
        self.classifier_ = None
        self.model_ = None
        self.lms_ = None
        self.lrp_config_ = None
        self.lam_cache_ = None
        self.stage1_metrics_ = None

    def fit(self, X, y):
        y = check_binary_labels(list(y), len(X))
        self.vocab_ = build_vocab(X, min_freq=self.min_freq)
        corpus = LabeledCorpus([self.vocab_.encode(s) for s in X], y.tolist())
        train, dev = train_dev_split(corpus, self.dev_fraction, self.seed)

        clf_kwargs = dict(vocab_size=len(self.vocab_), embed_dim=self.embed_dim,
                          seed=self.seed + 1)
        clf_kwargs.update(self.classifier_params or {})
        self.classifier_ = TextCnnStyleClassifier(**clf_kwargs)
        self.classifier_.fit(train.sentences, train.labels)

        lrp_cfg = self.lrp or LrpConfig()
        if self.eta == "auto":
            eta = calibrate_eta(self.classifier_, train.sentences, train.labels,
                                target_lambda=self.eta_target, seed=self.seed)
            lrp_cfg = LrpConfig(eta=eta, epsilon=lrp_cfg.epsilon,
                                stabilizer=lrp_cfg.stabilizer)
        self.lrp_config_ = lrp_cfg
        self.lam_cache_ = LambdaTargetCache(self.classifier_, lrp_cfg)

        self.model_ = Seq2seqModel(len(self.vocab_), embed_dim=self.embed_dim,
                                   hidden_dim=self.hidden_dim, seed=self.seed + 2)
        self.stage1_metrics_ = train_stage1(self.model_, self.classifier_, self.lam_cache_,
                                            self.stage1 or Stage1Config(), train, dev)

        lm_kwargs = dict(vocab_size=len(self.vocab_), max_len=self.max_len)
        lm_kwargs.update(self.lm_params or {})
        self.lms_ = fit_language_models(train, self.seed, **lm_kwargs)

        s2 = self.stage2 or Stage2Config()
        Stage2Trainer(self.model_, self.classifier_, self.lms_, self.lam_cache_,
                      s2, lrp_cfg, train).train()
        return self

    def transform(self, X, target_style: int, return_relevance: bool = False):
        check_fitted(self, "model_")
        ids = [self.vocab_.encode(s) for s in X]
        outputs, gates = transfer_sentences(self.model_, ids, target_style,
                                            max_len=self.max_len)
        decoded = [self.vocab_.decode(o) for o in outputs]
        if return_relevance:
            return decoded, [g[:len(o)].tolist() for o, g in zip(outputs, gates)]
        return decoded


def transfer_sentences(model: Seq2seqModel, id_seqs, target_style: int,
                       max_len: int = 16, gate_override=None, styled: bool = True,
                       batch_size: int = 64):
    """Greedy transfer of encoded sentences; returns (token lists, gate rows)."""
    outputs, gate_rows = [], []
    for lo in range(0, len(id_seqs), batch_size):
        batch = pack_batch(id_seqs[lo:lo + batch_size])
        toks, gates = model.generate_greedy(batch.enc_ids, batch.lengths,
                                            target_style=target_style, styled=styled,
                                            max_len=max_len, gate_override=gate_override)
        outputs.extend(toks)
        gate_rows.extend(gates)
    return outputs, gate_rows


def evaluate_transfer(model: Seq2seqModel, classifier: TextCnnStyleClassifier,
                      vocab, sentences, labels, references, max_len: int = 16,
                      gate_override=None, styled: bool = True) -> tuple[MetricReport, list]:
    """Transfer each sentence to the opposite style and score the outputs.

    ``references`` holds one list of reference strings per input sentence.
    """
    ids = [vocab.encode(s) for s in sentences]
    labels = np.asarray(labels)
    outputs: list[list[int]] = [None] * len(ids)
    for style in (0, 1):
        idx = np.where(labels == style)[0]
        if len(idx) == 0:
            continue
        outs, _ = transfer_sentences(model, [ids[i] for i in idx], 1 - style,
                                     max_len=max_len, gate_override=gate_override,
                                     styled=styled)
        for i, o in zip(idx, outs):
            outputs[i] = o

    acc = transfer_accuracy(outputs, 1 - labels, classifier)
    decoded = [vocab.decode(o) if o else "" for o in outputs]
    bleu = corpus_bleu(decoded, references)
    return build_report(acc, bleu, len(outputs)), decoded
