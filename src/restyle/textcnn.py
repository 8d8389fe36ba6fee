"""TextCNN binary style classifier.

The forward pass works on hard token ids and on soft sentences (rows of
vocabulary probabilities); a soft row consumes the probability-weighted sum of
embedding rows, so a one-hot soft sentence reproduces the hard path exactly.
Convolution windows that would overlap padding are masked out of the
max-over-time pool, which keeps the logits invariant to appended padding.

The convolutions never build a window: one GEMM ``Y = emb @ W_all`` gives every
token's partial product with each per-offset E-row block of every filter
matrix, and a width-w pre-activation is the shifted sum of its w blocks,
``z_w[b, p] = sum_j Y[b, p+j, block(w, j)]`` (``autodiff.shift_sum``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from restyle import autodiff as ad
from restyle.autodiff import Tensor, constant, parameter
from restyle.base import Estimator, check_binary_labels, check_fitted, check_token_sequences
from restyle.data import PAD, Batcher, LabeledCorpus, length_ordered_batches, train_dev_split

logger = logging.getLogger(__name__)


@dataclass
class ClassifierTrace:
    """Per-layer activations cached by one forward pass, consumed by relevance
    propagation."""

    y: dict                     # width -> (B, T, w*F) per-offset partial products
    z: dict                     # width -> (B, P, F) pre-activation without bias
    pool_argmax: dict           # width -> (B, F) winning window per filter
    features: Tensor            # (B, n_widths*F) pooled feature vector
    logits: Tensor              # (B, 2)


class TextCnnStyleClassifier(Estimator):
    """Binary sentence classifier with width-{2,3,4} filter banks."""

    def __init__(self, vocab_size=None, embed_dim=64, num_filters=32,
                 filter_widths=(2, 3, 4), epochs=5, learning_rate=1e-3,
                 clip_norm=5.0, batch_size=32, optimizer="adam",
                 label_smoothing=0.0, word_dropout=0.0, seed=0, dev_fraction=0.1):
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.num_filters = num_filters
        self.filter_widths = tuple(filter_widths)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.batch_size = batch_size
        self.optimizer = optimizer
        self.label_smoothing = label_smoothing
        self.word_dropout = word_dropout
        self.seed = seed
        self.dev_fraction = dev_fraction
        self.params_ = None
        self.dev_accuracy_ = None

    # ------------------------------------------------------------------
    def _init_params(self):
        if self.vocab_size is None:
            raise ValueError("vocab_size must be set before fitting")
        if min(self.filter_widths) < 1:
            raise ValueError("filter widths must be >= 1")
        rng = np.random.default_rng(self.seed)
        V, E, F = self.vocab_size, self.embed_dim, self.num_filters
        p = {"emb": parameter(rng.normal(0.0, 0.1, size=(V, E)), name="clf.emb")}
        p["emb"].values[PAD] = 0.0
        for w in self.filter_widths:
            k = 1.0 / np.sqrt(w * E)
            p[f"conv{w}.w"] = parameter(rng.uniform(-k, k, size=(w * E, F)), name=f"clf.conv{w}.w")
            p[f"conv{w}.b"] = parameter(np.zeros(F), name=f"clf.conv{w}.b")
        k = 1.0 / np.sqrt(len(self.filter_widths) * F)
        p["out.w"] = parameter(rng.uniform(-k, k, size=(len(self.filter_widths) * F, 2)),
                               name="clf.out.w")
        p["out.b"] = parameter(np.zeros(2), name="clf.out.b")
        self.params_ = p

    # ------------------------------------------------------------------
    def _embed_hard(self, ids: np.ndarray) -> Tensor:
        mask = constant((ids != PAD).astype(float)[:, :, None])
        return ad.gather_rows(self.params_["emb"], ids) * mask

    def _embed_soft(self, rows: Tensor, length_mask: np.ndarray) -> Tensor:
        emb = ad.matmul(rows, self.params_["emb"])
        return emb * constant(length_mask[:, :, None])

    def _stacked_filters(self) -> Tensor:
        """(E, sum_w w*F): each width's per-offset blocks conv{w}.w[j*E:(j+1)*E],
        side by side in width order and then offset order."""
        E = self.params_["emb"].shape[1]
        return ad.concat([self.params_[f"conv{w}.w"][j * E:(j + 1) * E]
                          for w in self.filter_widths for j in range(w)], axis=1)

    def _forward_from_emb(self, emb: Tensor, lengths: np.ndarray) -> ClassifierTrace:
        B, T, E = emb.shape
        if T < max(self.filter_widths):
            # append the zero rows a PAD token embeds to, so the widest filter fits
            pad = constant(np.zeros((B, max(self.filter_widths) - T, E)))
            emb = ad.concat([emb, pad], axis=1)
            T = emb.shape[1]
        F = self.num_filters
        y_all = ad.matmul(emb, self._stacked_filters())
        ys, zs, argmaxes, pooled = {}, {}, {}, []
        start = 0
        for w in self.filter_widths:
            ys[w] = y_all[:, :, start:start + w * F]
            start += w * F
            zs[w] = ad.shift_sum(ys[w], w)
            act = ad.tanh(zs[w] + self.params_[f"conv{w}.b"])
            # windows sliding past the last real token never reach the pool
            positions = np.arange(T - w + 1)[None, :]
            valid = (positions <= np.maximum(lengths, w)[:, None] - w).astype(float)
            masked = act + constant((valid[:, :, None] - 1.0) * ad.MASK_BIG)
            argmaxes[w] = np.argmax(masked.values, axis=1)
            pooled.append(ad.tmax(masked, axis=1, argmax=argmaxes[w]))
        feats = ad.concat(pooled, axis=1)
        logits = ad.matmul(feats, self.params_["out.w"]) + self.params_["out.b"]
        return ClassifierTrace(ys, zs, argmaxes, feats, logits)

    def forward_trace(self, ids: np.ndarray, lengths: np.ndarray) -> ClassifierTrace:
        check_fitted(self, "params_")
        return self._forward_from_emb(self._embed_hard(ids), lengths)

    def forward_trace_soft(self, rows: Tensor, lengths: np.ndarray) -> ClassifierTrace:
        """Forward over soft rows (B, T, V); positions at or beyond each realized
        length are zeroed."""
        check_fitted(self, "params_")
        B, T, _ = rows.shape
        length_mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)
        return self._forward_from_emb(self._embed_soft(rows, length_mask), lengths)

    # ------------------------------------------------------------------
    def fit(self, X, y):
        """Train on integer-id sequences X with binary labels y."""
        X = check_token_sequences(X)
        y = check_binary_labels(y, len(X))
        if len(set(y.tolist())) < 2:
            raise ValueError("training corpus must contain both styles")
        self._init_params()
        corpus = LabeledCorpus(X, y.tolist())
        train, dev = train_dev_split(corpus, self.dev_fraction, self.seed)
        batcher = Batcher(train, self.batch_size, max_len=max(len(s) for s in X),
                          seed=self.seed + 1)
        trainable = [self.params_[k] for k in sorted(self.params_)]
        opt = ad.make_optimizer(self.optimizer, trainable, self.learning_rate, self.clip_norm)
        drop_rng = np.random.default_rng(self.seed + 7)
        last_good = None
        for epoch in range(self.epochs):
            for batch in batcher.epoch():
                ids = batch.enc_ids
                if self.word_dropout > 0.0:
                    # whole-token dropout: forces distributed evidence instead
                    # of relying on any single word
                    keep = drop_rng.random(ids.shape) >= self.word_dropout
                    ids = np.where(keep, ids, PAD)
                trace = self.forward_trace(ids, batch.lengths)
                if self.label_smoothing > 0.0:
                    s = self.label_smoothing
                    target = np.full((len(batch.labels), 2), s / 2)
                    target[np.arange(len(batch.labels)), batch.labels] = 1.0 - s / 2
                    loss = ad.cross_entropy_with_dist(constant(target), trace.logits).mean()
                else:
                    loss = ad.cross_entropy_with_indices(trace.logits, batch.labels).mean()
                if not np.isfinite(loss.values).all():
                    logger.warning("classifier diverged at epoch %d; restoring last "
                                   "finite checkpoint", epoch)
                    if last_good is not None:
                        for k, v in last_good.items():
                            self.params_[k].values[...] = v
                    self.dev_accuracy_ = self.score(dev.sentences, dev.labels)
                    return self
                ad.backward(loss)
                opt.step()
            last_good = {k: p.values.copy() for k, p in self.params_.items()}
        self.dev_accuracy_ = self.score(dev.sentences, dev.labels)
        logger.info("classifier held-out accuracy: %.4f", self.dev_accuracy_)
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, computed in 256-sentence chunks taken in length
        order, so each chunk is padded only to its own longest sentence."""
        check_fitted(self, "params_")
        X = check_token_sequences(X)
        out = np.zeros((len(X), 2))
        with ad.no_grad():
            for rows, batch in length_ordered_batches(X, 256):
                # a temporary trace, freed before the next chunk's is built
                out[rows] = ad.softmax(self.forward_trace(batch.enc_ids, batch.lengths)
                                       .logits).values
        return out

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def score(self, X, y) -> float:
        y = np.asarray(y)
        return float((self.predict(X) == y).mean())

    def classify_soft(self, rows: Tensor, lengths: np.ndarray) -> Tensor:
        """(B, 2) logits of a batch of soft sentences."""
        return self.forward_trace_soft(rows, lengths).logits
