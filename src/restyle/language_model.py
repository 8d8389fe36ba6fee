"""Directional GRU language models and the fluency loss.

One forward and one backward model are trained per style; the backward model
simply consumes reversed sequences. Training, perplexity and the stage-2
fluency loss share one forward, ``logits``: a whole sequence of input
embeddings through the GRU and the output layer in one pass. During stage 2
both models are frozen and score each soft sentence in that one pass, fed the
expected embedding of each prior soft word.
"""

from __future__ import annotations

import logging

import numpy as np

from restyle import autodiff as ad
from restyle.autodiff import Tensor, constant, parameter
from restyle.base import Estimator, check_fitted, check_token_sequences
from restyle.data import BOS, PAD, Batcher, LabeledCorpus, length_ordered_batches, train_dev_split
from restyle.seq2seq import GruCell, SoftSentence

logger = logging.getLogger(__name__)


class DirectionalLanguageModel(Estimator):
    """Next-token GRU model for one (style, direction) pair."""

    def __init__(self, vocab_size=None, style=None, direction="forward",
                 embed_dim=64, hidden_dim=64, epochs=5, learning_rate=2e-3,
                 clip_norm=5.0, batch_size=32, max_len=16, optimizer="adam",
                 seed=0, dev_fraction=0.1):
        if direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward or backward, got {direction!r}")
        self.vocab_size = vocab_size
        self.style = style
        self.direction = direction
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.batch_size = batch_size
        self.max_len = max_len
        self.optimizer = optimizer
        self.seed = seed
        self.dev_fraction = dev_fraction
        self.params_ = None
        self.dev_perplexity_ = None

    def _init_params(self):
        rng = np.random.default_rng(self.seed)
        p: dict[str, Tensor] = {}
        p["emb"] = parameter(rng.normal(0.0, 0.1, (self.vocab_size, self.embed_dim)),
                             name="lm.emb")
        p["emb"].values[PAD] = 0.0
        self.cell_ = GruCell(p, "gru", self.embed_dim, self.hidden_dim, rng)
        k = 1.0 / np.sqrt(self.hidden_dim)
        p["out.w"] = parameter(rng.uniform(-k, k, (self.hidden_dim, self.vocab_size)),
                               name="lm.out.w")
        p["out.b"] = parameter(np.zeros(self.vocab_size), name="lm.out.b")
        self.params_ = p

    def _oriented(self, seqs: list[list[int]]) -> list[list[int]]:
        if self.direction == "backward":
            return [list(reversed(s)) for s in seqs]
        return seqs

    # ------------------------------------------------------------------
    def logits(self, x_emb: Tensor) -> Tensor:
        """(B, S, V) next-token logits after each of (B, S, E) input
        embeddings, run from the zero state."""
        h0 = constant(np.zeros((x_emb.shape[0], self.hidden_dim)))
        return ad.matmul(self.cell_.run(x_emb, h0), self.params_["out.w"]) + self.params_["out.b"]

    def _token_nll(self, batch, mask: np.ndarray) -> Tensor:
        """(B, S) next-token NLL, zero where ``mask`` is."""
        emb = ad.gather_rows(self.params_["emb"], batch.dec_inputs)
        return ad.cross_entropy_with_indices(self.logits(emb), batch.targets, mask)

    def fit(self, X):
        """Train on a single-style list of id sequences."""
        X = check_token_sequences(X)
        if not X:
            raise ValueError("empty corpus for language model")
        self._init_params()
        train, dev = train_dev_split(LabeledCorpus(X, [0] * len(X)), self.dev_fraction,
                                     self.seed)
        batcher = Batcher(LabeledCorpus(self._oriented(train.sentences), train.labels),
                          self.batch_size, self.max_len, seed=self.seed + 1)
        opt = ad.make_optimizer(self.optimizer,
                                [self.params_[k] for k in sorted(self.params_)],
                                self.learning_rate, self.clip_norm)
        for _ in range(self.epochs):
            for batch in batcher.epoch():
                loss = self._token_nll(batch, batch.target_mask).sum(axis=1).mean()
                ad.backward(loss)
                opt.step()
        self.dev_perplexity_ = self.perplexity(dev.sentences)
        logger.info("lm style=%s dir=%s held-out perplexity: %.3f",
                    self.style, self.direction, self.dev_perplexity_)
        return self

    def perplexity(self, X) -> float:
        check_fitted(self, "params_")
        seqs = self._oriented(check_token_sequences(X))
        total_nll, total_tokens = 0.0, 0
        with ad.no_grad():
            for _, batch in length_ordered_batches(seqs, 64):
                total_nll += float(self._token_nll(batch, batch.target_mask).values.sum())
                total_tokens += int(batch.target_mask.sum())
        return float(np.exp(total_nll / max(total_tokens, 1)))


def fluency_loss(lm_forward: DirectionalLanguageModel,
                 lm_backward: DirectionalLanguageModel,
                 soft: SoftSentence, target_style: int) -> Tensor:
    """Average of forward and backward distribution cross-entropies.

    Each term is sum_j H(P_model(.|y_<j), P_lm(.|context)), with the language
    model fed the expected embedding of each prior soft word. Each model reads
    the whole soft sentence in one pass of ``logits``; the backward model reads
    it reversed within each row's realized length.
    """
    if lm_forward.style != target_style or lm_backward.style != target_style:
        raise ValueError(
            f"style mismatch: soft sentence targets style {target_style}, "
            f"models were trained on styles {lm_forward.style}/{lm_backward.style}")
    if lm_forward.direction != "forward" or lm_backward.direction != "backward":
        raise ValueError("fluency_loss needs one forward and one backward model")
    T = len(soft.rows)
    B = soft.rows[0].shape[0]
    mask = soft.length_mask()
    n_sentences = max(int((soft.lengths > 0).sum()), 1)

    def directional(lm: DirectionalLanguageModel, rows3: Tensor, dists3: Tensor) -> Tensor:
        emb = lm.params_["emb"]
        bos = ad.gather_rows(emb, np.full((B, 1), BOS, dtype=np.int64))
        x = ad.concat([bos, ad.matmul(rows3[:, :T - 1], emb)], axis=1)
        ce = ad.cross_entropy_with_dist(dists3, lm.logits(x)) * constant(mask)
        # per-sentence sums averaged over sentences with nonzero length
        return ce.sum() * (1.0 / n_sentences)

    rows3 = soft.stacked_rows()
    dists3 = soft.stacked_dists()
    # reversed-within-realized-length view of the soft sentence
    b, j = np.nonzero(mask)
    perm = np.zeros((B, T, T))
    perm[b, j, soft.lengths[b] - 1 - j] = 1.0
    reverse = constant(perm)
    fwd = directional(lm_forward, rows3, dists3)
    bwd = directional(lm_backward, ad.matmul(reverse, rows3), ad.matmul(reverse, dists3))
    return (fwd + bwd) * 0.5
