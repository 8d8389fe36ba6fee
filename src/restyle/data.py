"""Vocabulary, corpus loading, batching and denoising corruption."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")
N_RESERVED = 4
NON_WORDS = (PAD, BOS, EOS)   # ids ``Vocabulary.decode`` drops


class Vocabulary:
    """Token/id bijection with fixed reserved ids 0..3."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(RESERVED) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, sentence: str) -> list[int]:
        return [self.token_to_id.get(tok, UNK) for tok in sentence.split()]

    def decode(self, ids) -> str:
        return " ".join(self.id_to_token[i] for i in ids if i not in NON_WORDS)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.id_to_token[N_RESERVED:]:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])

    def content_hash(self) -> str:
        import hashlib
        return hashlib.sha256("\n".join(self.id_to_token).encode("utf-8")).hexdigest()


def build_vocab(sentences, min_freq: int = 1) -> Vocabulary:
    """Frequency-filtered vocabulary, ordered by (-frequency, token) for determinism."""
    counts = Counter()
    total = 0
    for s in sentences:
        total += 1
        counts.update(s.split())
    if total == 0:
        raise ValueError("build_vocab: empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass
class LabeledCorpus:
    """Parallel lists of encoded sentences and binary style labels."""

    sentences: list[list[int]]
    labels: list[int]

    def __post_init__(self):
        if len(self.sentences) != len(self.labels):
            raise ValueError("sentences and labels must be parallel")

    def __len__(self):
        return len(self.sentences)

    def by_style(self, style: int) -> "LabeledCorpus":
        return self.subset([i for i, s in enumerate(self.labels) if s == style])

    def subset(self, indices) -> "LabeledCorpus":
        return LabeledCorpus([self.sentences[i] for i in indices],
                             [self.labels[i] for i in indices])


def read_sentences(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def corrupt(ids: list[int], vocab_size: int, replace_prob: float, rng) -> list[int]:
    """Independently replace non-reserved positions with uniform non-reserved tokens."""
    if not ids:
        raise ValueError("corrupt: empty sequence")
    if vocab_size <= N_RESERVED:
        return list(ids)
    out = list(ids)
    for i, tok in enumerate(out):
        if tok >= N_RESERVED and rng.random() < replace_prob:
            out[i] = int(rng.integers(N_RESERVED, vocab_size))
    return out


def corrupt_batch(batch: Batch, vocab_size: int, replace_prob: float, rng) -> np.ndarray:
    """The batch's (B, T) encoder ids with every sentence corrupted."""
    T = batch.enc_ids.shape[1]
    return np.array([corrupt(list(row[:l]), vocab_size, replace_prob, rng) + [PAD] * (T - l)
                     for row, l in zip(batch.enc_ids, batch.lengths)], dtype=np.int64)


@dataclass
class Batch:
    """Padded id matrices plus the masks every loss needs."""

    enc_ids: np.ndarray        # (B, T) encoder input, PAD-right
    lengths: np.ndarray        # (B,)
    dec_inputs: np.ndarray     # (B, T+1) BOS-framed decoder input
    targets: np.ndarray        # (B, T+1) EOS-framed decoder targets
    target_mask: np.ndarray    # (B, T+1) 1.0 on real tokens + EOS
    token_mask: np.ndarray     # (B, T)   1.0 on real tokens only
    labels: np.ndarray         # (B,)


class Batcher:
    """Deterministic shuffled minibatches over a corpus."""

    def __init__(self, corpus: LabeledCorpus, batch_size: int, max_len: int, seed: int = 0):
        self.corpus = corpus
        self.batch_size = batch_size
        self.max_len = max_len
        self.rng = np.random.default_rng(seed)
        self.truncated = 0

    def epoch(self):
        order = np.arange(len(self.corpus))
        self.rng.shuffle(order)
        for lo in range(0, len(order), self.batch_size):
            yield self.make_batch(order[lo:lo + self.batch_size])

    def make_batch(self, indices) -> Batch:
        indices = np.asarray(indices)
        seqs = []
        for i in indices:
            s = self.corpus.sentences[int(i)]
            if len(s) > self.max_len:
                s = s[:self.max_len]
                self.truncated += 1
                logger.debug("truncated sentence %d to %d tokens", i, self.max_len)
            seqs.append(s)
        labels = np.array([self.corpus.labels[int(i)] for i in indices], dtype=np.int64)
        return pack_batch(seqs, labels)


def pack_batch(seqs: list[list[int]], labels=None, min_width: int = 1) -> Batch:
    B = len(seqs)
    T = max(max((len(s) for s in seqs), default=1), min_width)
    enc = np.full((B, T), PAD, dtype=np.int64)
    dec_in = np.full((B, T + 1), PAD, dtype=np.int64)
    tgt = np.full((B, T + 1), PAD, dtype=np.int64)
    tmask = np.zeros((B, T + 1))
    kmask = np.zeros((B, T))
    lengths = np.zeros(B, dtype=np.int64)
    for b, s in enumerate(seqs):
        L = len(s)
        lengths[b] = L
        enc[b, :L] = s
        dec_in[b, 0] = BOS
        dec_in[b, 1:L + 1] = s
        tgt[b, :L] = s
        tgt[b, L] = EOS
        tmask[b, :L + 1] = 1.0
        kmask[b, :L] = 1.0
    if labels is None:
        labels = np.zeros(B, dtype=np.int64)
    return Batch(enc, lengths, dec_in, tgt, tmask, kmask, np.asarray(labels))


def length_ordered_batches(seqs, batch_size: int, labels=None):
    """(rows, Batch) pairs over ``seqs`` taken in a stable length order, so each
    batch is padded only to its own longest sentence. ``rows`` are the input
    positions of a batch's sentences, for writing results back in input order;
    ``labels``, one per sentence, follow their rows into ``Batch.labels``."""
    order = np.argsort([len(s) for s in seqs], kind="stable")
    labels = np.zeros(len(seqs), dtype=np.int64) if labels is None else np.asarray(labels)
    for lo in range(0, len(seqs), batch_size):
        rows = order[lo:lo + batch_size]
        yield rows, pack_batch([seqs[i] for i in rows], labels[rows])


def train_dev_split(corpus: LabeledCorpus, dev_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    n_dev = max(1, int(len(corpus) * dev_fraction))
    return corpus.subset(order[n_dev:]), corpus.subset(order[:n_dev])
