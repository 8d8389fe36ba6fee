"""Automatic metrics: transfer accuracy, corpus BLEU, and their aggregates.

BLEU is the classic corpus-level recipe: modified n-gram precisions for
n = 1..4 clipped against the maximum reference count, geometric mean, and a
brevity penalty against the closest reference length. No smoothing by default
so hand-checked values stay auditable; ``smooth=True`` add-one smooths the
higher-order precisions for very short synthetic sentences.

Corpus BLEU counts with numpy over the whole corpus. Every hypothesis and
reference is streamed into one array of dense word ids. An n-gram is coded
together with its sentence: the order-0 code of a position is its sentence
index, and the order-n code is the rank of ``code_{n-1} * W + word`` among
the distinct values (W the number of distinct words). Codes are ranks, so
each order's keys stay below (tokens + sentences + 1) * W, under 2^63 for
fewer than 2^31 tokens and sequences. One stable sort per order groups equal
codes and, within a code, the positions of one sequence; the runs it leaves
are each hypothesis's and each reference's count of the n-gram, an n-gram
that runs past the end of its sequence is dropped, and the clip is the
largest reference count. All counts are integers, so the score is the same
float as counting sentence by sentence.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, asdict
from itertools import chain

import numpy as np


@dataclass
class MetricReport:
    acc: float
    bleu: float
    g2: float
    h2: float
    n_sentences: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_table(self) -> str:
        head = f"{'Acc':>8} {'BLEU':>8} {'G2':>8} {'H2':>8} {'N':>6}"
        row = (f"{self.acc:8.1f} {self.bleu:8.1f} {self.g2:8.1f} "
               f"{self.h2:8.1f} {self.n_sentences:6d}")
        return head + "\n" + row


def transfer_accuracy(outputs, target_styles, classifier) -> float:
    """Percentage of outputs whose predicted class matches the target style;
    an empty output counts as a miss."""
    if len(outputs) == 0:
        raise ValueError("transfer_accuracy: empty output list")
    if len(outputs) != len(target_styles):
        raise ValueError("outputs and target_styles must be parallel")
    scored = [i for i, out in enumerate(outputs) if len(out)]
    hits = 0
    if scored:
        pred = classifier.predict([outputs[i] for i in scored])
        hits = sum(int(p == target_styles[i]) for p, i in zip(pred, scored))
    return 100.0 * hits / len(outputs)


def _id_runs(outputs, references, lengths: list, n_refs: list):
    """Yield an iterator over the word ids of each hypothesis and then of each
    of its references, appending every sequence's length to ``lengths`` and
    every sentence's reference count to ``n_refs``. Ids are dense, in order of
    first sight."""
    ids = defaultdict()
    ids.default_factory = ids.__len__   # an unseen word gets the next id
    for hyp, refs in zip(outputs, references):
        seqs = [hyp.split() if isinstance(hyp, str) else list(hyp)]
        seqs += [r.split() if isinstance(r, str) else list(r) for r in refs]
        if len(seqs) == 1:
            raise ValueError("corpus_bleu: sentence with no references")
        n_refs.append(len(seqs) - 1)
        for seq in seqs:
            lengths.append(len(seq))
            yield map(ids.__getitem__, seq)


def corpus_bleu(outputs, references, max_n: int = 4, smooth: bool = False) -> float:
    """Corpus BLEU on the 0-100 scale against up to four references each."""
    if len(outputs) != len(references):
        raise ValueError(
            f"corpus_bleu: {len(outputs)} outputs vs {len(references)} reference sets")
    lengths, n_refs = [], []
    runs = _id_runs(outputs, references, lengths, n_refs)
    tok = np.fromiter(chain.from_iterable(runs), dtype=np.int32)
    vocab = int(tok.max()) + 1 if tok.size else 1
    lengths = np.asarray(lengths, dtype=np.int64)
    n_refs = np.asarray(n_refs, dtype=np.int64)
    # the sequences run hypothesis, its references, the next hypothesis, ...
    hyp_seq = np.cumsum(n_refs + 1) - (n_refs + 1)
    is_hyp = np.zeros(len(lengths), dtype=bool)
    is_hyp[hyp_seq] = True

    # closest reference length, a tie going to the shorter: the least
    # 2|r - h| + (r > h) over the sentence's references names it
    hyp_lengths = lengths[hyp_seq]
    hyp_len = int(hyp_lengths.sum())
    ref_lengths = lengths[~is_hyp]
    h = np.repeat(hyp_lengths, n_refs)
    key = 2 * np.abs(ref_lengths - h) + (ref_lengths > h)
    best = np.minimum.reduceat(key, hyp_seq - np.arange(len(n_refs)))
    ref_len = hyp_len + int(np.where(best % 2, best // 2, -(best // 2)).sum())

    seq = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)   # per token
    code = np.repeat(np.arange(len(n_refs)), n_refs + 1)[seq]   # order 0: the sentence
    matches = [0] * max_n
    totals = [0] * max_n
    for n in range(1, max_n + 1):
        # the n-gram at each start position, keyed with its sentence; one that
        # runs past the end of its sequence gets -1
        m = tok.size - n + 1
        if m <= 0:
            break
        key = code[:m] * vocab
        key += tok[n - 1:]
        key[seq[:m] != seq[n - 1:]] = -1
        # each array is freed once read, to keep peak memory low
        del code
        # a stable sort groups equal keys and keeps positions, so sequences,
        # in order within a group; the -1 keys sort first and are dropped
        order = key.argsort(kind="stable")
        key = key[order]
        inside = int(np.searchsorted(key, 0))
        order, key = order[inside:], key[inside:]
        new_key = np.empty(len(key), dtype=bool)
        new_key[:1] = True
        np.not_equal(key[1:], key[:-1], out=new_key[1:])
        rank = np.cumsum(new_key)
        rank -= 1
        code = np.zeros(m, dtype=np.int64)
        code[order] = rank
        run_seq = seq[order]
        del key, order
        # runs of one code in one sequence: how often that sequence has it
        new_key[1:] |= run_seq[1:] != run_seq[:-1]
        start = np.flatnonzero(new_key)
        count = np.diff(start, append=len(new_key))
        run_code = rank[start]
        run_hyp = is_hyp[run_seq[start]]
        del rank, run_seq, new_key, start
        # a code names one sentence, so it has at most one hypothesis run
        n_codes = int(run_code[-1]) + 1 if run_code.size else 0
        hyp_count = np.zeros(n_codes, dtype=np.int64)
        hyp_count[run_code[run_hyp]] = count[run_hyp]
        clip = np.zeros(n_codes, dtype=np.int64)
        np.maximum.at(clip, run_code[~run_hyp], count[~run_hyp])
        matches[n - 1] = int(np.minimum(hyp_count, clip).sum())
        totals[n - 1] = int(hyp_count.sum())
    log_precisions = []
    for n in range(max_n):
        m, t = matches[n], totals[n]
        if smooth and n > 0:
            m, t = m + 1, t + 1
        if t == 0 or m == 0:
            return 0.0
        log_precisions.append(math.log(m / t))
    geo = math.exp(sum(log_precisions) / max_n)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * geo * bp


def aggregate_scores(acc: float, bleu: float) -> tuple[float, float]:
    """Geometric and harmonic means of accuracy and BLEU (0-100 scale)."""
    if acc < 0 or bleu < 0:
        raise ValueError("aggregate_scores: inputs must be nonnegative")
    # sqrt of each factor: the product of a subnormal score underflows to 0
    g2 = math.sqrt(acc) * math.sqrt(bleu)
    h2 = 0.0 if acc + bleu == 0 else 2.0 * acc * bleu / (acc + bleu)
    return g2, h2


def build_report(acc: float, bleu: float, n_sentences: int) -> MetricReport:
    g2, h2 = aggregate_scores(acc, bleu)
    return MetricReport(acc=acc, bleu=bleu, g2=g2, h2=h2, n_sentences=n_sentences)
