"""Automatic metrics: transfer accuracy, corpus BLEU, and their aggregates.

BLEU is the classic corpus-level recipe: modified n-gram precisions for
n = 1..4 clipped against the maximum reference count, geometric mean, and a
brevity penalty against the closest reference length. No smoothing by default
so hand-checked values stay auditable; ``smooth=True`` add-one smooths the
higher-order precisions for very short synthetic sentences.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict


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


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(outputs, references, max_n: int = 4, smooth: bool = False) -> float:
    """Corpus BLEU on the 0-100 scale against up to four references each."""
    if len(outputs) != len(references):
        raise ValueError(
            f"corpus_bleu: {len(outputs)} outputs vs {len(references)} reference sets")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(outputs, references):
        hyp = hyp.split() if isinstance(hyp, str) else list(hyp)
        refs = [r.split() if isinstance(r, str) else list(r) for r in refs]
        if not refs:
            raise ValueError("corpus_bleu: sentence with no references")
        hyp_len += len(hyp)
        ref_len += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        for n in range(1, max_n + 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            clip = Counter()
            for r in refs:
                rc = _ngrams(r, n)
                for g in counts:
                    clip[g] = max(clip[g], rc.get(g, 0))
            matches[n - 1] += sum(min(c, clip[g]) for g, c in counts.items())
            totals[n - 1] += sum(counts.values())
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
