"""Output checks. Each compares the program's outputs with a computation made
apart from it (``reference``) or with a property the method must have, and
returns ``(ok, detail)``. None of them compares with a stored copy of earlier
output.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# floors and tolerances, each set below what the finished benchmark measured
# on every seed in the README
CLASSIFIER_ACC_FLOOR = 0.98
MARKER_TOP_FLOOR = 0.85
RECONSTRUCTION_FLOOR = 0.6
CONSERVATION_TOL = 1e-6
ACCURACY_GAIN_FLOOR = 20.0
TIE_TOL = 1e-6
BLEU_TOL = 1e-9


class CheckLog:
    """Collects named checks; a failed check names itself on stderr."""

    def __init__(self):
        self.passed: list[str] = []
        self.failed: list[str] = []

    def record(self, name: str, result: tuple[bool, str]) -> bool:
        ok, detail = result
        if ok:
            self.passed.append(f"{name}: {detail}")
        else:
            self.failed.append(f"{name}: {detail}")
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failed


def share_at_least(hits: int, total: int, floor: float, what: str) -> tuple[bool, str]:
    share = hits / max(total, 1)
    return share >= floor, f"{what} {hits}/{total} = {share:.4f} (floor {floor})"


def classifier_accuracy(pred, gold, floor: float = CLASSIFIER_ACC_FLOOR):
    pred, gold = np.asarray(pred), np.asarray(gold)
    return share_at_least(int((pred == gold).sum()), len(gold), floor, "dev accuracy")


def lambda_in_range(rows) -> tuple[bool, str]:
    """Every relevance value lies in [0, 1)."""
    bad = sum(int(((r < 0.0) | (r >= 1.0) | ~np.isfinite(r)).sum()) for r in rows)
    return bad == 0, f"{bad} values outside [0,1)"


def conservation(raws, lengths, totals, logits, tol: float = CONSERVATION_TOL):
    """z-rule conservation over batches: each sentence's raw relevance sums to
    ``totals``, its target-class logit less what the stabilizer keeps
    (``reference.zrule_total``), within ``tol`` (relative, floor 1), and
    positions at or past its length get exactly 0."""
    leaked, worst, kept = 0, 0.0, 0.0
    for raw, ln, total, logit in zip(raws, lengths, totals, logits, strict=True):
        raw = np.asarray(raw)
        pad = np.arange(raw.shape[1])[None, :] >= np.asarray(ln)[:, None]
        leaked += int((raw[pad] != 0.0).sum())
        err = np.abs(raw.sum(axis=1) - total) / np.maximum(1.0, np.abs(total))
        worst = max(worst, float(err.max(initial=0.0)))
        share = np.abs(logit - total) / np.maximum(1.0, np.abs(logit))
        kept = max(kept, float(share.max(initial=0.0)))
    return (leaked == 0 and worst <= tol,
            f"worst relative error {worst:.3g} (tol {tol}), {leaked} nonzero padding entries; "
            f"the stabilizer kept up to {kept:.3g} of a logit")


def marker_on_top(lams, sentences, markers, floor: float = MARKER_TOP_FLOOR):
    """Share of sentences whose marker word has the largest relevance."""
    hits = total = 0
    for lam, sentence in zip(lams, sentences, strict=True):
        toks = sentence.split()
        at = [i for i, t in enumerate(toks) if t in markers]
        if len(at) != 1:
            continue
        total += 1
        hits += int(lam[at[0]] >= np.max(lam[:len(toks)]))
    return share_at_least(hits, total, floor, "marker has the top relevance in")


def exact_share(outputs, expected, floor: float = RECONSTRUCTION_FLOOR):
    hits = sum(int(list(o) == list(e)) for o, e in zip(outputs, expected, strict=True))
    return share_at_least(hits, len(expected), floor, "exact reproductions")


def identical(a, b, what: str) -> tuple[bool, str]:
    """Two token-list sequences agree entry for entry."""
    a, b = [list(x) for x in a], [list(x) for x in b]
    if len(a) != len(b):
        return False, f"{what}: {len(a)} against {len(b)} entries"
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    return not diff, f"{what}: {len(diff)} of {len(a)} differ (first {diff[:3]})"


def below(value: float, bound: float, what: str) -> tuple[bool, str]:
    return bool(value < bound), f"{what} {value:.4g} against {bound:.4g}"


def unchanged(before: dict, after: dict) -> tuple[bool, str]:
    moved = sorted(k for k in before if before[k] != after.get(k))
    return not moved, f"weights changed: {moved}"


def losses_finite(rows) -> tuple[bool, str]:
    bad = [r["step"] for r in rows
           if not all(math.isfinite(v) for k, v in r.items() if k != "step")]
    return not bad, f"non-finite losses at steps {bad[:5]}"


def falls(values, k: int, what: str) -> tuple[bool, str]:
    """Mean of the last ``k`` values is below the mean of the first ``k``."""
    first, last = float(np.mean(values[:k])), float(np.mean(values[-k:]))
    return last < first, f"{what}: first {k} mean {first:.4f}, last {k} mean {last:.4f}"


def gain_at_least(before: float, after: float, floor: float = ACCURACY_GAIN_FLOOR):
    return (after - before >= floor,
            f"transfer accuracy {before:.1f} -> {after:.1f}, gain floor {floor}")


def reference_decode(problems_by_sentence: list[list[str]]) -> tuple[bool, str]:
    bad = [(i, p[0]) for i, p in enumerate(problems_by_sentence) if p]
    return not bad, f"{len(bad)} sentences disagree, first {bad[:2]}"


def bleu_agrees(program: float, reference: float, tol: float = BLEU_TOL):
    return abs(program - reference) <= tol, f"corpus_bleu {program!r} vs reference {reference!r}"
