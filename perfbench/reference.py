"""Plain-numpy computations the benchmark checks the program against.

Each function here is written from the method's definition, not from the
program's code paths: a TextCNN forward pass, one greedy step of the
attentional GRU decoder, corpus BLEU (Papineni et al., 2002) and a unigram
perplexity. They read the program's parameters as plain arrays and nothing
else.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

PAD, BOS, EOS = 0, 1, 2


def arrays(params) -> dict:
    """Copy a ``{name: Tensor}`` dict into ``{name: ndarray}``."""
    return {k: np.array(v.values, dtype=np.float64) for k, v in params.items()}


# ---------------------------------------------------------------------------
# TextCNN


def hard_embedding(p: dict, ids: np.ndarray) -> np.ndarray:
    """(B, T, E) embeddings of id rows, zero at padding."""
    return p["emb"][ids] * (ids != PAD)[:, :, None]


def soft_embedding(p: dict, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(B, T, E) expected embeddings of probability rows, zero past each length."""
    T = rows.shape[1]
    keep = np.arange(T)[None, :] < np.asarray(lengths)[:, None]
    return (rows @ p["emb"]) * keep[:, :, None]


def textcnn_forward(p: dict, emb: np.ndarray, lengths: np.ndarray, widths):
    """Tanh convolutions, max over the windows that end at or before the last
    real token, then a linear layer. Returns the (B, 2) logits, the (B, n*F)
    pooled features and, per width, the (B, F, w*E) window each filter's
    maximum came from (the first one on a tie)."""
    B, T, E = emb.shape
    lengths = np.asarray(lengths)
    feats, winners = [], []
    for w in widths:
        P = T - w + 1
        win = np.stack([emb[:, t:t + w, :].reshape(B, w * E) for t in range(P)], axis=1)
        act = np.tanh(win @ p[f"conv{w}.w"] + p[f"conv{w}.b"])
        last = np.maximum(lengths, w) - w
        valid = np.arange(P)[None, :] <= last[:, None]
        at = np.where(valid[:, :, None], act, -np.inf).argmax(axis=1)
        feats.append(np.take_along_axis(act, at[:, None, :], axis=1)[:, 0])
        winners.append(np.take_along_axis(win, at[:, :, None], axis=1))
    feats = np.concatenate(feats, axis=1)
    return feats @ p["out.w"] + p["out.b"], feats, winners


def _stabilized(d: np.ndarray, delta: float) -> np.ndarray:
    return d + np.where(d >= 0.0, delta, -delta)


def zrule_total(p: dict, emb: np.ndarray, lengths: np.ndarray, widths, target,
                stabilizer: float) -> tuple[np.ndarray, np.ndarray]:
    """What the z-rule must conserve of each sentence's target-class logit.

    The logit is split over the pooled features in proportion to
    z_j = f_j * w_j, and each feature's share over its winning window's inputs
    in proportion to x_k * W_kj. Biases are not inputs, so a share sums to its
    unbiased pre-activation d divided by the stabilized d + sign(d) * delta:
    the stabilizer keeps the fraction delta / (d + sign(d) * delta), which is
    negligible unless |d| nears delta. Returns the (B,) target logits and the
    (B,) sums the token relevance must equal.
    """
    logits, feats, winners = textcnn_forward(p, emb, lengths, widths)
    rows = np.arange(len(feats))
    target = np.asarray(target)
    z = feats * p["out.w"][:, target].T
    d_out = z.sum(axis=1)
    r_feat = logits[rows, target][:, None] * z / _stabilized(d_out, stabilizer)[:, None]
    d_conv = np.concatenate([np.einsum("bfk,kf->bf", win, p[f"conv{w}.w"])
                             for w, win in zip(widths, winners)], axis=1)
    kept = r_feat * d_conv / _stabilized(d_conv, stabilizer)
    return logits[rows, target], kept.sum(axis=1)


# ---------------------------------------------------------------------------
# attentional GRU decoder


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru(p: dict, prefix: str, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Cho et al. (2014) GRU with the reset gate applied to the recurrent term."""
    H = h.shape[-1]
    gi = x @ p[f"{prefix}.w"] + p[f"{prefix}.bi"]
    gh = h @ p[f"{prefix}.u"] + p[f"{prefix}.bh"]
    z = _sigmoid(gi[:, :H] + gh[:, :H])
    r = _sigmoid(gi[:, H:2 * H] + gh[:, H:2 * H])
    n = np.tanh(gi[:, 2 * H:] + r * gh[:, 2 * H:])
    return (1.0 - z) * n + z * h


def encode(p: dict, ids: list[int]):
    """Encoder states (T, H) and final state (H,) of one unpadded sentence."""
    H = p["enc.u"].shape[0]
    h = np.zeros((1, H))
    states = []
    for tok in ids:
        h = gru(p, "enc", p["emb"][[tok]], h)
        states.append(h[0])
    return np.array(states), states[-1]


def decode_step(p: dict, states: np.ndarray, tok: int, h_prev: np.ndarray,
                style: int | None):
    """One decoder step: additive attention scored against the previous state,
    the GRU update, and, when ``style`` is given, the revision
    h + gate * delta. Returns (logits (V,), revised state (H,))."""
    x = p["emb"][tok] * (tok != PAD)
    query = h_prev @ p["attn.wd"] + p["attn.b"]
    scores = (np.tanh(states @ p["attn.we"] + query) @ p["attn.v"])[:, 0]
    w = np.exp(scores - scores.max())
    context = (w / w.sum()) @ states
    h = gru(p, "dec", np.concatenate([x, context])[None, :], h_prev[None, :])[0]
    if style is not None:
        gate = _sigmoid(np.tanh(h_prev @ p["head.w"] + p["head.b"]) @ p["head.v"]
                        + p["head.vb"])[0]
        inp = np.concatenate([x, h_prev, p["style.emb"][style]])
        delta = np.tanh(inp @ p["style.w1"] + p["style.b1"]) @ p["style.w2"] + p["style.b2"]
        h = h + gate * delta
    return h @ p["out.w"] + p["out.b"], h


def greedy_disagreements(p: dict, ids: list[int], tokens: list[int], style: int | None,
                         max_len: int, tie_tol: float) -> list[str]:
    """Walk the reference decoder along the program's greedy output.

    At every step the program's token must be the reference argmax, or a tie
    within ``tie_tol`` of it; after the last token the reference must choose
    EOS (or the output must have reached ``max_len``). Returns one message per
    disagreement.
    """
    states, h = encode(p, ids)
    prev = BOS
    problems = []
    emitted = list(tokens) + ([EOS] if len(tokens) < max_len else [])
    for j, tok in enumerate(emitted):
        logits, h = decode_step(p, states, prev, h, style)
        best = int(np.argmax(logits))
        if tok != best and logits[best] - logits[tok] > tie_tol:
            problems.append(f"step {j}: program {tok}, reference {best} "
                            f"(logit gap {logits[best] - logits[tok]:.3g})")
            break
        prev = tok
    return problems


# ---------------------------------------------------------------------------
# BLEU and perplexity


def bleu(hypotheses, references, max_n: int = 4) -> float:
    """Corpus BLEU on the 0-100 scale: clipped n-gram precisions for n = 1..4,
    their geometric mean, and a brevity penalty exp(1 - r/c) when the total
    hypothesis length c does not exceed the total closest-reference length r
    (ties between reference lengths go to the shorter one)."""
    matched = [0] * max_n
    counted = [0] * max_n
    c = r = 0
    for hyp, refs in zip(hypotheses, references, strict=True):
        h = hyp.split()
        rs = [x.split() for x in refs]
        c += len(h)
        r += sorted((abs(len(x) - len(h)), len(x)) for x in rs)[0][1]
        for n in range(1, max_n + 1):
            grams = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            ceiling = Counter()
            for x in rs:
                for g, k in Counter(tuple(x[i:i + n]) for i in range(len(x) - n + 1)).items():
                    ceiling[g] = max(ceiling[g], k)
            matched[n - 1] += sum(min(k, ceiling[g]) for g, k in grams.items())
            counted[n - 1] += max(len(h) - n + 1, 0)
    if min(matched) == 0:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matched, counted)) / max_n
    penalty = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * penalty * math.exp(log_p)


def unigram_perplexity(train: list[list[int]], test: list[list[int]], vocab_size: int) -> float:
    """Add-one unigram perplexity of ``test`` (each sentence plus its EOS)
    under token counts from ``train``."""
    counts = np.ones(vocab_size)
    for s in train:
        np.add.at(counts, s, 1.0)
        counts[EOS] += 1.0
    logp = np.log(counts / counts.sum())
    nll = -sum(logp[s].sum() + logp[EOS] for s in test)
    return float(np.exp(nll / sum(len(s) + 1 for s in test)))
