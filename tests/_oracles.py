"""Independent oracles shared by module tests and the acceptance suite."""

import math
from collections import Counter

import numpy as np

from restyle import autodiff as ad
from restyle.data import EOS, PAD
from restyle.synthetic import MARKERS


def naive_zrule(v_in, weights, r_out, stabilizer):
    """Literal edge-by-edge transcription of the proportional relevance split."""
    k_in, k_out = weights.shape
    r_in = np.zeros(k_in)
    for k in range(k_in):
        total = 0.0
        for kp in range(k_out):
            z = v_in[k] * weights[k, kp]
            denom = 0.0
            for kpp in range(k_in):
                denom += v_in[kpp] * weights[kpp, kp]
            denom = denom + (stabilizer if denom >= 0 else -stabilizer)
            # a dead column (possible only with the stabilizer off) splits uniformly
            share = z / denom if denom != 0.0 else 1.0 / k_in
            total += share * r_out[kp]
        r_in[k] = total
    return r_in


def windowed_relevance(clf, emb, lengths, target_class, stabilizer):
    """The classifier's z-rule as it ran over explicit windows, in numpy: each
    width's (B, P, w*E) windows, r_in = windows * (s @ W^T) across the conv
    layer, overlap-added back onto (B, T, E) and summed over E. ``emb`` is
    the (B, T, E) embedding of the batch. Returns the (B, T) per-token
    relevance, the fallback count and the (B, 2) logits; ``lrp.propagate``
    must give the same relevance and count."""
    p = {k: v.values for k, v in clf.params_.items()}
    widths, F = clf.filter_widths, clf.num_filters
    B, T, E = emb.shape
    if T < max(widths):
        emb = np.concatenate([emb, np.zeros((B, max(widths) - T, E))], axis=1)
        T = max(widths)

    def zrule(v, w, r):
        z = v @ w
        if stabilizer > 0.0:
            return v * ((r / (z + np.where(z >= 0.0, stabilizer, -stabilizer))) @ w.T), 0
        dead = z == 0.0
        r_in = v * (np.where(dead, 0.0, r / np.where(dead, 1.0, z)) @ w.T)
        return r_in + np.where(dead, r, 0.0).sum(-1, keepdims=True) / w.shape[0], int(dead.sum())

    windows, argmax, feats = {}, {}, []
    for w in widths:
        P = T - w + 1
        windows[w] = np.stack([emb[:, q:q + w].reshape(B, w * E) for q in range(P)], axis=1)
        act = np.tanh(windows[w] @ p[f"conv{w}.w"] + p[f"conv{w}.b"])
        valid = np.arange(P)[None, :] <= np.maximum(lengths, w)[:, None] - w
        act = np.where(valid[:, :, None], act, -np.inf)
        argmax[w] = act.argmax(axis=1)
        feats.append(act.max(axis=1))
    feats = np.concatenate(feats, axis=1)
    logits = feats @ p["out.w"] + p["out.b"]
    rows = np.arange(B)
    tc = np.broadcast_to(np.asarray(target_class), (B,))
    r_logits = np.zeros((B, 2))
    r_logits[rows, tc] = logits[rows, tc]
    r_feats, events = zrule(feats, p["out.w"], r_logits)
    r_emb = np.zeros((B, T, E))
    for i, w in enumerate(widths):
        P = T - w + 1
        r_act = np.zeros((B, P, F))
        for f in range(F):
            r_act[rows, argmax[w][:, f], f] = r_feats[:, i * F + f]
        r_win, n = zrule(windows[w], p[f"conv{w}.w"], r_act)
        events += n
        for q in range(P):
            r_emb[:, q:q + w] += r_win[:, q].reshape(B, w, E)
    return r_emb.sum(axis=-1), events, logits


def random_two_layer_net(rng, min_denom=1e-2):
    """Random sizes <= 8; redraw until every column denominator is bounded away
    from zero so the stabilizer's leakage stays below the measured tolerance."""
    while True:
        n0, n1, n2 = rng.integers(2, 9, size=3)
        v0 = rng.uniform(-1, 1, size=n0)
        w1 = rng.uniform(-1, 1, size=(n0, n1))
        w2 = rng.uniform(-1, 1, size=(n1, n2))
        v1 = np.tanh(v0 @ w1)
        d1 = np.abs(v0 @ w1).min()
        d2 = np.abs(v1 @ w2).min()
        if min(d1, d2) >= min_denom:
            return v0, w1, v1, w2


def composed_gru(gi, h, u, bh):
    """The GRU update built from elementwise autodiff ops, gate columns in
    z|r|n order; ``autodiff.gru_step`` must give the same values."""
    from restyle import autodiff as ad

    H = h.shape[-1]
    gh = ad.matmul(h, u) + bh
    z = ad.sigmoid(gi[:, :H] + gh[:, :H])
    r = ad.sigmoid(gi[:, H:2 * H] + gh[:, H:2 * H])
    n = ad.tanh(gi[:, 2 * H:] + r * gh[:, 2 * H:])
    return (1.0 - z) * n + z * h


def randomize(model, seed, pad_row_zero=False):
    """Fixed random weights in [-3, 3] for a sequence model, with EOS favoured
    by the output bias, so that its outputs end at different steps."""
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.values[...] = rng.uniform(-3.0, 3.0, size=p.shape)
    if pad_row_zero:
        model.params["emb"].values[PAD] = 0.0
    model.params["out.b"].values[EOS] += 1.0
    return model


def graph(loss) -> list:
    """Tensors reachable from ``loss`` through its parent links, itself included."""
    seen, nodes, stack = {id(loss)}, [loss], [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    return nodes


def graph_nodes(loss) -> int:
    return len(graph(loss))


def per_step_fluency_loss(lm_forward, lm_backward, soft, target_style):
    """The fluency loss with each frozen language model run one step at a
    time, its output layer and ``log_softmax`` applied per step, and the
    reversed sentence rebuilt slice by slice; ``language_model.fluency_loss``
    must give the same values and gradients."""
    from restyle.autodiff import constant
    from restyle.data import BOS

    def step_distribution(lm, x_emb, h):
        h = lm.cell_.step(lm.cell_.project(x_emb), h)
        logits = ad.matmul(h, lm.params_["out.w"]) + lm.params_["out.b"]
        return ad.log_softmax(logits, axis=-1), h

    if lm_forward.style != target_style or lm_backward.style != target_style:
        raise ValueError("style mismatch")
    T = len(soft.rows)
    B = soft.rows[0].shape[0]
    mask = soft.length_mask()
    n_sentences = max(int((soft.lengths > 0).sum()), 1)

    def directional(lm, rows, dists, step_mask):
        h = constant(np.zeros((B, lm.hidden_dim)))
        x = ad.gather_rows(lm.params_["emb"], np.full(B, BOS, dtype=np.int64))
        total = None
        for j in range(T):
            logq, h = step_distribution(lm, x, h)
            ce = ad.neg(ad.tsum(dists[j] * logq, axis=-1)) * constant(step_mask[:, j])
            total = ce if total is None else total + ce
            x = ad.matmul(rows[j], lm.params_["emb"])
        # per-sentence sums averaged over sentences with nonzero length
        return total.sum() * (1.0 / n_sentences)

    fwd = directional(lm_forward, soft.rows, soft.dists, mask)

    # reversed-within-realized-length view of the soft sentence
    perm = np.zeros((B, T, T))
    for b in range(B):
        L = soft.lengths[b]
        for j in range(L):
            perm[b, j, L - 1 - j] = 1.0
    rows3 = soft.stacked_rows()
    dists3 = soft.stacked_dists()
    rev_rows3 = ad.matmul(constant(perm), rows3)
    rev_dists3 = ad.matmul(constant(perm), dists3)
    rev_rows = [rev_rows3[:, j] for j in range(T)]
    rev_dists = [rev_dists3[:, j] for j in range(T)]
    bwd = directional(lm_backward, rev_rows, rev_dists, mask)

    return (fwd + bwd) * 0.5


def grads_all_zero(params: dict) -> bool:
    return all((p._grad is None or not p._grad.any()) for p in params.values())


def marker_positions(sentence: str) -> list[int]:
    """Indices of marker tokens within the whitespace tokenization."""
    all_markers = set(MARKERS[0]) | set(MARKERS[1])
    return [i for i, tok in enumerate(sentence.split()) if tok in all_markers]


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def counter_bleu(outputs, references, max_n: int = 4, smooth: bool = False) -> float:
    """Corpus BLEU counted sentence by sentence with a ``Counter`` per n-gram
    order and reference; ``metrics.corpus_bleu`` must give the same float."""
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
