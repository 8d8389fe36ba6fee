"""Layer-wise relevance propagation through the style classifier.

Relevance flows from the target-class logit back to the input tokens with the
proportional z-rule: each output neuron's relevance is split across its inputs
as z_kk' / sum_k'' z_k''k', where z_kk' is the input value times the
connecting weight. Nonlinear activations pass relevance through unchanged;
max-over-time pooling routes it to the winning window.

The rule is evaluated in matrix form, never building the per-edge z_kk'
tensor (Montavon et al. 2019, 10.2). Across the dense output layer,
z = a W sums each column, s = r / z scales the output relevance,
c = s W^T carries it back, and r_in = a * c. Across a width-w convolution the
classifier's trace already holds each token's partial products
Y[b, t, block(w, j)] = emb[b, t] @ conv{w}.w[j*E:(j+1)*E] and their shifted
sums z_w; so s = r / z_w, and token t = p + j of window p receives
sum_f s[b, p, f] * Y[b, t, block(w, j), f]. That is the embedding-coordinate
relevance a * c summed over the token's E coordinates, which is all a word's
relevance needs, so the relevance map is per token.

Denominators are stabilized as sum + sign(sum) * delta with sign(0) = +1, so
an all-zero column (e.g. padding embeddings) contributes exactly zero
relevance. With the stabilizer disabled, a vanishing column's relevance is
added back split uniformly over its inputs (over a window's w tokens, for a
convolution) and the event is counted.

Everything is expressed in traced tensor ops, so the soft-word pipeline stays
differentiable with respect to the generated probability rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from restyle import autodiff as ad
from restyle.autodiff import Tensor, constant
from restyle.textcnn import ClassifierTrace, TextCnnStyleClassifier

# the mapping's defaults, which ``training.LrpConfig`` and the ``[lrp]``
# config section read too
STABILIZER = 1e-9    # delta of the stabilized denominators
EPSILON = 0.3        # lambda below this floors to 0
ETA_TARGET = 0.7     # lambda that ``calibrate_eta`` gives the low peak quantile


@dataclass
class RelevanceMap:
    """Input-layer relevance of one batch: one signed value per token, the
    target-class logit's share that the z-rule assigns to it. Over a sentence
    these sum to the logit, up to the stabilizer's leak. ``fallback_events``
    counts the dead columns split uniformly with the stabilizer off."""

    r_token: Tensor          # (B, T) relevance per token
    fallback_events: int = 0


@dataclass
class WordRelevance:
    """Per-token relevance in [0,1): raw scores mapped through tanh(eta*|r|)
    and floored to 0 below the noise threshold."""

    lam: Tensor              # (B, T)
    raw: Tensor              # (B, T) signed raw relevance per token


def _stabilized_ratio(r_out: Tensor, z: Tensor, stabilizer: float):
    """s = r_out / (z +- stab), and the dead-column mask (z == 0) that the
    caller splits uniformly when the stabilizer is off (None when it is on)."""
    if stabilizer > 0.0:
        shift = np.where(z.values >= 0.0, stabilizer, -stabilizer)
        return r_out / (z + constant(shift)), None
    dead = (z.values == 0.0).astype(float)
    s = r_out / (z + constant(dead))
    if dead.any():
        s = s * constant(1.0 - dead)
    return s, dead


def zrule_backward(v_in: Tensor, weights: Tensor, r_out: Tensor,
                   stabilizer: float = STABILIZER) -> tuple[Tensor, int]:
    """One proportional-split step across a linear layer, in four traced steps
    (Montavon et al. 2019, section 10.2):

        z = v_in @ W,  s = r_out / (z +- stab),  c = s @ W^T,  r_in = v_in * c

    v_in: (..., K_in) input neuron values; weights: (K_in, K_out);
    r_out: (..., K_out). Returns ((..., K_in) relevance, fallback count).
    The result is differentiable in all three inputs. With the stabilizer off,
    a dead column (z == 0) contributes nothing through s; its relevance is
    instead added back split uniformly, sum_dead(r_out) / K_in per input.
    """
    s, dead = _stabilized_ratio(r_out, ad.matmul(v_in, weights), stabilizer)
    r_in = v_in * ad.matmul(s, ad.swap_last_axes(weights))
    fallbacks = 0 if dead is None else int(dead.sum())
    if fallbacks:
        lost = (r_out * constant(dead)).sum(axis=-1, keepdims=True)
        r_in = r_in + lost * (1.0 / weights.shape[0])
    return r_in, fallbacks


def propagate(clf: TextCnnStyleClassifier, trace: ClassifierTrace,
              target_class, stabilizer: float = STABILIZER) -> RelevanceMap:
    """Decompose the target-class logit into per-token relevance."""
    B = trace.logits.shape[0]
    tc = np.broadcast_to(np.asarray(target_class, dtype=np.int64), (B,)).copy()
    onehot = np.zeros((B, 2))
    onehot[np.arange(B), tc] = 1.0
    r_logits = trace.logits * constant(onehot)

    r_feats, events = zrule_backward(trace.features, clf.params_["out.w"],
                                     r_logits, stabilizer)
    F = clf.num_filters
    r_token = None
    for i, w in enumerate(clf.filter_widths):
        z, y = trace.z[w], trace.y[w]
        T = y.shape[1]
        route = np.zeros(z.shape)
        np.put_along_axis(route, trace.pool_argmax[w][:, None, :], 1.0, axis=1)
        # tanh is relevance-transparent; the pool routes to the winning window
        r_act = r_feats[:, i * F:(i + 1) * F].reshape(B, 1, F) * constant(route)
        s, dead = _stabilized_ratio(r_act, z, stabilizer)
        # token p+j of window p gets sum_f s[p, f] * Y[p+j, block(w, j), f]
        r_w = (ad.shift_spread(s, w, T) * y).sum(axis=-1)
        if dead is not None and dead.any():
            events += int(dead.sum())
            # a dead column's relevance goes to its window's w tokens alike
            lost = (r_act * constant(dead)).sum(axis=-1, keepdims=True) * (1.0 / w)
            r_w = r_w + ad.shift_spread(lost, w, T).sum(axis=-1)
        r_token = r_w if r_token is None else r_token + r_w
    return RelevanceMap(r_token, events)


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def word_relevance(rmap: RelevanceMap, eta: float, epsilon: float) -> WordRelevance:
    """Map per-token relevance through tanh(eta*|r|), flooring values
    below epsilon to exactly zero.

    float64 tanh rounds to exactly 1.0 once eta*|r| exceeds ~18.7; those
    entries are scaled down to the largest double below 1 so the range stays
    [0,1). Their gradient is unchanged: tanh's backward is already zero there.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0,1), got {epsilon}")
    raw = rmap.r_token
    lam = ad.tanh(ad.absolute(raw) * eta)
    scale = (lam.values >= epsilon).astype(float)
    scale[lam.values == 1.0] = _BELOW_ONE
    lam = lam * constant(scale)
    return WordRelevance(lam, raw)


def hard_word_relevance(clf: TextCnnStyleClassifier, ids: np.ndarray,
                        lengths: np.ndarray, target_class, eta: float,
                        epsilon: float, stabilizer: float = STABILIZER) -> WordRelevance:
    trace = clf.forward_trace(ids, lengths)
    return word_relevance(propagate(clf, trace, target_class, stabilizer), eta, epsilon)


def soft_word_relevance(clf: TextCnnStyleClassifier, rows: Tensor,
                        lengths: np.ndarray, target_class, eta: float,
                        epsilon: float, stabilizer: float = STABILIZER) -> WordRelevance:
    """Relevance of each soft word; differentiable w.r.t. the probability rows."""
    trace = clf.forward_trace_soft(rows, lengths)
    return word_relevance(propagate(clf, trace, target_class, stabilizer), eta, epsilon)


def calibrate_eta(clf: TextCnnStyleClassifier, sentences, labels,
                  target_lambda: float = ETA_TARGET, quantile: float = 0.1,
                  sample: int = 200, stabilizer: float = STABILIZER,
                  seed: int = 0) -> float:
    """Pick eta so a low quantile of per-sentence peak |r| maps to target_lambda.

    The peak-relevance token is the style carrier; anchoring the lower tail of
    the peak distribution keeps carriers above 0.5 across the whole corpus,
    not just the typical sentence.
    """
    from restyle.data import pack_batch

    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(sentences))[:sample]
    peaks = []
    with ad.no_grad():
        # input order: eta scales every target; length order moves 10-19% of peaks, by <= 3.5e-16
        for lo in range(0, len(idx), 64):
            chunk = [sentences[i] for i in idx[lo:lo + 64]]
            chunk_labels = np.array([labels[i] for i in idx[lo:lo + 64]])
            batch = pack_batch(chunk)
            rmap = propagate(clf, clf.forward_trace(batch.enc_ids, batch.lengths),
                             chunk_labels, stabilizer)
            raw = np.abs(rmap.r_token.values)
            # the map is wider than the batch when the classifier padded it
            raw[np.arange(raw.shape[1])[None, :] >= batch.lengths[:, None]] = 0.0
            peaks.extend(raw.max(axis=1).tolist())
    anchor = float(np.quantile(peaks, quantile))
    if anchor <= 0:
        return 1.0
    return float(np.arctanh(target_lambda) / anchor)
