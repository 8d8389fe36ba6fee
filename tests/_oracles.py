"""Independent oracles shared by module tests and the acceptance suite."""

import numpy as np

from restyle import autodiff as ad


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
    z = ad.sigmoid(ad.narrow(gi, 1, 0, H) + ad.narrow(gh, 1, 0, H))
    r = ad.sigmoid(ad.narrow(gi, 1, H, H) + ad.narrow(gh, 1, H, H))
    n = ad.tanh(ad.narrow(gi, 1, 2 * H, H) + r * ad.narrow(gh, 1, 2 * H, H))
    return (1.0 - z) * n + z * h
