import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restyle import autodiff as ad
from restyle.autodiff import Tensor, backward, constant, finite_difference_check, parameter
from restyle.data import PAD, pack_batch
from restyle.lrp import (
    RelevanceMap,
    calibrate_eta,
    hard_word_relevance,
    propagate,
    soft_word_relevance,
    word_relevance,
    zrule_backward,
)
from restyle.textcnn import TextCnnStyleClassifier


from _oracles import marker_positions, naive_zrule, random_two_layer_net, windowed_relevance


class TestZruleOracle:
    def test_hundred_random_nets_match_naive(self):
        rng = np.random.default_rng(42)
        stab = 1e-9
        for _ in range(100):
            v0, w1, v1, w2 = random_two_layer_net(rng)
            logits = v1 @ w2
            r2 = np.zeros_like(logits)
            target = rng.integers(len(logits))
            r2[target] = logits[target]

            with ad.no_grad():
                r1_engine, _ = zrule_backward(constant(v1), constant(w2), constant(r2), stab)
                r0_engine, _ = zrule_backward(constant(v0), constant(w1), r1_engine, stab)
            r1_naive = naive_zrule(v1, w2, r2, stab)
            r0_naive = naive_zrule(v0, w1, r1_naive, stab)

            np.testing.assert_allclose(r1_engine.values, r1_naive, rtol=0, atol=1e-10)
            np.testing.assert_allclose(r0_engine.values, r0_naive, rtol=0, atol=1e-10)

            # layer-wise conservation at 1e-6 relative
            for upper, lower in ((r2.sum(), r1_engine.values.sum()),
                                 (r1_engine.values.sum(), r0_engine.values.sum())):
                assert abs(upper - lower) <= 1e-6 * max(abs(upper), 1e-12)

    def test_single_linear_unit_closed_form(self):
        # y = w . x: relevance of x_k is its exact share v_k w_k / sum(v w) of y
        v = np.array([0.5, -1.2, 2.0])
        w = np.array([[1.5], [0.3], [-0.7]])
        y = float((v @ w)[0])
        with ad.no_grad():
            r, _ = zrule_backward(constant(v), constant(w), constant([y]), 0.0)
        np.testing.assert_allclose(r.values, v * w[:, 0] / (v @ w[:, 0]) * y, atol=1e-12)
        assert r.values.sum() == pytest.approx(y, abs=1e-12)

    def test_stabilizer_disabled_exact_conservation(self):
        rng = np.random.default_rng(1)
        v0, w1, v1, w2 = random_two_layer_net(rng)
        r2 = v1 @ w2
        with ad.no_grad():
            r1, ev = zrule_backward(constant(v1), constant(w2), constant(r2), 0.0)
        assert ev == 0
        assert r1.values.sum() == pytest.approx(r2.sum(), rel=1e-12)

    def test_dead_column_uniform_fallback_counted(self):
        v = np.array([0.0, 0.0])
        w = np.array([[1.0], [1.0]])
        with ad.no_grad():
            r, ev = zrule_backward(constant(v), constant(w), constant([3.0]), 0.0)
        assert ev == 1
        np.testing.assert_allclose(r.values, [1.5, 1.5])

    def test_stabilized_zero_column_gives_zero_relevance(self):
        v = np.array([0.0, 0.0])
        w = np.array([[1.0], [1.0]])
        with ad.no_grad():
            r, ev = zrule_backward(constant(v), constant(w), constant([3.0]), 1e-9)
        assert ev == 0
        np.testing.assert_array_equal(r.values, [0.0, 0.0])

    @staticmethod
    def _batched_layer(rng, B=3, P=4, k_in=6, k_out=5, min_denom=1e-2):
        """(B, P, K_in) inputs with two all-zero rows and one all-zero weight
        column, so dead columns occur both in dead rows and in live ones;
        every other column's denominator is bounded away from zero."""
        while True:
            v = rng.uniform(-1, 1, size=(B, P, k_in))
            v[0, 1] = 0.0
            v[2, 3] = 0.0
            w = rng.uniform(-1, 1, size=(k_in, k_out))
            w[:, 2] = 0.0
            r = rng.uniform(-1, 1, size=(B, P, k_out))
            live = np.abs(v @ w)[..., [0, 1, 3, 4]]
            live = np.delete(live.reshape(B * P, -1), [1, 11], axis=0)
            if live.min() >= min_denom:
                return v, w, r

    @pytest.mark.parametrize("stab", [0.0, 1e-9])
    def test_batched_rows_with_dead_columns_match_naive(self, stab):
        rng = np.random.default_rng(7)
        v, w, r = self._batched_layer(rng)
        with ad.no_grad():
            r_in, ev = zrule_backward(constant(v), constant(w), constant(r), stab)
        assert r_in.shape == v.shape
        for b in range(v.shape[0]):
            for p in range(v.shape[1]):
                np.testing.assert_allclose(r_in.values[b, p],
                                           naive_zrule(v[b, p], w, r[b, p], stab),
                                           rtol=1e-9, atol=1e-12)
        zero_denoms = sum(
            sum(v[b, p, k] * w[k, j] for k in range(w.shape[0])) == 0.0
            for b in range(v.shape[0]) for p in range(v.shape[1]) for j in range(w.shape[1]))
        # two dead rows lose all five columns, the other ten rows column 2 only
        assert zero_denoms == 2 * 5 + 10
        assert ev == (zero_denoms if stab == 0.0 else 0)

    @pytest.mark.parametrize("stab", [0.0, 1e-9])
    def test_gradient_in_inputs_weights_and_relevance_matches_fd(self, stab):
        rng = np.random.default_rng(8)
        v0, w0, r0 = self._batched_layer(rng)
        # perturbing a dead row or the zero column would flip the fallback,
        # so the finite differences run on live entries only
        v0[0, 1] = rng.uniform(-1, 1, size=v0.shape[-1])
        v0[2, 3] = rng.uniform(-1, 1, size=v0.shape[-1])
        w0[:, 2] = rng.uniform(-1, 1, size=w0.shape[0])
        assert np.abs(v0 @ w0).min() >= 1e-2
        v, w, r = parameter(v0), parameter(w0), parameter(r0)
        coef = constant(rng.uniform(-1, 1, size=v0.shape))

        def loss_fn():
            r_in, _ = zrule_backward(v, w, r, stab)
            return (r_in * coef).sum()

        err = finite_difference_check(loss_fn, [v, w, r], step=1e-6,
                                      max_coords_per_param=24)
        assert err < 1e-5

    def test_fallback_gradient_in_relevance(self):
        # with the stabilizer off a dead column's relevance reaches every
        # input as 1/K_in of it, so d(sum r_in)/d r_out is 1 on every column
        v = np.zeros((2, 3))
        v[1] = [0.5, -1.0, 2.0]
        w = np.array([[1.0, 0.0], [0.5, 0.0], [1.5, 0.0]])
        r = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        r_in, ev = zrule_backward(constant(v), constant(w), r, 0.0)
        assert ev == 3
        np.testing.assert_allclose(r_in.values[0], np.full(3, 1.0))
        np.testing.assert_allclose(r_in.values[1].sum(), 7.0, rtol=1e-12)
        backward(r_in.sum())
        np.testing.assert_allclose(r.grad, np.ones((2, 2)), rtol=1e-12)


class TestPropagate:
    def test_all_pad_input_gets_zero_relevance(self, small_classifier):
        ids = np.full((1, 4), PAD, dtype=np.int64)
        with ad.no_grad():
            trace = small_classifier.forward_trace(ids, np.array([0]))
            rmap = propagate(small_classifier, trace, 1)
        assert rmap.r_token.shape == (1, 4)
        np.testing.assert_array_equal(rmap.r_token.values, np.zeros((1, 4)))

    def test_relevance_conserved_through_network(self, small_classifier, encoded_dev):
        batch = pack_batch(encoded_dev.sentences[:4], min_width=4)
        with ad.no_grad():
            trace = small_classifier.forward_trace(batch.enc_ids, batch.lengths)
            rmap = propagate(small_classifier, trace, np.array(encoded_dev.labels[:4]))
        top = trace.logits.values[np.arange(4), encoded_dev.labels[:4]]
        assert rmap.r_token.shape == batch.enc_ids.shape
        # PAD tokens embed to zero and receive none
        assert not rmap.r_token.values[batch.enc_ids == PAD].any()
        np.testing.assert_allclose(rmap.r_token.values.sum(axis=1), top, rtol=1e-4)

    @staticmethod
    def _dead_column_classifier():
        """Random weights and biases, one zero column in the width-3 filters;
        rows of length 7, 5, 2 and 0, so windows past a row's end, and the
        whole last row, are all PAD."""
        rng = np.random.default_rng(21)
        clf = TextCnnStyleClassifier(vocab_size=20, embed_dim=6, num_filters=5, seed=4)
        clf._init_params()
        for w in clf.filter_widths:
            clf.params_[f"conv{w}.b"].values[...] = rng.uniform(-0.3, 0.3, size=5)
        clf.params_["conv3.w"].values[:, 2] = 0.0
        lengths = np.array([7, 5, 2, 0])
        ids = rng.integers(1, 20, size=(4, 7))
        ids[np.arange(7)[None, :] >= lengths[:, None]] = PAD
        return clf, ids, lengths

    @pytest.mark.parametrize("stab", [1e-9, 0.0])
    def test_per_token_relevance_matches_windowed_oracle(self, stab):
        clf, ids, lengths = self._dead_column_classifier()
        target = np.array([0, 1, 1, 0])
        with ad.no_grad():
            trace = clf.forward_trace(ids, lengths)
            rmap = propagate(clf, trace, target, stab)
        emb = clf.params_["emb"].values[ids]
        expected, events, logits = windowed_relevance(clf, emb, lengths, target, stab)
        np.testing.assert_allclose(trace.logits.values, logits, rtol=0, atol=1e-15)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(rmap.r_token.values, expected, rtol=0, atol=1e-11 * scale)
        assert rmap.fallback_events == events
        if stab == 0.0:
            # every column of each window that starts at or after its row's
            # end (all PAD), and the zero column of every other width-3 window
            P = {w: 7 - w + 1 for w in clf.filter_widths}
            pad_windows = sum(max(P[w] - n, 0) for w in P for n in lengths)
            live3 = sum(min(n, P[3]) for n in lengths)
            assert (pad_windows, live3) == (25, 12)
            assert events == 5 * pad_windows + live3
            # with every dead column split back, the map sums to the logits
            np.testing.assert_allclose(rmap.r_token.values.sum(axis=1),
                                       logits[np.arange(4), target], rtol=1e-12)
        else:
            assert events == 0
            # a stabilized dead column gives its PAD tokens nothing
            assert not rmap.r_token.values[3].any()

    def test_soft_relevance_gradient_through_dead_columns_matches_fd(self):
        clf, ids, lengths = self._dead_column_classifier()
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(20), size=ids.shape)
        rows = parameter(rows * (ids != PAD)[:, :, None])

        def loss_fn():
            trace = clf.forward_trace_soft(rows, lengths)
            rmap = propagate(clf, trace, np.array([0, 1, 1, 0]), 0.0)
            return (rmap.r_token * constant(np.linspace(-1, 1, 7))).sum()

        err = finite_difference_check(loss_fn, [rows], step=1e-6, max_coords_per_param=40)
        assert err < 1e-5

    def test_marker_token_dominates_relevance(self, small_classifier, small_corpus, vocab):
        sent = small_corpus.dev_sentences[0]
        label = small_corpus.dev_labels[0]
        batch = pack_batch([vocab.encode(sent)], min_width=4)
        wr = hard_word_relevance(small_classifier, batch.enc_ids, batch.lengths,
                                 label, eta=1.0, epsilon=0.0)
        raw = np.abs(wr.raw.values[0][:batch.lengths[0]])
        assert int(raw.argmax()) == marker_positions(sent)[0]


class TestWordRelevance:
    def _rmap_from_raw(self, raw):
        return RelevanceMap(constant(np.asarray(raw, dtype=float)[None, :]))

    def test_zero_raw_gives_zero(self):
        wr = word_relevance(self._rmap_from_raw([0.0, 0.5]), eta=1.0, epsilon=0.0)
        assert wr.lam.values[0, 0] == 0.0

    def test_threshold_boundary_at_paper_value(self):
        # raw chosen so tanh(eta*|r|) lands exactly at 0.29 / 0.31
        below = np.arctanh(0.29)
        above = np.arctanh(0.31)
        wr = word_relevance(self._rmap_from_raw([below, above]), eta=1.0, epsilon=0.3)
        assert wr.lam.values[0, 0] == 0.0
        assert wr.lam.values[0, 1] == pytest.approx(0.31, abs=1e-12)

    def test_sign_flip_invariant(self):
        a = word_relevance(self._rmap_from_raw([0.8, -0.3]), eta=1.3, epsilon=0.0)
        b = word_relevance(self._rmap_from_raw([-0.8, 0.3]), eta=1.3, epsilon=0.0)
        np.testing.assert_array_equal(a.lam.values, b.lam.values)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError, match="eta"):
            word_relevance(self._rmap_from_raw([0.1]), eta=0.0, epsilon=0.0)

    # |r| up to 50 reaches eta*|r| > 18.7, where float64 tanh rounds to 1.0
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 3.0), st.floats(0, 0.9))
    @example(20.0, -50.0, 1.3, 0.3)
    def test_monotone_in_abs_raw_and_in_range(self, r1, r2, eta, eps):
        wr = word_relevance(self._rmap_from_raw([r1, r2]), eta=eta, epsilon=eps)
        l1, l2 = wr.lam.values[0]
        assert 0.0 <= l1 < 1.0 and 0.0 <= l2 < 1.0
        if abs(r1) <= abs(r2):
            assert l1 <= l2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6), st.floats(0, 0.9))
    def test_threshold_idempotent(self, raws, eps):
        wr = word_relevance(self._rmap_from_raw(raws), eta=1.0, epsilon=eps)
        lam = wr.lam.values
        floored_again = np.where(lam >= eps, lam, 0.0)
        np.testing.assert_array_equal(lam, floored_again)


class TestSoftRelevance:
    def test_onehot_soft_equals_hard(self, small_classifier, encoded_dev, vocab):
        seqs = encoded_dev.sentences[:4]
        batch = pack_batch(seqs, min_width=4)
        hard = hard_word_relevance(small_classifier, batch.enc_ids, batch.lengths,
                                   1, eta=1.0, epsilon=0.3)
        rows = np.zeros((len(seqs), batch.enc_ids.shape[1], len(vocab)))
        for b in range(len(seqs)):
            rows[b, np.arange(batch.enc_ids.shape[1]), batch.enc_ids[b]] = 1.0
        soft = soft_word_relevance(small_classifier, constant(rows), batch.lengths,
                                   1, eta=1.0, epsilon=0.3)
        np.testing.assert_allclose(soft.lam.values, hard.lam.values, atol=1e-9)

    def test_opposite_sign_markers_cancel_under_uniform_rows(self):
        clf = TextCnnStyleClassifier(vocab_size=6, embed_dim=3, num_filters=2,
                                     filter_widths=(2,), seed=0)
        clf._init_params()
        emb = np.zeros((6, 3))
        emb[4] = [1.0, -0.5, 2.0]
        emb[5] = -emb[4]
        clf.params_["emb"].values[...] = emb
        rows = np.zeros((1, 4, 6))
        rows[:, :, 4] = 0.5
        rows[:, :, 5] = 0.5
        wr = soft_word_relevance(clf, constant(rows), np.array([4]), 1,
                                 eta=1.0, epsilon=0.0)
        np.testing.assert_allclose(wr.lam.values, np.zeros((1, 4)), atol=1e-9)

    def test_gradient_wrt_soft_rows_matches_fd(self, small_classifier, encoded_dev, vocab):
        seq = encoded_dev.sentences[0]
        T, V = len(seq), len(vocab)
        rng = np.random.default_rng(0)
        base = rng.dirichlet(np.ones(V) * 0.5, size=T)[None]
        rows = parameter(base)

        def loss_fn():
            wr = soft_word_relevance(small_classifier, rows, np.array([T]), 1,
                                     eta=1.0, epsilon=0.0)
            return wr.lam.sum()

        err = finite_difference_check(loss_fn, [rows], step=1e-6, max_coords_per_param=24)
        assert err < 1e-3


class TestCalibration:
    def test_calibrated_eta_puts_marker_above_half(self, small_classifier, small_corpus,
                                                   vocab, encoded_dev):
        eta = calibrate_eta(small_classifier, encoded_dev.sentences, encoded_dev.labels,
                            target_lambda=0.7, sample=100)
        assert eta > 0
        hits = 0
        for i in range(20):
            sent = small_corpus.dev_sentences[i]
            batch = pack_batch([vocab.encode(sent)], min_width=4)
            wr = hard_word_relevance(small_classifier, batch.enc_ids, batch.lengths,
                                     small_corpus.dev_labels[i], eta=eta, epsilon=0.0)
            if wr.lam.values[0, marker_positions(sent)[0]] >= 0.5:
                hits += 1
        assert hits >= 18
