import threading

import numpy as np
import pytest
from _oracles import composed_gru
from hypothesis import given, settings, strategies as st

from restyle import autodiff as ad
from restyle.autodiff import (
    AdamOptimizer,
    SgdOptimizer,
    Tensor,
    backward,
    clip_global_norm,
    concat,
    constant,
    cross_entropy_with_dist,
    cross_entropy_with_indices,
    finite_difference_check,
    gather_rows,
    log_softmax,
    matmul,
    parameter,
    place_rows,
    shift_spread,
    shift_sum,
    sigmoid,
    softmax,
    swap_last_axes,
    tanh,
    tmax,
    tmean,
    tsum,
)
from restyle.seq2seq import GruCell


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


class TestForwardOps:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = constant(rand(rng, 3, 4))
        out = matmul(constant(np.eye(3)), a)
        np.testing.assert_array_equal(out.values, a.values)

    def test_tanh_at_origin(self):
        out = tanh(constant(np.zeros(5)))
        np.testing.assert_array_equal(out.values, np.zeros(5))

    def test_softmax_symmetry(self):
        out = softmax(constant(np.full((1, 3), 0.7)))
        np.testing.assert_allclose(out.values, np.full((1, 3), 1.0 / 3.0), atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax(constant(rand(rng, 6, 9)))
        np.testing.assert_allclose(out.values.sum(axis=-1), np.ones(6), atol=1e-9)

    def test_shape_mismatch_names_op_and_shapes(self):
        a, b = constant(np.zeros((2, 3))), constant(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
            matmul(a, b)

    def test_cross_entropy_nonnegative_for_distributions(self):
        rng = np.random.default_rng(2)
        p = softmax(constant(rand(rng, 8, 5)))
        logits = constant(rand(rng, 8, 5))
        ce = cross_entropy_with_dist(p, logits)
        assert (ce.values >= 0).all()


class TestBackward:
    def test_square_sum(self):
        x = parameter([3.0])
        loss = tsum(x * x)
        backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_mean_scales_by_batch(self):
        x = parameter(np.arange(4.0))
        backward(tmean(x))
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_rejects_nonscalar_loss(self):
        x = parameter(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            backward(x * x)

    def test_unreachable_params_untouched(self):
        x, y = parameter([2.0]), parameter([5.0])
        backward(tsum(x * x))
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_two_layer_tanh_net_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        w1 = parameter(rand(rng, 4, 5))
        w2 = parameter(rand(rng, 5, 3))
        x = constant(rand(rng, 2, 4))

        def loss_fn():
            h = tanh(matmul(x, w1))
            out = tanh(matmul(h, w2))
            return tsum(out * out)

        err = finite_difference_check(loss_fn, [w1, w2], step=1e-5,
                                      max_coords_per_param=64)
        assert err < 1e-4

    def test_frozen_leaf_receives_no_grad(self):
        x = parameter([1.0, 2.0])
        frozen = Tensor([3.0, 4.0], requires_grad=False)
        backward(tsum(x * frozen))
        np.testing.assert_array_equal(frozen.grad, [0.0, 0.0])
        np.testing.assert_allclose(x.grad, [3.0, 4.0])


class TestFiniteDifferenceCheck:
    def test_linear_squared_error_closed_form(self):
        rng = np.random.default_rng(3)
        w = parameter(rand(rng, 6, 1))
        x = constant(rand(rng, 10, 6))
        y = constant(rand(rng, 10, 1))

        def loss_fn():
            d = matmul(x, w) - y
            return tsum(d * d)

        err = finite_difference_check(loss_fn, [w], step=1e-5, max_coords_per_param=6)
        assert err < 1e-7

    def test_constant_loss_zero_error(self):
        w = parameter([1.0, -2.0])

        def loss_fn():
            return tsum(w * constant([0.0, 0.0]))

        assert finite_difference_check(loss_fn, [w]) == 0.0

    def test_rejects_nonfinite_loss(self):
        w = parameter([0.0])

        def loss_fn():
            return (1.0 / w).sum()

        with pytest.warns(RuntimeWarning, match="divide by zero"):
            with pytest.raises(ValueError, match="non-finite"):
                finite_difference_check(loss_fn, [w])


class TestIndexingOps:
    def test_gather_rows_accumulates(self):
        table = parameter(np.arange(12.0).reshape(4, 3))
        ids = np.array([1, 1, 2])
        backward(tsum(gather_rows(table, ids)))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_broadcast_key_picks_one_entry_per_row(self):
        logits = parameter(np.arange(6.0).reshape(2, 3))
        ids = np.array([2, 0])
        out = logits[(*np.indices(ids.shape, sparse=True), ids)]
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        backward(tsum(out))
        expected = np.zeros((2, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        np.testing.assert_array_equal(logits.grad, expected)

    def test_row_index_and_place_rows_route_gradients(self):
        rng = np.random.default_rng(3)
        x = parameter(rand(rng, 5, 2, 3))
        w = constant(rand(rng, 5, 2, 3))
        rows = np.array([0, 2, 3])
        taken = x[rows]
        np.testing.assert_array_equal(taken.values, x.values[rows])
        placed = place_rows(taken, rows, 5)
        np.testing.assert_array_equal(placed.values[rows], x.values[rows])
        assert (placed.values[[1, 4]] == 0.0).all()
        assert place_rows(x, np.arange(5), 5) is x
        backward(tsum(placed * w))
        expected = w.values.copy()
        expected[[1, 4]] = 0.0
        np.testing.assert_array_equal(x.grad, expected)
        x.zero_grad()
        err = finite_difference_check(
            lambda: tsum(place_rows(tanh(x[rows]), rows[::-1], 4) * w.values[:4]), [x])
        assert err < 1e-7

    def test_index_keys_match_fd(self):
        # a slice, an int, distinct rows and the cross-entropy's broadcast key
        rng = np.random.default_rng(5)
        x = parameter(rand(rng, 6, 4, 5))
        ids = rng.integers(0, 5, size=(3, 4))
        rows = np.array([4, 0, 2])
        c = constant(rand(rng, 3, 4, 5))

        def loss():
            picked = x[1:4][(*np.indices(ids.shape, sparse=True), ids)]
            return tsum(tanh(x[rows] * c)) + tsum(picked * picked) + tsum(tanh(x[5]))

        assert finite_difference_check(loss, [x], max_coords_per_param=120) < 1e-7
        x.zero_grad()
        backward(tsum(cross_entropy_with_indices(x[:3], ids)))
        assert (x.grad[3:] == 0.0).all() and (x.grad[:3] != 0.0).all()

    def test_distinct_rows_index_like_gather_rows(self):
        rng = np.random.default_rng(6)
        x = parameter(rand(rng, 7, 3))
        rows = np.array([5, 1, 6, 0])
        coef = constant(rand(rng, 4, 3))
        grads = []
        for take in (lambda: x[rows], lambda: gather_rows(x, rows)):
            out = take()
            backward(tsum(out * coef))
            grads.append((out.values, x.grad.copy()))
            x.zero_grad()
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])

    def test_shift_sum_and_spread_match_fd(self):
        rng = np.random.default_rng(4)
        x = parameter(rand(rng, 2, 5, 4))
        s = parameter(rand(rng, 2, 4, 3))
        cx = constant(rand(rng, 2, 4, 2))
        cs = constant(rand(rng, 2, 6, 6))

        def loss_fn():
            return tsum(shift_sum(x, 2) * cx) + tsum(tanh(shift_spread(s, 2, 6)) * cs)

        err = finite_difference_check(loss_fn, [x, s], max_coords_per_param=30)
        assert err < 1e-7

    def test_shift_spread_is_the_adjoint_of_shift_sum(self):
        # <shift_sum(x), g> == <x, shift_spread(g)>
        rng = np.random.default_rng(5)
        x = rand(rng, 3, 8, 12)
        g = rand(rng, 3, 6, 4)
        lhs = (shift_sum(constant(x), 3).values * g).sum()
        rhs = (x * shift_spread(constant(g), 3, 8).values).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @staticmethod
    def _shift_sum_loop(x, width):
        P, F = x.shape[1] - width + 1, x.shape[2] // width
        out = np.zeros((x.shape[0], P, F))
        for p in range(P):
            for j in range(width):
                out[:, p] += x[:, p + j, j * F:(j + 1) * F]
        return out

    @staticmethod
    def _shift_spread_loop(x, width, length):
        B, P, F = x.shape
        out = np.zeros((B, length, width * F))
        for p in range(P):
            for j in range(width):
                out[:, p + j, j * F:(j + 1) * F] = x[:, p]
        return out

    @staticmethod
    def _spread(rng, *shape):
        # magnitudes over six decades, so a changed summation order shows in
        # the last bits of the shifted sums
        return rand(rng, *shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    @pytest.mark.parametrize("width", [1, 2, 4, 6])
    def test_shift_sum_matches_loop_definition(self, width):
        rng = np.random.default_rng(12)
        x = parameter(self._spread(rng, 3, 9, width * 5))
        out = shift_sum(x, width)
        expected = self._shift_sum_loop(x.values, width)
        np.testing.assert_array_equal(out.values, expected)
        g = self._spread(rng, *expected.shape)
        backward(tsum(out * constant(g)))
        # the gradient places each window's g on its blocks
        np.testing.assert_array_equal(x.grad, self._shift_spread_loop(g, width, 9))

    @pytest.mark.parametrize("width,length", [(1, 9), (3, 9), (4, 11), (9, 9)])
    def test_shift_spread_matches_loop_definition(self, width, length):
        rng = np.random.default_rng(13)
        P = 9 - width + 1
        x = parameter(self._spread(rng, 3, P, 16))
        out = shift_spread(x, width, length)
        np.testing.assert_array_equal(out.values, self._shift_spread_loop(x.values, width, length))
        g = self._spread(rng, 3, length, width * 16)
        backward(tsum(out * constant(g)))
        np.testing.assert_array_equal(x.grad, self._shift_sum_loop(g[:, :9], width))

    def test_shift_ops_reject_short_sequences(self):
        with pytest.raises(ValueError, match="shorter than width"):
            shift_sum(constant(np.zeros((1, 2, 6))), 3)
        with pytest.raises(ValueError, match="shorter than"):
            shift_spread(constant(np.zeros((1, 4, 2))), 3, 5)

    def test_swap_last_axes_values(self):
        rng = np.random.default_rng(15)
        x = rand(rng, 2, 3, 4)
        np.testing.assert_array_equal(swap_last_axes(constant(x)).values,
                                      np.swapaxes(x, -1, -2))
        np.testing.assert_array_equal(swap_last_axes(constant(x[0])).values, x[0].T)

    def test_swap_last_axes_matches_fd(self):
        rng = np.random.default_rng(16)
        w = parameter(rand(rng, 5, 4))
        x = parameter(rand(rng, 2, 3, 4))
        coef = constant(rand(rng, 2, 5, 3))

        def loss_fn():
            # w^T is a trainable right operand; x^T exercises a batched swap
            y = matmul(x, swap_last_axes(w))
            return tsum(tanh(swap_last_axes(y)) * coef)

        err = finite_difference_check(loss_fn, [w, x], max_coords_per_param=20)
        assert err < 1e-7

    def test_max_routes_to_argmax(self):
        x = parameter(np.array([[1.0, 5.0, 2.0]]))
        backward(tsum(tmax(x, axis=1)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_concat_splits_gradient(self):
        a = parameter(np.ones((2, 2)))
        b = parameter(np.ones((2, 3)))
        out = concat([a, b], axis=1)
        backward(tsum(out * constant(np.arange(10.0).reshape(2, 5))))
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


class TestGruCellGradient:
    def test_gru_cell_single_step(self):
        # the model's cell, with its input and previous state trainable as in
        # the decoder, and nonzero biases
        rng = np.random.default_rng(11)
        params = {}
        cell = GruCell(params, "g", 3, 4, rng)
        for p in params.values():
            p.values[...] = rand(rng, *p.shape)
        x = parameter(rand(rng, 2, 3))
        h0 = parameter(rand(rng, 2, 4))
        coef = constant(rand(rng, 2, 4))

        def loss_fn():
            h = cell.step(cell.project(x), h0)
            return tsum(h * h + h * coef)

        err = finite_difference_check(loss_fn, [*params.values(), x, h0], step=1e-5,
                                      max_coords_per_param=16)
        assert err < 1e-6

    def test_gru_step_gradient_in_every_input(self):
        rng = np.random.default_rng(12)
        H = 3
        gi = parameter(rand(rng, 2, 3 * H))
        h = parameter(rand(rng, 2, H))
        u = parameter(rand(rng, H, 3 * H))
        bh = parameter(rand(rng, 3 * H))
        coef = constant(rand(rng, 2, H))

        def loss_fn():
            return tsum(tanh(ad.gru_step(gi, h, u, bh)) * coef)

        err = finite_difference_check(loss_fn, [gi, h, u, bh], step=1e-5,
                                      max_coords_per_param=27)
        assert err < 1e-6

    def test_saturated_preactivations(self):
        # pre-activations of +-50 saturate every gate: no overflow, the values of
        # the composed definition bit for bit, and the same finite gradients
        rng = np.random.default_rng(13)
        H = 4
        gi_v = rng.choice([-50.0, 50.0], size=(3, 3 * H))
        h_v, u_v, bh_v = rand(rng, 3, H), rand(rng, H, 3 * H), rand(rng, 3 * H)
        grads = []
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step in (ad.gru_step, composed_gru):
                gi, h, u, bh = (parameter(v.copy()) for v in (gi_v, h_v, u_v, bh_v))
                out = step(gi, h, u, bh)
                backward(tsum(out * out))
                grads.append((out.values, gi.grad, h.grad, u.grad, bh.grad))
        fused, composed = grads
        np.testing.assert_array_equal(fused[0], composed[0])
        for a, b in zip(fused[1:], composed[1:]):
            assert np.isfinite(a).all()
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_values_equal_composed_definition(self):
        rng = np.random.default_rng(14)
        H = 5
        args = [constant(rand(rng, 4, 3 * H)), constant(rand(rng, 4, H)),
                constant(rand(rng, H, 3 * H)), constant(rand(rng, 3 * H))]
        np.testing.assert_array_equal(ad.gru_step(*args).values, composed_gru(*args).values)

    def test_frozen_weights_keep_zero_grads_and_pass_gradient_to_state(self):
        # a frozen language model scoring soft input: u and b_h take no
        # gradient, the state and the input projection still do
        rng = np.random.default_rng(15)
        H = 3
        u, bh = parameter(rand(rng, H, 3 * H)), parameter(rand(rng, 3 * H))
        u.requires_grad = bh.requires_grad = False
        gi, h = parameter(rand(rng, 2, 3 * H)), parameter(rand(rng, 2, H))
        backward(tsum(ad.gru_step(gi, h, u, bh)))
        np.testing.assert_array_equal(u.grad, 0.0)
        np.testing.assert_array_equal(bh.grad, 0.0)
        assert np.abs(h.grad).min() > 0.0
        assert np.abs(gi.grad).max() > 0.0


class TestMatmulBatchedBackward:
    def test_two_d_right_operand_matches_broadcast_sum(self):
        # the folded products equal the per-batch product summed over the batch
        rng = np.random.default_rng(16)
        a = parameter(rand(rng, 3, 4, 5, 6))
        b = parameter(rand(rng, 6, 7))
        coef = rand(rng, 3, 4, 5, 7)
        backward(tsum(matmul(a, b) * constant(coef)))
        np.testing.assert_allclose(a.grad, np.matmul(coef, b.values.T), rtol=0, atol=1e-12)
        old = np.matmul(np.swapaxes(a.values, -1, -2), coef).sum(axis=(0, 1))
        np.testing.assert_allclose(b.grad, old, rtol=0, atol=1e-12)


class TestStackIndex:
    def test_int_index_inverts_stack_and_routes_gradient(self):
        rng = np.random.default_rng(17)
        parts = [parameter(rand(rng, 2, 3)) for _ in range(4)]
        stacked = ad.stack(parts, axis=1)
        assert stacked.shape == (2, 4, 3)
        np.testing.assert_array_equal(stacked[:, 2].values, parts[2].values)
        backward(tsum(stacked[:, 2] * constant(np.full((2, 3), 3.0))))
        np.testing.assert_array_equal(parts[2].grad, 3.0)
        for i in (0, 1, 3):
            np.testing.assert_array_equal(parts[i].grad, 0.0)


class TestNoGradThreads:
    def test_no_grad_in_one_thread_leaves_another_tracing(self):
        inside, release = threading.Event(), threading.Event()
        traced_inside = []

        def hold():
            with ad.no_grad():
                w = parameter(np.ones(2))
                traced_inside.append(bool((w * 2.0)._parents))
                inside.set()
                release.wait(10)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert inside.wait(10)
            w = parameter(np.ones(2))
            y = w * 2.0
            assert y._parents
            backward(tsum(y))
            np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        assert traced_inside == [False]


class TestDeterminism:
    def test_same_seed_bitwise_identical_loss(self):
        def run():
            rng = np.random.default_rng(123)
            w = parameter(rand(rng, 5, 5))
            x = constant(rand(rng, 3, 5))
            loss = tsum(softmax(matmul(x, w)) * x)
            backward(loss)
            return loss.item(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestOptimizer:
    def _params(self, grads):
        ps = []
        for g in grads:
            p = parameter(np.zeros_like(np.asarray(g, dtype=float)))
            p.grad[...] = g
            ps.append(p)
        return ps

    def test_clip_rescales_norm_one_to_clip(self):
        p = self._params([[0.6, 0.8]])[0]
        norm = clip_global_norm([p], 1e-2)
        assert norm == pytest.approx(1.0)
        np.testing.assert_allclose(p.grad, [0.6e-2, 0.8e-2])

    def test_below_threshold_unscaled(self):
        p = self._params([[6e-4, 8e-4]])[0]
        clip_global_norm([p], 1e-2)
        np.testing.assert_array_equal(p.grad, [6e-4, 8e-4])

    def test_clip_idempotent(self):
        p = self._params([[3.0, 4.0]])[0]
        clip_global_norm([p], 1e-2)
        once = p.grad.copy()
        clip_global_norm([p], 1e-2)
        np.testing.assert_array_equal(p.grad, once)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = parameter([1.0, 2.0])
        opt = SgdOptimizer([p], learning_rate=0.1, clip_norm=1.0)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, 2.0])

    def test_sgd_update_and_grad_zeroed(self):
        p = parameter([1.0])
        p.grad[...] = [0.5]
        SgdOptimizer([p], learning_rate=0.1, clip_norm=10.0).step()
        np.testing.assert_allclose(p.values, [0.95])
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_nonfinite_gradient_skips_step(self):
        p = parameter([1.0])
        p.grad[...] = [np.nan]
        opt = SgdOptimizer([p], learning_rate=0.1, clip_norm=1.0)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0])
        assert opt.skipped_steps == 1

    def test_adam_moves_against_gradient(self):
        p = parameter([1.0])
        p.grad[...] = [2.0]
        AdamOptimizer([p], learning_rate=0.01, clip_norm=10.0).step()
        assert p.values[0] < 1.0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_random_composite_matches_fd(self, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        w = parameter(rng.uniform(-1, 1, size=(n_in, n_out)))
        b = parameter(rng.uniform(-1, 1, size=n_out))
        x = constant(rng.uniform(-1, 1, size=(2, n_in)))

        def loss_fn():
            h = tanh(matmul(x, w) + b)
            return tsum(softmax(h) * sigmoid(h))

        err = finite_difference_check(loss_fn, [w, b], step=1e-5, max_coords_per_param=4,
                                      rng=np.random.default_rng(0))
        assert err < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_log_softmax_consistent_with_log_of_softmax(self, seed):
        rng = np.random.default_rng(seed)
        x = constant(rng.uniform(-5, 5, size=(3, 7)))
        np.testing.assert_allclose(log_softmax(x).values, np.log(softmax(x).values),
                                   atol=1e-12)


class TestCrossEntropy:
    def test_index_form_matches_dist_form_on_onehot(self):
        rng = np.random.default_rng(5)
        logits = constant(rng.uniform(-1, 1, size=(4, 6)))
        ids = np.array([0, 3, 5, 2])
        onehot = np.zeros((4, 6))
        onehot[np.arange(4), ids] = 1.0
        a = cross_entropy_with_indices(logits, ids)
        b = cross_entropy_with_dist(constant(onehot), logits)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_mask_zeroes_positions(self):
        rng = np.random.default_rng(6)
        logits = constant(rng.uniform(-1, 1, size=(3, 4)))
        ids = np.array([1, 2, 3])
        mask = np.array([1.0, 0.0, 1.0])
        ce = cross_entropy_with_indices(logits, ids, mask)
        assert ce.values[1] == 0.0
