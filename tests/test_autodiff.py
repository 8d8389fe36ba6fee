import numpy as np
import pytest
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
    sigmoid,
    softmax,
    swap_last_axes,
    take_along_last,
    tanh,
    tmax,
    tmean,
    tsum,
    unfold,
    fold,
)


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
            return ad.log(w).sum()

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

    def test_take_along_last_roundtrip(self):
        logits = parameter(np.arange(6.0).reshape(2, 3))
        ids = np.array([2, 0])
        out = take_along_last(logits, ids)
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        backward(tsum(out))
        expected = np.zeros((2, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        np.testing.assert_array_equal(logits.grad, expected)

    def test_unfold_fold_are_transposes(self):
        rng = np.random.default_rng(4)
        x = parameter(rand(rng, 2, 5, 3))

        def loss_fn():
            return tsum(fold(unfold(x, 2), 5))

        err = finite_difference_check(loss_fn, [x], max_coords_per_param=30)
        assert err < 1e-7

    @staticmethod
    def _unfold_loop(x, width):
        P = x.shape[1] - width + 1
        return np.stack([x[:, p:p + width] for p in range(P)], axis=1)

    @staticmethod
    def _fold_loop(x, length):
        out = np.zeros((x.shape[0], length, x.shape[3]))
        for p in range(x.shape[1]):
            out[:, p:p + x.shape[2]] += x[:, p]
        return out

    @staticmethod
    def _spread(rng, *shape):
        # magnitudes over six decades, so a changed summation order shows in
        # the last bits of the overlap-adds
        return rand(rng, *shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    @pytest.mark.parametrize("width", [1, 2, 4, 6])
    def test_unfold_matches_loop_definition(self, width):
        rng = np.random.default_rng(12)
        x = parameter(self._spread(rng, 3, 9, 16))
        out = unfold(x, width)
        expected = self._unfold_loop(x.values, width)
        np.testing.assert_array_equal(out.values, expected)
        assert out.values.flags["C_CONTIGUOUS"]
        g = self._spread(rng, *expected.shape)
        backward(tsum(out * constant(g)))
        # the gradient is the loop's overlap-add, in the same summation order
        np.testing.assert_array_equal(x.grad, self._fold_loop(g, 9))

    @pytest.mark.parametrize("width,length", [(1, 9), (3, 9), (4, 11), (9, 9)])
    def test_fold_matches_loop_definition(self, width, length):
        rng = np.random.default_rng(13)
        P = 9 - width + 1
        x = parameter(self._spread(rng, 3, P, width, 16))
        out = fold(x, length)
        np.testing.assert_array_equal(out.values, self._fold_loop(x.values, length))
        g = self._spread(rng, 3, length, 16)
        backward(tsum(out * constant(g)))
        np.testing.assert_array_equal(x.grad, self._unfold_loop(g[:, :9], width))

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
        rng = np.random.default_rng(11)
        H, E = 4, 3
        w = parameter(rand(rng, E, 3 * H))
        u = parameter(rand(rng, H, 3 * H))
        bi = parameter(rand(rng, 3 * H))
        bh = parameter(rand(rng, 3 * H))
        x = constant(rand(rng, 2, E))
        h0 = constant(rand(rng, 2, H))

        def loss_fn():
            gi = matmul(x, w) + bi
            gh = matmul(h0, u) + bh
            z = sigmoid(ad.narrow(gi, 1, 0, H) + ad.narrow(gh, 1, 0, H))
            r = sigmoid(ad.narrow(gi, 1, H, H) + ad.narrow(gh, 1, H, H))
            n = tanh(ad.narrow(gi, 1, 2 * H, H) + r * ad.narrow(gh, 1, 2 * H, H))
            h = (1.0 - z) * n + z * h0
            return tsum(h * h)

        err = finite_difference_check(loss_fn, [w, u, bi, bh], step=1e-5,
                                      max_coords_per_param=16)
        assert err < 1e-4


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
