from dataclasses import replace

import numpy as np
import pytest
from _oracles import graph, randomize

from restyle import autodiff as ad
from restyle.autodiff import constant, finite_difference_check
from restyle.data import EOS, PAD, pack_batch
from restyle.seq2seq import Seq2seqModel, sample_gumbel


@pytest.fixture
def tiny_model():
    return Seq2seqModel(vocab_size=12, embed_dim=6, hidden_dim=5, attn_dim=5,
                        head_dim=4, style_dim=3, mlp_dim=4, seed=0)


def tiny_batch():
    return pack_batch([[4, 5, 6, 7], [8, 9, 10]])


# sources whose outputs have distinct lengths under the seed-13 weights of
# ``randomize``: [6, 4, 8, 2, 8, 3] at max_len 8
SOURCES = [[4, 5, 6, 7], [8, 9, 10], [5, 4], [11, 6, 9, 7, 4], [7], [9, 9, 10]]


class TestEncoder:
    def test_length_one_final_equals_single_step(self, tiny_model):
        with ad.no_grad():
            enc = tiny_model.encode(np.array([[4]]), np.array([1]))
        np.testing.assert_array_equal(enc.final.values, enc.states.values[:, 0])

    def test_deterministic(self, tiny_model):
        ids, lengths = np.array([[4, 5, 6]]), np.array([3])
        with ad.no_grad():
            a = tiny_model.encode(ids, lengths).states.values
            b = tiny_model.encode(ids, lengths).states.values
        np.testing.assert_array_equal(a, b)

    def test_final_state_respects_lengths(self, tiny_model):
        batch = tiny_batch()
        with ad.no_grad():
            enc = tiny_model.encode(batch.enc_ids, batch.lengths)
        np.testing.assert_array_equal(enc.final.values[1], enc.states.values[1, 2])

    def test_gradient_matches_fd(self, tiny_model):
        ids, lengths = np.array([[4, 5, 6]]), np.array([3])

        def loss_fn():
            enc = tiny_model.encode(ids, lengths)
            return (enc.states * enc.states).sum()

        params = [tiny_model.params[k] for k in ("enc.w", "enc.u", "enc.bi", "emb")]
        err = finite_difference_check(loss_fn, params, step=1e-5, max_coords_per_param=8)
        assert err < 1e-4


class TestAttention:
    # the weights are seen through the context: large states on the padding make
    # any weight that leaks onto it show
    def test_single_unmasked_position_gets_all_weight(self, tiny_model):
        with ad.no_grad():
            enc = tiny_model.encode(np.array([[4, 0, 0]]), np.array([1]))
            states = enc.states.values.copy()
            states[0, 1:] = 1e6
            h = constant(np.zeros((1, tiny_model.hidden_dim)))
            context = tiny_model.attend(h, replace(enc, states=constant(states)))
        np.testing.assert_allclose(context.values[0], states[0, 0], atol=1e-12)

    def test_weights_sum_to_one_only_on_real_tokens(self, tiny_model):
        batch = tiny_batch()
        with ad.no_grad():
            enc = tiny_model.encode(batch.enc_ids, batch.lengths)
            # unit states on real tokens: the context is the weights' sum there
            states = np.where(batch.token_mask[:, :, None] > 0, 1.0, 1e6)
            states = np.broadcast_to(states, enc.states.shape)
            context = tiny_model.attend(enc.final, replace(enc, states=constant(states)))
        np.testing.assert_allclose(context.values, 1.0, atol=1e-9)

    def test_uniform_scores_average_states(self, tiny_model):
        tiny_model.params["attn.v"].values[...] = 0.0
        batch = pack_batch([[4, 5, 6]])
        with ad.no_grad():
            enc = tiny_model.encode(batch.enc_ids, batch.lengths)
            context = tiny_model.attend(enc.final, enc)
        np.testing.assert_allclose(context.values[0], enc.states.values[0].mean(axis=0),
                                   atol=1e-12)


class TestRelevanceHead:
    def test_zero_hidden_gives_half(self, tiny_model):
        with ad.no_grad():
            lam = tiny_model.predict_relevance(constant(np.zeros((3, 5))))
        np.testing.assert_allclose(lam.values, [0.5, 0.5, 0.5], atol=1e-12)

    def test_output_strictly_inside_unit_interval(self, tiny_model):
        rng = np.random.default_rng(0)
        with ad.no_grad():
            lam = tiny_model.predict_relevance(constant(rng.uniform(-5, 5, (64, 5))))
        assert (lam.values > 0).all() and (lam.values < 1).all()


class TestDecodeStep:
    def _setup(self, model):
        batch = pack_batch([[4, 5, 6]])
        enc = model.encode(batch.enc_ids, batch.lengths)
        x = model.embed(np.array([4]))
        return enc, x, enc.final, model.decoder_input_weights()

    def test_gate_zero_matches_basic(self, tiny_model):
        tiny_model.params["style.w2"].values[...] = np.random.default_rng(0).normal(
            size=tiny_model.params["style.w2"].shape)
        with ad.no_grad():
            enc, x, h, w = self._setup(tiny_model)
            basic = tiny_model.decode_step(x, h, enc, w)
            gated = tiny_model.decode_step(x, h, enc, w, style_ids=np.array([1]),
                                           gate_override=0.0)
        np.testing.assert_array_equal(gated.revised.values, basic.revised.values)
        np.testing.assert_array_equal(gated.logits.values, basic.logits.values)

    def test_gate_one_adds_full_revision(self, tiny_model):
        tiny_model.params["style.w2"].values[...] = np.random.default_rng(1).normal(
            size=tiny_model.params["style.w2"].shape)
        with ad.no_grad():
            enc, x, h, w = self._setup(tiny_model)
            basic = tiny_model.decode_step(x, h, enc, w)
            step = tiny_model.decode_step(x, h, enc, w, style_ids=np.array([0]),
                                          gate_override=1.0)
            delta = tiny_model.delta_h(x, h, np.array([0]))
        np.testing.assert_allclose(step.revised.values,
                                   basic.revised.values + delta.values, atol=1e-12)

    def test_unknown_style_rejected(self, tiny_model):
        # both generators check the style ids once, before decoding
        batch = pack_batch([[4, 5, 6], [5, 6]])
        for generate in (tiny_model.generate_greedy, tiny_model.generate_soft):
            for style in (7, -1, np.array([1, 2])):
                with pytest.raises(ValueError, match="style"):
                    generate(batch.enc_ids, batch.lengths, style)

    def test_styled_gradients_match_fd(self, tiny_model):
        tiny_model.params["style.w2"].values[...] = np.random.default_rng(2).uniform(
            -0.3, 0.3, size=tiny_model.params["style.w2"].shape)
        batch = pack_batch([[4, 5, 6]])

        def loss_fn():
            enc = tiny_model.encode(batch.enc_ids, batch.lengths)
            x = tiny_model.embed(np.array([5]))
            step = tiny_model.decode_step(x, enc.final, enc, tiny_model.decoder_input_weights(),
                                          style_ids=np.array([1]))
            return (step.logits * step.logits).sum()

        params = [tiny_model.params[k] for k in
                  ("style.w1", "style.b1", "style.w2", "style.b2", "style.emb")]
        err = finite_difference_check(loss_fn, params, step=1e-5, max_coords_per_param=8)
        assert err < 1e-4


class TestTeacherForcing:
    def _loop(self, model, batch):
        """Teacher forcing spelled out as one basic ``decode_step`` per position."""
        enc = model.encode(batch.enc_ids, batch.lengths)
        h, weights = enc.final, model.decoder_input_weights()
        logits, gates = [], []
        for j in range(batch.dec_inputs.shape[1]):
            step = model.decode_step(model.embed(batch.dec_inputs[:, j]), h, enc, weights)
            h = step.revised
            logits.append(step.logits)
            gates.append(step.gate)
        return ad.stack(logits, axis=1), ad.stack(gates, axis=1)

    def test_pass_equals_decode_step_loop(self, tiny_model):
        # the hoisted projections and output layers give the step loop's values
        # and parameter gradients
        rng = np.random.default_rng(4)
        for p in tiny_model.params.values():
            p.values[...] = rng.uniform(-0.5, 0.5, size=p.shape)
        batch = tiny_batch()
        coef = constant(rng.uniform(-1, 1, size=(2, batch.dec_inputs.shape[1], 12)))
        results = []
        for run in (tiny_model.teacher_forced_pass, lambda b: self._loop(tiny_model, b)):
            logits, gates = run(batch)
            ad.backward((logits * coef).sum() + (gates * gates).sum())
            results.append((logits.values, gates.values,
                            {k: p.grad.copy() for k, p in tiny_model.params.items()}))
            for p in tiny_model.params.values():
                p.zero_grad()
        (la, ga, grads_a), (lb, gb, grads_b) = results
        np.testing.assert_allclose(la, lb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ga, gb, rtol=0, atol=1e-12)
        for k in grads_a:
            np.testing.assert_allclose(grads_a[k], grads_b[k], rtol=0, atol=1e-12, err_msg=k)


class TestGenerate:
    def test_greedy_deterministic(self, tiny_model):
        batch = pack_batch([[4, 5, 6, 7]])
        a, _ = tiny_model.generate_greedy(batch.enc_ids, batch.lengths, 1, max_len=8)
        b, _ = tiny_model.generate_greedy(batch.enc_ids, batch.lengths, 1, max_len=8)
        assert a == b

    def test_max_len_rejected(self, tiny_model):
        batch = pack_batch([[4]])
        with pytest.raises(ValueError, match="max_len"):
            tiny_model.generate_greedy(batch.enc_ids, batch.lengths, 0, max_len=0)

    def test_soft_rows_sum_to_one(self, tiny_model):
        batch = tiny_batch()
        with ad.no_grad():
            soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1,
                                            max_len=6, tau=0.7)
        for row in soft.rows:
            np.testing.assert_allclose(row.values.sum(axis=1), [1.0, 1.0], atol=1e-9)

    def test_low_temperature_approaches_onehot(self, tiny_model):
        # fixed logits with a clear gap: tau -> 0 must collapse to the argmax
        tiny_model.params["out.b"].values[...] = np.arange(12.0)
        batch = pack_batch([[4, 5, 6]])
        with ad.no_grad():
            soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1,
                                            max_len=4, tau=0.01, gumbel_noise=None)
        for row in soft.rows:
            assert row.values.max() > 0.99

    def test_zero_init_style_component_reproduces_basic_decoding(self, tiny_model):
        batch = tiny_batch()
        basic, _ = tiny_model.generate_greedy(batch.enc_ids, batch.lengths,
                                              styled=False, max_len=10)
        styled, _ = tiny_model.generate_greedy(batch.enc_ids, batch.lengths,
                                               target_style=1, styled=True, max_len=10)
        assert basic == styled

    def test_gumbel_noise_changes_rows(self, tiny_model):
        batch = pack_batch([[4, 5, 6]])
        rng = np.random.default_rng(3)
        noise = sample_gumbel(rng, (4, 1, 12))
        with ad.no_grad():
            a = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=4,
                                         tau=0.5, gumbel_noise=noise)
            b = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=4,
                                         tau=0.5, gumbel_noise=None)
        assert not np.allclose(a.rows[0].values, b.rows[0].values)

    def test_realized_length_stops_at_eos(self, tiny_model):
        # force EOS as the immediate argmax via the output bias
        tiny_model.params["out.b"].values[EOS] = 50.0
        batch = pack_batch([[4, 5, 6]])
        with ad.no_grad():
            soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1,
                                            max_len=6, tau=0.5)
        assert soft.lengths.tolist() == [0]

    def test_soft_generation_splits_decoder_weights_once(self, tiny_model):
        # no row emits EOS, so the generation runs all T steps
        tiny_model.params["out.b"].values[EOS] = -50.0
        batch, T = tiny_batch(), 5
        soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=T, tau=0.5)
        assert len(soft.rows) == T
        w = tiny_model.params["dec.w"]
        splits = [t for t in graph(soft.stacked_rows().sum())
                  if t._parents == (w,) and t._bwd.__qualname__.startswith("Tensor.__getitem__.")]
        assert len(splits) == 2

    def test_soft_lengths_equal_greedy_lengths_at_low_temperature(self, tiny_model):
        # fixed random models whose rows are one-hot to 1e-9 at tau = 1e-3: both
        # emission rules emit the same ids, so the one stop rule gives one length.
        # The second keeps a nonzero emb[PAD], as stage 2 leaves it, and emits
        # PAD: greedy must feed back that row, as a one-hot soft row does
        batch = pack_batch(SOURCES)
        for seed, pad_row_zero, lengths in ((3, True, [0, 4, 3, 0, 4, 8]),
                                            (13, False, [6, 4, 8, 2, 8, 3])):
            randomize(tiny_model, seed, pad_row_zero)
            tokens, _ = tiny_model.generate_greedy(batch.enc_ids, batch.lengths, 1, max_len=8)
            if not pad_row_zero:
                assert np.abs(tiny_model.params["emb"].values[PAD]).min() > 0.0
                assert any(PAD in t for t in tokens)
            with ad.no_grad():
                soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=8,
                                                tau=1e-3)
            rows = soft.stacked_rows().values
            up_to_eos = np.arange(rows.shape[1])[None, :] <= soft.lengths[:, None]
            assert (1.0 - rows.max(axis=2))[up_to_eos].max() < 1e-9
            assert soft.lengths.tolist() == [len(t) for t in tokens] == lengths


class TestOpenRows:
    """A row that has emitted EOS is not stepped again."""

    LENGTHS = [6, 4, 8, 2, 8, 3]

    @pytest.mark.parametrize("mode", ["greedy", "soft"])
    def test_each_step_runs_only_the_open_rows(self, tiny_model, monkeypatch, mode):
        randomize(tiny_model, 13)
        batch = pack_batch(SOURCES)
        seen = []
        decode_step = tiny_model.decode_step

        def spy(x_emb, h_prev, enc, weights, style_ids=None, gate_override=None):
            # each stepped row's source length, read from its attention mask
            sources = (enc.score_bias[:, 0, :] == 0).sum(axis=1).tolist()
            widths = {x_emb.shape[0], h_prev.shape[0], enc.states.shape[0],
                      enc.score_proj.shape[0], len(style_ids)}
            seen.append((widths, sources))
            return decode_step(x_emb, h_prev, enc, weights, style_ids, gate_override)

        monkeypatch.setattr(tiny_model, "decode_step", spy)
        if mode == "greedy":
            tokens, _ = tiny_model.generate_greedy(batch.enc_ids, batch.lengths, 1, max_len=8)
            lengths = [len(t) for t in tokens]
        else:
            soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=8,
                                            tau=1e-3)
            lengths = soft.lengths.tolist()
        assert lengths == self.LENGTHS
        expected = []
        for j in range(8):
            open_sources = [len(s) for s, n in zip(SOURCES, lengths) if n >= j]
            expected.append(({len(open_sources)}, open_sources))
        assert seen == expected

    def test_soft_rows_after_eos_are_zero_and_the_rest_decode_alone(self, tiny_model):
        randomize(tiny_model, 13)
        batch, T = pack_batch(SOURCES), 8
        noise = sample_gumbel(np.random.default_rng(5), (T, len(SOURCES), 12))
        with ad.no_grad():
            soft = tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=T,
                                            tau=0.5, gumbel_noise=noise)
        lengths = soft.lengths.tolist()
        assert len(set(lengths)) >= 3 and min(lengths) + 1 < len(soft.rows)
        batched = (soft.stacked_rows().values, soft.stacked_dists().values,
                   soft.stacked_gates().values)
        for b, src in enumerate(SOURCES):
            one = pack_batch([src])
            with ad.no_grad():
                alone = tiny_model.generate_soft(one.enc_ids, one.lengths, 1, max_len=T,
                                                 tau=0.5, gumbel_noise=noise[:, [b]])
            assert alone.lengths.tolist() == [lengths[b]]
            kept = min(lengths[b] + 1, T)
            for full, single in zip(batched, (alone.stacked_rows().values,
                                              alone.stacked_dists().values,
                                              alone.stacked_gates().values)):
                np.testing.assert_allclose(full[b, :kept], single[0, :kept], rtol=0, atol=1e-12)
                assert (full[b, kept:] == 0.0).all()

    def test_soft_gradients_through_finished_rows_match_fd(self, tiny_model):
        # rows end at different steps, so the loss reaches the parameters
        # through the narrowed states and the rows placed back at full width
        randomize(tiny_model, 13)
        for p in tiny_model.params.values():
            p.values *= 0.3
        tiny_model.params["out.b"].values[EOS] += 1.5
        batch = pack_batch(SOURCES)
        noise = sample_gumbel(np.random.default_rng(5), (8, len(SOURCES), 12))
        weights = np.random.default_rng(6).uniform(-1.0, 1.0, (len(SOURCES), 8, 12))

        def generate():
            return tiny_model.generate_soft(batch.enc_ids, batch.lengths, 1, max_len=8,
                                            tau=0.5, gumbel_noise=noise)

        lengths = generate().lengths
        assert len(set(lengths.tolist())) >= 3 and lengths.max() == 8

        def loss_fn():
            soft = generate()
            T = len(soft.rows)
            w = constant(weights[:, :T])
            return ((soft.stacked_rows() + soft.stacked_dists()) * w).sum() \
                + soft.stacked_gates().sum()

        params = [tiny_model.params[k] for k in ("emb", "enc.u", "dec.w", "attn.we", "out.w",
                                                 "head.w", "style.w2")]
        err = finite_difference_check(loss_fn, params, step=1e-6, max_coords_per_param=6)
        assert err < 1e-5

