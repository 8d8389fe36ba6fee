import numpy as np
import pytest
from _oracles import grads_all_zero, graph_nodes, per_step_fluency_loss

from restyle import autodiff as ad
from restyle.autodiff import backward, constant, finite_difference_check, parameter
from restyle.data import EOS, N_RESERVED, pack_batch
from restyle.language_model import DirectionalLanguageModel, fluency_loss
from restyle.seq2seq import SoftSentence


def cyclic_corpus(n=300, length=8):
    # every sentence is the same deterministic cycle: next token is certain
    cycle = [4, 5, 6, 7]
    seq = [cycle[i % 4] for i in range(length)]
    return [list(seq) for _ in range(n)]


def uniform_corpus(rng, n=600, length=8, vocab=8):
    return [(rng.integers(N_RESERVED, N_RESERVED + vocab, size=length)).tolist()
            for _ in range(n)]


def make_soft(rows_list, dists_list, lengths, gates=None):
    T = len(rows_list)
    B = rows_list[0].shape[0]
    gates = gates or [constant(np.zeros(B)) for _ in range(T)]
    return SoftSentence([constant(r) if isinstance(r, np.ndarray) else r for r in rows_list],
                        [constant(d) if isinstance(d, np.ndarray) else d for d in dists_list],
                        gates, np.asarray(lengths))


def zero_weight_lm(vocab_size, style, direction, bias=None):
    """Untrained model with zeroed weights predicts the bias softmax at every step."""
    lm = DirectionalLanguageModel(vocab_size=vocab_size, style=style, direction=direction,
                                  embed_dim=4, hidden_dim=4, seed=0)
    lm._init_params()
    for name, p in lm.params_.items():
        p.values[...] = 0.0
    if bias is not None:
        lm.params_["out.b"].values[...] = bias
    return lm


class TestTraining:
    def test_deterministic_grammar_near_unit_perplexity(self):
        lm = DirectionalLanguageModel(vocab_size=8, style=0, direction="forward",
                                      embed_dim=16, hidden_dim=24, epochs=25,
                                      learning_rate=1e-2, seed=0)
        lm.fit(cyclic_corpus())
        assert lm.perplexity(cyclic_corpus(n=50)) < 1.05

    def test_uniform_corpus_perplexity_matches_entropy(self):
        rng = np.random.default_rng(0)
        lm = DirectionalLanguageModel(vocab_size=N_RESERVED + 8, style=0,
                                      direction="forward", embed_dim=16, hidden_dim=16,
                                      epochs=8, learning_rate=2e-3, seed=1)
        lm.fit(uniform_corpus(rng, n=1500))
        # over the words alone: every sentence ends at length 8, so its EOS is
        # predictable and would pull the figure below the words' entropy
        batch = pack_batch(uniform_corpus(rng, n=200))
        words = batch.target_mask * (batch.targets != EOS)
        with ad.no_grad():
            nll = lm._token_nll(batch, words).values.sum()
        assert 7.5 <= np.exp(nll / words.sum()) <= 8.5

    def test_backward_model_equals_forward_on_reversed_corpus(self):
        corpus = [[4, 5, 6], [7, 8, 9, 10], [5, 6, 4]] * 40
        fwd = DirectionalLanguageModel(vocab_size=12, style=0, direction="forward",
                                       embed_dim=8, hidden_dim=8, epochs=2, seed=3)
        fwd.fit([list(reversed(s)) for s in corpus])
        bwd = DirectionalLanguageModel(vocab_size=12, style=0, direction="backward",
                                       embed_dim=8, hidden_dim=8, epochs=2, seed=3)
        bwd.fit(corpus)
        for name in fwd.params_:
            np.testing.assert_array_equal(fwd.params_[name].values,
                                          bwd.params_[name].values)
        assert fwd.dev_perplexity_ == bwd.dev_perplexity_

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_perplexity_pools_each_sentence_alone(self, direction):
        rng = np.random.default_rng(5)
        corpus = [rng.integers(4, 12, size=n).tolist() for n in rng.integers(1, 10, size=150)]
        lm = DirectionalLanguageModel(vocab_size=12, style=0, direction=direction,
                                      embed_dim=8, hidden_dim=8, epochs=1, seed=2)
        lm.fit(corpus)
        # a sentence alone: its log perplexity times its words and EOS is its NLL
        nll = sum(np.log(lm.perplexity([s])) * (len(s) + 1) for s in corpus)
        tokens = sum(len(s) + 1 for s in corpus)
        assert lm.perplexity(corpus) == pytest.approx(np.exp(nll / tokens), rel=1e-12, abs=0)

    def test_empty_corpus_rejected(self):
        lm = DirectionalLanguageModel(vocab_size=8, style=0)
        with pytest.raises(ValueError, match="no sequences"):
            lm.fit([])

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            DirectionalLanguageModel(vocab_size=8, direction="sideways")


class TestFluencyLoss:
    def test_uniform_everywhere_equals_entropy_sum(self):
        V, T, B = 10, 3, 2
        fwd = zero_weight_lm(V, style=1, direction="forward")
        bwd = zero_weight_lm(V, style=1, direction="backward")
        uniform = np.full((B, V), 1.0 / V)
        soft = make_soft([uniform] * T, [uniform] * T, [T, T])
        loss = fluency_loss(fwd, bwd, soft, target_style=1)
        assert loss.item() == pytest.approx(T * np.log(V), rel=1e-9)

    def test_vanishing_lm_probability_blows_up(self):
        V, T, B = 10, 1, 1
        bias = np.zeros(V)
        bias[5] = np.log(1e-9 * (V - 1) / (1 - 1e-9))
        fwd = zero_weight_lm(V, style=1, direction="forward", bias=bias)
        bwd = zero_weight_lm(V, style=1, direction="backward", bias=bias)
        onehot = np.zeros((B, V))
        onehot[:, 5] = 1.0
        soft = make_soft([onehot], [onehot], [T])
        loss = fluency_loss(fwd, bwd, soft, target_style=1)
        assert loss.item() > 20.0

    def test_style_mismatch_rejected(self):
        fwd = zero_weight_lm(8, style=0, direction="forward")
        bwd = zero_weight_lm(8, style=0, direction="backward")
        soft = make_soft([np.full((1, 8), 1 / 8)], [np.full((1, 8), 1 / 8)], [1])
        with pytest.raises(ValueError, match="style mismatch"):
            fluency_loss(fwd, bwd, soft, target_style=1)

    def test_gradient_flows_to_rows_not_to_lm(self):
        rng = np.random.default_rng(0)
        V, T, B = 8, 3, 2
        fwd = zero_weight_lm(V, style=1, direction="forward")
        bwd = zero_weight_lm(V, style=1, direction="backward")
        for lm in (fwd, bwd):
            for p in lm.params_.values():
                p.values[...] = rng.uniform(-0.3, 0.3, p.shape)
            lm.set_trainable(False)

        rows = [parameter(rng.dirichlet(np.ones(V), size=B)) for _ in range(T)]
        dists = [parameter(rng.dirichlet(np.ones(V), size=B)) for _ in range(T)]

        def loss_fn():
            soft = SoftSentence(rows, dists, [constant(np.zeros(B))] * T,
                                np.array([T, T]))
            return fluency_loss(fwd, bwd, soft, target_style=1)

        err = finite_difference_check(loss_fn, rows + dists, step=1e-6,
                                      max_coords_per_param=6)
        assert err < 1e-3
        loss = loss_fn()
        backward(loss)
        assert grads_all_zero(fwd.params_)
        assert grads_all_zero(bwd.params_)


def random_lm_pair(rng, V, style=1, embed_dim=5, hidden_dim=6):
    """Frozen forward and backward models with random weights and biases."""
    lms = []
    for direction in ("forward", "backward"):
        lm = DirectionalLanguageModel(vocab_size=V, style=style, direction=direction,
                                      embed_dim=embed_dim, hidden_dim=hidden_dim, seed=0)
        lm._init_params()
        for p in lm.params_.values():
            p.values[...] = rng.uniform(-0.5, 0.5, p.shape)
        lm.set_trainable(False)
        lms.append(lm)
    return lms


class TestFluencyLossSequencePass:
    """``fluency_loss`` scores a soft sentence in one sequence pass per model;
    it must agree with the per-step definition in ``_oracles``."""

    @pytest.mark.parametrize("T,lengths", [(6, [0, 1, 6, 3, 4]), (6, [6, 6, 6, 6, 6]),
                                           (6, [0, 0, 0, 0, 0]), (6, [1, 1, 2, 5, 0]),
                                           (1, [1, 0, 1])])
    def test_matches_per_step_definition(self, T, lengths):
        # T = 1: the models read only BOS
        rng = np.random.default_rng(sum(lengths))
        V, B = 9, len(lengths)
        fwd, bwd = random_lm_pair(rng, V)
        rows = [parameter(rng.dirichlet(np.ones(V), size=B)) for _ in range(T)]
        dists = [parameter(rng.dirichlet(np.ones(V), size=B)) for _ in range(T)]
        soft = make_soft(rows, dists, lengths)
        results = []
        for fn in (fluency_loss, per_step_fluency_loss):
            for p in rows + dists:
                p.zero_grad()
            loss = fn(fwd, bwd, soft, target_style=1)
            backward(loss)
            results.append((loss.item(), [p.grad.copy() for p in rows + dists]))
        (value, grads), (ref_value, ref_grads) = results
        assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
        for g, ref_g in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref_g, rtol=0, atol=1e-12)
        if max(lengths) == 0:
            assert value == 0.0
        else:
            assert value > 0.0 and any(np.abs(g).max() > 0 for g in grads)

    def test_graph_size(self):
        # one sequence pass per model: the per-step definition builds 346
        # nodes for this sentence, most of them per-step output layers
        rng = np.random.default_rng(6)
        V, T, B = 70, 11, 32
        fwd, bwd = random_lm_pair(rng, V, embed_dim=64, hidden_dim=64)
        rows = [parameter(rng.dirichlet(np.ones(V), size=B)) for _ in range(T)]
        dists = [parameter(rng.dirichlet(np.ones(V), size=B)) for _ in range(T)]
        soft = make_soft(rows, dists, rng.integers(0, T + 1, size=B))
        assert graph_nodes(fluency_loss(fwd, bwd, soft, target_style=1)) <= 150
        assert graph_nodes(per_step_fluency_loss(fwd, bwd, soft, target_style=1)) > 150
