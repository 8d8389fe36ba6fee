"""Attentional GRU encoder-decoder with a relevance head and a gated style
component.

The decoder input is the previous word embedding concatenated with the
attention context; its projection [x; c]·W is computed as x·W_emb + c·W_ctx
over the two row blocks of W, so teacher forcing, whose inputs are all known,
projects the embeddings of every step at once. Attention is scored against the
previous (revised) decoder state, so the context is available before the GRU
update. In basic mode the revised state equals the raw state; in styled mode
the state is revised as h~ = h + gate * delta, where the gate is the
head-predicted word relevance and delta comes from an MLP over (previous
embedding, previous revised state, target-style embedding). The MLP's output
layer starts at zero, so styled decoding initially reproduces basic decoding
exactly. Free-running decoding is one loop with two emission rules: greedy
emits the argmax and feeds back its row of the embedding table, soft emits
softmax((logits + g) / tau) and feeds back the expected embedding, so a
one-hot soft row feeds what greedy feeds, PAD included. The loop stops
stepping a sentence once it has emitted EOS: each step runs only the open
rows, so a batch's cost follows each sentence's own length rather than its
longest one's. Greedy writes each step's tokens and gates at the open rows;
soft generation places each step's rows back at full width, with zero rows
for the finished sentences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from restyle import autodiff as ad
from restyle.autodiff import Tensor, constant, parameter
from restyle.base import ParamMixin
from restyle.checkpoint import params_hash
from restyle.data import BOS, EOS, PAD

N_STYLES = 2


def target_style_ids(target_style, batch_size: int) -> np.ndarray:
    """(B,) style ids from one style or one per row, each checked to be a
    known style; a generation checks them once, not at every step."""
    style_ids = np.broadcast_to(np.asarray(target_style, dtype=np.int64), (batch_size,)).copy()
    if not np.isin(style_ids, np.arange(N_STYLES)).all():
        raise ValueError(f"unknown style id in {np.unique(style_ids)}")
    return style_ids


@dataclass
class EncoderState:
    states: Tensor            # (B, T, H)
    final: Tensor             # (B, H) state at each sentence's last real token
    score_bias: np.ndarray    # (B, 1, T) additive attention mask: 0 on real tokens
    score_proj: Tensor        # (B, T, A) cached W_e h^e_i

    def take(self, keep: np.ndarray) -> EncoderState:
        """The state of the sentences ``keep`` alone."""
        return EncoderState(self.states[keep], self.final[keep], self.score_bias[keep],
                            self.score_proj[keep])


@dataclass
class DecoderStep:
    revised: Tensor           # (B, H) gated revision (the raw GRU state in basic mode)
    logits: Tensor            # (B, V)
    gate: Tensor              # (B,) head-predicted relevance of this step's word
    applied_gate: Tensor      # (B,) value actually used in the revision


@dataclass
class SoftSentence:
    """Differentiable generated sentence: one probability row per step, and a
    zero row at each step after the sentence's EOS step."""

    rows: list                # step-wise gumbel-softmax rows, each (B, V)
    dists: list               # step-wise model distributions softmax(logits), each (B, V)
    gates: list               # step-wise head-predicted relevance, each (B,)
    lengths: np.ndarray       # (B,) realized length: steps before first EOS argmax

    def stacked_rows(self) -> Tensor:
        return ad.stack(self.rows, axis=1)

    def stacked_dists(self) -> Tensor:
        return ad.stack(self.dists, axis=1)

    def stacked_gates(self) -> Tensor:
        return ad.stack(self.gates, axis=1)

    def length_mask(self) -> np.ndarray:
        T = len(self.rows)
        return (np.arange(T)[None, :] < self.lengths[:, None]).astype(float)


class GruCell:
    def __init__(self, params: dict, prefix: str, input_dim: int, hidden_dim: int, rng):
        self.prefix = prefix
        self.hidden_dim = hidden_dim
        k = 1.0 / np.sqrt(hidden_dim)
        params[f"{prefix}.w"] = parameter(rng.uniform(-k, k, (input_dim, 3 * hidden_dim)),
                                          name=f"{prefix}.w")
        params[f"{prefix}.u"] = parameter(rng.uniform(-k, k, (hidden_dim, 3 * hidden_dim)),
                                          name=f"{prefix}.u")
        params[f"{prefix}.bi"] = parameter(np.zeros(3 * hidden_dim), name=f"{prefix}.bi")
        params[f"{prefix}.bh"] = parameter(np.zeros(3 * hidden_dim), name=f"{prefix}.bh")
        self.params = params

    def project(self, x: Tensor) -> Tensor:
        """Input projection x·W + b_i of (..., input_dim) inputs: one step's,
        or every timestep's at once when the inputs are known in advance."""
        return ad.matmul(x, self.params[f"{self.prefix}.w"]) + self.params[f"{self.prefix}.bi"]

    def step(self, gi: Tensor, h: Tensor) -> Tensor:
        """The recurrent update from a (B, 3H) input projection."""
        return ad.gru_step(gi, h, self.params[f"{self.prefix}.u"],
                           self.params[f"{self.prefix}.bh"])

    def run(self, x: Tensor, h: Tensor) -> Tensor:
        """States (B, T, H) over a (B, T, input_dim) sequence from ``h``, with
        the input projection made once for all timesteps."""
        gi = self.project(x)
        states = []
        for t in range(x.shape[1]):
            h = self.step(gi[:, t], h)
            states.append(h)
        return ad.stack(states, axis=1)


class Seq2seqModel(ParamMixin):
    """Encoder-decoder network; holds every trainable tensor in ``params``."""

    def __init__(self, vocab_size: int, embed_dim: int = 64, hidden_dim: int = 64,
                 attn_dim: int = 64, head_dim: int = 32, style_dim: int = 16,
                 mlp_dim: int = 64, seed: int = 0):
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.attn_dim = attn_dim
        self.head_dim = head_dim
        self.style_dim = style_dim
        self.mlp_dim = mlp_dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}
        p["emb"] = parameter(rng.normal(0.0, 0.1, (vocab_size, embed_dim)), name="s2s.emb")
        p["emb"].values[PAD] = 0.0
        self.encoder_cell = GruCell(p, "enc", embed_dim, hidden_dim, rng)
        self.decoder_cell = GruCell(p, "dec", embed_dim + hidden_dim, hidden_dim, rng)
        k = 1.0 / np.sqrt(hidden_dim)
        p["attn.we"] = parameter(rng.uniform(-k, k, (hidden_dim, attn_dim)), name="attn.we")
        p["attn.wd"] = parameter(rng.uniform(-k, k, (hidden_dim, attn_dim)), name="attn.wd")
        p["attn.b"] = parameter(np.zeros(attn_dim), name="attn.b")
        p["attn.v"] = parameter(rng.uniform(-k, k, (attn_dim, 1)), name="attn.v")
        p["out.w"] = parameter(rng.uniform(-k, k, (hidden_dim, vocab_size)), name="out.w")
        p["out.b"] = parameter(np.zeros(vocab_size), name="out.b")
        # relevance head (theta_lambda)
        kh = 1.0 / np.sqrt(head_dim)
        p["head.w"] = parameter(rng.uniform(-k, k, (hidden_dim, head_dim)), name="head.w")
        p["head.b"] = parameter(np.zeros(head_dim), name="head.b")
        p["head.v"] = parameter(rng.uniform(-kh, kh, (head_dim, 1)), name="head.v")
        p["head.vb"] = parameter(np.zeros(1), name="head.vb")
        # style component (theta_delta); output layer zero so stage 2 starts
        # exactly at the stage-1 model
        km = 1.0 / np.sqrt(embed_dim + hidden_dim + style_dim)
        p["style.emb"] = parameter(rng.normal(0.0, 0.1, (N_STYLES, style_dim)),
                                   name="style.emb")
        p["style.w1"] = parameter(
            rng.uniform(-km, km, (embed_dim + hidden_dim + style_dim, mlp_dim)),
            name="style.w1")
        p["style.b1"] = parameter(np.zeros(mlp_dim), name="style.b1")
        p["style.w2"] = parameter(np.zeros((mlp_dim, hidden_dim)), name="style.w2")
        p["style.b2"] = parameter(np.zeros(hidden_dim), name="style.b2")
        self.params = p

    # ------------------------------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def parameter_groups(self) -> dict[str, list[str]]:
        """Spec'd parameter sets: seq2seq body, relevance head, style component."""
        head = [k for k in self.params if k.startswith("head.")]
        style = [k for k in self.params if k.startswith("style.")]
        body = [k for k in self.params if k not in head and k not in style]
        return {"s2s": body, "head": head, "style": style}

    def weights_hash(self) -> str:
        return params_hash(self.params)

    def embed(self, ids: np.ndarray) -> Tensor:
        mask = constant((ids != PAD).astype(float)[..., None])
        return ad.gather_rows(self.params["emb"], ids) * mask

    # ------------------------------------------------------------------
    def encode(self, ids: np.ndarray, lengths: np.ndarray) -> EncoderState:
        if ids.ndim != 2:
            raise ValueError(f"encode: expected (B, T) ids, got shape {ids.shape}")
        B, T = ids.shape
        hs = self.encoder_cell.run(self.embed(ids), constant(np.zeros((B, self.hidden_dim))))
        pick = np.zeros((B, 1, T))
        pick[np.arange(B), 0, np.maximum(lengths - 1, 0)] = 1.0
        final = ad.matmul(constant(pick), hs).reshape(B, self.hidden_dim)
        mask = (np.arange(T)[None, :] < lengths[:, None]).astype(float)
        score_bias = ((mask - 1.0) * ad.MASK_BIG).reshape(B, 1, T)
        score_proj = ad.matmul(hs, self.params["attn.we"])
        return EncoderState(hs, final, score_bias, score_proj)

    def attend(self, h_prev: Tensor, enc: EncoderState) -> Tensor:
        """The attention context (B, H) for the decoder state ``h_prev``."""
        B, T, _ = enc.states.shape
        query = (ad.matmul(h_prev, self.params["attn.wd"]) + self.params["attn.b"])
        # scores shaped (B, 1, T): the weights are then already the row vectors
        # the context product takes
        scores = ad.matmul(ad.tanh(enc.score_proj + query.reshape(B, 1, self.attn_dim)),
                           self.params["attn.v"]).reshape(B, 1, T)
        weights = ad.softmax(scores, axis=-1, bias=enc.score_bias)
        return ad.matmul(weights, enc.states).reshape(B, self.hidden_dim)

    def predict_relevance(self, h_prev: Tensor) -> Tensor:
        """Gate in (0,1): sigmoid(v' tanh(W h + b) + b'), one per (..., H)
        state. The raw bilinear form is unbounded, but the gate and its
        mean-squared target both live in the unit interval, hence the final
        squash."""
        hidden = ad.tanh(ad.matmul(h_prev, self.params["head.w"]) + self.params["head.b"])
        return ad.sigmoid(ad.matmul(hidden, self.params["head.v"])
                          + self.params["head.vb"]).reshape(h_prev.shape[:-1])

    def output_logits(self, revised: Tensor) -> Tensor:
        return ad.matmul(revised, self.params["out.w"]) + self.params["out.b"]

    def delta_h(self, x_emb: Tensor, h_prev: Tensor, style_ids: np.ndarray) -> Tensor:
        s_emb = ad.gather_rows(self.params["style.emb"], style_ids)
        inp = ad.concat([x_emb, h_prev, s_emb], axis=1)
        hidden = ad.tanh(ad.matmul(inp, self.params["style.w1"]) + self.params["style.b1"])
        return ad.matmul(hidden, self.params["style.w2"]) + self.params["style.b2"]

    def decoder_input_weights(self) -> tuple[Tensor, Tensor]:
        """``dec.w`` split into its embedding rows and its context rows."""
        w = self.params["dec.w"]
        return w[:self.embed_dim], w[self.embed_dim:]

    def advance(self, x_proj: Tensor, h_prev: Tensor, enc: EncoderState,
                w_ctx: Tensor) -> Tensor:
        """The decoder recurrence, shared by every decoding mode: attention
        scored against ``h_prev``, then the GRU update on the input projection
        ``x_proj + context·W_ctx``, where ``x_proj = x·W_emb + b_i`` is the
        embedding part. Returns the new state."""
        context = self.attend(h_prev, enc)
        return self.decoder_cell.step(x_proj + ad.matmul(context, w_ctx), h_prev)

    def decode_step(self, x_emb: Tensor, h_prev: Tensor, enc: EncoderState,
                    weights: tuple[Tensor, Tensor], style_ids: np.ndarray | None = None,
                    gate_override: float | None = None) -> DecoderStep:
        """One free-running step; ``weights`` is ``decoder_input_weights()``.
        Decoding is styled exactly when ``style_ids`` is given."""
        B = x_emb.shape[0]
        x_proj = ad.matmul(x_emb, weights[0]) + self.params["dec.bi"]
        h = self.advance(x_proj, h_prev, enc, weights[1])
        gate = applied = self.predict_relevance(h_prev)
        revised = h
        if style_ids is not None:
            if gate_override is not None:
                applied = constant(np.full(B, float(gate_override)))
            delta = self.delta_h(x_emb, h_prev, style_ids)
            revised = h + applied.reshape(B, 1) * delta
        return DecoderStep(revised, self.output_logits(revised), gate, applied)

    # ------------------------------------------------------------------
    def teacher_forced_pass(self, batch, corrupted_enc_ids: np.ndarray | None = None):
        """Basic-mode decoding with gold inputs; returns (logits (B,S,V),
        gates (B,S)). Only the recurrence runs per step: the embedding rows'
        input projection is made for all S inputs before it, and the output
        layer and relevance head run once over the stacked states after it."""
        enc_ids = batch.enc_ids if corrupted_enc_ids is None else corrupted_enc_ids
        enc = self.encode(enc_ids, batch.lengths)
        w_emb, w_ctx = self.decoder_input_weights()
        x_proj = ad.matmul(self.embed(batch.dec_inputs), w_emb) + self.params["dec.bi"]
        h = enc.final
        prev, states = [], []
        for j in range(batch.dec_inputs.shape[1]):
            prev.append(h)
            h = self.advance(x_proj[:, j], h, enc, w_ctx)
            states.append(h)
        return (self.output_logits(ad.stack(states, axis=1)),
                self.predict_relevance(ad.stack(prev, axis=1)))

    def _free_run(self, ids: np.ndarray, lengths: np.ndarray, max_len: int,
                  style_ids: np.ndarray | None, gate_override: float | None,
                  emit) -> np.ndarray:
        """The decoder loop of both generators, until every row has emitted
        EOS. A row that has emitted EOS is not stepped again: after such a
        step the loop keeps only the open rows of the decoder state, the
        encoder state, the next input and the style ids. ``emit(j, step,
        stepped)`` keeps step j's output for the original rows ``stepped``
        (ascending) and returns their emitted ids and a function for their
        next input, called only if a step follows. Returns each row's first
        EOS step, ``max_len`` if none."""
        B = ids.shape[0]
        enc = self.encode(ids, lengths)
        weights = self.decoder_input_weights()
        h = enc.final
        x = self.embed(np.full(B, BOS, dtype=np.int64))
        realized = np.full(B, max_len, dtype=np.int64)
        stepped = np.arange(B)
        for j in range(max_len):
            step = self.decode_step(x, h, enc, weights, style_ids, gate_override)
            emitted, next_input = emit(j, step, stepped)
            ended = emitted == EOS
            realized[stepped[ended]] = j
            if j + 1 == max_len or ended.all():
                break
            h, x = step.revised, next_input()
            if ended.any():
                keep = np.flatnonzero(~ended)
                stepped = stepped[keep]
                h, x, enc = h[keep], x[keep], enc.take(keep)
                if style_ids is not None:
                    style_ids = style_ids[keep]
        return realized

    def generate_greedy(self, ids: np.ndarray, lengths: np.ndarray,
                        target_style: int | np.ndarray | None = None,
                        styled: bool = True, max_len: int = 16,
                        gate_override: float | None = None):
        """Argmax decoding; returns (token lists without EOS, gate matrix).
        A row's gates are 0 after its EOS step."""
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        B = ids.shape[0]
        style_ids = target_style_ids(target_style, B) if styled else None
        tokens = np.full((B, max_len), PAD, dtype=np.int64)
        gates = np.zeros((B, max_len))

        def argmax(j, step, stepped):
            nxt = step.logits.values.argmax(axis=1)
            tokens[stepped, j] = nxt
            gates[stepped, j] = step.applied_gate.values
            return nxt, lambda: ad.gather_rows(self.params["emb"], nxt)

        with ad.no_grad():
            realized = self._free_run(ids, lengths, max_len, style_ids, gate_override, argmax)
        return [tokens[b, :realized[b]].tolist() for b in range(B)], gates

    def generate_soft(self, ids: np.ndarray, lengths: np.ndarray, target_style,
                      max_len: int = 16, tau: float = 0.5,
                      gumbel_noise: np.ndarray | None = None,
                      gate_override: float | None = None) -> SoftSentence:
        """Differentiable free-running decoding toward the target style.

        Each step emits softmax((logits + g) / tau); the row's expected
        embedding feeds the next step. ``gumbel_noise`` of shape
        (max_len, B, V) enables stochastic relaxation; None decodes with the
        temperature alone. A sentence's rows, distributions and gates after
        its EOS step are zero rows.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        B = ids.shape[0]
        style_ids = target_style_ids(target_style, B)
        rows, dists, gates = [], [], []

        def gumbel_softmax(j, step, stepped):
            noisy = step.logits
            if gumbel_noise is not None:
                noisy = noisy + constant(gumbel_noise[j, stepped])
            row = ad.softmax(noisy * (1.0 / tau), axis=-1)
            rows.append(ad.place_rows(row, stepped, B))
            dists.append(ad.place_rows(ad.softmax(step.logits, axis=-1), stepped, B))
            gates.append(ad.place_rows(step.gate, stepped, B))
            return row.values.argmax(axis=1), lambda: ad.matmul(row, self.params["emb"])

        realized = self._free_run(ids, lengths, max_len, style_ids, gate_override,
                                  gumbel_softmax)
        return SoftSentence(rows, dists, gates, realized)


def sample_gumbel(rng, shape, eps: float = 1e-12) -> np.ndarray:
    u = rng.uniform(eps, 1.0 - eps, size=shape)
    return -np.log(-np.log(u))
