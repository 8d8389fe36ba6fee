"""Finite-difference verification of the training losses against every
parameter group.

Builds a toy system (vocab 8, hidden 8, one two-sentence batch per source
style), freezes the stage-1 corruption and the gumbel noise, and checks
d(loss)/d(theta) for each named parameter tensor of the sequence model
against central differences. The losses are the ones the trainers minimise,
``stage1_losses`` and ``stage2_losses`` under a run's variant and loss
weights, in both transfer directions: each term those functions return, which
are the terms the run trains, and the combined stage-2 objective.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from restyle.autodiff import finite_difference_check
from restyle.data import corrupt_batch, pack_batch
from restyle.language_model import DirectionalLanguageModel
from restyle.seq2seq import Seq2seqModel, sample_gumbel
from restyle.textcnn import TextCnnStyleClassifier
from restyle.training import (
    LambdaTargetCache,
    LrpConfig,
    Stage2Config,
    stage1_losses,
    stage2_losses,
)

def build_toy_system(seed: int = 0, vocab_size: int = 8, hidden: int = 8):
    rng = np.random.default_rng(seed)
    model = Seq2seqModel(vocab_size, embed_dim=6, hidden_dim=hidden, attn_dim=hidden,
                         head_dim=4, style_dim=3, mlp_dim=4, seed=seed)
    # randomize the zero-initialized style output layer so every path is active
    model.params["style.w2"].values[...] = rng.uniform(-0.3, 0.3,
                                                       model.params["style.w2"].shape)
    model.params["style.b2"].values[...] = rng.uniform(-0.1, 0.1,
                                                       model.params["style.b2"].shape)
    # lift every signal well above the central-difference noise floor so
    # relative errors measure the gradients rather than float cancellation
    for p in model.params.values():
        p.values *= 3.0
    model.params["emb"].values[0] = 0.0
    clf = TextCnnStyleClassifier(vocab_size=vocab_size, embed_dim=5, num_filters=3,
                                 filter_widths=(2, 3), seed=seed + 1)
    clf._init_params()
    clf.set_trainable(False)
    lms = {}
    for style in (0, 1):
        for direction in ("forward", "backward"):
            lm = DirectionalLanguageModel(vocab_size=vocab_size, style=style,
                                          direction=direction, embed_dim=5,
                                          hidden_dim=6, seed=seed + 2 + style)
            lm._init_params()
            for p in lm.params_.values():
                p.values[...] = rng.uniform(-0.4, 0.4, p.shape)
                p.values[0] = 0.0 if p.values.ndim > 1 and p.shape[0] == vocab_size else p.values[0]
            lm.set_trainable(False)
            lms[(style, direction)] = lm
    batches = {0: pack_batch([[4, 5, 6], [7, 4, 5, 6]], labels=[0, 0]),
               1: pack_batch([[6, 5, 7], [5, 7, 4, 6]], labels=[1, 1])}
    lrp_cfg = LrpConfig(eta=1.0, epsilon=0.0)
    cache = LambdaTargetCache(clf, lrp_cfg)
    return model, clf, lms, batches, cache, lrp_cfg


def term_fns(losses, total: str | None = None) -> dict:
    """Closures over ``losses``, a call of ``stage1_losses`` or of
    ``stage2_losses``' dict on fixed inputs: one per term it returns, under the
    name the trainer logs it by, and ``total`` under the name ``total`` when
    that is given."""
    def evaluate():
        terms = losses()
        if terms is None:
            raise ValueError("every toy generation has length 0")
        return terms

    def term(name):
        return lambda: evaluate()[name]

    fns = {name: term(name) for name in evaluate() if name != "total"}
    if total is not None:
        fns[total] = term("total")
    return fns


def run_gradient_suite(seed: int = 0, step: float = 1e-5, max_coords_per_param: int = 4,
                       stage2: Stage2Config | None = None) -> dict:
    """Returns {loss_name: {"param (source s)": max_rel_error}} plus overall max,
    for the stage-1 and stage-2 terms the variant of ``stage2`` (default
    ``Stage2Config()``) trains."""
    model, clf, lms, batches, cache, lrp_cfg = build_toy_system(seed)
    cfg = replace(stage2 or Stage2Config(), max_len=5)
    tau = 0.6
    frozen = np.random.default_rng(seed)
    results: dict = {}
    worst = 0.0
    rng = np.random.default_rng(seed + 99)
    for source, batch in batches.items():
        lam_x = cache.batch_matrix(batch)
        corrupted = corrupt_batch(batch, model.vocab_size, 0.5, frozen)
        noise = sample_gumbel(frozen, (cfg.max_len, batch.enc_ids.shape[0], model.vocab_size))
        fns = term_fns(lambda: stage1_losses(model, batch, lam_x, cfg.variant.lxlambda,
                                             corrupted))
        if cfg.variant.nsc:
            fns.update(term_fns(lambda: stage2_losses(model, clf, lms, batch, lam_x, source,
                                                      tau, noise, cfg, lrp_cfg)[1],
                                total="l2_combined"))
        for loss_name, fn in fns.items():
            per_param = results.setdefault(loss_name, {})
            for pname in sorted(model.params):
                err = finite_difference_check(fn, [model.params[pname]], step=step,
                                              max_coords_per_param=max_coords_per_param,
                                              rng=rng)
                per_param[f"{pname} (source {source})"] = err
                worst = max(worst, err)
    results["max_relative_error"] = worst
    return results
