"""Finite-difference verification of the training losses against every
parameter group.

Builds a toy system (vocab 8, hidden 8, one two-sentence batch per source
style), freezes the stage-1 corruption and the gumbel noise, and checks
d(loss)/d(theta) for each named parameter tensor of the sequence model
against central differences. The losses are the ones the trainers minimise,
``stage1_losses`` and ``stage2_losses`` under a run's variant and loss
weights: each term and the combined stage-2 objective, in both transfer
directions.
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
    Variant,
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


def stage1_loss_fns(model, batch, lam_x, corrupted_enc_ids, variant: Variant) -> dict:
    """Closures over ``stage1_losses`` for a fixed batch and corruption: the
    terms stage 1 trains under ``variant``."""
    def term(i):
        return lambda: stage1_losses(model, batch, lam_x, corrupted_enc_ids)[i]

    fns = {"l_sr": term(0)}
    if variant.lxlambda:
        fns["l_xlambda"] = term(1)
    return fns


def stage2_loss_fns(model, clf, lms, batch, lam_x, source_style, tau, noise,
                    cfg, lrp_cfg) -> dict:
    """Closures over ``stage2_losses`` for a fixed batch, tau and noise: each
    term ``cfg`` trains as the trainer logs it, and the total as
    ``l2_combined``."""
    def term(name):
        def fn():
            _, losses = stage2_losses(model, clf, lms, batch, lam_x, source_style, tau,
                                      noise, cfg, lrp_cfg)
            if losses is None:
                raise ValueError("every toy generation has length 0")
            return losses[name]
        return fn

    # stage2_losses gives a term the variant or its weight switches off as the constant 0
    trained = {"l_st": True, "l_ylambda": cfg.variant.ylambda and cfg.alpha > 0,
               "l_cp": True, "l_lm": cfg.uses_lms}
    fns = {name: term(name) for name, on in trained.items() if on}
    return {**fns, "l2_combined": term("total")}


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
        fns = stage1_loss_fns(model, batch, lam_x, corrupted, cfg.variant)
        if cfg.variant.nsc:
            fns.update(stage2_loss_fns(model, clf, lms, batch, lam_x, source, tau, noise,
                                       cfg, lrp_cfg))
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
