"""Two-stage training: denoising reconstruction with relevance reprediction,
then fine-tuning of the style component under the four-term objective.

Stage 1 feeds a corrupted sentence to the encoder and teacher-forces the clean
sentence through the decoder, minimizing token cross-entropy plus the mean
squared error between head-predicted and propagation-derived word relevance.

Stage 2 free-runs soft generation toward the opposite style and combines the
frozen-classifier transfer loss, soft-relevance consistency, the
relevance-weighted content anchor, and the frozen-LM fluency terms. Batches
alternate transfer directions so both styles train symmetrically.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass, fields

import numpy as np

from restyle import autodiff as ad
from restyle.autodiff import constant
from restyle.data import (Batcher, LabeledCorpus, corrupt_batch, length_ordered_batches,
                          pack_batch)
from restyle.language_model import fluency_loss
from restyle.lrp import EPSILON, STABILIZER, hard_word_relevance, soft_word_relevance
from restyle.seq2seq import Seq2seqModel, sample_gumbel
from restyle.textcnn import TextCnnStyleClassifier

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Variant:
    """What one ablation variant changes: the stages that train, how its model
    decodes, and the loss terms and parameter groups stage 2 trains."""
    lxlambda: bool = True                # stage 1 trains L_xλ
    nsc: bool = True                     # stage 2 trains the style component, decoding runs it
    gate_override: float | None = None   # every gate fixed at this, in stage 2 and decoding
    ylambda: bool = True                 # stage 2 trains L_yλ
    lm: bool = True                      # stage 2 trains L_lm
    lcp_prime: bool = False              # stage 2 trains the unweighted anchor L_cp'
    groups: tuple = ("s2s", "head", "style")   # parameter groups stage 2 trains

    @property
    def decoding(self) -> dict:
        """``generate_greedy`` keywords that decode as the variant trained."""
        return {"styled": self.nsc, "gate_override": self.gate_override}


# canonical ablation variants and their accepted spellings
VARIANTS = {
    "full": Variant(),
    "no-nsc": Variant(nsc=False),
    "nsc-lambda": Variant(gate_override=1.0),
    "no-lxlambda": Variant(lxlambda=False),
    "lcp-prime": Variant(lcp_prime=True),
    "no-lylambda": Variant(ylambda=False),
    "no-lm": Variant(lm=False),
    "no-finetune": Variant(groups=("style",)),
}
ABLATION_ALIASES = {
    "-nsc": "no-nsc",
    "nsc-lambda-yj": "nsc-lambda",
    "-lxlambda": "no-lxlambda",
    "lcp-to-lcp-prime": "lcp-prime",
    "-lylambda": "no-lylambda",
    "-llm": "no-lm",
    "finetuning-": "no-finetune",
}


def resolve_ablation(variant: str) -> str:
    """The canonical name of one variant name or alias."""
    key = variant.strip().lower()
    key = ABLATION_ALIASES.get(key, key)
    if key not in VARIANTS:
        valid = sorted(VARIANTS) + sorted(ABLATION_ALIASES)
        raise ValueError(f"unknown ablation variant {variant!r} in stage2.ablation; "
                         f"one per run, expected one of {valid}")
    return key


@dataclass
class LrpConfig:
    eta: float = 1.0
    epsilon: float = EPSILON
    stabilizer: float = STABILIZER


@dataclass
class Stage1Config:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.5
    clip_norm: float = 5.0
    replace_prob: float = 0.15
    optimizer: str = "sgd"
    patience: int = 3
    max_len: int = 16
    seed: int = 0
    lxlambda_off: bool = False

    def __post_init__(self):
        if min(self.epochs, self.batch_size) <= 0 or self.learning_rate <= 0 \
                or self.clip_norm <= 0:
            raise ValueError("stage-1 config values must be positive")
        if not 0.0 <= self.replace_prob <= 1.0:
            raise ValueError(f"replace_prob must be in [0,1], got {self.replace_prob}")


@dataclass
class Stage2Config:
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 0.5
    learning_rate: float = 1e-5
    clip_norm: float = 1e-2
    optimizer: str = "sgd"
    epochs: int = 1
    batch_size: int = 32
    max_len: int = 16
    tau_start: float = 0.5
    tau_end: float = 0.1
    gumbel_noise: bool = True
    seed: int = 0
    ablation: str = "full"

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("loss weights must be nonnegative")
        self.ablation = resolve_ablation(self.ablation)

    @property
    def variant(self) -> Variant:
        return VARIANTS[self.ablation]

    @property
    def uses_lms(self) -> bool:
        """Stage 2 reads the LMs: the variant keeps ``L_lm`` and gamma > 0."""
        return self.variant.lm and self.gamma > 0


@dataclass
class LossBreakdown:
    l_sr: float = 0.0
    l_xlambda: float = 0.0
    l_st: float = 0.0
    l_ylambda: float = 0.0
    l_cp: float = 0.0
    l_lm: float = 0.0
    total: float = 0.0
    grad_norm_preclip: float = 0.0


class TrainLog:
    """CSV log: one row per step, the step number then every ``LossBreakdown``
    field (all six losses, the total and the pre-clip norm)."""

    def __init__(self, path=None):
        self.path = path
        self.rows: list[dict] = []
        if path is not None:
            self._fh = open(path, "w", newline="", encoding="utf-8")
            self._writer = csv.DictWriter(
                self._fh, fieldnames=["step", *(f.name for f in fields(LossBreakdown))])
            self._writer.writeheader()
        else:
            self._fh = self._writer = None

    def record(self, step: int, br: LossBreakdown) -> None:
        row = {"step": step, **asdict(br)}
        self.rows.append(row)
        if self._writer is not None:
            self._writer.writerow(row)
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()


class LambdaTargetCache:
    """Propagation-derived relevance targets, computed once per sentence.

    Entries are keyed by (sentence, label) only: a cache is bound to the one
    classifier object and the one ``LrpConfig`` it was built with, and each
    stage function builds a fresh cache, so entries never outlive the
    classifier or mapping that produced them.
    """

    def __init__(self, classifier: TextCnnStyleClassifier, lrp_cfg: LrpConfig):
        self.classifier = classifier
        self.cfg = lrp_cfg
        self._store: dict[tuple, np.ndarray] = {}

    def precompute(self, corpus: LabeledCorpus, batch_size: int = 64) -> None:
        # input order: stage 1 trains on these; length order moves 8-16% of them, by <= 8.9e-16
        for lo in range(0, len(corpus), batch_size):
            seqs = corpus.sentences[lo:lo + batch_size]
            labels = np.asarray(corpus.labels[lo:lo + batch_size])
            self._compute(seqs, labels)

    def _compute(self, seqs, labels) -> np.ndarray:
        batch = pack_batch(seqs)
        with ad.no_grad():
            wr = hard_word_relevance(self.classifier, batch.enc_ids, batch.lengths,
                                     labels, self.cfg.eta, self.cfg.epsilon,
                                     self.cfg.stabilizer)
        lam = wr.lam.values
        for i, s in enumerate(seqs):
            self._store[(tuple(s), int(labels[i]))] = lam[i, :len(s)].copy()
        return lam

    def get_matrix(self, seqs, labels, width: int) -> np.ndarray:
        """(B, width) padded target matrix; missing entries recomputed on the fly."""
        out = np.zeros((len(seqs), width))
        missing = [i for i, s in enumerate(seqs)
                   if (tuple(s), int(labels[i])) not in self._store]
        if missing:
            self._compute([seqs[i] for i in missing],
                          np.asarray([labels[i] for i in missing]))
        for i, s in enumerate(seqs):
            lam = self._store[(tuple(s), int(labels[i]))]
            out[i, :len(lam)] = lam
        return out

    def batch_matrix(self, batch) -> np.ndarray:
        """Targets of a batch's source sentences, padded to its encoder width."""
        return self.get_matrix([s[:l] for s, l in zip(batch.enc_ids.tolist(), batch.lengths)],
                               batch.labels, batch.enc_ids.shape[1])


# ---------------------------------------------------------------------------
# stage 1


def relevance_error(pred: ad.Tensor, target: ad.Tensor, mask: np.ndarray,
                    lengths: np.ndarray) -> ad.Tensor:
    """(B,) word-relevance error: the squared differences of ``pred`` and
    ``target`` (both (B, T) tensors) summed under ``mask`` and divided by each
    sentence's length."""
    sq = ad.squared_error(pred, target) * constant(mask)
    return sq.sum(axis=1) * constant(1.0 / lengths)


def weighted_total(losses: dict, weights: dict) -> ad.Tensor:
    """The terms of ``losses`` summed in order, each times its entry in
    ``weights`` if it has one."""
    total = None
    for name, term in losses.items():
        if name in weights:
            term = weights[name] * term
        total = term if total is None else total + term
    return total


def stage1_losses(model: Seq2seqModel, batch, lam_x: np.ndarray, lxlambda: bool,
                  corrupted_enc_ids: np.ndarray | None = None) -> dict:
    """The stage-1 terms one batch trains, and their sum ``total``: the
    reconstruction cross-entropy ``l_sr`` and, when ``lxlambda``, the relevance
    reprediction error ``l_xlambda`` against the (B, T) targets ``lam_x``. The
    encoder reads ``corrupted_enc_ids`` when given."""
    logits, gates = model.teacher_forced_pass(batch, corrupted_enc_ids=corrupted_enc_ids)
    ce = ad.cross_entropy_with_indices(logits, batch.targets, batch.target_mask)
    losses = {"l_sr": ce.sum(axis=1).mean()}
    if lxlambda:
        lam_hat = gates[:, :lam_x.shape[1]]
        losses["l_xlambda"] = relevance_error(lam_hat, constant(lam_x), batch.token_mask,
                                              batch.lengths).mean()
    return {**losses, "total": weighted_total(losses, {})}


class Stage1Trainer:
    def __init__(self, model: Seq2seqModel, classifier: TextCnnStyleClassifier,
                 lam_cache: LambdaTargetCache, cfg: Stage1Config,
                 train_corpus: LabeledCorpus, dev_corpus: LabeledCorpus | None = None,
                 log: TrainLog | None = None):
        self.model = model
        self.classifier = classifier
        self.lam_cache = lam_cache
        self.cfg = cfg
        self.train_corpus = train_corpus
        self.dev_corpus = dev_corpus
        self.log = log or TrainLog()
        self.rng = np.random.default_rng(cfg.seed)
        groups = model.parameter_groups()
        names = groups["s2s"] + groups["head"]
        self.optimizer = ad.make_optimizer(cfg.optimizer,
                                           [model.params[k] for k in sorted(names)],
                                           cfg.learning_rate, cfg.clip_norm)
        self.step_count = 0

    def step(self, batch) -> LossBreakdown:
        corrupted = corrupt_batch(batch, self.model.vocab_size, self.cfg.replace_prob,
                                  self.rng)
        losses = stage1_losses(self.model, batch, self.lam_cache.batch_matrix(batch),
                               not self.cfg.lxlambda_off, corrupted)
        ad.backward(losses["total"])
        br = LossBreakdown(**{k: v.item() for k, v in losses.items()})
        br.grad_norm_preclip = self.optimizer.step()
        self.step_count += 1
        self.log.record(self.step_count, br)
        return br

    def evaluate(self, corpus: LabeledCorpus, batch_size: int = 64) -> dict:
        """Teacher-forced token accuracy and relevance MSE on clean input."""
        correct = tokens = 0
        mse_sum = 0.0
        with ad.no_grad():
            for _, batch in length_ordered_batches(corpus.sentences, batch_size, corpus.labels):
                logits, gates = self.model.teacher_forced_pass(batch)
                pred = logits.values.argmax(axis=2)
                correct += int(((pred == batch.targets) * batch.target_mask).sum())
                tokens += int(batch.target_mask.sum())
                lam_x = self.lam_cache.batch_matrix(batch)
                err = relevance_error(gates[:, :lam_x.shape[1]],
                                      constant(lam_x), batch.token_mask, batch.lengths)
                mse_sum += float(err.values.sum())
        return {"token_accuracy": correct / max(tokens, 1),
                "relevance_mse": mse_sum / max(len(corpus), 1)}

    def train(self) -> None:
        batcher = Batcher(self.train_corpus, self.cfg.batch_size, self.cfg.max_len,
                          seed=self.cfg.seed + 1)
        best = np.inf
        stall = 0
        for epoch in range(self.cfg.epochs):
            for batch in batcher.epoch():
                self.step(batch)
            if self.dev_corpus is None:
                continue
            metrics = self.evaluate(self.dev_corpus)
            dev_loss = (1.0 - metrics["token_accuracy"]) + metrics["relevance_mse"]
            logger.info("stage1 epoch %d: token_acc=%.4f rel_mse=%.5f",
                        epoch, metrics["token_accuracy"], metrics["relevance_mse"])
            if dev_loss < best - 1e-5:
                best, stall = dev_loss, 0
            else:
                stall += 1
                if stall >= self.cfg.patience:
                    logger.info("stage1 early stop at epoch %d", epoch)
                    break


# ---------------------------------------------------------------------------
# stage 2


def stage2_losses(model: Seq2seqModel, classifier: TextCnnStyleClassifier, lms: dict,
                  batch, lam_x: np.ndarray, source_style: int, tau: float,
                  noise: np.ndarray | None, cfg: Stage2Config, lrp_cfg: LrpConfig):
    """Soft generation of one single-style batch toward the other style, and
    the stage-2 objective over the generations of nonzero length.

    ``lam_x`` holds the batch's (B, T) relevance targets and ``noise`` the
    (max_len, B, V) gumbel noise, or None. Returns ``(soft, losses)``, where
    ``losses`` maps each term the run trains to a scalar tensor, and ``total``
    to ``l_st + alpha * l_ylambda + beta * l_cp + gamma * l_lm`` over those
    terms; it is None when every generation has length 0. A term is left out
    when its weight is 0, and ``l_ylambda`` and ``l_lm`` also under a variant
    without them.
    """
    variant = cfg.variant
    target_style = 1 - source_style
    B = batch.enc_ids.shape[0]
    soft = model.generate_soft(batch.enc_ids, batch.lengths, target_style,
                               max_len=cfg.max_len, tau=tau, gumbel_noise=noise,
                               gate_override=variant.gate_override)
    valid = soft.lengths > 0
    if not valid.any():
        return soft, None
    n_valid = int(valid.sum())
    vmask = constant(valid.astype(float))
    T = len(soft.rows)
    rows3 = soft.stacked_rows()
    gates = soft.stacked_gates()
    rmask = soft.length_mask()

    # transfer loss through the frozen classifier
    logits = classifier.classify_soft(rows3, soft.lengths)
    ce = ad.cross_entropy_with_indices(logits, np.full(B, target_style, dtype=np.int64))
    losses = {"l_st": (ce * vmask).sum() * (1.0 / n_valid)}

    # soft-word relevance consistency
    if variant.ylambda and cfg.alpha > 0:
        wr = soft_word_relevance(classifier, rows3, soft.lengths, target_style,
                                 lrp_cfg.eta, lrp_cfg.epsilon, lrp_cfg.stabilizer)
        per_sentence = relevance_error(gates, wr.lam[:, :T], rmask,
                                       np.maximum(soft.lengths, 1))
        losses["l_ylambda"] = (per_sentence * vmask).sum() * (1.0 / n_valid)

    # relevance-weighted content anchor
    if cfg.beta > 0:
        x_emb = model.embed(batch.enc_ids)
        if variant.lcp_prime:
            x_w = constant(batch.token_mask[:, :, None])
            y_w = constant(rmask[:, :, None])
        else:
            x_w = constant(((1.0 - np.abs(lam_x)) * batch.token_mask)[:, :, None])
            y_w = (1.0 - ad.absolute(gates)).reshape(B, T, 1) * constant(rmask[:, :, None])
        x_content = (x_emb * x_w).sum(axis=1)
        y_emb = ad.matmul(rows3, model.params["emb"])
        y_content = (y_emb * y_w).sum(axis=1)
        diff = x_content - y_content
        losses["l_cp"] = ((diff * diff).sum(axis=1) * vmask).sum() * (1.0 / n_valid)

    # fluency against the frozen directional models
    if cfg.uses_lms:
        losses["l_lm"] = fluency_loss(lms[(target_style, "forward")],
                                      lms[(target_style, "backward")], soft, target_style)

    weights = {"l_ylambda": cfg.alpha, "l_cp": cfg.beta, "l_lm": cfg.gamma}
    return soft, {**losses, "total": weighted_total(losses, weights)}


class Stage2Trainer:
    def __init__(self, model: Seq2seqModel, classifier: TextCnnStyleClassifier,
                 lms: dict, lam_cache: LambdaTargetCache, cfg: Stage2Config,
                 lrp_cfg: LrpConfig, train_corpus: LabeledCorpus,
                 log: TrainLog | None = None):
        """``lms`` maps (style, direction) -> DirectionalLanguageModel."""
        self.model = model
        self.classifier = classifier
        self.lms = lms
        self.lam_cache = lam_cache
        self.cfg = cfg
        self.lrp_cfg = lrp_cfg
        self.log = log or TrainLog()
        self.rng = np.random.default_rng(cfg.seed)
        self.skipped_sentences = 0
        self.step_count = 0

        self.classifier.set_trainable(False)
        for lm in self.lms.values():
            lm.set_trainable(False)
        groups = model.parameter_groups()
        self.trainable_names = sorted(n for g in cfg.variant.groups for n in groups[g])
        self.optimizer = ad.make_optimizer(cfg.optimizer,
                                           [model.params[k] for k in self.trainable_names],
                                           cfg.learning_rate, cfg.clip_norm)
        self.batchers = {
            s: Batcher(train_corpus.by_style(s), cfg.batch_size, cfg.max_len,
                       seed=cfg.seed + 10 + s)
            for s in (0, 1)
        }

    def tau_at(self, step: int, total_steps: int) -> float:
        if total_steps <= 1:
            return self.cfg.tau_start
        frac = min(step / (total_steps - 1), 1.0)
        return self.cfg.tau_start + (self.cfg.tau_end - self.cfg.tau_start) * frac

    def step(self, batch, source_style: int, tau: float | None = None) -> LossBreakdown:
        cfg = self.cfg
        tau = cfg.tau_start if tau is None else tau
        noise = None
        if cfg.gumbel_noise:
            noise = sample_gumbel(self.rng, (cfg.max_len, batch.enc_ids.shape[0],
                                             self.model.vocab_size))
        soft, losses = stage2_losses(self.model, self.classifier, self.lms, batch,
                                     self.lam_cache.batch_matrix(batch), source_style,
                                     tau, noise, cfg, self.lrp_cfg)
        self.skipped_sentences += int((soft.lengths == 0).sum())
        br = LossBreakdown()
        if losses is not None:
            ad.backward(losses["total"])
            br = LossBreakdown(**{k: v.item() for k, v in losses.items()})
            br.grad_norm_preclip = self.optimizer.step()
        self.step_count += 1
        self.log.record(self.step_count, br)
        return br

    def train(self, max_steps: int | None = None) -> None:
        """Alternate 0->1 and 1->0 batches with a linear temperature schedule."""
        per_epoch = sum(int(np.ceil(len(b.corpus) / self.cfg.batch_size))
                        for b in self.batchers.values())
        total = self.cfg.epochs * per_epoch if max_steps is None else max_steps
        step = 0
        for _ in range(self.cfg.epochs):
            iters = {s: self.batchers[s].epoch() for s in (0, 1)}
            live = {0, 1}
            turn = 0
            while live:
                if turn in live:
                    batch = next(iters[turn], None)
                    if batch is None:
                        live.discard(turn)
                    else:
                        self.step(batch, source_style=turn,
                                  tau=self.tau_at(step, total))
                        step += 1
                        if max_steps is not None and step >= max_steps:
                            return
                turn = 1 - turn
