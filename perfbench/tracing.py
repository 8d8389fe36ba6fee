"""Spans around calls into the program's modules, recorded from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent, trace id) in memory; nothing
inside the program changes. Counts are read from public attributes when a
call returns. A target that no longer exists is reported as missing and the
run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

STEP_SPANS = ("training.stage1_step", "training.stage2_step")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    trace: int
    end: float = 0.0
    child_time: float = 0.0
    hook_time: float = 0.0    # the tracer's own hooks, run while this span was open
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.hook_time


def _reachable_nodes(loss) -> int:
    """Nodes reachable from a loss tensor through its parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[Span] = []
        self.calls: dict[tuple[str, str | None], int] = defaultdict(int)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen_skips: dict[int, int] = {}

    # -- recording ------------------------------------------------------
    def _begin(self, name: str) -> Span:
        parent = self.open[-1] if self.open else None
        sid = len(self.spans)
        trace = sid if parent is None or name in STEP_SPANS else parent.trace
        span = Span(sid, name, time.perf_counter(), parent.sid if parent else None, trace)
        self.spans.append(span)
        self.open.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.open.pop()
        if self.open:
            self.open[-1].child_time += span.duration

    def _run_hook(self, hook, *args) -> dict | None:
        """Run a hook and keep its time out of every open span."""
        t0 = time.perf_counter()
        out = hook(self, *args)
        spent = time.perf_counter() - t0
        for s in self.open:
            s.hook_time += spent
        return out

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self.open)

    def wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            extra = tracer._run_hook(before, args, kwargs) if before else None
            span = tracer._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if extra:
                span.data.update(extra)
            if after:
                span.data.update(tracer._run_hook(after, args, out))
            return out

        return traced

    def count(self, fn, name: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[(name, tracer.open[-1].name if tracer.open else None)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------
    def install(self, targets) -> None:
        for module_name, qualname, name, hooks in targets:
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".", 1)
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if hooks == "count":
                wrapped = self.count(original, name)
            else:
                wrapped = self.wrap(original, name, **(hooks or {}))
            if owner is module:
                # names imported with ``from module import fn`` are bound in
                # the importing module too
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("restyle")
                            and getattr(mod, attr, None) is original):
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- hooks ----------------------------------------------------------
    @staticmethod
    def backward_nodes(tracer, args, kwargs):
        for stage in STEP_SPANS:
            if tracer.open and tracer.open[-1].name == stage:
                return {"nodes": _reachable_nodes(args[0]), "stage": stage}
        return None

    @staticmethod
    def optimizer_skips(tracer, args, out):
        opt = args[0]
        new = opt.skipped_steps - tracer._seen_skips.get(id(opt), 0)
        tracer._seen_skips[id(opt)] = opt.skipped_steps
        return {"skipped": new}

    @staticmethod
    def stage2_skips(tracer, args, kwargs):
        return {"skipped_before": args[0].skipped_sentences}

    @staticmethod
    def stage2_skips_after(tracer, args, out):
        return {"skipped_after": args[0].skipped_sentences}

    @staticmethod
    def soft_lengths(tracer, args, out):
        return {"mean_length": float(out.lengths.mean())}

    @staticmethod
    def precompute_size(tracer, args, kwargs):
        return {"sentences": len(args[1])}

    @staticmethod
    def lookup_misses(tracer, args, kwargs):
        if tracer.inside("training.targets_lookup"):
            return {"recomputed": int(args[1].shape[0])}
        return None

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON object per line, with its self time and
        the time of the tracer's hooks kept out of it."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                    "trace": s.trace, "start": s.start, "end": s.end,
                                    "self": s.duration - s.child_time, "hooks": s.hook_time,
                                    **s.data}) + "\n")


STAGE2_HOOKS = {"before": Tracer.stage2_skips, "after": Tracer.stage2_skips_after}

TARGETS = [
    ("restyle.autodiff", "backward", "autodiff.backward", {"before": Tracer.backward_nodes}),
    ("restyle.autodiff", "SgdOptimizer.step", "autodiff.optimizer",
     {"after": Tracer.optimizer_skips}),
    ("restyle.autodiff", "AdamOptimizer.step", "autodiff.optimizer",
     {"after": Tracer.optimizer_skips}),
    ("restyle.data", "corrupt", "data.corrupt", None),
    ("restyle.data", "Batcher.make_batch", "data.batch", None),
    ("restyle.textcnn", "TextCnnStyleClassifier.fit", "textcnn.fit", None),
    ("restyle.textcnn", "TextCnnStyleClassifier.classify_soft", "textcnn.soft", None),
    ("restyle.textcnn", "TextCnnStyleClassifier.predict", "textcnn.predict", None),
    ("restyle.lrp", "calibrate_eta", "lrp.calibrate", None),
    ("restyle.lrp", "hard_word_relevance", "lrp.hard", {"before": Tracer.lookup_misses}),
    ("restyle.lrp", "soft_word_relevance", "lrp.soft", None),
    ("restyle.training", "LambdaTargetCache.precompute", "lrp.targets",
     {"before": Tracer.precompute_size}),
    ("restyle.training", "LambdaTargetCache.get_matrix", "training.targets_lookup", None),
    ("restyle.seq2seq", "Seq2seqModel.teacher_forced_pass", "seq2seq.teacher_forced", None),
    ("restyle.seq2seq", "Seq2seqModel.generate_soft", "seq2seq.generate_soft",
     {"after": Tracer.soft_lengths}),
    ("restyle.seq2seq", "Seq2seqModel.generate_greedy", "seq2seq.greedy", None),
    ("restyle.seq2seq", "Seq2seqModel.decode_step", "seq2seq.decode_step", "count"),
    ("restyle.language_model", "DirectionalLanguageModel.fit", "language_model.fit", None),
    ("restyle.language_model", "fluency_loss", "language_model.fluency", None),
    ("restyle.training", "Stage1Trainer.step", "training.stage1_step", None),
    ("restyle.training", "Stage2Trainer.step", "training.stage2_step", STAGE2_HOOKS),
    ("restyle.pipeline", "transfer_sentences", "pipeline.transfer", None),
    ("restyle.pipeline", "evaluate_transfer", "pipeline.evaluate", None),
    ("restyle.metrics", "corpus_bleu", "metrics.bleu", None),
]


# ---------------------------------------------------------------------------
# per-layer metrics


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _under(tracer: Tracer, span: Span, names) -> Span | None:
    """Nearest ancestor of ``span`` whose name is in ``names``."""
    sid = span.parent
    while sid is not None:
        anc = tracer.spans[sid]
        if anc.name in names:
            return anc
        sid = anc.parent
    return None


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric, in seconds per call (per step or per batch)
    unless its unit says otherwise. A layer that never ran reads 0."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def per_call(name):
        return _mean(s.duration for s in by_name[name])

    def in_steps(name):
        return [s for s in by_name[name] if _under(tracer, s, STEP_SPANS)]

    stage2 = by_name["training.stage2_step"]
    update_time = defaultdict(float)
    for s in by_name["autodiff.backward"] + by_name["autodiff.optimizer"]:
        update_time[s.parent] += s.duration
    stage2_forward = [step.duration - update_time[step.sid] for step in stage2]
    stage1_steps = len(by_name["training.stage1_step"])
    corrupt_in_stage1 = [s.duration for s in by_name["data.corrupt"]
                         if _under(tracer, s, ("training.stage1_step",))]
    targets = by_name["lrp.targets"]
    greedy_calls = len(by_name["seq2seq.greedy"])
    nodes = {stage: [s.data["nodes"] for s in by_name["autodiff.backward"]
                     if s.data.get("stage") == stage] for stage in STEP_SPANS}

    out = {
        "autodiff.backward_s": _mean(s.duration for s in in_steps("autodiff.backward")),
        "autodiff.optimizer_s": _mean(s.duration for s in in_steps("autodiff.optimizer")),
        "autodiff.stage1_nodes": _mean(nodes["training.stage1_step"]),
        "autodiff.stage2_nodes": _mean(nodes["training.stage2_step"]),
        "autodiff.skipped_steps": sum(s.data.get("skipped", 0)
                                      for s in by_name["autodiff.optimizer"]),
        "data.corrupt_s": sum(corrupt_in_stage1) / stage1_steps if stage1_steps else 0.0,
        "data.batch_s": per_call("data.batch"),
        "textcnn.fit_s": per_call("textcnn.fit"),
        "textcnn.soft_s": per_call("textcnn.soft"),
        "textcnn.predict_s": per_call("textcnn.predict"),
        "lrp.calibrate_s": per_call("lrp.calibrate"),
        "lrp.targets_s": per_call("lrp.targets"),
        "lrp.targets_sents_per_s": (sum(s.data["sentences"] for s in targets)
                                    / sum(s.duration for s in targets)) if targets else 0.0,
        "lrp.target_misses": sum(s.data.get("recomputed", 0) for s in by_name["lrp.hard"]),
        "lrp.soft_s": per_call("lrp.soft"),
        "lrp.hard_s": per_call("lrp.hard"),
        "seq2seq.teacher_forced_s": per_call("seq2seq.teacher_forced"),
        "seq2seq.generate_soft_s": per_call("seq2seq.generate_soft"),
        "seq2seq.soft_len": _mean(s.data["mean_length"] for s in by_name["seq2seq.generate_soft"]),
        "seq2seq.greedy_s": per_call("seq2seq.greedy"),
        "seq2seq.greedy_steps": (tracer.calls[("seq2seq.decode_step", "seq2seq.greedy")]
                                 / greedy_calls) if greedy_calls else 0.0,
        "language_model.fit_s": per_call("language_model.fit"),
        "language_model.fluency_s": per_call("language_model.fluency"),
        "training.stage1_step_s": per_call("training.stage1_step"),
        "training.stage2_step_s": per_call("training.stage2_step"),
        "training.stage2_forward_s": _mean(stage2_forward),
        "training.skipped_sentences": sum(s.data["skipped_after"] - s.data["skipped_before"]
                                          for s in stage2),
        "pipeline.transfer_s": per_call("pipeline.transfer"),
        "pipeline.evaluate_s": per_call("pipeline.evaluate"),
        "metrics.bleu_s": per_call("metrics.bleu"),
        "trace.overhead_s": overhead_s,
        "trace.missing_spans": len(tracer.missing),
    }
    return out


UNITS = {"autodiff.stage1_nodes": "count", "autodiff.stage2_nodes": "count",
         "autodiff.skipped_steps": "count", "lrp.target_misses": "count",
         "lrp.targets_sents_per_s": "1/s", "seq2seq.soft_len": "tokens",
         "seq2seq.greedy_steps": "steps", "training.skipped_sentences": "count",
         "trace.missing_spans": "count"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")
