"""Command-line entry point.

Subcommands: train-classifier, train-lm, train-stage1, train-stage2,
transfer, evaluate, lrp-inspect, gradcheck, ablate. Each reads its section of
the config file, writes artifacts into the run directory, and refreshes
manifest.json. Failures print one machine-parsable line ``error: <kind>:
<message>`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from restyle.checkpoint import (
    atomic_write,
    config_hash,
    file_hash,
    load_checkpoint,
    load_header,
    restore_params,
    save_checkpoint,
)
from restyle.config import ExperimentConfig, load_config
from restyle.data import (LabeledCorpus, Vocabulary, build_vocab, length_ordered_batches,
                          read_sentences)
from restyle.language_model import DirectionalLanguageModel
from restyle.lrp import hard_word_relevance
from restyle.metrics import build_report, corpus_bleu, transfer_accuracy
from restyle.pipeline import (
    decoded_words,
    encode_corpus,
    evaluate_transfer,
    maybe_lower,
    resolve_lrp,
    train_classifier,
    train_language_models,
    train_stage1,
    train_stage2,
    transfer_sentences,
)
from restyle.seq2seq import Seq2seqModel
from restyle.textcnn import TextCnnStyleClassifier
from restyle.training import VARIANTS, LrpConfig, TrainLog

EXIT_MISSING_DEPENDENCY = 3
EXIT_FAILURE = 1


class CliError(Exception):
    kind = "runtime"
    code = EXIT_FAILURE


class MissingDependencyError(CliError):
    kind = "missing-dependency"
    code = EXIT_MISSING_DEPENDENCY


class GradCheckFailure(CliError):
    kind = "gradcheck-failed"
    code = EXIT_FAILURE


# ---------------------------------------------------------------------------
# manifest


def update_manifest(run_dir: Path, cfg: ExperimentConfig, updates: dict) -> dict:
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    for key in ("artifacts", "corpus_hashes", "seeds"):
        manifest.setdefault(key, {})
    manifest["config"] = cfg.to_dict()
    manifest["config_hash"] = config_hash(cfg.to_dict())
    manifest["root_seed"] = cfg.root_seed
    manifest["blas"] = blas_record()
    for key, value in updates.items():
        if key in ("artifacts", "corpus_hashes", "seeds"):
            manifest[key].update(value)
        else:
            manifest[key] = value
    for name in manifest["artifacts"]:
        if not (run_dir / name).exists():
            raise CliError(f"manifest references missing artifact {name}")
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def blas_record() -> dict:
    """How BLAS ran: numpy's BLAS and LAPACK libraries, the thread-count
    variables (None when unset) and the CPU count."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = [deps[k].get("name") for k in ("blas", "lapack")]
    except (TypeError, KeyError):   # numpy before 1.26 has no mode="dicts"
        libs = []
    return {"libraries": libs, "cpu_count": os.cpu_count(),
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` whole, or leave the previous file."""
    with atomic_write(path) as f:
        f.write(text.encode("utf-8"))

def require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingDependencyError(f"{what} not found at {path}")
    return path


# ---------------------------------------------------------------------------
# corpora and artifacts


def load_or_build_vocab(run_dir: Path, cfg: ExperimentConfig) -> Vocabulary:
    vpath = run_dir / "vocab.txt"
    if vpath.exists():
        return Vocabulary.load(vpath)
    sentences = []
    for path in (cfg.data.train_style0, cfg.data.train_style1):
        if not path:
            raise CliError("data.train_style0/1 must be set to build a vocabulary")
        require(Path(path), "training corpus")
        sentences.extend(read_sentences(path))
    vocab = build_vocab(maybe_lower(sentences, cfg), min_freq=cfg.data.min_freq)
    vocab.save(vpath)
    return vocab


def load_split(cfg: ExperimentConfig, vocab: Vocabulary, split: str) -> LabeledCorpus:
    """The split's style-0 then style-1 sentences, each file nonempty."""
    sentences, labels = [], []
    for style in (0, 1):
        path = getattr(cfg.data, f"{split}_style{style}")
        if not path:
            raise CliError(f"data.{split}_style{style} must be set")
        lines = read_sentences(require(Path(path), f"{split} corpus"))
        if not lines:
            raise CliError(f"{split} corpus {path} (style {style}) has no sentences")
        sentences.extend(lines)
        labels.extend([style] * len(lines))
    return encode_corpus(cfg, vocab, sentences, labels)


MODELS = {"classifier": TextCnnStyleClassifier, "lm": DirectionalLanguageModel,
          "seq2seq": Seq2seqModel}


def save_model(path: Path, kind: str, model, vocab: Vocabulary, cfg: ExperimentConfig,
               **extra) -> None:
    """Checkpoint ``model``'s weights under a header of its kind, vocabulary,
    config, how BLAS ran, constructor parameters (less ``vocab_size``) and
    ``extra``."""
    params = model.get_params()
    del params["vocab_size"]
    header = {"kind": kind, "vocab_hash": vocab.content_hash(),
              "config_hash": config_hash(cfg.to_dict()), "blas": blas_record(), **params,
              **extra}
    save_checkpoint(path, model.parameters(), header)


def load_model(path: Path, kind: str, vocab: Vocabulary, what: str | None = None):
    """``(model, header)`` of a ``kind`` checkpoint trained on ``vocab``; the
    model is rebuilt from the header keys that are constructor parameters.
    ``what`` names the checkpoint in errors."""
    what = what or f"{kind} checkpoint"
    header, arrays = load_checkpoint(require(path, what))
    if header.get("kind") != kind:
        raise CliError(f"{path} is not a {kind} checkpoint")
    if header["vocab_hash"] != vocab.content_hash():
        raise CliError(f"{what} {path} was trained on a different vocabulary")
    cls = MODELS[kind]
    names = cls._param_names()
    model = cls(vocab_size=len(vocab), **{k: v for k, v in header.items() if k in names})
    if hasattr(model, "_init_params"):   # the estimators build their weights in fit
        model._init_params()
    restore_params(model.parameters(), arrays)
    return model, header


def stage1_lrp(path: Path) -> LrpConfig:
    """The LRP mapping the stage-1 checkpoint at ``path`` trained with, read
    from its header alone. A header written before the stabilizer was recorded
    reads as the default stabilizer."""
    header = load_header(path)
    return LrpConfig(eta=float(header["eta"]), epsilon=float(header["epsilon"]),
                     stabilizer=float(header.get("stabilizer", LrpConfig.stabilizer)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_train_classifier(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    vocab = load_or_build_vocab(run_dir, cfg)
    clf = train_classifier(cfg, len(vocab), load_split(cfg, vocab, "train"))
    save_model(run_dir / "classifier.ckpt", "classifier", clf, vocab, cfg)
    update_manifest(run_dir, cfg, {
        "artifacts": {"classifier.ckpt": file_hash(run_dir / "classifier.ckpt"),
                      "vocab.txt": file_hash(run_dir / "vocab.txt")},
        "corpus_hashes": {f"train.style{s}": file_hash(getattr(cfg.data, f"train_style{s}"))
                          for s in (0, 1)},
        "seeds": {"classifier": clf.seed},
        "classifier_dev_accuracy": clf.dev_accuracy_,
    })
    print(f"classifier trained: held-out accuracy {clf.dev_accuracy_:.4f}")
    return 0


def cmd_train_lm(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    vocab = load_or_build_vocab(run_dir, cfg)
    train = load_split(cfg, vocab, "train")
    styles = [args.style] if args.style is not None else [0, 1]
    directions = [args.direction] if args.direction else ["forward", "backward"]
    lms = train_language_models(cfg, len(vocab), train, styles, directions)
    updates = {"artifacts": {}, "seeds": {}}
    for (style, direction), lm in lms.items():
        name = f"lm.{style}.{direction}.ckpt"
        save_model(run_dir / name, "lm", lm, vocab, cfg)
        updates["artifacts"][name] = file_hash(run_dir / name)
        updates["seeds"][f"lm.{style}.{direction}"] = lm.seed
        print(f"lm style={style} direction={direction}: "
              f"held-out perplexity {lm.dev_perplexity_:.3f}")
    update_manifest(run_dir, cfg, updates)
    return 0


def cmd_train_stage1(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    vocab = load_or_build_vocab(run_dir, cfg)
    clf, _ = load_model(run_dir / "classifier.ckpt", "classifier", vocab)
    train = load_split(cfg, vocab, "train")
    dev = load_split(cfg, vocab, "dev") if cfg.data.dev_style0 else None
    log = TrainLog(run_dir / "train_log.stage1.csv")
    model, lrp, metrics = train_stage1(cfg, len(vocab), clf, train, dev, log)
    log.close()
    save_model(run_dir / "stage1.ckpt", "seq2seq", model, vocab, cfg, stage=1, **asdict(lrp),
               lxlambda_off=cfg.stage1.lxlambda_off)
    update_manifest(run_dir, cfg, {
        "artifacts": {"stage1.ckpt": file_hash(run_dir / "stage1.ckpt")},
        "seeds": {"stage1": cfg.stage1.seed},
        "eta": lrp.eta,
        "stage1_metrics": metrics,
    })
    print(f"stage1 trained: token_accuracy {metrics['token_accuracy']:.4f} "
          f"relevance_mse {metrics['relevance_mse']:.5f} (eta {lrp.eta:.4f})")
    return 0


def load_stage1(run_dir: Path, cfg: ExperimentConfig, vocab: Vocabulary) -> Seq2seqModel:
    """The run's ``stage1.ckpt`` model, refused unless its header's
    ``lxlambda_off`` (False when absent) is the variant's."""
    model, header = load_model(run_dir / "stage1.ckpt", "seq2seq", vocab, "stage1 checkpoint")
    off = cfg.stage1.lxlambda_off
    if header.get("lxlambda_off", False) != off:
        name = cfg.stage2.ablation
        raise CliError(f"variant {name} needs a stage1.ckpt trained with "
                       f"stage1.lxlambda_off = {str(off).lower()}; retrain stage 1 under "
                       f"stage2.ablation = {name} first")
    return model


def run_stage2(run_dir: Path, cfg: ExperimentConfig, vocab: Vocabulary) -> Seq2seqModel:
    """Fine-tune the run's stage-1 model as the variant ``stage2.ablation`` says
    and save it as ``stage2.ckpt``, or ``stage2.<variant>.ckpt`` for an
    ablation; returns the model. It maps relevance as the ``stage1.ckpt``
    header records, whatever this config's ``[lrp]`` says, and reads the LMs
    only if ``uses_lms``."""
    name = cfg.stage2.ablation
    if not cfg.stage2.variant.nsc:
        raise CliError(f"variant {name} has no stage-2 training; evaluate stage1.ckpt instead")
    clf, _ = load_model(run_dir / "classifier.ckpt", "classifier", vocab)
    model = load_stage1(run_dir, cfg, vocab)
    lrp = stage1_lrp(run_dir / "stage1.ckpt")
    lms = {}
    if cfg.stage2.uses_lms:
        lms = {(s, d): load_model(run_dir / f"lm.{s}.{d}.ckpt", "lm", vocab)[0]
               for s in (0, 1) for d in ("forward", "backward")}
    train = load_split(cfg, vocab, "train")
    suffix = "" if name == "full" else f".{name}"
    log = TrainLog(run_dir / f"train_log.stage2{suffix}.csv")
    trainer = train_stage2(cfg, model, clf, lms, lrp, train, log)
    log.close()
    ckpt = f"stage2{suffix}.ckpt"
    save_model(run_dir / ckpt, "seq2seq", model, vocab, cfg, stage=2, **asdict(lrp),
               ablation=name)
    update_manifest(run_dir, cfg, {
        "artifacts": {ckpt: file_hash(run_dir / ckpt)},
        "seeds": {"stage2": cfg.stage2.seed},
        "stage2_skipped_sentences": trainer.skipped_sentences,
    })
    print(f"stage2 trained ({name}): {trainer.step_count} steps, "
          f"{trainer.skipped_sentences} zero-length sentences skipped")
    return model


def cmd_train_stage2(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    run_stage2(run_dir, cfg, load_or_build_vocab(run_dir, cfg))
    return 0


def read_lines(source) -> list[str]:
    """Every line of the file ``source`` ('-' for stdin), stripped, blank ones
    kept, so that line i of a file aligned with it answers line i."""
    if str(source) == "-":
        return [line.strip() for line in sys.stdin]
    with open(source, encoding="utf-8") as f:
        return [line.strip() for line in f]


def cmd_transfer(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    vocab = Vocabulary.load(require(run_dir / "vocab.txt", "vocabulary"))
    ckpt = Path(args.checkpoint) if args.checkpoint else run_dir / "stage2.ckpt"
    model, header = load_model(ckpt, "seq2seq", vocab, "stage2 checkpoint")
    sentences = maybe_lower(read_lines(args.input), cfg)
    if not any(sentences):
        raise CliError("no input sentences")
    # a stage-2 model decodes as its variant trained, a stage-1 model unstyled
    decoding = (VARIANTS[header.get("ablation", "full")].decoding
                if header.get("stage", 2) == 2 else {"styled": False})
    # a blank input line is not decoded and gets a blank output line
    kept = [i for i, s in enumerate(sentences) if s]
    toks, gate_rows = transfer_sentences(model, [vocab.encode(sentences[i]) for i in kept],
                                         args.target_style, max_len=cfg.data.max_len,
                                         **decoding)
    outputs, gates = [[] for _ in sentences], [[] for _ in sentences]
    for i, out, g in zip(kept, toks, gate_rows):
        outputs[i], gates[i] = out, g
    decoded = [vocab.decode(o) for o in outputs]
    out_path = Path(args.output) if args.output else run_dir / "outputs.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_path, "".join(line + "\n" for line in decoded))
    if args.dump_relevance:
        records = []
        for src, out, g in zip(sentences, outputs, gates):
            tokens, lam = decoded_words(vocab, out, g)
            lam = [round(x, 6) for x in lam]
            records.append({"input": src, "output_tokens": tokens, "lambda": lam})
            for tok, x in zip(tokens, lam):
                print(f"{tok}\t{x:.4f}")
            print()
        write_text_atomic(run_dir / "relevance.jsonl",
                          "".join(json.dumps(rec) + "\n" for rec in records))
    for line in decoded:
        print(line)
    artifacts = {}
    if args.dump_relevance:
        artifacts["relevance.jsonl"] = file_hash(run_dir / "relevance.jsonl")
    # an output file is a run artifact only inside the run directory
    out, run = out_path.resolve(), run_dir.resolve()
    if run in out.parents:
        artifacts[out.relative_to(run).as_posix()] = file_hash(out_path)
    if artifacts and run_dir.joinpath("manifest.json").exists():
        update_manifest(run_dir, cfg, {"artifacts": artifacts})
    return 0


def cmd_evaluate(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    vocab = Vocabulary.load(require(run_dir / "vocab.txt", "vocabulary"))
    clf, _ = load_model(Path(args.classifier) if args.classifier
                        else run_dir / "classifier.ckpt", "classifier", vocab)
    # transfer writes an empty output as an empty line
    outputs = maybe_lower(read_lines(require(Path(args.outputs), "outputs file")), cfg)
    references = read_references(cfg, args.refs, "--refs", len(outputs), "outputs")
    acc = transfer_accuracy([vocab.encode(s) for s in outputs],
                            [args.target_style] * len(outputs), clf)
    bleu = corpus_bleu(outputs, references, smooth=args.smooth_bleu)
    report = build_report(acc, bleu, len(outputs))
    write_text_atomic(run_dir / "metrics.json", report.to_json())
    print(report.to_table())
    if run_dir.joinpath("manifest.json").exists():
        update_manifest(run_dir, cfg, {
            "artifacts": {"metrics.json": file_hash(run_dir / "metrics.json")},
            "metrics": json.loads(report.to_json()),
        })
    return 0


def cmd_lrp_inspect(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    vocab = Vocabulary.load(require(run_dir / "vocab.txt", "vocabulary"))
    clf, _ = load_model(Path(args.classifier) if args.classifier
                        else run_dir / "classifier.ckpt", "classifier", vocab)
    sentences = [s for s in maybe_lower(read_lines(args.input), cfg) if s]
    if not sentences:
        raise CliError("no input sentences")
    encoded = [vocab.encode(s) for s in sentences]
    if args.target_style == "pred":
        targets = [int(t) for t in clf.predict(encoded)]
    else:
        targets = [int(args.target_style)] * len(sentences)
    # the run's mapping was calibrated on the run's classifier, not on
    # --classifier; --eta stands for lrp.eta
    stage1 = run_dir / "stage1.ckpt"
    if args.eta:
        cfg.lrp.eta = float(args.eta)
    if args.eta or args.classifier or not stage1.exists():
        lrp = resolve_lrp(cfg, clf, LabeledCorpus(encoded, targets))
    else:
        lrp = stage1_lrp(stage1)
    if args.epsilon is not None:
        lrp = replace(lrp, epsilon=args.epsilon)
    relevance = [None] * len(sentences)
    for rows, batch in length_ordered_batches(encoded, 64, targets):
        wr = hard_word_relevance(clf, batch.enc_ids, batch.lengths, batch.labels,
                                 eta=lrp.eta, epsilon=lrp.epsilon, stabilizer=lrp.stabilizer)
        for i, (row, n) in enumerate(zip(rows, batch.lengths)):
            relevance[row] = wr.lam.values[i, :n], wr.raw.values[i, :n]
    records = []
    for sentence, target, (lam, raw) in zip(sentences, targets, relevance):
        tokens = sentence.split()
        for tok, l, r in zip(tokens, lam, raw):
            print(f"{tok}\t{l:.4f}\t{r:.6f}")
        print()
        records.append({"sentence": sentence, "target_style": target, "tokens": tokens,
                        "lambda": [round(float(x), 6) for x in lam],
                        "raw_relevance": [round(float(x), 8) for x in raw],
                        "eta": lrp.eta, "epsilon": lrp.epsilon})
    # its own file: transfer --dump-relevance writes relevance.jsonl
    write_text_atomic(run_dir / "lrp_inspect.jsonl",
                      "".join(json.dumps(rec) + "\n" for rec in records))
    if run_dir.joinpath("manifest.json").exists():
        update_manifest(run_dir, cfg, {
            "artifacts": {"lrp_inspect.jsonl": file_hash(run_dir / "lrp_inspect.jsonl")}})
    return 0


def cmd_gradcheck(args, cfg: ExperimentConfig) -> int:
    from restyle.gradcheck import run_gradient_suite

    results = run_gradient_suite(seed=args.seed, max_coords_per_param=args.coords_per_param,
                                 stage2=cfg.stage2)
    worst = results.pop("max_relative_error")
    print(f"variant {cfg.stage2.ablation}")
    for loss_name, per in results.items():
        worst_param = max(per, key=per.get)
        print(f"{loss_name:12s} max_rel_error {per[worst_param]:.3e} ({worst_param})")
    print(f"overall max relative error: {worst:.3e}")
    if not worst < args.threshold:
        raise GradCheckFailure(
            f"max relative error {worst:.3e} exceeds threshold {args.threshold}")
    return 0


def cmd_ablate(args, cfg: ExperimentConfig) -> int:
    run_dir = Path(args.run_dir)
    vocab = Vocabulary.load(require(run_dir / "vocab.txt", "vocabulary"))
    clf, _ = load_model(run_dir / "classifier.ckpt", "classifier", vocab)
    name, variant = cfg.stage2.ablation, cfg.stage2.variant
    test = load_split(cfg, vocab, "test")
    references = _load_references(cfg, test)

    if variant.nsc:
        model = run_stage2(run_dir, cfg, vocab)
    else:
        model = load_stage1(run_dir, cfg, vocab)
    sentences = [vocab.decode(s) for s in test.sentences]
    report, _ = evaluate_transfer(model, clf, vocab, sentences, test.labels,
                                  references, max_len=cfg.data.max_len, **variant.decoding)
    csv_path = run_dir / "ablations.csv"
    new = not csv_path.exists()
    with open(csv_path, "a", encoding="utf-8") as f:
        if new:
            f.write("variant,acc,bleu,g2,h2,n_sentences\n")
        f.write(f"{name},{report.acc:.2f},{report.bleu:.2f},{report.g2:.2f},"
                f"{report.h2:.2f},{report.n_sentences}\n")
    print(report.to_table())
    update_manifest(run_dir, cfg, {
        "artifacts": {"ablations.csv": file_hash(csv_path)},
        f"ablation_{name}": json.loads(report.to_json()),
    })
    return 0


def read_references(cfg: ExperimentConfig, files: str, key: str, n: int,
                    what: str) -> list[list[str]]:
    """One row of references per sentence from the comma-separated ``files``
    (the value of ``key``), each holding one line for each of the ``n``
    sentences ``what`` names."""
    paths = [p for p in files.split(",") if p]
    if not paths:
        raise CliError(f"{key} must list reference files")
    cols = []
    for p in paths:
        col = maybe_lower(read_lines(require(Path(p), "reference file")), cfg)
        if len(col) != n:
            raise CliError(f"reference file {p} has {len(col)} lines for the {n} {what}")
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _load_references(cfg: ExperimentConfig, test: LabeledCorpus) -> list:
    """References aligned with the test corpus order (style0 rows then style1)."""
    rows = {style: iter(read_references(
        cfg, getattr(cfg.data, f"test_refs_style{style}"), f"data.test_refs_style{style}",
        test.labels.count(style), f"style-{style} test sentences")) for style in (0, 1)}
    return [next(rows[label]) for label in test.labels]


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restyle",
        description="Relevance-gated unsupervised text style transfer")
    parser.add_argument("--config", help="INI config file (flat key = value sections)")
    parser.add_argument("--run-dir", default="runs/default",
                        help="directory for checkpoints, logs and the manifest")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config value")
    parser.add_argument("--log-level", type=str.upper, default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="messages logged to stderr from this level on (INFO adds "
                             "per-epoch training metrics)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train-classifier", help="pre-train the style classifier")

    p = sub.add_parser("train-lm", help="pre-train directional language models")
    p.add_argument("--style", type=int, choices=(0, 1), default=None,
                   help="style to train (default: both)")
    p.add_argument("--direction", choices=("forward", "backward"), default=None,
                   help="direction to train (default: both)")

    sub.add_parser("train-stage1", help="denoising reconstruction + relevance reprediction")

    sub.add_parser("train-stage2", help="fine-tune the style component")

    p = sub.add_parser("transfer", help="rewrite sentences toward a target style")
    p.add_argument("--target-style", type=int, choices=(0, 1), required=True)
    p.add_argument("--input", default="-", help="sentence file ('-' for stdin)")
    p.add_argument("--output", default=None, help="output file (default run dir)")
    p.add_argument("--checkpoint", default=None, help="model checkpoint to decode with")
    p.add_argument("--dump-relevance", action="store_true",
                   help="emit per-token relevance alongside output tokens")

    p = sub.add_parser("evaluate", help="score outputs against references")
    p.add_argument("--outputs", required=True)
    p.add_argument("--refs", required=True, help="comma-separated reference files")
    p.add_argument("--classifier", default=None)
    p.add_argument("--target-style", type=int, choices=(0, 1), required=True)
    p.add_argument("--smooth-bleu", action="store_true")

    p = sub.add_parser("lrp-inspect", help="per-word style relevance of input sentences")
    p.add_argument("--input", default="-")
    p.add_argument("--classifier", default=None)
    p.add_argument("--target-style", default="pred",
                   help="0, 1, or 'pred' for the classifier's own prediction")
    p.add_argument("--eta", default=None,
                   help="scaling factor, mapped with lrp.epsilon and lrp.stabilizer "
                        "(default: the eta, epsilon and stabilizer the run's stage1.ckpt "
                        "records, else, or with --classifier, [lrp]'s, an 'auto' eta "
                        "calibrated on the input against the explained labels)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="relevance mapping epsilon, in place of the stage-1 checkpoint's "
                        "or lrp.epsilon")

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the losses stage2.ablation trains")
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords-per-param", type=int, default=4)

    sub.add_parser("ablate", help="train and score the ablation variant stage2.ablation")
    return parser


COMMANDS = {
    "train-classifier": cmd_train_classifier,
    "train-lm": cmd_train_lm,
    "train-stage1": cmd_train_stage1,
    "train-stage2": cmd_train_stage2,
    "transfer": cmd_transfer,
    "evaluate": cmd_evaluate,
    "lrp-inspect": cmd_lrp_inspect,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # force: each run in one process logs to the stderr of its own call
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s",
                        force=True)
    try:
        overrides = {}
        for item in args.set:
            key, _, value = item.partition("=")
            if not _ or not key.strip():
                raise CliError(f"bad --set value {item!r}, expected SECTION.KEY=VALUE")
            overrides[key.strip()] = value.strip()
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](args, cfg)
    except CliError as e:
        print(f"error: {e.kind}: {e}", file=sys.stderr)
        return e.code
    except (ValueError, FileNotFoundError, RuntimeError) as e:
        print(f"error: runtime: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
