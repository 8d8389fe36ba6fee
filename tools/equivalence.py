"""Check that two source checkouts train the same numbers from one start.

    python3 tools/equivalence.py --parent ../restyle-parent --change . \
        --seeds 101 1345047681 --steps 8 --out EQUIV.json

For each seed the parent checkout builds the ``pretrain`` workload's models
(classifier, eta, relevance targets, stage-1 model, four LMs) and an untrained
sequence model, and pickles them. Each checkout then loads that same start in
its own process, with its own ``src/`` and ``perfbench/`` on the path, and
records:

* ``stage1``: the loss totals of ``--steps`` steps of ``Stage1Trainer`` on the
  untrained model at the ``Stage1Config`` defaults (SGD, corruption 0.15) with
  a fixed seed, and the model's final ``params_hash``;
* ``stage2``: the loss totals of ``--steps`` steps of ``Stage2Trainer`` on the
  stage-1 model at the ``finetune`` workload's settings (Adam), each step's
  terms ``l_st``, ``l_ylambda``, ``l_cp`` and ``l_lm``, and the model's final
  ``params_hash``;
* for both stages, every trained parameter's gradient at the first step,
  before clipping (kept beside the record, not in it);
* ``lm``: the dev perplexity of each pickled LM; and of each LM fit again with
  its workload settings and seed, with the refit weights' hash;
* ``classifier``: for the pickled classifier, the target-class logit, hard
  ``lambda`` and ``raw`` relevance of every test sentence (the ``relevance``
  workload's batches of 64 at the pickled eta), and the largest conservation
  error, ``|sum(raw) - total| / max(1, |total|)`` with ``total`` the logit
  less what the stabilizer keeps, as the benchmark's conservation check
  computes it with ``perfbench/reference.py``; and the per-step loss
  of a classifier fit with the workload's settings and seed, which starts
  from the same initial weights on both sides, with its final ``params_hash``;
* ``transfer``: for the pickled stage-1 model and for the model after the
  recorded stage-2 steps, the greedy token lists and gate matrices of the
  corpus's test sentences toward the opposite style, styled, with
  ``gate_override=0.0`` and with ``styled=False``. The output keeps a digest of
  the tokens, the number of outputs that contain PAD, the ``repr`` of the
  outputs' ``corpus_bleu`` against the corpus's test references, the count of
  sentences whose tokens differ, and the largest absolute gate gap over each
  sentence's decoded positions through its EOS step. A gate after a row's EOS
  step is not compared: it is 0 where decoding stops at EOS, and the gates of
  continued decoding where it does not. Each mode also keeps the decoded
  outputs and the report of ``evaluate_transfer`` on the same test sentences,
  which decodes both styles in one call where the per-style calls above
  decode one style each, and the count of outputs that differ;
* ``cli``: ``train-classifier``, ``train-lm``, ``train-stage1`` and
  ``train-stage2`` run through ``restyle.cli.main`` on a small generated
  corpus (the seed is the corpus seed and ``run.root_seed``) with a small
  config, then ``train-stage2`` again under each ``stage2.ablation`` of
  ``CLI_VARIANTS``, and ``train-stage1`` and ``train-stage2`` under
  ``no-lxlambda`` in a second run directory that starts from the first one's
  vocabulary, classifier and LMs; the ``params_hash`` of all fourteen
  checkpoints, the ``total`` column of every ``train_log`` CSV, a hash of the
  corpus files, the stdout of ``restyle gradcheck --coords-per-param 1``
  under every variant of ``training.VARIANTS``, and the records of
  ``restyle lrp-inspect`` for the corpus's test inputs (its
  ``lrp_inspect.jsonl``, or ``relevance.jsonl`` in a checkout that writes
  that). Those records round ``lambda`` to 6 and ``raw_relevance`` to 8
  decimals, so the record also holds the same sentences' ``lambda`` and
  ``raw`` unrounded, mapped as ``lrp-inspect`` maps them: the run's
  ``classifier.ckpt``, the mapping of its ``stage1.ckpt``, the classifier's
  predicted targets, and batches of 64 in length order.

The result holds, per seed, both records and whether the loss totals and
hashes are identical (the transfer records apart from their gates, the cli
record apart from its relevance, which is compared alone: whether the
``lrp-inspect`` records are identical, and the largest unrounded ``lambda``
gap and ``raw`` gap, the latter relative to the largest ``|raw|``), each
step's relative gap in the loss total and in each stage-2 term (absolute
where the parent's value is 0), the largest relative perplexity gap, and
per stage the first step's largest gradient gap relative to the parent
gradient's norm, ``max |g_change - g_parent| / ||g_parent||`` over each
parameter's entries. Both sides start from the same
values there, so that gap is the change's own rounding in the backward pass,
before an optimizer amplifies it from step to step. For the classifier it
holds the largest gaps in the pickled classifier's test logits (relative to
the largest logit), ``lambda`` and ``raw`` (relative to the largest ``|raw|``),
each side's largest conservation error, and each step's relative gap in the
fit's loss.
``tools/paired_bench.py summary --equivalence`` includes it in a BENCH file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

STAGE1_SEED = 7
STAGE2_TERMS = ("l_st", "l_ylambda", "l_cp", "l_lm")
TRANSFER_MODES = {"styled": {}, "gate_override_0": {"gate_override": 0.0},
                  "unstyled": {"styled": False}}
# stage-2 variants the cli record also trains: a decode-time gate, a
# parameter-group change, and three loss-term changes (``no-lm`` reads no LM)
CLI_VARIANTS = ("nsc-lambda", "no-finetune", "no-lm", "lcp-prime", "no-lylambda")

CLI_CONFIG = """
[run]
root_seed = {seed}

[data]
train_style0 = {corpus}/train.style0.txt
train_style1 = {corpus}/train.style1.txt
dev_style0 = {corpus}/dev.style0.txt
dev_style1 = {corpus}/dev.style1.txt
min_freq = 1

[classifier]
embed_dim = 24
num_filters = 12
epochs = 3

[lm]
embed_dim = 16
hidden_dim = 16
epochs = 2

[model]
embed_dim = 24
hidden_dim = 24
attn_dim = 24
head_dim = 12
style_dim = 8
mlp_dim = 16

[stage1]
epochs = 4
learning_rate = 2e-3
optimizer = adam
patience = 2

[stage2]
epochs = 1
learning_rate = 1e-3
clip_norm = 1.0
optimizer = adam
"""


def _import_from(checkout: Path):
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    return workloads


def worker_start(checkout: Path, seed: int, out: Path) -> None:
    workloads = _import_from(checkout)
    from restyle.seq2seq import Seq2seqModel

    corpus = workloads.make_corpus(workloads.DEFAULT, seed)
    models = workloads.pretrain(corpus, workloads.DEFAULT, seed)
    fresh = Seq2seqModel(len(corpus.vocab), seed=workloads.sub_seed(seed, 3))
    out.write_bytes(pickle.dumps((models, fresh)))


def record_first_grads(optimizer, params: dict) -> dict:
    """Make ``optimizer`` copy each of ``params``' gradients, before clipping,
    into the returned dict at its first step."""
    grads = {}
    step = optimizer.step
    trained = {id(p) for p in optimizer.params}

    def first_step():
        if not grads:
            grads.update({k: p.grad.copy() for k, p in params.items() if id(p) in trained})
        return step()

    optimizer.step = first_step
    return grads


def classifier_record(workloads, models, corpus, seed: int) -> dict:
    """The pickled classifier's test logits, hard relevance and conservation
    error, and the per-step loss of a fresh fit with the workload's seed."""
    import reference
    from restyle import autodiff, data
    from restyle.checkpoint import params_hash
    from restyle.textcnn import TextCnnStyleClassifier

    clf, test = models.clf, corpus.test
    labels = np.asarray(test.labels)
    lams, raws, lens = workloads.hard_relevance(clf, test.sentences, labels,
                                                models.lrp_cfg.eta)
    p = reference.arrays(clf.parameters())
    logits, lam, raw, errors = [], [], [], []
    with autodiff.no_grad():
        for i, ln in enumerate(lens):
            part = slice(i * workloads.LRP_BATCH, i * workloads.LRP_BATCH + len(ln))
            batch = data.pack_batch(test.sentences[part], min_width=max(clf.filter_widths))
            out = clf.forward_trace(batch.enc_ids, batch.lengths).logits.values
            logits.extend(out[np.arange(len(ln)), labels[part]].tolist())
            lam.extend(lams[i][b, :n].tolist() for b, n in enumerate(ln))
            raw.extend(raws[i][b, :n].tolist() for b, n in enumerate(ln))
            _, total = reference.zrule_total(p, reference.hard_embedding(p, batch.enc_ids), ln,
                                             clf.filter_widths, labels[part],
                                             models.lrp_cfg.stabilizer)
            errors.extend(np.abs(raws[i].sum(axis=1) - total) / np.maximum(1.0, np.abs(total)))

    fresh = TextCnnStyleClassifier(vocab_size=len(corpus.vocab),
                                   epochs=workloads.DEFAULT.clf_epochs,
                                   seed=workloads.sub_seed(seed, 1))
    losses, backward = [], autodiff.backward

    def recording(loss):
        losses.append(float(loss.values))
        backward(loss)

    autodiff.backward = recording
    try:
        fresh.fit(corpus.train.sentences, corpus.train.labels)
    finally:
        autodiff.backward = backward
    return {"logits": logits, "lambda": lam, "raw": raw,
            "max_conservation_error": float(max(errors)),
            "fit_losses": losses, "fit_params_hash": params_hash(fresh.params_)}


def classifier_gaps(parent: dict, change: dict) -> dict:
    """Largest gaps between the two sides' classifier records."""
    def flat(rec, key):
        return np.concatenate([np.asarray(r, dtype=float) for r in rec[key]])

    logit_p, logit_c = np.asarray(parent["logits"]), np.asarray(change["logits"])
    raw_p, raw_c = flat(parent, "raw"), flat(change, "raw")
    return {
        "test_sentences": len(logit_p),
        "max_relative_logit_gap": float(np.abs(logit_c - logit_p).max()
                                        / np.abs(logit_p).max()),
        "max_lambda_gap": float(np.abs(flat(change, "lambda") - flat(parent, "lambda")).max()),
        "max_raw_gap": float(np.abs(raw_c - raw_p).max()),
        "max_relative_raw_gap": float(np.abs(raw_c - raw_p).max() / np.abs(raw_p).max()),
        "max_conservation_error": {"parent": parent["max_conservation_error"],
                                   "change": change["max_conservation_error"]},
        "fit_relative_loss_gaps": loss_gaps(parent["fit_losses"], change["fit_losses"]),
        "fit_params_hash_identical": parent["fit_params_hash"] == change["fit_params_hash"],
    }


def transfer_record(model, clf, corpus, max_len: int) -> dict:
    """Per mode of ``TRANSFER_MODES``: greedy token lists and gate rows of the
    test sentences toward the opposite style, in input order, the number of
    outputs that contain PAD, and the ``repr`` of the decoded outputs'
    ``corpus_bleu`` against the test references, decoded as ``evaluate_transfer``
    decodes them; and ``evaluate_transfer``'s own decoded outputs and report."""
    from restyle.data import PAD
    from restyle.metrics import corpus_bleu
    from restyle.pipeline import evaluate_transfer, transfer_sentences

    labels = np.asarray(corpus.test.labels)
    record = {}
    for mode, kwargs in TRANSFER_MODES.items():
        tokens, gates = [None] * len(labels), [None] * len(labels)
        for style in (0, 1):
            idx = np.where(labels == style)[0]
            outs, rows = transfer_sentences(model, [corpus.test.sentences[i] for i in idx],
                                            1 - style, max_len=max_len, **kwargs)
            for i, out, row in zip(idx, outs, rows):
                tokens[i], gates[i] = out, row.tolist()
        decoded = [corpus.vocab.decode(t) if t else "" for t in tokens]
        raw = corpus.raw
        report, evaluated = evaluate_transfer(model, clf, corpus.vocab, raw.test_sentences,
                                              raw.test_labels, raw.test_references,
                                              max_len=max_len, **kwargs)
        record[mode] = {"tokens": tokens, "gates": gates,
                        "outputs_with_pad": sum(PAD in t for t in tokens),
                        "corpus_bleu": repr(corpus_bleu(decoded, raw.test_references)),
                        "evaluate_decoded": evaluated,
                        "evaluate_report": json.loads(report.to_json())}
    return record


def decoded_gate_gap(parent: dict, change: dict) -> float:
    """max |g_change - g_parent| over each sentence's gates up to and including
    its EOS step, as the parent decoded it."""
    return max((float(np.abs(np.subtract(gc[:len(t) + 1], gp[:len(t) + 1])).max())
                for t, gp, gc in zip(parent["tokens"], parent["gates"], change["gates"],
                                     strict=True)), default=0.0)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def worker_record(checkout: Path, seed: int, start: Path, steps: int, out: Path) -> None:
    workloads = _import_from(checkout)
    from restyle import data, training
    from restyle.checkpoint import params_hash
    from restyle.language_model import DirectionalLanguageModel

    corpus = workloads.make_corpus(workloads.DEFAULT, seed)
    models, fresh = pickle.loads(start.read_bytes())
    record = {}

    cfg = training.Stage1Config(max_len=workloads.MAX_LEN, seed=STAGE1_SEED)
    trainer = training.Stage1Trainer(fresh, models.clf, models.cache, cfg, corpus.train)
    batcher = data.Batcher(corpus.train, cfg.batch_size, cfg.max_len, seed=STAGE1_SEED)
    batches = itertools.chain.from_iterable(batcher.epoch() for _ in itertools.count())
    grads1 = record_first_grads(trainer.optimizer, fresh.params)
    for _ in range(steps):
        trainer.step(next(batches))
    record["stage1"] = {"loss_totals": [row["total"] for row in trainer.log.rows],
                        "params_hash": params_hash(fresh.params)}

    record["lm"] = {}
    for (style, direction), lm in models.lms.items():
        dev = corpus.dev.by_style(style).sentences
        refit = DirectionalLanguageModel(vocab_size=len(corpus.vocab), style=style,
                                         direction=direction, epochs=workloads.DEFAULT.lm_epochs,
                                         max_len=workloads.MAX_LEN, seed=lm.seed)
        refit.fit(corpus.train.by_style(style).sentences)
        record["lm"][f"{style}.{direction}"] = {
            "dev_perplexity": lm.perplexity(dev),
            "refit_dev_perplexity": refit.perplexity(dev),
            "refit_held_out_perplexity": refit.dev_perplexity_,
            "refit_weights_hash": refit.weights_hash()}

    record["classifier"] = classifier_record(workloads, models, corpus, seed)
    record["transfer"] = {"stage1": transfer_record(models.model, models.clf, corpus,
                                                    workloads.MAX_LEN)}
    trainer = workloads.stage2_trainer(models, corpus, seed, workloads.FINETUNE_MAX_LEN)
    grads2 = record_first_grads(trainer.optimizer, models.model.params)
    trainer.train(max_steps=steps)
    record["stage2"] = {"loss_totals": [row["total"] for row in trainer.log.rows],
                        "terms": {t: [row[t] for row in trainer.log.rows] for t in STAGE2_TERMS},
                        "params_hash": params_hash(models.model.params)}
    record["transfer"]["stage2"] = transfer_record(models.model, models.clf, corpus,
                                                   workloads.MAX_LEN)
    out.write_text(json.dumps(record))
    np.savez(grads_path(out), **{f"stage1/{k}": g for k, g in grads1.items()},
             **{f"stage2/{k}": g for k, g in grads2.items()})


def grads_path(record: Path) -> Path:
    return record.with_suffix(".grads.npz")


def gradient_gaps(parent: Path, change: Path, stage: str) -> dict:
    """Per parameter of ``stage``: max |g_change - g_parent| / ||g_parent||."""
    with np.load(grads_path(parent)) as p, np.load(grads_path(change)) as c:
        gaps = {}
        for key in p.files:
            if key.startswith(f"{stage}/"):
                norm = float(np.linalg.norm(p[key]))
                gap = float(np.abs(c[key] - p[key]).max())
                gaps[key.split("/", 1)[1]] = gap / norm if norm else gap
    worst = max(gaps, key=gaps.get)
    return {"max": gaps[worst], "param": worst, "per_param": gaps}


def loss_gaps(parent: list, change: list) -> list:
    """Per step |change - parent| / |parent|, or the absolute gap where the
    parent's value is 0."""
    return [abs(c - p) / abs(p) if p else abs(c - p)
            for p, c in zip(parent, change, strict=True)]


def worker_cli(checkout: Path, seed: int, work: Path, out: Path) -> None:
    sys.path.insert(0, str(checkout / "src"))
    from restyle.autodiff import parameter
    from restyle.checkpoint import load_checkpoint, params_hash
    from restyle.cli import load_model, main, stage1_lrp
    from restyle.data import Vocabulary, length_ordered_batches
    from restyle.lrp import hard_word_relevance
    from restyle.synthetic import generate_marker_corpus, write_corpus_files
    from restyle.training import VARIANTS

    corpus = work / "corpus"
    write_corpus_files(generate_marker_corpus(n_train=400, n_dev=80, n_test=40, seed=seed),
                       corpus)
    config = work / "config.ini"
    config.write_text(CLI_CONFIG.format(seed=seed, corpus=corpus))
    run_dir, no_lx_dir = work / "run", work / "run-no-lxlambda"

    def cli(run, *command) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--config", str(config), "--run-dir", str(run), *command])
        if code != 0:
            raise SystemExit(f"{' '.join(command)} failed in {checkout}")
        return stdout.getvalue()

    for command in ("train-classifier", "train-lm", "train-stage1", "train-stage2"):
        cli(run_dir, command)
    for variant in CLI_VARIANTS:
        cli(run_dir, "--set", f"stage2.ablation={variant}", "train-stage2")
    no_lx_dir.mkdir()
    for path in [run_dir / "vocab.txt", run_dir / "classifier.ckpt", *run_dir.glob("lm.*.ckpt")]:
        shutil.copy(path, no_lx_dir)
    for command in ("train-stage1", "train-stage2"):
        cli(no_lx_dir, "--set", "stage2.ablation=no-lxlambda", command)
    gradcheck = {variant: cli(run_dir, "--set", f"stage2.ablation={variant}", "gradcheck",
                              "--coords-per-param", "1")
                 for variant in VARIANTS}
    test_inputs = work / "test.input.txt"
    test_inputs.write_text("".join((corpus / f"test.style{s}.input.txt").read_text()
                                   for s in (0, 1)))
    cli(run_dir, "lrp-inspect", "--input", str(test_inputs))
    dump = run_dir / "lrp_inspect.jsonl"
    if not dump.exists():   # a checkout whose lrp-inspect writes relevance.jsonl
        dump = run_dir / "relevance.jsonl"
    lrp_inspect = [json.loads(line) for line in dump.read_text().splitlines()]
    vocab = Vocabulary.load(run_dir / "vocab.txt")
    clf, _ = load_model(run_dir / "classifier.ckpt", "classifier", vocab)
    lrp = stage1_lrp(run_dir / "stage1.ckpt")
    encoded = [vocab.encode(rec["sentence"]) for rec in lrp_inspect]
    targets = [int(t) for t in clf.predict(encoded)]
    unrounded = [None] * len(encoded)
    for rows, batch in length_ordered_batches(encoded, 64, targets):
        wr = hard_word_relevance(clf, batch.enc_ids, batch.lengths, batch.labels,
                                 eta=lrp.eta, epsilon=lrp.epsilon, stabilizer=lrp.stabilizer)
        for i, (row, n) in enumerate(zip(rows, batch.lengths)):
            unrounded[row] = {"lambda": wr.lam.values[i, :n].tolist(),
                              "raw": wr.raw.values[i, :n].tolist()}

    digest = hashlib.sha256()
    for path in sorted(corpus.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    record = {"corpus_hash": digest.hexdigest(), "params_hash": {}, "loss_totals": {},
              "gradcheck": gradcheck, "lrp_inspect": lrp_inspect,
              "lrp_inspect_unrounded": unrounded}
    for prefix, run, pattern in (("", run_dir, "*.ckpt"),
                                 ("no-lxlambda/", no_lx_dir, "stage*.ckpt")):
        for path in sorted(run.glob(pattern)):
            arrays = load_checkpoint(path)[1]
            record["params_hash"][prefix + path.name] = params_hash(
                {k: parameter(v) for k, v in arrays.items()})
        for path in sorted(run.glob("train_log.*.csv")):
            with open(path, newline="") as f:
                record["loss_totals"][prefix + path.name] = [float(row["total"])
                                                             for row in csv.DictReader(f)]
    out.write_text(json.dumps(record))


def _run(*argv) -> None:
    # one BLAS thread, as in perfbench/run.py
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, __file__, *map(str, argv)], check=True, env=env)


def compare(parent: Path, change: Path, seed: int, steps: int, tmp: Path) -> dict:
    start = tmp / "start.pkl"
    _run("--worker", "start", "--checkout", parent, "--seed", seed, "--out", start)
    rec = {}
    for tag, checkout in (("parent", parent), ("change", change)):
        out = tmp / f"record-{tag}.json"
        _run("--worker", "record", "--checkout", checkout, "--seed", seed, "--start", start,
             "--steps", steps, "--out", out)
        rec[tag] = json.loads(out.read_text())
        work = tmp / f"cli-{tag}-{seed}"   # a fresh run directory, vocabulary included
        _run("--worker", "cli", "--checkout", checkout, "--seed", seed, "--start", work,
             "--out", tmp / f"cli-{tag}.json")
        rec[tag]["cli"] = json.loads((tmp / f"cli-{tag}.json").read_text())
    p, c = rec["parent"], rec["change"]
    records = (tmp / "record-parent.json", tmp / "record-change.json")
    transfer_gaps = {f"{model}.{mode}": sum(a != b for a, b in zip(
        p["transfer"][model][mode]["tokens"], c["transfer"][model][mode]["tokens"], strict=True))
        for model in p["transfer"] for mode in TRANSFER_MODES}
    gate_gaps = {f"{model}.{mode}": decoded_gate_gap(p["transfer"][model][mode],
                                                     c["transfer"][model][mode])
                 for model in p["transfer"] for mode in TRANSFER_MODES}
    evaluate_gaps = {f"{model}.{mode}": sum(a != b for a, b in zip(
        p["transfer"][model][mode]["evaluate_decoded"],
        c["transfer"][model][mode]["evaluate_decoded"], strict=True))
        for model in p["transfer"] for mode in TRANSFER_MODES}

    def unrounded(rec, key):
        return np.concatenate([r[key] for r in rec["cli"]["lrp_inspect_unrounded"]])

    raw_p, raw_c = unrounded(p, "raw"), unrounded(c, "raw")
    lam_gap = float(np.abs(unrounded(c, "lambda") - unrounded(p, "lambda")).max())
    clf_gaps = classifier_gaps(p["classifier"], c["classifier"])
    for r in rec.values():
        r["classifier"] = {k: r["classifier"][k] for k in
                           ("max_conservation_error", "fit_losses", "fit_params_hash")}
        r["transfer"] = {model: {mode: {"sentences": len(v["tokens"]),
                                        "tokens_sha256": digest(v["tokens"]),
                                        "outputs_with_pad": v["outputs_with_pad"],
                                        "corpus_bleu": v["corpus_bleu"],
                                        "evaluate_decoded_sha256": digest(v["evaluate_decoded"]),
                                        "evaluate_report": v["evaluate_report"]}
                                 for mode, v in modes.items()}
                         for model, modes in r["transfer"].items()}
    ppl_gap = max(abs(p["lm"][k][f] - c["lm"][k][f]) / p["lm"][k][f]
                  for k in p["lm"]
                  for f in ("dev_perplexity", "refit_dev_perplexity", "refit_held_out_perplexity"))
    return {
        "seed": seed,
        "steps": steps,
        "stage1_identical": p["stage1"] == c["stage1"],
        "stage2_identical": p["stage2"] == c["stage2"],
        "stage1_relative_loss_gaps": loss_gaps(p["stage1"]["loss_totals"],
                                               c["stage1"]["loss_totals"]),
        "stage2_relative_loss_gaps": loss_gaps(p["stage2"]["loss_totals"],
                                               c["stage2"]["loss_totals"]),
        "stage2_relative_term_gaps": {t: loss_gaps(p["stage2"]["terms"][t],
                                                   c["stage2"]["terms"][t])
                                      for t in STAGE2_TERMS},
        "stage1_first_step_grad_gap": gradient_gaps(*records, "stage1"),
        "stage2_first_step_grad_gap": gradient_gaps(*records, "stage2"),
        "classifier": clf_gaps,
        "lm_refit_weights_identical": all(p["lm"][k]["refit_weights_hash"]
                                          == c["lm"][k]["refit_weights_hash"] for k in p["lm"]),
        "lm_max_relative_perplexity_gap": ppl_gap,
        "cli_identical": ({k: v for k, v in p["cli"].items() if not k.startswith("lrp_")}
                          == {k: v for k, v in c["cli"].items() if not k.startswith("lrp_")}),
        "cli_lrp_inspect_identical": p["cli"]["lrp_inspect"] == c["cli"]["lrp_inspect"],
        "cli_lrp_inspect_max_lambda_gap": lam_gap,
        "cli_lrp_inspect_max_relative_raw_gap": float(np.abs(raw_c - raw_p).max()
                                                      / np.abs(raw_p).max()),
        "transfer_identical": p["transfer"] == c["transfer"],
        "transfer_differing_sentences": transfer_gaps,
        "transfer_max_decoded_gate_gap": gate_gaps,
        "evaluate_transfer_differing_outputs": evaluate_gaps,
        **rec,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[101])
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--out", type=Path)
    # internal: one checkout's side of a comparison
    ap.add_argument("--worker", choices=["start", "record", "cli"])
    ap.add_argument("--checkout", type=Path)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--start", type=Path, help="start pickle; for cli, its work directory")
    args = ap.parse_args(argv)

    if args.worker == "start":
        worker_start(args.checkout.resolve(), args.seed, args.out)
    elif args.worker == "cli":
        worker_cli(args.checkout.resolve(), args.seed, args.start, args.out)
    elif args.worker == "record":
        worker_record(args.checkout.resolve(), args.seed, args.start, args.steps, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            results = [compare(args.parent.resolve(), args.change.resolve(), seed, args.steps,
                               Path(tmp)) for seed in args.seeds]
        text = json.dumps(results, indent=1)
        if args.out:
            args.out.write_text(text + "\n")
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
