"""Compare the z-rule of two source checkouts on the benchmark's inputs.

    python3 tools/zrule_equivalence.py --parent ../restyle-parent --change . \
        --seeds 101 1345047681 --steps 8 --out equivalence.json

For each seed, every checkout runs in its own process with its own ``src/``
and ``perfbench/`` on the path:

* ``relevance``: the ``relevance`` workload's set-up (classifier, calibrated
  eta) and one round of ``hard_word_relevance`` over its 1,024 test sentences,
  followed by the workload's own checks (range, z-rule conservation, marker).
* ``stage2``: the parent checkout builds the ``finetune`` workload's models
  (classifier, eta, relevance targets, stage-1 model, LMs) once and pickles
  them; each checkout then loads that same start and takes ``--steps``
  stage-2 steps at the ``finetune`` settings, recording each step's loss total.

The result holds, per seed, the largest |lambda| and |raw relevance| gaps, the
eta of each checkout, the checks each passed, and per step the relative gap
between the two loss totals.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def _import_from(checkout: Path):
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import checks
    import workloads

    return checks, workloads


def worker_relevance(checkout: Path, seed: int, out: Path) -> None:
    checks, workloads = _import_from(checkout)
    w = workloads.Relevance(workloads.DEFAULT, seed)
    w.setup()
    w.round()
    log = checks.CheckLog()
    w.check(log)
    lams, raws, lens = w.out
    np.savez(out, eta=w.eta, passed=json.dumps(log.passed), failed=json.dumps(log.failed),
             **{f"lam{i}": a for i, a in enumerate(lams)},
             **{f"raw{i}": a for i, a in enumerate(raws)})


def worker_pretrain(checkout: Path, seed: int, out: Path) -> None:
    _, workloads = _import_from(checkout)
    corpus = workloads.make_corpus(workloads.DEFAULT, seed)
    models = workloads.pretrain(corpus, workloads.DEFAULT, seed)
    out.write_bytes(pickle.dumps(models))


def worker_stage2(checkout: Path, seed: int, models_path: Path, steps: int, out: Path) -> None:
    _, workloads = _import_from(checkout)
    corpus = workloads.make_corpus(workloads.DEFAULT, seed)
    models = pickle.loads(models_path.read_bytes())
    trainer = workloads.stage2_trainer(models, corpus, seed, workloads.FINETUNE_MAX_LEN)
    trainer.train(max_steps=steps)
    out.write_text(json.dumps([row["total"] for row in trainer.log.rows]))


def _run(*argv) -> None:
    # one BLAS thread, as in perfbench/run.py
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, __file__, *map(str, argv)], check=True, env=env)


def compare(parent: Path, change: Path, seed: int, steps: int, tmp: Path) -> dict:
    rel = {}
    for tag, checkout in (("parent", parent), ("change", change)):
        _run("--worker", "relevance", "--checkout", checkout, "--seed", seed,
             "--out", tmp / f"rel-{tag}.npz")
        rel[tag] = np.load(tmp / f"rel-{tag}.npz")
    n = sum(k.startswith("lam") for k in rel["parent"].files)
    parent, change = rel["parent"], rel["change"]
    gap = {kind: max(float(np.abs(parent[f"{kind}{i}"] - change[f"{kind}{i}"]).max())
                     for i in range(n))
           for kind in ("lam", "raw")}

    models = tmp / "models.pkl"
    _run("--worker", "pretrain", "--checkout", parent, "--seed", seed, "--out", models)
    totals = {}
    for tag, checkout in (("parent", parent), ("change", change)):
        out = tmp / f"stage2-{tag}.json"
        _run("--worker", "stage2", "--checkout", checkout, "--seed", seed, "--models", models,
             "--steps", steps, "--out", out)
        totals[tag] = json.loads(out.read_text())
    rel_gap = [abs(a - b) / abs(a) for a, b in zip(totals["parent"], totals["change"])]
    return {
        "seed": seed,
        "max_abs_lambda_gap": gap["lam"],
        "max_abs_raw_gap": gap["raw"],
        "eta": {tag: float(r["eta"]) for tag, r in rel.items()},
        "relevance_checks_passed": {tag: json.loads(str(r["passed"])) for tag, r in rel.items()},
        "relevance_checks_failed": {tag: json.loads(str(r["failed"])) for tag, r in rel.items()},
        "stage2_loss_totals": totals,
        "stage2_relative_gap_per_step": rel_gap,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[101])
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--out", type=Path)
    # internal: one checkout's side of a comparison
    ap.add_argument("--worker", choices=["relevance", "pretrain", "stage2"])
    ap.add_argument("--checkout", type=Path)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--models", type=Path)
    args = ap.parse_args(argv)

    if args.worker == "relevance":
        worker_relevance(args.checkout.resolve(), args.seed, args.out)
    elif args.worker == "pretrain":
        worker_pretrain(args.checkout.resolve(), args.seed, args.out)
    elif args.worker == "stage2":
        worker_stage2(args.checkout.resolve(), args.seed, args.models, args.steps, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            results = [compare(args.parent.resolve(), args.change.resolve(), seed, args.steps,
                               Path(tmp)) for seed in args.seeds]
        text = json.dumps(results, indent=2)
        if args.out:
            args.out.write_text(text + "\n")
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
