import json
import logging
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from restyle.autodiff import parameter
from restyle.cli import main
from restyle.synthetic import generate_marker_corpus, write_corpus_files


@pytest.fixture(autouse=True)
def restore_root_logger():
    """``main`` sets up the root logger on every call, with a handler on the
    stderr of that call; put it back after each test, so that no handler
    outlives the test's captured stderr."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    yield
    root.handlers[:] = handlers
    root.setLevel(level)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Tiny corpus on disk plus a config file sized for fast CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    corpus = generate_marker_corpus(n_train=400, n_dev=80, n_test=40, seed=3)
    write_corpus_files(corpus, corpus_dir)
    cfg_path = root / "config.ini"
    cfg_path.write_text(f"""
[run]
root_seed = 11

[data]
train_style0 = {corpus_dir}/train.style0.txt
train_style1 = {corpus_dir}/train.style1.txt
dev_style0 = {corpus_dir}/dev.style0.txt
dev_style1 = {corpus_dir}/dev.style1.txt
test_style0 = {corpus_dir}/test.style0.txt
test_style1 = {corpus_dir}/test.style1.txt
test_refs_style0 = {",".join(str(corpus_dir / f"test.style0.ref{r}.txt") for r in range(4))}
test_refs_style1 = {",".join(str(corpus_dir / f"test.style1.ref{r}.txt") for r in range(4))}
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
gumbel_noise = false
""")
    run_dir = root / "run"
    return {"root": root, "config": str(cfg_path), "run_dir": str(run_dir),
            "corpus_dir": corpus_dir, "corpus": corpus}


def run_cli(cli_env, *argv):
    return main(["--config", cli_env["config"], "--run-dir", cli_env["run_dir"],
                 *argv])


def copy_run(cli_env, dest, names):
    """A run directory holding copies of ``names`` from the cli_env run."""
    dest.mkdir()
    for name in names:
        (dest / name).write_bytes((Path(cli_env["run_dir"]) / name).read_bytes())
    return dest


def checkpoint_hash(path):
    from restyle.checkpoint import load_checkpoint, params_hash

    _, arrays = load_checkpoint(path)
    return params_hash({k: parameter(v) for k, v in arrays.items()})


LM_NAMES = [f"lm.{s}.{d}.ckpt" for s in (0, 1) for d in ("forward", "backward")]


class TestPipelineCommands:
    def test_01_missing_dependency_named(self, cli_env, capsys):
        rc = run_cli(cli_env, "train-stage1")
        captured = capsys.readouterr()
        assert rc == 3
        assert "error: missing-dependency:" in captured.err
        assert "classifier" in captured.err

    def test_02_train_classifier(self, cli_env, capsys):
        assert run_cli(cli_env, "train-classifier") == 0
        out = capsys.readouterr().out
        assert "held-out accuracy" in out
        run_dir = Path(cli_env["run_dir"])
        assert (run_dir / "classifier.ckpt").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "classifier.ckpt" in manifest["artifacts"]
        assert manifest["classifier_dev_accuracy"] > 0.9

    def test_03_train_lms(self, cli_env):
        assert run_cli(cli_env, "train-lm") == 0
        run_dir = Path(cli_env["run_dir"])
        for style in (0, 1):
            for direction in ("forward", "backward"):
                assert (run_dir / f"lm.{style}.{direction}.ckpt").exists()

    def test_04_train_stage1(self, cli_env, capsys):
        assert run_cli(cli_env, "train-stage1") == 0
        out = capsys.readouterr().out
        assert "token_accuracy" in out
        run_dir = Path(cli_env["run_dir"])
        assert (run_dir / "stage1.ckpt").exists()
        assert (run_dir / "train_log.stage1.csv").exists()
        header = (run_dir / "train_log.stage1.csv").read_text().splitlines()[0]
        assert header == "step,l_sr,l_xlambda,l_st,l_ylambda,l_cp,l_lm,total,grad_norm_preclip"

    def test_04b_log_level_prints_epoch_metrics(self, cli_env, capsys, tmp_path):
        run = copy_run(cli_env, tmp_path / "run", ["vocab.txt"])
        argv = ["--config", cli_env["config"], "--run-dir", str(run)]
        assert main([*argv, "train-classifier"]) == 0
        assert "classifier held-out accuracy" not in capsys.readouterr().err
        assert main(["--log-level", "info", *argv, "train-stage1"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("INFO restyle.training: stage1 epoch 0: token_acc=")
                   for line in err)

    def test_05_train_stage2(self, cli_env):
        assert run_cli(cli_env, "train-stage2") == 0
        assert (Path(cli_env["run_dir"]) / "stage2.ckpt").exists()

    def test_05b_pipeline_fit_trains_the_cli_checkpoints(self, cli_env, monkeypatch):
        import restyle.pipeline as pipeline_module
        from restyle.checkpoint import params_hash
        from restyle.config import load_config
        from restyle.data import read_sentences

        def split(name):
            rows = [read_sentences(cli_env["corpus_dir"] / f"{name}.style{s}.txt")
                    for s in (0, 1)]
            return rows[0] + rows[1], [0] * len(rows[0]) + [1] * len(rows[1])

        stage1_hash = []
        train_stage2 = pipeline_module.train_stage2

        def record_stage1(cfg, model, *args, **kwargs):
            stage1_hash.append(params_hash(model.params))
            return train_stage2(cfg, model, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "train_stage2", record_stage1)
        pipe = pipeline_module.StyleTransferPipeline(load_config(cli_env["config"]))
        pipe.fit(*split("train"), *split("dev"))
        fitted = {"classifier.ckpt": params_hash(pipe.classifier_.params_),
                  "stage1.ckpt": stage1_hash[0],
                  "stage2.ckpt": params_hash(pipe.model_.params)}
        for (style, direction), lm in pipe.lms_.items():
            fitted[f"lm.{style}.{direction}.ckpt"] = params_hash(lm.params_)
        run_dir = Path(cli_env["run_dir"])
        assert sorted(fitted) == sorted(["classifier.ckpt", "stage1.ckpt", "stage2.ckpt",
                                         *LM_NAMES])
        assert fitted == {name: checkpoint_hash(run_dir / name) for name in fitted}

    def test_05c_empty_corpus_file_named(self, cli_env, capsys, tmp_path):
        # data.lowercase is on (the default) on this path too
        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt"])
        empty = tmp_path / "dev.style1.txt"
        empty.write_text("\n")
        rc = main(["--config", cli_env["config"], "--run-dir", str(work),
                   "--set", f"data.dev_style1={empty}", "train-stage1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"dev corpus {empty} (style 1) has no sentences" in err
        assert not (work / "stage1.ckpt").exists()

    def test_05d_no_lxlambda_needs_a_matching_stage1(self, cli_env, capsys, tmp_path):
        from restyle.checkpoint import load_checkpoint

        run_dir = Path(cli_env["run_dir"])
        assert load_checkpoint(run_dir / "stage1.ckpt")[0]["lxlambda_off"] is False
        work = copy_run(cli_env, tmp_path / "run",
                        ["vocab.txt", "classifier.ckpt", "stage1.ckpt", *LM_NAMES])
        common = ["--config", cli_env["config"], "--run-dir", str(work)]
        variant = ["--set", "stage2.ablation=no-lxlambda"]
        assert main([*common, *variant, "train-stage2"]) == 1
        assert "stage1.lxlambda_off" in capsys.readouterr().err
        assert not (work / "stage2.no-lxlambda.ckpt").exists()
        assert main([*common, *variant, "--set", "stage1.epochs=1", "train-stage1"]) == 0
        assert load_checkpoint(work / "stage1.ckpt")[0]["lxlambda_off"] is True
        assert main([*common, *variant, "train-stage2"]) == 0
        assert (work / "stage2.no-lxlambda.ckpt").exists()
        capsys.readouterr()

    def test_05d2_another_variant_refuses_a_no_lxlambda_stage1(self, cli_env, capsys,
                                                               tmp_path):
        work = copy_run(cli_env, tmp_path / "run",
                        ["vocab.txt", "classifier.ckpt", "stage1.ckpt", *LM_NAMES])
        common = ["--config", cli_env["config"], "--run-dir", str(work)]
        assert main([*common, "--set", "stage2.ablation=no-lxlambda", "--set", "stage1.epochs=1",
                     "train-stage1"]) == 0
        capsys.readouterr()
        assert main([*common, "train-stage2"]) == 1
        assert "variant full needs a stage1.ckpt trained with stage1.lxlambda_off = false" \
            in capsys.readouterr().err
        assert not (work / "stage2.ckpt").exists()
        assert main([*common, "--set", "stage2.ablation=no-nsc", "ablate"]) == 1
        assert "stage1.lxlambda_off = false" in capsys.readouterr().err
        assert not (work / "ablations.csv").exists()

    @pytest.mark.parametrize("setting", ["stage2.ablation=no-lm", "stage2.gamma=0"])
    def test_05d3_stage2_without_fluency_reads_no_lm(self, cli_env, capsys, tmp_path, setting):
        common = ["--config", cli_env["config"], "--set", setting]
        hashes = []
        for name, lms in (("bare", []), ("with-lms", LM_NAMES)):
            work = copy_run(cli_env, tmp_path / name,
                            ["vocab.txt", "classifier.ckpt", "stage1.ckpt", *lms])
            assert main([*common, "--run-dir", str(work), "train-stage2"]) == 0
            hashes.append(checkpoint_hash(next(work.glob("stage2*.ckpt"))))
        capsys.readouterr()
        assert hashes[0] == hashes[1]

    def test_05e_train_stage2_reads_the_ablation_key(self, cli_env, capsys, tmp_path):
        from restyle.checkpoint import load_checkpoint

        work = copy_run(cli_env, tmp_path / "run",
                        ["vocab.txt", "classifier.ckpt", "stage1.ckpt", *LM_NAMES])
        assert main(["--config", cli_env["config"], "--run-dir", str(work),
                     "--set", "stage2.ablation=nsc-lambda", "train-stage2"]) == 0
        assert not (work / "stage2.ckpt").exists()
        assert load_checkpoint(work / "stage2.nsc-lambda.ckpt")[0]["ablation"] == "nsc-lambda"
        capsys.readouterr()

    def test_05g_stage2_follows_the_stage1_lrp_mapping(self, cli_env, capsys, tmp_path):
        from restyle.checkpoint import load_checkpoint
        from restyle.cli import load_model
        from restyle.data import Vocabulary, pack_batch
        from restyle.lrp import hard_word_relevance

        mapping = ["--set", "lrp.epsilon=0.5", "--set", "lrp.stabilizer=1e-6"]
        names = ["vocab.txt", "classifier.ckpt", *LM_NAMES]
        run = copy_run(cli_env, tmp_path / "run", names)
        same = copy_run(cli_env, tmp_path / "same", names)

        def cli(run_dir, *argv):
            assert main(["--config", cli_env["config"], "--run-dir", str(run_dir),
                         *argv]) == 0

        cli(run, *mapping, "--set", "stage1.epochs=1", "train-stage1")
        (same / "stage1.ckpt").write_bytes((run / "stage1.ckpt").read_bytes())
        cli(run, "train-stage2")   # under this config's lrp.epsilon and lrp.stabilizer
        cli(same, *mapping, "train-stage2")
        recorded = {k: load_checkpoint(run / "stage1.ckpt")[0][k]
                    for k in ("eta", "epsilon", "stabilizer")}
        assert recorded["epsilon"] == 0.5 and recorded["stabilizer"] == 1e-6
        header = load_checkpoint(run / "stage2.ckpt")[0]
        assert {k: header[k] for k in recorded} == recorded
        assert checkpoint_hash(run / "stage2.ckpt") == checkpoint_hash(same / "stage2.ckpt")

        # lrp-inspect maps with the recorded mapping, stabilizer included
        src = tmp_path / "inspect_in.txt"
        src.write_text("".join(line + "\n" for line in cli_env["corpus"].dev_sentences[:6]))
        cli(run, "lrp-inspect", "--input", str(src))
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (run / "lrp_inspect.jsonl").read_text().splitlines()]
        vocab = Vocabulary.load(run / "vocab.txt")
        clf, _ = load_model(run / "classifier.ckpt", "classifier", vocab)
        moved = []
        for record in records:
            assert (record["eta"], record["epsilon"]) == (recorded["eta"], 0.5)
            batch = pack_batch([vocab.encode(record["sentence"])],
                               min_width=max(clf.filter_widths))

            def raw(stabilizer):
                values = hard_word_relevance(clf, batch.enc_ids, batch.lengths,
                                             record["target_style"], eta=recorded["eta"],
                                             epsilon=0.5, stabilizer=stabilizer).raw.values
                return [round(float(x), 8) for x in values[0, :len(record["tokens"])]]

            assert record["raw_relevance"] == raw(1e-6)
            moved.append(record["raw_relevance"] != raw(1e-9))
        assert any(moved)   # the stabilizer shows at this rounding

    def test_05f_transfer_decodes_a_checkpoint_as_ablate_scores_it(self, cli_env, capsys,
                                                                  tmp_path, monkeypatch):
        import restyle.cli as cli_module

        work = copy_run(cli_env, tmp_path / "run",
                        ["vocab.txt", "classifier.ckpt", "stage1.ckpt", *LM_NAMES])
        common = ["--config", cli_env["config"], "--run-dir", str(work)]
        scored = []
        evaluate_transfer = cli_module.evaluate_transfer

        def record(*args, **kwargs):
            report, decoded = evaluate_transfer(*args, **kwargs)
            scored.extend(decoded)
            return report, decoded

        monkeypatch.setattr(cli_module, "evaluate_transfer", record)
        # at this rate the learned gates move far enough from 1 to change outputs
        assert main([*common, "--set", "stage2.ablation=nsc-lambda",
                     "--set", "stage2.learning_rate=1e-2", "ablate"]) == 0
        capsys.readouterr()
        inputs = cli_env["corpus_dir"] / "test.style0.txt"
        assert main([*common, "transfer", "--target-style", "1", "--input", str(inputs),
                     "--checkpoint", str(work / "stage2.nsc-lambda.ckpt")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(inputs.read_text().splitlines()) == 20
        assert printed == scored[:20]

    def test_06_transfer_with_relevance_dump(self, cli_env, capsys):
        src = Path(cli_env["run_dir"]) / "transfer_in.txt"
        src.write_text("the food was awful .\nmy room looked dreadful today .\n")
        rc = run_cli(cli_env, "transfer", "--target-style", "1", "--input", str(src),
                     "--dump-relevance")
        out = capsys.readouterr().out
        assert rc == 0
        rel = Path(cli_env["run_dir"]) / "relevance.jsonl"
        assert rel.exists()
        records = [json.loads(line) for line in rel.read_text().splitlines()]
        assert len(records) == 2
        assert set(records[0]) == {"input", "output_tokens", "lambda"}
        assert len(records[0]["lambda"]) == len(records[0]["output_tokens"])
        assert "\t" in out  # token<TAB>lambda lines

    def test_06b_transfer_records_only_an_output_inside_the_run(self, cli_env, capsys,
                                                                tmp_path):
        from restyle.checkpoint import file_hash

        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "stage2.ckpt"])
        (work / "manifest.json").write_text("{}")
        src = tmp_path / "in.txt"
        src.write_text("the food was awful .\n")

        def transfer(out):
            assert main(["--config", cli_env["config"], "--run-dir", str(work), "transfer",
                         "--target-style", "1", "--input", str(src),
                         "--output", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 1
            return json.loads((work / "manifest.json").read_text()).get("artifacts", {})

        assert transfer(tmp_path / "out.txt") == {}
        inside = work / "sub" / "out.txt"
        assert transfer(inside) == {"sub/out.txt": file_hash(inside)}
        capsys.readouterr()

    def test_06c_transfer_keeps_blank_input_lines(self, cli_env, capsys, tmp_path):
        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "stage2.ckpt"])
        first, last = "the food was awful .", "my room looked dreadful today ."

        def transfer(lines):
            src = tmp_path / "in.txt"
            src.write_text("".join(line + "\n" for line in lines))
            assert main(["--config", cli_env["config"], "--run-dir", str(work), "transfer",
                         "--target-style", "1", "--input", str(src),
                         "--dump-relevance"]) == 0
            capsys.readouterr()
            records = [json.loads(line) for line in
                       (work / "relevance.jsonl").read_text().splitlines()]
            return (work / "outputs.txt").read_text().split("\n")[:-1], records

        outputs, records = transfer([first, last])
        gapped, gapped_records = transfer([first, "", last])
        assert gapped == [outputs[0], "", outputs[1]]
        assert gapped_records == [records[0], {"input": "", "output_tokens": [],
                                               "lambda": []}, records[1]]

    def test_07_evaluate_outputs(self, cli_env, capsys):
        run_dir = Path(cli_env["run_dir"])
        corpus_dir = cli_env["corpus_dir"]
        rc = run_cli(cli_env, "transfer", "--target-style", "1",
                     "--input", str(corpus_dir / "test.style0.input.txt"),
                     "--output", str(run_dir / "eval_outputs.txt"))
        assert rc == 0
        refs = ",".join(str(corpus_dir / f"test.style0.ref{r}.txt") for r in range(4))
        rc = run_cli(cli_env, "evaluate", "--outputs", str(run_dir / "eval_outputs.txt"),
                     "--refs", refs, "--target-style", "1")
        out = capsys.readouterr().out
        assert rc == 0
        assert "Acc" in out and "BLEU" in out
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert set(metrics) == {"acc", "bleu", "g2", "h2", "n_sentences"}

    def test_07b_evaluate_names_a_short_reference_file(self, cli_env, capsys, tmp_path):
        run_dir = Path(cli_env["run_dir"])
        full = cli_env["corpus_dir"] / "test.style0.ref0.txt"
        n = len(full.read_text().splitlines())
        short = tmp_path / "short.txt"
        short.write_text("".join(full.read_text().splitlines(keepends=True)[:1]))
        rc = run_cli(cli_env, "evaluate", "--outputs", str(run_dir / "eval_outputs.txt"),
                     "--refs", f"{full},{short}", "--target-style", "1")
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: runtime: ")
        assert f"reference file {short} has 1 lines for the {n} outputs" in err

    def test_07c_evaluate_scores_an_empty_output_as_a_miss(self, cli_env, capsys, tmp_path):
        from restyle.cli import load_model
        from restyle.data import Vocabulary
        from restyle.metrics import corpus_bleu

        # transfer writes a generation that starts with EOS as an empty line
        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt"])
        first, last = (s.lower() for s in cli_env["corpus"].dev_sentences[:2])
        outputs = tmp_path / "outputs.txt"
        outputs.write_text(f"{first}\n\n{last}\n")
        refs = tmp_path / "refs.txt"
        refs.write_text(f"{first}\n{first}\n{last}\n")
        rc = main(["--config", cli_env["config"], "--run-dir", str(work), "evaluate",
                   "--outputs", str(outputs), "--refs", str(refs), "--target-style", "1"])
        capsys.readouterr()
        assert rc == 0
        metrics = json.loads((work / "metrics.json").read_text())
        vocab = Vocabulary.load(work / "vocab.txt")
        clf, _ = load_model(work / "classifier.ckpt", "classifier", vocab)
        hits = int((clf.predict([vocab.encode(first), vocab.encode(last)]) == 1).sum())
        assert metrics["n_sentences"] == 3
        assert metrics["acc"] == pytest.approx(100.0 * hits / 3)
        assert metrics["bleu"] == pytest.approx(
            corpus_bleu([first, "", last], [[first], [first], [last]]))

    def test_07d_evaluate_counts_blank_reference_lines(self, cli_env, capsys, tmp_path):
        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt"])
        first, last = (s.lower() for s in cli_env["corpus"].dev_sentences[:2])
        outputs = tmp_path / "outputs.txt"
        outputs.write_text(f"{first}\n{last}\n")
        refs = tmp_path / "refs.txt"
        refs.write_text(f"{first}\n\n{last}\n")
        rc = main(["--config", cli_env["config"], "--run-dir", str(work), "evaluate",
                   "--outputs", str(outputs), "--refs", str(refs), "--target-style", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"reference file {refs} has 3 lines for the 2 outputs" in err
        assert not (work / "metrics.json").exists()

    def test_08_metrics_recomputable_from_artifacts(self, cli_env, capsys):
        run_dir = Path(cli_env["run_dir"])
        corpus_dir = cli_env["corpus_dir"]
        refs = ",".join(str(corpus_dir / f"test.style0.ref{r}.txt") for r in range(4))
        first = json.loads((run_dir / "metrics.json").read_text())
        rc = run_cli(cli_env, "evaluate", "--outputs", str(run_dir / "eval_outputs.txt"),
                     "--refs", refs, "--target-style", "1")
        capsys.readouterr()
        assert rc == 0
        again = json.loads((run_dir / "metrics.json").read_text())
        assert first == again

    def test_09_lrp_inspect_format(self, cli_env, capsys):
        src = Path(cli_env["run_dir"]) / "inspect_in.txt"
        src.write_text("the food was great .\n")
        rc = run_cli(cli_env, "lrp-inspect", "--input", str(src))
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        for line in lines:
            tok, lam, raw = line.split("\t")
            float(lam), float(raw)
        rel = Path(cli_env["run_dir"]) / "lrp_inspect.jsonl"
        record = json.loads(rel.read_text().splitlines()[0])
        assert set(record) >= {"sentence", "tokens", "lambda", "raw_relevance",
                               "eta", "epsilon"}

    def _inspect_eta(self, cli_env, run_dir, *extra):
        src = Path(cli_env["root"]) / "inspect_eta_in.txt"
        src.write_text("".join(line + "\n" for line in cli_env["corpus"].dev_sentences[:6]))
        rc = main(["--config", cli_env["config"], "--run-dir", str(run_dir),
                   "lrp-inspect", "--input", str(src), *extra])
        assert rc == 0
        records = [json.loads(line) for line in
                   (Path(run_dir) / "lrp_inspect.jsonl").read_text().splitlines()]
        assert len(records) == 6
        assert len({r["eta"] for r in records}) == 1
        return records[0]["eta"], [r["target_style"] for r in records]

    def test_09b_lrp_inspect_uses_the_run_eta(self, cli_env, capsys, tmp_path):
        from restyle.checkpoint import load_checkpoint

        run_dir = Path(cli_env["run_dir"])
        manifest_eta = json.loads((run_dir / "manifest.json").read_text())["eta"]
        header_eta = load_checkpoint(run_dir / "stage1.ckpt")[0]["eta"]
        assert manifest_eta == header_eta
        assert self._inspect_eta(cli_env, run_dir)[0] == manifest_eta
        assert self._inspect_eta(cli_env, run_dir, "--eta", "2.5")[0] == 2.5
        # the stage-1 checkpoint header supplies it, with or without a manifest
        bare = tmp_path / "no_manifest"
        bare.mkdir()
        for name in ("vocab.txt", "classifier.ckpt", "stage1.ckpt"):
            (bare / name).write_bytes((run_dir / name).read_bytes())
        assert self._inspect_eta(cli_env, bare)[0] == header_eta
        (bare / "manifest.json").write_text(json.dumps({"eta": header_eta + 1.0}))
        assert self._inspect_eta(cli_env, bare)[0] == header_eta
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["0", "1", "pred"])
    def test_09c_lrp_inspect_calibrates_on_explained_labels(self, cli_env, capsys,
                                                             tmp_path, target):
        from restyle.cli import load_model
        from restyle.config import load_config
        from restyle.data import Vocabulary
        from restyle.lrp import calibrate_eta

        run_dir = Path(cli_env["run_dir"])
        bare = tmp_path / "before_stage1"
        bare.mkdir()
        for name in ("vocab.txt", "classifier.ckpt"):
            (bare / name).write_bytes((run_dir / name).read_bytes())
        eta, targets = self._inspect_eta(cli_env, bare, "--target-style", target)
        capsys.readouterr()
        cfg = load_config(cli_env["config"])
        vocab = Vocabulary.load(bare / "vocab.txt")
        clf, _ = load_model(bare / "classifier.ckpt", "classifier", vocab)
        encoded = [vocab.encode(s) for s in cli_env["corpus"].dev_sentences[:6]]
        if target == "pred":
            assert targets == clf.predict(encoded).tolist()
        else:
            assert targets == [int(target)] * 6
        assert eta == calibrate_eta(clf, encoded, targets, target_lambda=cfg.lrp.eta_target,
                                    seed=cfg.seed_for("eta"))

    def test_09e_lrp_inspect_calibrates_for_another_classifier(self, cli_env, capsys,
                                                               tmp_path):
        from restyle.checkpoint import load_checkpoint, save_checkpoint
        from restyle.cli import load_model
        from restyle.config import load_config
        from restyle.data import Vocabulary
        from restyle.lrp import calibrate_eta

        # the run's classifier with every weight scaled: same vocabulary,
        # larger logits, so the run's eta does not fit it
        run_dir = Path(cli_env["run_dir"])
        header, arrays = load_checkpoint(run_dir / "classifier.ckpt")
        other = tmp_path / "other_classifier.ckpt"
        save_checkpoint(other, {k: parameter(3.0 * v) for k, v in arrays.items()}, header)
        eta, targets = self._inspect_eta(cli_env, run_dir, "--classifier", str(other))
        capsys.readouterr()
        cfg = load_config(cli_env["config"])
        vocab = Vocabulary.load(run_dir / "vocab.txt")
        clf, _ = load_model(other, "classifier", vocab)
        encoded = [vocab.encode(s) for s in cli_env["corpus"].dev_sentences[:6]]
        assert targets == clf.predict(encoded).tolist()
        expected = calibrate_eta(clf, encoded, targets, target_lambda=cfg.lrp.eta_target,
                                 seed=cfg.seed_for("eta"))
        assert expected != json.loads((run_dir / "manifest.json").read_text())["eta"]
        assert eta == expected
        assert self._inspect_eta(cli_env, run_dir, "--classifier", str(other),
                                 "--eta", "2.5")[0] == 2.5

    def test_09f_lrp_inspect_uses_the_run_epsilon(self, cli_env, capsys, tmp_path):
        from restyle.checkpoint import load_checkpoint

        src = Path(cli_env["root"]) / "inspect_eps_in.txt"
        src.write_text("the food was great .\n")

        def inspect(run_dir, *extra, flags=()):
            assert main(["--config", cli_env["config"], "--run-dir", str(run_dir), *extra,
                         "lrp-inspect", "--input", str(src), *flags]) == 0
            line = (run_dir / "lrp_inspect.jsonl").read_text().splitlines()[0]
            return json.loads(line)["epsilon"]

        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt"])
        # before stage 1 the config's epsilon applies
        assert inspect(work) == 0.3
        assert inspect(work, "--set", "lrp.epsilon=0.4") == 0.4
        assert main(["--config", cli_env["config"], "--run-dir", str(work),
                     "--set", "lrp.epsilon=0.5", "--set", "stage1.epochs=1",
                     "train-stage1"]) == 0
        assert load_checkpoint(work / "stage1.ckpt")[0]["epsilon"] == 0.5
        # the run's eta comes with the epsilon it was trained under
        assert inspect(work) == 0.5
        assert inspect(work, flags=("--epsilon", "0.2")) == 0.2
        # an eta given by hand is not the run's, nor is its epsilon
        assert inspect(work, flags=("--eta", "2.5")) == 0.3
        capsys.readouterr()

    def test_09g_lrp_inspect_uses_the_stabilizer(self, cli_env, capsys, tmp_path):
        from restyle.cli import load_model
        from restyle.config import load_config
        from restyle.data import Vocabulary, pack_batch
        from restyle.lrp import calibrate_eta, hard_word_relevance

        # without a stage-1 model lrp-inspect calibrates eta itself
        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt"])
        src = Path(cli_env["root"]) / "inspect_stabilizer_in.txt"
        src.write_text("".join(line + "\n" for line in cli_env["corpus"].dev_sentences[:6]))
        assert main(["--config", cli_env["config"], "--run-dir", str(work),
                     "--set", "lrp.stabilizer=0.5", "lrp-inspect", "--input", str(src)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (work / "lrp_inspect.jsonl").read_text().splitlines()]
        eta, targets = records[0]["eta"], [r["target_style"] for r in records]
        cfg = load_config(cli_env["config"])
        vocab = Vocabulary.load(work / "vocab.txt")
        clf, _ = load_model(work / "classifier.ckpt", "classifier", vocab)
        encoded = [vocab.encode(s) for s in cli_env["corpus"].dev_sentences[:6]]

        def calibrated(stabilizer):
            return calibrate_eta(clf, encoded, targets, target_lambda=cfg.lrp.eta_target,
                                 stabilizer=stabilizer, seed=cfg.seed_for("eta"))

        assert calibrated(0.5) != calibrated(1e-9)
        assert eta == calibrated(0.5)
        for record, ids, target in zip(records, encoded, targets):
            batch = pack_batch([ids], min_width=max(clf.filter_widths))
            raw = hard_word_relevance(clf, batch.enc_ids, batch.lengths, target, eta=eta,
                                      epsilon=record["epsilon"], stabilizer=0.5).raw.values
            assert record["raw_relevance"] == [round(float(x), 8)
                                               for x in raw[0, :len(record["tokens"])]]

    def test_09h_lrp_inspect_keeps_input_order(self, cli_env, capsys, tmp_path):
        from restyle.cli import load_model
        from restyle.data import Vocabulary, pack_batch
        from restyle.lrp import hard_word_relevance

        # longest first, over two batches: length order reverses them
        sentences = sorted(cli_env["corpus"].dev_sentences, key=lambda s: -len(s.split()))
        assert len(sentences) > 64 and len({len(s.split()) for s in sentences}) > 1
        src = tmp_path / "inspect_in.txt"
        src.write_text("".join(line + "\n" for line in sentences))
        assert run_cli(cli_env, "lrp-inspect", "--input", str(src)) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in
                   (Path(cli_env["run_dir"]) / "lrp_inspect.jsonl").read_text().splitlines()]
        assert [r["sentence"] for r in records] == sentences
        assert [l.split("\t")[0] for l in out.splitlines() if l] == [
            tok for s in sentences for tok in s.split()]
        vocab = Vocabulary.load(Path(cli_env["run_dir"]) / "vocab.txt")
        clf, _ = load_model(Path(cli_env["run_dir"]) / "classifier.ckpt", "classifier", vocab)
        for record in records:
            ids = vocab.encode(record["sentence"])
            batch = pack_batch([ids])
            wr = hard_word_relevance(clf, batch.enc_ids, batch.lengths, record["target_style"],
                                     eta=record["eta"], epsilon=record["epsilon"])
            for key, values, digits in (("lambda", wr.lam.values, 6),
                                        ("raw_relevance", wr.raw.values, 8)):
                alone = [round(float(x), digits) for x in values[0, :len(ids)]]
                np.testing.assert_allclose(record[key], alone, rtol=0, atol=1e-12)

    def test_09i_lrp_inspect_and_transfer_dumps_coexist(self, cli_env, capsys, tmp_path):
        from restyle.checkpoint import file_hash

        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt",
                                                     "stage1.ckpt", "stage2.ckpt"])
        (work / "manifest.json").write_text("{}")
        src = tmp_path / "in.txt"
        src.write_text("the food was awful .\nmy room looked dreadful today .\n")
        common = ["--config", cli_env["config"], "--run-dir", str(work)]
        assert main([*common, "transfer", "--target-style", "1", "--input", str(src),
                     "--dump-relevance"]) == 0
        dump = (work / "relevance.jsonl").read_text()
        assert main([*common, "lrp-inspect", "--input", str(src)]) == 0
        capsys.readouterr()
        # lrp-inspect leaves transfer's dump as it was, and each schema has its file
        assert (work / "relevance.jsonl").read_text() == dump
        assert set(json.loads(dump.splitlines()[0])) == {"input", "output_tokens", "lambda"}
        inspected = [json.loads(line)
                     for line in (work / "lrp_inspect.jsonl").read_text().splitlines()]
        assert [r["sentence"] for r in inspected] == src.read_text().splitlines()
        assert set(inspected[0]) >= {"tokens", "lambda", "raw_relevance", "eta", "epsilon"}
        artifacts = json.loads((work / "manifest.json").read_text())["artifacts"]
        assert artifacts == {name: file_hash(work / name)
                             for name in ("outputs.txt", "relevance.jsonl",
                                          "lrp_inspect.jsonl")}

    def test_09d_evaluate_lowercases_references(self, cli_env, capsys, tmp_path):
        # data.lowercase defaults to true: outputs and references compare in lower case
        run_dir = Path(cli_env["run_dir"])
        lines = cli_env["corpus"].dev_sentences[:8]
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("".join(line + "\n" for line in lines))
        refs = tmp_path / "refs.txt"
        refs.write_text("".join(line.title() + "\n" for line in lines))
        eval_dir = tmp_path / "eval"
        eval_dir.mkdir()
        for name in ("vocab.txt", "classifier.ckpt"):
            (eval_dir / name).write_bytes((run_dir / name).read_bytes())
        rc = main(["--config", cli_env["config"], "--run-dir", str(eval_dir), "evaluate",
                   "--outputs", str(outputs), "--refs", str(refs), "--target-style", "1"])
        capsys.readouterr()
        assert rc == 0
        assert json.loads((eval_dir / "metrics.json").read_text())["bleu"] == pytest.approx(100.0)

    def test_10_ablate_appends_csv(self, cli_env, capsys):
        rc = run_cli(cli_env, "--set", "stage2.ablation=no-nsc", "ablate")
        capsys.readouterr()
        assert rc == 0
        csv_path = Path(cli_env["run_dir"]) / "ablations.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "variant,acc,bleu,g2,h2,n_sentences"
        assert lines[1].startswith("no-nsc,")

    def test_10b_ablate_names_a_short_reference_file(self, cli_env, capsys, tmp_path):
        corpus_dir = cli_env["corpus_dir"]
        full = corpus_dir / "test.style0.ref0.txt"
        n = len(full.read_text().splitlines())
        short = tmp_path / "short.txt"
        short.write_text("".join(full.read_text().splitlines(keepends=True)[:1]))
        work = copy_run(cli_env, tmp_path / "run", ["vocab.txt", "classifier.ckpt",
                                                    "stage1.ckpt"])
        rc = main(["--config", cli_env["config"], "--run-dir", str(work),
                   "--set", f"data.test_refs_style0={full},{short}",
                   "--set", "stage2.ablation=no-nsc", "ablate"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: runtime: ")
        assert f"reference file {short} has 1 lines for the {n} style-0 test sentences" in err
        assert not (work / "ablations.csv").exists()

    def test_11_manifest_artifacts_exist_and_hash(self, cli_env):
        run_dir = Path(cli_env["run_dir"])
        manifest = json.loads((run_dir / "manifest.json").read_text())
        from restyle.checkpoint import file_hash
        for name, digest in manifest["artifacts"].items():
            assert (run_dir / name).exists()
        assert manifest["artifacts"]["stage1.ckpt"] == file_hash(run_dir / "stage1.ckpt")
        assert manifest["root_seed"] == 11
        assert "stage1" in manifest["seeds"]

    def test_13_interrupted_writes_keep_previous_files(self, cli_env, capsys, tmp_path,
                                                       monkeypatch):
        run_dir = Path(cli_env["run_dir"])
        work = tmp_path / "run"
        work.mkdir()
        kept = ["vocab.txt", "classifier.ckpt", "stage2.ckpt"]
        for name in kept:
            (work / name).write_bytes((run_dir / name).read_bytes())
        corpus_dir = cli_env["corpus_dir"]
        refs = ",".join(str(corpus_dir / f"test.style0.ref{r}.txt") for r in range(4))
        dev = cli_env["corpus"].dev_sentences
        src = tmp_path / "in.txt"
        commands = {
            "outputs.txt": ["transfer", "--input", str(src)],
            "metrics.json": ["evaluate", "--outputs", str(corpus_dir / "test.style0.input.txt"),
                             "--refs", refs],
            "lrp_inspect.jsonl": ["lrp-inspect", "--input", str(src)],
        }

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        for name, argv in commands.items():
            common = ["--config", cli_env["config"], "--run-dir", str(work), *argv]
            src.write_text("".join(line + "\n" for line in dev[:3]))
            assert main([*common, "--target-style", "1"]) == 0
            before = (work / name).read_text()
            # another input and target style, so a completed write would differ
            src.write_text("".join(line + "\n" for line in dev[3:6]))
            monkeypatch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="before rename"):
                main([*common, "--target-style", "0"])
            monkeypatch.undo()
            assert (work / name).read_text() == before, name
        capsys.readouterr()
        assert sorted(p.name for p in work.iterdir()) == sorted(kept + list(commands))

    def test_12_unknown_variant_rejected(self, cli_env, capsys):
        rc = run_cli(cli_env, "--set", "stage2.ablation=bogus", "ablate")
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err


ALL_TERMS = ("l_sr", "l_xlambda", "l_st", "l_ylambda", "l_cp", "l_lm", "l2_combined")
# the terms each variant does not train, so gradcheck does not report them
UNTRAINED_TERMS = {
    "full": (),
    "nsc-lambda": (),
    "lcp-prime": (),
    "no-lylambda": ("l_ylambda",),
    "no-lm": ("l_lm",),
    "no-lxlambda": ("l_xlambda",),
    "no-nsc": ("l_st", "l_ylambda", "l_cp", "l_lm", "l2_combined"),
}


class TestGradcheckCommand:
    @pytest.mark.parametrize("variant", ["full", "nsc-lambda", "lcp-prime", "no-lylambda",
                                         "no-lm", "no-nsc", "no-lxlambda"])
    def test_gradcheck_passes_and_prints_error(self, capsys, variant):
        rc = main(["--set", f"stage2.ablation={variant}", "gradcheck",
                   "--coords-per-param", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == f"variant {variant}"
        assert lines[-1].startswith("overall max relative error")
        terms = [t for t in ALL_TERMS if t not in UNTRAINED_TERMS[variant]]
        assert [line.split()[0] for line in lines[1:-1]] == terms

    @pytest.mark.parametrize("weight,term", [("alpha", "l_ylambda"), ("beta", "l_cp"),
                                             ("gamma", "l_lm")])
    def test_a_zero_weight_term_is_not_reported(self, capsys, weight, term):
        rc = main(["--set", f"stage2.{weight}=0", "gradcheck", "--coords-per-param", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split()[0] for line in lines[1:-1]] == [t for t in ALL_TERMS if t != term]

    def test_gradcheck_threshold_failure(self, capsys):
        rc = main(["gradcheck", "--coords-per-param", "1", "--threshold", "1e-12"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: gradcheck-failed:" in captured.err


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[stage2]\nbogus = 1\n")
        rc = main(["--config", str(bad), "gradcheck"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_set_overrides(self, capsys):
        rc = main(["--set", "stage2.alpha=2.5", "gradcheck", "--coords-per-param", "1"])
        assert rc == 0


class TestReferences:
    def test_load_references_lowercases_when_configured(self, tmp_path):
        from restyle.cli import _load_references
        from restyle.config import load_config
        from restyle.data import LabeledCorpus

        paths = {}
        for style, rows in ((0, ["The Food .", "A Room ."]), (1, ["Great Stuff ."])):
            for r in range(2):
                p = tmp_path / f"ref{style}.{r}.txt"
                p.write_text("".join(f"{row} {r}\n" for row in rows))
                paths.setdefault(style, []).append(str(p))
        overrides = {f"data.test_refs_style{s}": ",".join(ps) for s, ps in paths.items()}
        test = LabeledCorpus([[4], [5], [6]], [0, 1, 0])
        lower = _load_references(load_config(None, {**overrides, "data.lowercase": "true"}),
                                 test)
        assert lower == [["the food . 0", "the food . 1"], ["great stuff . 0", "great stuff . 1"],
                         ["a room . 0", "a room . 1"]]
        kept = _load_references(load_config(None, {**overrides, "data.lowercase": "false"}),
                                test)
        assert kept[0] == ["The Food . 0", "The Food . 1"]


class TestManifest:
    def test_manifest_records_how_blas_ran(self, cli_env, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["--config", cli_env["config"], "--run-dir", str(tmp_path),
                     "train-classifier"]) == 0
        capsys.readouterr()
        blas = json.loads((tmp_path / "manifest.json").read_text())["blas"]
        libraries = np.show_config(mode="dicts")["Build Dependencies"]
        assert blas == {"libraries": [libraries["blas"]["name"], libraries["lapack"]["name"]],
                        "cpu_count": os.cpu_count(), "OPENBLAS_NUM_THREADS": "1",
                        "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}

    def test_interrupted_update_keeps_previous_manifest(self, tmp_path, monkeypatch):
        from restyle.cli import update_manifest
        from restyle.config import load_config

        cfg = load_config(None)
        update_manifest(tmp_path, cfg, {"eta": 1.5})
        before = (tmp_path / "manifest.json").read_text()

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="before rename"):
            update_manifest(tmp_path, cfg, {"eta": 2.5})
        assert (tmp_path / "manifest.json").read_text() == before
        assert json.loads(before)["eta"] == 1.5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


KINDS = ("classifier", "lm", "seq2seq")
# the header keys checkpoints carried before they recorded every constructor
# parameter: the architecture and the seed
PARENT_HEADER_KEYS = {
    "classifier": ("embed_dim", "num_filters", "filter_widths", "seed"),
    "lm": ("style", "direction", "embed_dim", "hidden_dim", "seed"),
    "seq2seq": ("embed_dim", "hidden_dim", "attn_dim", "head_dim", "style_dim", "mlp_dim",
                "seed"),
}


def small_model(kind, vocab_size):
    """A small model of ``kind`` with non-default hyperparameters and weights
    moved off their seeded initialization."""
    from restyle.language_model import DirectionalLanguageModel
    from restyle.seq2seq import Seq2seqModel
    from restyle.textcnn import TextCnnStyleClassifier

    if kind == "classifier":
        model = TextCnnStyleClassifier(vocab_size=vocab_size, embed_dim=8, num_filters=4,
                                       filter_widths=(2, 3), epochs=2, word_dropout=0.1,
                                       seed=5)
        model._init_params()
    elif kind == "lm":
        model = DirectionalLanguageModel(vocab_size=vocab_size, style=1, direction="backward",
                                         embed_dim=6, hidden_dim=5, max_len=9, seed=4)
        model._init_params()
    else:
        model = Seq2seqModel(vocab_size, embed_dim=6, hidden_dim=5, attn_dim=4, head_dim=3,
                             style_dim=2, mlp_dim=7, seed=3)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.values += rng.normal(size=p.shape)
    return model


class TestCheckpoints:
    @pytest.fixture
    def vocab(self):
        from restyle.data import build_vocab

        return build_vocab(["the food was great .", "the room was bad ."])

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_records_every_constructor_parameter(self, kind, vocab, tmp_path):
        from restyle.checkpoint import load_checkpoint, params_hash
        from restyle.cli import load_model, save_model
        from restyle.config import load_config

        model = small_model(kind, len(vocab))
        path = tmp_path / f"{kind}.ckpt"
        save_model(path, kind, model, vocab, load_config(None), stage=2, eta=0.5)
        header, _ = load_checkpoint(path)
        params = model.get_params()
        del params["vocab_size"]
        assert set(header) == {"kind", "vocab_hash", "config_hash", "blas", "stage", "eta",
                               *params}
        loaded, loaded_header = load_model(path, kind, vocab)
        assert loaded_header == header
        assert loaded.get_params() == model.get_params()
        assert params_hash(loaded.parameters()) == params_hash(model.parameters())

    def test_header_records_how_blas_ran(self, vocab, tmp_path, monkeypatch):
        from restyle.checkpoint import load_checkpoint, params_hash
        from restyle.cli import blas_record, load_model, save_model
        from restyle.config import load_config

        model = small_model("seq2seq", len(vocab))
        saved = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            path = tmp_path / f"threads{threads}.ckpt"
            save_model(path, "seq2seq", model, vocab, load_config(None), stage=1)
            header, _ = load_checkpoint(path)
            assert header["blas"] == blas_record()
            assert header["blas"]["OPENBLAS_NUM_THREADS"] == threads
            loaded, loaded_header = load_model(path, "seq2seq", vocab)
            assert loaded_header == header
            assert params_hash(loaded.parameters()) == params_hash(model.parameters())
            saved[threads] = header, path.read_bytes()
        # only the header differs, and in it only the blas block
        (h1, b1), (h2, b2) = saved["1"], saved["2"]
        assert {k: v for k, v in h1.items() if k != "blas"} == \
            {k: v for k, v in h2.items() if k != "blas"}

        def after_header(blob):   # magic, version, header length, header
            return blob[16 + struct.unpack("<I", blob[12:16])[0]:]

        assert after_header(b1) == after_header(b2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_parent_format_header_loads(self, kind, vocab, tmp_path):
        from restyle.checkpoint import params_hash, save_checkpoint
        from restyle.cli import load_model, stage1_lrp
        from restyle.training import LrpConfig

        model = small_model(kind, len(vocab))
        header = {"kind": kind, "vocab_hash": vocab.content_hash(), "config_hash": "0"}
        for key in PARENT_HEADER_KEYS[kind]:
            value = getattr(model, key)
            header[key] = list(value) if isinstance(value, tuple) else value
        if kind == "seq2seq":
            header.update(stage=1, eta=0.5, epsilon=0.3, lxlambda_off=False)
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(path, model.parameters(), header)
        loaded, _ = load_model(path, kind, vocab)
        for key in PARENT_HEADER_KEYS[kind]:
            assert getattr(loaded, key) == getattr(model, key)
        assert params_hash(loaded.parameters()) == params_hash(model.parameters())
        if kind == "seq2seq":   # a header without the stabilizer has the default one
            assert stage1_lrp(path) == LrpConfig(eta=0.5, epsilon=0.3, stabilizer=1e-9)

    def test_wrong_kind_and_vocabulary_named(self, vocab, tmp_path):
        from restyle.cli import CliError, load_model, save_model
        from restyle.config import load_config
        from restyle.data import build_vocab

        path = tmp_path / "classifier.ckpt"
        save_model(path, "classifier", small_model("classifier", len(vocab)), vocab,
                   load_config(None))
        with pytest.raises(CliError) as err:
            load_model(path, "seq2seq", vocab, "stage2 checkpoint")
        assert str(err.value) == f"{path} is not a seq2seq checkpoint"
        other = build_vocab(["the food was great ."])
        with pytest.raises(CliError) as err:
            load_model(path, "classifier", other)
        assert str(err.value) == (f"classifier checkpoint {path} was trained on a "
                                  "different vocabulary")

    def test_transfer_names_a_checkpoint_of_another_kind(self, vocab, tmp_path, capsys):
        from restyle.cli import save_model
        from restyle.config import load_config

        vocab.save(tmp_path / "vocab.txt")
        path = tmp_path / "classifier.ckpt"
        save_model(path, "classifier", small_model("classifier", len(vocab)), vocab,
                   load_config(None))
        src = tmp_path / "in.txt"
        src.write_text("the food was bad .\n")
        rc = main(["--run-dir", str(tmp_path), "transfer", "--target-style", "1",
                   "--checkpoint", str(path), "--input", str(src)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: runtime: {path} is not a seq2seq checkpoint\n"
