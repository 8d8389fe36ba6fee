"""The benchmark's own tests: every workload end to end at a tiny size, and a
negative control for each output check.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

import checks
import harness
import reference
import tracing
import workloads
from conftest import BENCH
from restyle.metrics import corpus_bleu

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# the layers each workload's rounds must reach (the map in the README)
LAYERS_USED = {
    "pretrain": ["autodiff.backward_s", "autodiff.optimizer_s", "autodiff.stage1_nodes",
                 "data.corrupt_s", "data.batch_s", "textcnn.fit_s", "lrp.calibrate_s",
                 "lrp.targets_s", "lrp.targets_sents_per_s", "lrp.hard_s",
                 "seq2seq.teacher_forced_s", "language_model.fit_s", "training.stage1_step_s"],
    "finetune": ["autodiff.backward_s", "autodiff.optimizer_s", "autodiff.stage2_nodes",
                 "data.batch_s", "textcnn.soft_s", "lrp.soft_s", "seq2seq.generate_soft_s",
                 "seq2seq.soft_len", "language_model.fluency_s", "training.stage2_step_s",
                 "training.stage2_forward_s"],
    "transfer": ["textcnn.predict_s", "seq2seq.greedy_s", "seq2seq.greedy_steps",
                 "pipeline.transfer_s", "pipeline.evaluate_s", "metrics.bleu_s"],
    "relevance": ["lrp.hard_s"],
}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_tiny(name, traced, capsys, tmp_path):
    assert harness.run(name, 3, 0.0, traced, workloads.TINY, out_dir=tmp_path) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if traced:
        assert (tmp_path / f"trace-{name}-seed3.jsonl").is_file()
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.missing_spans"] == 0
        assert [k for k in LAYERS_USED[name] if values[k] <= 0] == []
        if name in ("transfer", "relevance"):
            assert values["autodiff.backward_s"] == values["autodiff.optimizer_s"] == 0


@pytest.fixture(scope="module")
def transfer_run():
    w = workloads.Transfer(workloads.TINY, 5)
    w.setup()
    w.round()
    return w


@pytest.fixture(scope="module")
def relevance_run():
    w = workloads.Relevance(workloads.TINY, 5)
    w.setup()
    w.round()
    return w


def test_shuffled_outputs_are_rejected(transfer_run):
    # reconstruction-style outputs: the inputs themselves, then shuffled
    expected = transfer_run.corpus.test.sentences
    assert checks.identical(list(expected), expected, "same")[0]
    assert checks.exact_share(list(expected), expected, 1.0)[0]
    shuffled = list(expected)
    random.Random(0).shuffle(shuffled)
    assert shuffled != expected
    assert not checks.identical(shuffled, expected, "shuffled")[0]
    assert not checks.exact_share(shuffled, expected, 0.5)[0]


def test_leaked_relevance_is_rejected(relevance_run):
    w = relevance_run
    lams, raws, lens = w.out
    log = checks.CheckLog()
    workloads.check_hard_relevance(log, w.clf, w.corpus.test.sentences, w.labels, lams, raws,
                                   lens, w.corpus.raw.test_sentences, False, "ok")
    assert log.correct, log.failed

    p = reference.arrays(w.clf.parameters())
    ids = workloads.data.pack_batch(w.corpus.test.sentences[:workloads.LRP_BATCH],
                                    min_width=max(w.clf.filter_widths)).enc_ids
    logit, total = reference.zrule_total(p, reference.hard_embedding(p, ids), lens[0],
                                         w.clf.filter_widths, w.labels[:len(lens[0])],
                                         workloads.STABILIZER)
    assert checks.conservation([raws[0]], [lens[0]], [total], [logit])[0]
    short = int(np.argmin(lens[0]))
    assert lens[0][short] < raws[0].shape[1]
    into_padding = raws[0].copy()
    into_padding[short, lens[0][short]] = 1e-3
    assert not checks.conservation([into_padding], [lens[0]], [total], [logit])[0]
    onto_token = raws[0].copy()
    onto_token[0, 0] += 1e-3 * max(1.0, abs(total[0]))
    assert not checks.conservation([onto_token], [lens[0]], [total], [logit])[0]


def test_stabilizer_share_is_accounted(relevance_run):
    # a stabilizer near the size of the pre-activations keeps a large share of
    # each logit; the reference must predict that share, not the bare logit
    w = relevance_run
    p = reference.arrays(w.clf.parameters())
    batch = workloads.data.pack_batch(w.corpus.test.sentences[:workloads.LRP_BATCH],
                                      min_width=max(w.clf.filter_widths))
    labels = w.labels[:len(batch.lengths)]
    wr = workloads.lrp.hard_word_relevance(w.clf, batch.enc_ids, batch.lengths, labels, w.eta,
                                           workloads.EPSILON, stabilizer=0.5)
    logit, total = reference.zrule_total(p, reference.hard_embedding(p, batch.enc_ids),
                                         batch.lengths, w.clf.filter_widths, labels, 0.5)
    raw = [wr.raw.values]
    assert checks.conservation(raw, [batch.lengths], [total], [logit])[0]
    assert not checks.conservation(raw, [batch.lengths], [logit], [logit])[0]


def test_lambda_range_and_marker_controls():
    assert checks.lambda_in_range([np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])])[0]
    assert not checks.lambda_in_range([np.array([0.2, 1.0])])[0]
    assert not checks.lambda_in_range([np.array([-1e-12])])[0]
    sentences = ["the food was great .", "the food was awful ."]
    good = [np.array([0.0, 0.1, 0.0, 0.9, 0.0])] * 2
    assert checks.marker_on_top(good, sentences, {"great", "awful"}, 1.0)[0]
    bad = [np.array([0.0, 0.95, 0.0, 0.9, 0.0])] * 2
    assert not checks.marker_on_top(bad, sentences, {"great", "awful"}, 0.5)[0]


def bleu_without_brevity_penalty(hypotheses, references, max_n=4):
    log_p = 0.0
    for n in range(1, max_n + 1):
        matched = counted = 0
        for hyp, refs in zip(hypotheses, references):
            h = hyp.split()
            grams = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            best = Counter()
            for r in refs:
                t = r.split()
                for g, k in Counter(tuple(t[i:i + n]) for i in range(len(t) - n + 1)).items():
                    best[g] = max(best[g], k)
            matched += sum(min(k, best[g]) for g, k in grams.items())
            counted += sum(grams.values())
        log_p += math.log(matched / counted) / max_n
    return 100.0 * math.exp(log_p)


def test_bleu_hand_worked():
    # precisions 4/5, 3/4, 2/3, 1/2; equal lengths, so no penalty
    assert reference.bleu(["a b c d e"], [["a b c d f"]]) == pytest.approx(
        100 * 0.2 ** 0.25, abs=1e-12)
    # every n-gram matches; c = 4 against the closest reference r = 6
    assert reference.bleu(["a b c d"], [["x", "a b c d e f"]]) == pytest.approx(
        100 * math.exp(1 - 6 / 4), abs=1e-12)
    # corpus level: 8/9, 6/7, 4/5, 2/3 and c = 9 against r = 11
    both = reference.bleu(["a b c d e", "a b c d"], [["a b c d f"], ["a b c d e f"]])
    expected = 100 * (8 / 9 * 6 / 7 * 4 / 5 * 2 / 3) ** 0.25 * math.exp(1 - 11 / 9)
    assert both == pytest.approx(expected, abs=1e-12)
    assert reference.bleu(["a b c"], [["d e f"]]) == 0.0
    # length ties go to the shorter reference
    assert reference.bleu(["a b c d e"], [["a b c d e f", "a b c d"]]) == pytest.approx(100.0)


def test_bleu_without_brevity_penalty_is_rejected(transfer_run):
    w = transfer_run
    refs = w.corpus.raw.test_references
    hyps = [" ".join(r[0].split()[:-2]) for r in refs]    # short, so the penalty acts
    truth = reference.bleu(hyps, refs)
    assert checks.bleu_agrees(corpus_bleu(hyps, refs), truth)[0]
    assert not checks.bleu_agrees(bleu_without_brevity_penalty(hyps, refs), truth)[0]
    assert checks.bleu_agrees(w.report.bleu, reference.bleu(w.decoded, refs))[0]


def test_perturbed_reference_decode_is_rejected(transfer_run):
    w = transfer_run
    test = w.corpus.test
    outputs = workloads.transfer_all(w.models.model, w.corpus, test)
    p = reference.arrays(w.models.model.parameters())
    args = [(test.sentences[i], outputs[i], 1 - test.labels[i]) for i in range(8)]
    agree = [reference.greedy_disagreements(p, ids, out, s, workloads.MAX_LEN, checks.TIE_TOL)
             for ids, out, s in args]
    assert checks.reference_decode(agree)[0], agree
    # push a token the program never emitted far above the rest
    emitted = {t for _, out, _ in args for t in out}
    p["out.b"][next(t for t in range(4, len(p["out.b"])) if t not in emitted)] += 1e3
    moved = [reference.greedy_disagreements(p, ids, out, s, workloads.MAX_LEN, checks.TIE_TOL)
             for ids, out, s in args]
    assert not checks.reference_decode(moved)[0]


def test_training_checks_reject_controls():
    assert not checks.unchanged({"clf": "a"}, {"clf": "b"})[0]
    assert checks.unchanged({"clf": "a"}, {"clf": "a"})[0]
    assert not checks.losses_finite([{"step": 1, "l_st": float("nan")}])[0]
    assert checks.falls([3, 3, 1, 1], 2, "l")[0]
    assert not checks.falls([1, 1, 3, 3], 2, "l")[0]
    assert not checks.gain_at_least(10.0, 15.0, 10.0)[0]
    assert not checks.classifier_accuracy([0, 1, 1], [0, 1, 0], 0.9)[0]
    assert not checks.below(40.0, 39.0, "ppl")[0]


def test_unigram_perplexity_by_hand():
    # counts with add-one over 4 ids: id 2 (EOS) 1+2, id 3 1+2; total 8
    ppl = reference.unigram_perplexity([[3], [3]], [[3]], 4)
    assert ppl == pytest.approx(math.exp(-math.log(3 / 8)))


def test_missing_trace_target_is_reported():
    tracer = tracing.Tracer()
    tracer.install([("restyle.lrp", "no_such_function", "lrp.gone", None),
                    ("restyle.no_such_module", "f", "gone", None)])
    tracer.uninstall()
    assert tracer.missing == ["restyle.lrp.no_such_function", "restyle.no_such_module.f"]


def test_hook_time_is_kept_out_of_spans():
    tracer = tracing.Tracer()

    def slow_hook(tracer, args, kwargs):
        time.sleep(0.05)
        return {"counted": 1}

    inner = tracer.wrap(lambda: None, "inner", before=slow_hook)
    tracer.wrap(lambda: inner(), "outer")()
    outer, inner_span = tracer.spans
    assert inner_span.data == {"counted": 1}
    assert outer.hook_time >= 0.05
    assert outer.duration < 0.02
