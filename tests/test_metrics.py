import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restyle.metrics import aggregate_scores, build_report, corpus_bleu, transfer_accuracy

from _oracles import counter_bleu


class TestBleu:
    def test_identical_to_reference_scores_100(self):
        outs = ["the food was great .", "my room looked lovely today ."]
        refs = [[o] for o in outs]
        assert corpus_bleu(outs, refs) == pytest.approx(100.0)

    def test_disjoint_unigrams_score_zero(self):
        assert corpus_bleu(["a b c d"], [["e f g h"]]) == 0.0

    def test_hand_worked_pair_strict_geometric_mean(self):
        # hyp "a b c d" vs ref "a b c e": p1=3/4, p2=2/3, p3=1/2, p4=0 -> 0.0
        assert corpus_bleu(["a b c d"], [["a b c e"]]) == 0.0

    def test_hand_worked_trigram_case(self):
        # independent hand computation with matching lengths (no brevity penalty):
        # hyp "a b c d e" vs ref "a b c d f": p1=4/5, p2=3/4, p3=2/3, p4=1/2
        expected = 100.0 * math.exp(
            (math.log(4 / 5) + math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2)) / 4)
        got = corpus_bleu(["a b c d e"], [["a b c d f"]])
        assert got == pytest.approx(expected, abs=1e-9)

    def test_smoothed_variant_nonzero_on_sparse_overlap(self):
        strict = corpus_bleu(["a b c d"], [["a b c e"]])
        smoothed = corpus_bleu(["a b c d"], [["a b c e"]], smooth=True)
        assert strict == 0.0 and smoothed > 0.0

    def test_multi_reference_clipping_takes_max(self):
        # the doubled "a" and the "a a b c" 4-gram only match via the second ref
        hyp = ["a a b c d"]
        one = corpus_bleu(hyp, [["a b c d x"]])
        two = corpus_bleu(hyp, [["a b c d x", "a a b c y"]])
        assert two > one > 0.0

    def test_brevity_penalty_applies_to_short_hypotheses(self):
        # all hyp n-grams occur in the longer reference: BP = exp(1 - 7/5)
        short = corpus_bleu(["a b c d e"], [["a b c d e f g"]])
        assert short == pytest.approx(100.0 * math.exp(1 - 7 / 5), abs=1e-9)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="outputs"):
            corpus_bleu(["a"], [["a"], ["b"]])
        with pytest.raises(ValueError) as err:
            corpus_bleu(["a", "b"], [["a"]])
        assert str(err.value) == "corpus_bleu: 2 outputs vs 1 reference sets"

    def test_sentence_without_references_rejected(self):
        with pytest.raises(ValueError) as err:
            corpus_bleu(["a b", "c d"], [["a b"], []])
        assert str(err.value) == "corpus_bleu: sentence with no references"

    def test_clip_is_the_largest_count_in_one_reference(self):
        # "a" occurs twice in each reference: 2 of the 4 unigrams match, not 4
        assert corpus_bleu(["a a a a"], [["a a", "a a"]], max_n=1) == 50.0

    def test_equally_close_references_take_the_shorter_length(self):
        # references of 4 and 6 words are both 1 from the 5-word hypothesis:
        # the closest length is 4 < 5, so no brevity penalty
        hyp = "a b c d e"
        assert corpus_bleu([hyp], [["a b c d", "a b c d e f"]], max_n=1) == 100.0
        assert corpus_bleu([hyp], [["a b c d e f", "a b c d"]], max_n=1) == 100.0

    def test_ngrams_do_not_span_sentences_or_references(self):
        # "b c" would match across the end of the first sentence, and "x y"
        # across the end of the first reference
        assert corpus_bleu(["a b", "c d"], [["a b"], ["b c"]], max_n=2) == \
            counter_bleu(["a b", "c d"], [["a b"], ["b c"]], max_n=2)
        assert corpus_bleu(["x y"], [["q x", "y q"]], max_n=2, smooth=True) == \
            counter_bleu(["x y"], [["q x", "y q"]], max_n=2, smooth=True)

    def test_corpus_level_permutation_invariant(self):
        outs = ["a b c", "d e f", "a d e"]
        refs = [["a b x"], ["d e y"], ["a d z"]]
        base = corpus_bleu(outs, refs)
        perm = corpus_bleu([outs[2], outs[0], outs[1]], [refs[2], refs[0], refs[1]])
        assert base == pytest.approx(perm)


def sentences(words, max_len=7):
    return st.lists(st.sampled_from(words), max_size=max_len)


@st.composite
def bleu_corpora(draw):
    """A corpus of hypotheses, each with 1-4 references, over a random small
    vocabulary of words or ints; hypotheses may be empty or shorter than any
    n-gram order, and a sentence is a string or a token list."""
    if draw(st.booleans()):
        words = draw(st.lists(st.text("abcxyz", min_size=1, max_size=2), min_size=1,
                              max_size=6, unique=True))
    else:
        words = draw(st.lists(st.integers(-3, 40), min_size=1, max_size=6, unique=True))
    as_text = isinstance(words[0], str) and draw(st.booleans())
    n = draw(st.integers(0, 6))
    outputs = [draw(sentences(words)) for _ in range(n)]
    references = [[draw(sentences(words)) for _ in range(draw(st.integers(1, 4)))]
                  for _ in range(n)]
    if as_text:
        outputs = [" ".join(s) for s in outputs]
        references = [[" ".join(r) for r in refs] for refs in references]
    return outputs, references


class TestBleuAgainstCounterOracle:
    """``corpus_bleu`` counts over the whole corpus with numpy; the oracle
    counts sentence by sentence with ``Counter``s. Both sum the same integers,
    so the scores are equal floats."""

    @settings(max_examples=300, deadline=None)
    @given(bleu_corpora(), st.integers(1, 5), st.booleans())
    def test_equals_counter_oracle(self, corpus, max_n, smooth):
        outputs, references = corpus
        assert corpus_bleu(outputs, references, max_n, smooth) == \
            counter_bleu(outputs, references, max_n, smooth)


class TestTransferAccuracy:
    class FakeClassifier:
        def predict(self, X):
            return np.array([seq[0] % 2 for seq in X])

    def test_fraction_matching_target(self):
        clf = self.FakeClassifier()
        outputs = [[4], [5], [6], [7]]     # predicted: 0 1 0 1
        acc = transfer_accuracy(outputs, [0, 1, 1, 1], clf)
        assert acc == pytest.approx(75.0)

    def test_flip_targets_complements_for_binary_decisive(self):
        clf = self.FakeClassifier()
        outputs = [[4], [5], [6], [7]]
        acc = transfer_accuracy(outputs, [0, 1, 1, 1], clf)
        flipped = transfer_accuracy(outputs, [1, 0, 0, 0], clf)
        assert acc + flipped == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            transfer_accuracy([], [], self.FakeClassifier())

    def test_empty_outputs_count_as_misses(self, small_classifier, encoded_dev):
        sents = encoded_dev.sentences[:3]
        pred = small_classifier.predict(sents).tolist()
        outputs = [sents[0], [], sents[1], [], sents[2]]
        targets = [pred[0], pred[0], pred[1], pred[1], 1 - pred[2]]
        assert transfer_accuracy(outputs, targets, small_classifier) == pytest.approx(40.0)
        assert transfer_accuracy([[], []], [0, 1], small_classifier) == 0.0


class TestAggregates:
    def test_paper_scale_math(self):
        # independent hand computation of the means themselves
        g2, h2 = aggregate_scores(94.0, 60.4)
        assert g2 == pytest.approx(math.sqrt(94.0 * 60.4), abs=1e-12)
        assert h2 == pytest.approx(2 * 94.0 * 60.4 / (94.0 + 60.4), abs=1e-12)
        assert g2 == pytest.approx(75.3499, abs=1e-4)
        assert h2 == pytest.approx(73.5440, abs=1e-4)

    def test_equal_arguments_collapse_to_value(self):
        g2, h2 = aggregate_scores(42.0, 42.0)
        assert g2 == pytest.approx(42.0)
        assert h2 == pytest.approx(42.0)

    def test_both_zero_defines_h2_zero(self):
        g2, h2 = aggregate_scores(0.0, 0.0)
        assert (g2, h2) == (0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_g2_dominates_h2(self, acc, bleu):
        g2, h2 = aggregate_scores(acc, bleu)
        assert g2 >= h2 - 1e-9
        if abs(acc - bleu) > 1e-6 and min(acc, bleu) > 0:
            assert g2 > h2

    def test_report_fields(self):
        report = build_report(50.0, 25.0, 10)
        assert report.n_sentences == 10
        assert report.g2 == pytest.approx(math.sqrt(1250.0))
        assert "Acc" in report.to_table()
        assert '"bleu": 25.0' in report.to_json()
