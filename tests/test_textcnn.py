import numpy as np
import pytest

from restyle import autodiff as ad
from restyle.autodiff import constant
from restyle.data import pack_batch
from restyle.synthetic import MARKERS
from restyle.textcnn import TextCnnStyleClassifier


def onehot_rows(ids, vocab_size):
    ids = np.asarray(ids)
    rows = np.zeros(ids.shape + (vocab_size,))
    for b in range(ids.shape[0]):
        rows[b, np.arange(ids.shape[1]), ids[b]] = 1.0
    return rows


class TestTraining:
    def test_marker_corpus_heldout_accuracy(self, small_classifier):
        assert small_classifier.dev_accuracy_ >= 0.99

    def test_label_symmetry(self, encoded_train, encoded_dev, vocab):
        clf = TextCnnStyleClassifier(vocab_size=len(vocab), embed_dim=16, num_filters=8,
                                     epochs=2, learning_rate=2e-3, seed=3)
        clf.fit(encoded_train.sentences, encoded_train.labels)
        acc = clf.score(encoded_dev.sentences, encoded_dev.labels)

        flipped = [1 - l for l in encoded_train.labels]
        clf2 = TextCnnStyleClassifier(vocab_size=len(vocab), embed_dim=16, num_filters=8,
                                      epochs=2, learning_rate=2e-3, seed=3)
        clf2.fit(encoded_train.sentences, flipped)
        acc_flipped = clf2.score(encoded_dev.sentences,
                                 [1 - l for l in encoded_dev.labels])
        assert acc == pytest.approx(acc_flipped, abs=0.02)

    def test_deterministic_under_seed(self, encoded_train, vocab):
        def train():
            clf = TextCnnStyleClassifier(vocab_size=len(vocab), embed_dim=16,
                                         num_filters=8, epochs=1, seed=5)
            clf.fit(encoded_train.sentences[:200], encoded_train.labels[:200])
            return clf.params_["out.w"].values.copy()

        np.testing.assert_array_equal(train(), train())

    def test_single_label_rejected(self, vocab):
        clf = TextCnnStyleClassifier(vocab_size=len(vocab))
        with pytest.raises(ValueError, match="both styles"):
            clf.fit([[4, 5], [6, 7]], [0, 0])


class TestClassify:
    def test_probabilities_sum_to_one(self, small_classifier, encoded_dev):
        proba = small_classifier.predict_proba(encoded_dev.sentences[:32])
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(32), atol=1e-9)

    def test_marker_sentence_confident(self, small_classifier, vocab):
        pos = vocab.encode(f"the food was {MARKERS[1][0]} .")
        proba = small_classifier.predict_proba([pos])
        assert proba[0, 1] > 0.99

    def test_soft_onehot_matches_hard(self, small_classifier, encoded_dev, vocab):
        seqs = encoded_dev.sentences[:8]
        batch = pack_batch(seqs, min_width=4)
        hard = small_classifier.forward_trace(batch.enc_ids, batch.lengths).logits.values
        rows = constant(onehot_rows(batch.enc_ids, len(vocab)))
        soft = small_classifier.forward_trace_soft(rows, batch.lengths).logits.values
        np.testing.assert_allclose(soft, hard, atol=1e-9)

    def test_pad_extension_invariance(self, small_classifier, encoded_dev):
        seq = encoded_dev.sentences[0]
        alone = small_classifier.predict_proba([seq])
        padded = pack_batch([seq, seq + seq], min_width=4)  # forces extra PAD columns
        with ad.no_grad():
            trace = small_classifier.forward_trace(padded.enc_ids, padded.lengths)
            together = ad.softmax(trace.logits).values
        np.testing.assert_allclose(together[0], alone[0], atol=1e-12)

    def test_chunks_in_length_order_return_input_order(self, small_classifier,
                                                        encoded_dev):
        # a long sentence first among short ones: the chunks are taken in
        # length order and scattered back by position
        short = [s for s in encoded_dev.sentences if len(s) <= 6][:299]
        long = max(encoded_dev.sentences, key=len) * 3
        X = [long] + short
        proba = small_classifier.predict_proba(X)
        alone = np.concatenate([small_classifier.predict_proba([s]) for s in X])
        np.testing.assert_allclose(proba, alone, rtol=1e-12, atol=1e-15)

    def test_peak_memory_does_not_grow_with_chunks(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        clf = TextCnnStyleClassifier(vocab_size=60, seed=0)
        clf._init_params()
        X = [list(rng.integers(1, 60, size=16)) for _ in range(512)]

        def peak(sentences):
            tracemalloc.start()
            try:
                clf.predict_proba(sentences)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one 256-sentence chunk's trace at a time, however many chunks
        assert peak(X) <= 1.2 * peak(X[:256])

    def test_narrow_input_padded_by_the_classifier(self, small_classifier, vocab):
        # inputs narrower than the widest filter give the values of the same
        # inputs padded by the caller, on the hard and on the soft path
        seqs = [[4], [5, 6], [7, 8, 9]]
        narrow, wide = pack_batch(seqs), pack_batch(seqs, min_width=4)
        assert narrow.enc_ids.shape[1] == 3

        def traces(batch):
            rows = constant(onehot_rows(batch.enc_ids, len(vocab)))
            return (small_classifier.forward_trace(batch.enc_ids, batch.lengths),
                    small_classifier.forward_trace_soft(rows, batch.lengths))

        with ad.no_grad():
            for got, want in zip(traces(narrow), traces(wide)):
                for w in small_classifier.filter_widths:
                    np.testing.assert_array_equal(got.y[w].values, want.y[w].values)
                    np.testing.assert_array_equal(got.z[w].values, want.z[w].values)
                np.testing.assert_array_equal(got.logits.values, want.logits.values)

    def test_short_input_pad_extended(self, small_classifier):
        proba = small_classifier.predict_proba([[4]])
        assert np.isfinite(proba).all()

    def test_not_fitted_raises(self):
        clf = TextCnnStyleClassifier(vocab_size=10)
        with pytest.raises(RuntimeError, match="not fitted"):
            clf.predict([[4]])


class TestEstimatorApi:
    def test_get_set_params_roundtrip(self):
        clf = TextCnnStyleClassifier(vocab_size=10, embed_dim=8)
        params = clf.get_params()
        assert params["embed_dim"] == 8
