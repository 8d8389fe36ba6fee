import numpy as np
import pytest

from restyle.data import (
    BOS,
    EOS,
    PAD,
    UNK,
    N_RESERVED,
    Batcher,
    LabeledCorpus,
    Vocabulary,
    build_vocab,
    corrupt,
    length_ordered_batches,
    pack_batch,
)


class TestVocabulary:
    def test_min_freq_filters(self):
        vocab = build_vocab(["a b", "a c"], min_freq=2)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id
        assert "c" not in vocab.token_to_id

    def test_min_freq_one_keeps_everything(self):
        vocab = build_vocab(["a b", "a c"], min_freq=1)
        assert {"a", "b", "c"} <= set(vocab.token_to_id)

    def test_deterministic_assignment(self):
        corpus = ["the cat sat", "the dog sat", "a cat ran"]
        v1, v2 = build_vocab(corpus), build_vocab(corpus)
        assert v1.id_to_token == v2.id_to_token

    def test_reserved_ids_fixed(self):
        vocab = build_vocab(["x"])
        assert vocab.token_to_id["<pad>"] == PAD == 0
        assert vocab.token_to_id["<bos>"] == BOS == 1
        assert vocab.token_to_id["<eos>"] == EOS == 2
        assert vocab.token_to_id["<unk>"] == UNK == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([])

    def test_encode_decode_roundtrip(self):
        vocab = build_vocab(["the cat sat on the mat"])
        s = "the cat sat"
        assert vocab.decode(vocab.encode(s)) == s

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(["a a"])
        assert vocab.encode("a zzz") == [vocab.token_to_id["a"], UNK]

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(["the cat sat on the mat again"])
        vocab.save(tmp_path / "vocab.txt")
        again = Vocabulary.load(tmp_path / "vocab.txt")
        assert again.id_to_token == vocab.id_to_token


class TestCorrupt:
    def test_zero_prob_identity(self):
        rng = np.random.default_rng(0)
        ids = [4, 5, 6, 7]
        assert corrupt(ids, 100, 0.0, rng) == ids

    def test_prob_one_tiny_vocab_degenerate(self):
        # vocab size 5 has a single non-reserved token, so resampling is identity
        rng = np.random.default_rng(0)
        ids = [4, 4, 4]
        assert corrupt(ids, 5, 1.0, rng) == ids

    def test_prob_one_large_vocab_changes_most(self):
        rng = np.random.default_rng(0)
        ids = [4] * 200
        out = corrupt(ids, 104, 1.0, rng)
        changed = sum(a != b for a, b in zip(ids, out))
        assert changed > 180

    def test_length_preserved_and_no_reserved_introduced(self):
        rng = np.random.default_rng(1)
        ids = [BOS, 4, 5, EOS, 6]
        out = corrupt(ids, 50, 1.0, rng)
        assert len(out) == len(ids)
        assert out[0] == BOS and out[3] == EOS
        assert all(t >= N_RESERVED for i, t in enumerate(out) if i in (1, 2, 4))

    def test_reserved_only_passes_through(self):
        rng = np.random.default_rng(2)
        assert corrupt([BOS, EOS], 50, 1.0, rng) == [BOS, EOS]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            corrupt([], 50, 0.5, np.random.default_rng(0))

    def test_monte_carlo_replacement_rate(self):
        # binomial oracle: 20 positions * 0.15 = 3.0 expected replacements
        rng = np.random.default_rng(3)
        vocab_size = 1004
        ids = list(range(4, 24))
        changed = 0
        n = 10000
        for _ in range(n):
            out = corrupt(ids, vocab_size, 0.15, rng)
            changed += sum(a != b for a, b in zip(ids, out))
        mean = changed / n
        assert 2.7 <= mean <= 3.3


class TestBatching:
    def test_single_sentence_no_extra_padding(self):
        b = pack_batch([[4, 5, 6]])
        assert b.enc_ids.shape == (1, 3)
        assert b.lengths.tolist() == [3]
        assert (b.enc_ids != PAD).all()

    def test_mixed_lengths_pad_right(self):
        b = pack_batch([[4, 5, 6], [4, 5, 6, 7, 8]])
        assert b.enc_ids.shape == (2, 5)
        assert b.enc_ids[0, 3] == PAD and b.enc_ids[0, 4] == PAD
        assert b.dec_inputs[0, 0] == BOS
        assert b.targets[0, 3] == EOS
        assert b.targets[1, 5] == EOS

    def test_mask_zero_beyond_eos(self):
        b = pack_batch([[4, 5], [4, 5, 6, 7]])
        assert b.target_mask[0].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
        assert b.token_mask[0].tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_truncation_counted_with_eos_preserved(self):
        corpus = LabeledCorpus([[4, 5, 6, 7, 8, 9]], [0])
        batcher = Batcher(corpus, batch_size=1, max_len=4)
        batch = next(batcher.epoch())
        assert batcher.truncated == 1
        assert batch.lengths.tolist() == [4]
        assert batch.targets[0, 4] == EOS

    def test_shuffle_reproducible_under_seed(self):
        corpus = LabeledCorpus([[4 + i] for i in range(50)], [0] * 50)
        a = [b.enc_ids.tolist() for b in Batcher(corpus, 8, 16, seed=9).epoch()]
        b = [b.enc_ids.tolist() for b in Batcher(corpus, 8, 16, seed=9).epoch()]
        assert a == b

    def test_min_width_padding(self):
        b = pack_batch([[4, 5]], min_width=4)
        assert b.enc_ids.shape == (1, 4)


class TestLengthOrderedBatches:
    def test_rows_once_widths_rising_labels_follow(self):
        rng = np.random.default_rng(4)
        seqs = [rng.integers(4, 20, size=n).tolist() for n in rng.integers(1, 9, size=23)]
        labels = rng.integers(0, 2, size=23)
        pairs = list(length_ordered_batches(seqs, 5, labels))
        rows = np.concatenate([r for r, _ in pairs]).tolist()
        # every row once, by length and then by input position
        assert sorted(rows) == list(range(23))
        assert rows == sorted(rows, key=lambda i: (len(seqs[i]), i))
        widths = [batch.enc_ids.shape[1] for _, batch in pairs]
        assert widths == sorted(widths) and len(set(widths)) > 1
        for r, batch in pairs:
            assert len(r) <= 5
            assert batch.enc_ids.shape[1] == max(len(seqs[i]) for i in r)
            assert batch.labels.tolist() == labels[r].tolist()
            for i, ids, n in zip(r, batch.enc_ids, batch.lengths):
                assert ids[:n].tolist() == seqs[i] and not ids[n:].any()

    def test_labels_default_to_zero(self):
        (rows, batch), = length_ordered_batches([[4, 5, 6], [7]], 4)
        assert rows.tolist() == [1, 0] and batch.labels.tolist() == [0, 0]


class TestLabeledCorpus:
    def test_parallel_length_enforced(self):
        with pytest.raises(ValueError, match="parallel"):
            LabeledCorpus([[4]], [0, 1])

    def test_by_style_filters(self):
        c = LabeledCorpus([[4], [5], [6]], [0, 1, 0])
        assert c.by_style(0).sentences == [[4], [6]]
        assert c.by_style(1).labels == [1]
