"""Reproducible marker-word test corpus.

Each sentence is a style-neutral template carrying exactly one polarity
marker; the label is the marker's polarity. Fillers lean weakly toward one
style (``FILLER_SKEW``), so the marker is the only deterministic style
signal, and reference transfers can be produced mechanically by marker
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MARKERS = (
    ("awful", "terrible", "dreadful", "nasty"),      # style 0
    ("great", "amazing", "lovely", "superb"),        # style 1
)

_NOUNS = ["food", "service", "staff", "room", "coffee", "pasta", "wifi",
          "pool", "bed", "price", "music", "parking", "bread", "salad",
          "dessert", "patio", "menu", "lighting", "soup", "tea"]
_PLACES = ["place", "hotel", "cafe", "diner", "bar", "restaurant", "motel",
           "bakery"]
_TIMES = ["today", "yesterday", "tonight", "lately", "recently", "somehow"]

# fillers lean weakly toward one style (real corpora correlate everywhere);
# the marker stays the only deterministic signal
FILLER_SKEW = 0.8

_TEMPLATES = [
    "the {N} was {M} .",
    "the {N} at this {P} was {M} .",
    "my {N} looked {M} {T} .",
    "honestly the {N} seemed {M} .",
    "the {N} here felt {M} again .",
    "overall the {N} was {M} for sure .",
    "that {P} had {M} {N} {T} .",
    "we thought the {N} was {M} .",
    "this {P} serves {M} {N} .",
    "frankly their {N} stayed {M} {T} .",
    "the {N} at the {P} seemed {M} .",
    "everyone said the {N} was {M} .",
    "the {N} and the {N2} were {M} {T} .",
    "folks found the {N} at that {P} {M} .",
    "my friend called the {N} there {M} .",
    "both the {N} and the {N2} turned {M} .",
    "the {N} near the {P} felt {M} to me .",
    "people kept saying the {N} was {M} {T} .",
]


@dataclass
class MarkerCorpus:
    train_sentences: list[str]
    train_labels: list[int]
    dev_sentences: list[str]
    dev_labels: list[int]
    test_sentences: list[str]
    test_labels: list[int]
    test_references: list[list[str]]   # 4 oracle transfers per test sentence


def _skewed_choice(rng, pool, style: int, skew: float) -> str:
    """Draw from the style-leaning half of the pool with probability ``skew``."""
    half = len(pool) // 2
    leaning = pool[:half] if style == 0 else pool[half:]
    other = pool[half:] if style == 0 else pool[:half]
    src = leaning if rng.random() < skew else other
    return src[rng.integers(len(src))]


def _sample_sentence(rng, style: int, skew: float = FILLER_SKEW) -> tuple[str, str]:
    template = _TEMPLATES[rng.integers(len(_TEMPLATES))]
    marker = MARKERS[style][rng.integers(len(MARKERS[style]))]
    noun = _skewed_choice(rng, _NOUNS, style, skew)
    noun2 = _skewed_choice(rng, _NOUNS, style, skew)
    while noun2 == noun:
        noun2 = _skewed_choice(rng, _NOUNS, style, skew)
    sentence = template.format(
        N=noun,
        N2=noun2,
        P=_PLACES[rng.integers(len(_PLACES))],
        T=_skewed_choice(rng, _TIMES, style, skew),
        M=marker,
    )
    return sentence, marker


def _sample_split(rng, n: int) -> tuple[list[str], list[int], list[list[str]]]:
    sentences, labels, references = [], [], []
    for i in range(n):
        style = i % 2
        sentence, marker = _sample_sentence(rng, style)
        refs = [sentence.replace(marker, sub) for sub in MARKERS[1 - style]]
        sentences.append(sentence)
        labels.append(style)
        references.append(refs)
    return sentences, labels, references


def generate_marker_corpus(n_train: int = 10000, n_dev: int = 1000,
                           n_test: int = 500, seed: int = 0) -> MarkerCorpus:
    rng = np.random.default_rng(seed)
    tr_s, tr_l, _ = _sample_split(rng, n_train)
    dv_s, dv_l, _ = _sample_split(rng, n_dev)
    te_s, te_l, te_r = _sample_split(rng, n_test)
    return MarkerCorpus(tr_s, tr_l, dv_s, dv_l, te_s, te_l, te_r)


def write_corpus_files(corpus: MarkerCorpus, directory) -> dict:
    """Write <split>.style{0,1}.txt plus aligned test inputs and references."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, sents, labels in (("train", corpus.train_sentences, corpus.train_labels),
                                 ("dev", corpus.dev_sentences, corpus.dev_labels),
                                 ("test", corpus.test_sentences, corpus.test_labels)):
        for style in (0, 1):
            p = directory / f"{split}.style{style}.txt"
            with open(p, "w", encoding="utf-8") as f:
                for s, l in zip(sents, labels):
                    if l == style:
                        f.write(s + "\n")
            paths[f"{split}.style{style}"] = p
    for style in (0, 1):
        rows = [(s, refs) for s, l, refs in zip(corpus.test_sentences, corpus.test_labels,
                                                corpus.test_references) if l == style]
        inp = directory / f"test.style{style}.input.txt"
        with open(inp, "w", encoding="utf-8") as f:
            for s, _ in rows:
                f.write(s + "\n")
        paths[f"test.style{style}.input"] = inp
        for r in range(4):
            rp = directory / f"test.style{style}.ref{r}.txt"
            with open(rp, "w", encoding="utf-8") as f:
                for _, refs in rows:
                    f.write(refs[r] + "\n")
            paths[f"test.style{style}.ref{r}"] = rp
    return paths
