"""Relevance-gated unsupervised text style transfer.

The public surface mirrors familiar estimator conventions: the classifier and
language models expose ``fit``/``predict``-style methods, and
``StyleTransferPipeline`` composes the whole two-stage system behind
``fit``/``transform``.
"""

from restyle.data import Vocabulary, LabeledCorpus, build_vocab
from restyle.textcnn import TextCnnStyleClassifier
from restyle.language_model import DirectionalLanguageModel
from restyle.seq2seq import Seq2seqModel
from restyle.pipeline import StyleTransferPipeline
from restyle.metrics import MetricReport, corpus_bleu, transfer_accuracy, aggregate_scores

__all__ = [
    "Vocabulary",
    "LabeledCorpus",
    "build_vocab",
    "TextCnnStyleClassifier",
    "DirectionalLanguageModel",
    "Seq2seqModel",
    "StyleTransferPipeline",
    "MetricReport",
    "corpus_bleu",
    "transfer_accuracy",
    "aggregate_scores",
]

__version__ = "0.1.0"
