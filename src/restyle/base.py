"""Estimator plumbing: parameter introspection and input validation helpers.

Mirrors the scikit-learn conventions (``get_params``, fitted attributes carry a
trailing underscore) without importing scikit-learn. There is no
``set_params``: a model's weights are built from its hyperparameters, so a
changed hyperparameter needs a new model.
"""

from __future__ import annotations

import hashlib
import inspect

import numpy as np

from restyle.checkpoint import params_hash


class ParamMixin:
    """get_params driven by the __init__ signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name, p in sig.parameters.items()
                if name != "self" and p.kind != p.VAR_KEYWORD]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


class Estimator(ParamMixin):
    """A model whose weights, ``params_``, are built by ``fit``."""

    def parameters(self) -> dict:
        check_fitted(self, "params_")
        return self.params_

    def set_trainable(self, flag: bool) -> None:
        for p in self.params_.values():
            p.requires_grad = flag
            if not flag:
                p.zero_grad()

    def weights_hash(self) -> str:
        return params_hash(self.parameters())


def check_fitted(estimator, attribute: str) -> None:
    if getattr(estimator, attribute, None) is None:
        raise RuntimeError(
            f"{type(estimator).__name__} is not fitted; call fit() first")


def check_token_sequences(X) -> list[list[int]]:
    """Validate a list of integer-id sequences."""
    out = []
    for i, seq in enumerate(X):
        seq = [int(t) for t in seq]
        if not seq:
            raise ValueError(f"sequence {i} is empty")
        if any(t < 0 for t in seq):
            raise ValueError(f"sequence {i} contains negative ids")
        out.append(seq)
    if not out:
        raise ValueError("no sequences given")
    return out


def check_binary_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary (0 or 1)")
    return y


def derive_seed(root_seed: int, component: str) -> int:
    """A component's seed: a hash of the root seed and the component's name."""
    digest = hashlib.sha256(f"{root_seed}:{component}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % (2 ** 31)
