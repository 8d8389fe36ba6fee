"""Reverse-mode automatic differentiation on dense float64 numpy buffers.

Every operation appends its output to an implicit computation trace (a
monotonically increasing creation index doubles as the append position).
``backward`` walks the nodes reachable from a scalar loss in strict reverse
creation order, which is a valid reverse topological order because no tensor
can consume another tensor created after it.

Gradients accumulate only into tensors with ``requires_grad=True``; frozen
parameters keep identically-zero grad buffers while gradients still flow
*through* the ops that consume them.

Tensors index like numpy arrays: ``t[key]`` is ``t.values[key]``, and its
backward adds the output gradient back with ``t.grad[key] += g``. That
buffered add keeps one contribution per element, so a key must name each
element at most once: slices, ints, distinct integer arrays, or broadcast
index arrays. A lookup that repeats rows (an embedding) goes through
``gather_rows``, which accumulates them.
"""

from __future__ import annotations

import itertools
import logging
import threading
from contextlib import contextmanager

import numpy as np

logger = logging.getLogger(__name__)

_SEQ = itertools.count()


class _GradMode(threading.local):
    """Per-thread trace switch; every thread starts with recording on."""

    enabled = True


_GRAD = _GradMode()

# Additive mask value: exp(x - _MASK_BIG) underflows to exactly 0.0.
MASK_BIG = 1e30


@contextmanager
def no_grad():
    """Disable trace recording in the calling thread; ops compute values only."""
    prev = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = prev


class Tensor:
    """Dense array with value and gradient buffers plus trace linkage."""

    __slots__ = ("values", "_grad", "requires_grad", "name", "_parents", "_bwd", "_seq")

    def __init__(self, values, requires_grad=False, parents=(), bwd=None, name=None):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = tuple(parents)
        self._bwd = bwd
        self._seq = next(_SEQ)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self._grad = None

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.values.reshape(()))

    def __repr__(self):
        tag = self.name or ("param" if self.requires_grad and not self._parents else "tensor")
        return f"Tensor({tag}, shape={self.shape})"

    # operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, key):
        """``values[key]``; ``key`` names each element at most once."""
        out = self.values[key]

        def bwd(g):
            if self.requires_grad:
                self.grad[key] += g

        return _node(out, (self,), bwd)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def parameter(values, name=None) -> Tensor:
    return Tensor(values, requires_grad=True, name=name)


def constant(values, name=None) -> Tensor:
    return Tensor(values, requires_grad=False, name=name)


def _lift(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _node(values, parents, bwd, name=None) -> Tensor:
    """Register an op output; records nothing when grads are disabled."""
    if not _GRAD.enabled:
        return Tensor(values, name=name)
    req = any(p.requires_grad for p in parents)
    if not req:
        return Tensor(values, name=name)
    return Tensor(values, requires_grad=True, parents=parents, bwd=bwd, name=name)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values + b.values
    except ValueError:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.shape)

    return _node(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values - b.values
    except ValueError:
        raise ValueError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g, b.shape)

    return _node(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values * b.values
    except ValueError:
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.values, a.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.values, b.shape)

    return _node(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values / b.values
    except ValueError:
        raise ValueError(f"div: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g / b.values, a.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(-g * a.values / (b.values * b.values), b.shape)

    return _node(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.grad -= g

    return _node(-a.values, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * (1.0 - out * out)

    return _node(out, (a,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * out * (1.0 - out)

    return _node(out, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    out = np.abs(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * np.sign(a.values)

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = np.matmul(a.values, b.values)
    except ValueError:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        if b.values.ndim == 2 and a.values.ndim > 2:
            # a 2-D right operand under a batched left one: fold the batch axes
            # into rows, so each gradient is one 2-D product and no (..., K, N)
            # per-batch buffer is built and summed
            K, N = b.shape
            if a.requires_grad:
                a.grad += (g.reshape(-1, N) @ b.values.T).reshape(a.shape)
            if b.requires_grad:
                b.grad += a.values.reshape(-1, K).T @ g.reshape(-1, N)
            return
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.values, -1, -2))
            a.grad += _unbroadcast(ga, a.shape)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.values, -1, -2), g)
            b.grad += _unbroadcast(gb, b.shape)

    return _node(out, (a, b), bwd)


def swap_last_axes(a: Tensor) -> Tensor:
    """Swap the last two axes: (..., M, N) -> (..., N, M); a view of ``a``."""
    out = np.swapaxes(a.values, -1, -2)

    def bwd(g):
        if a.requires_grad:
            a.grad += np.swapaxes(g, -1, -2)

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# recurrent cell


def gru_step(gi: Tensor, h: Tensor, u: Tensor, bh: Tensor) -> Tensor:
    """One GRU update (Cho et al. 2014) as a single traced op.

    ``gi`` (B, 3H) is the input projection x·W + b_i, computed outside so it
    can be batched over timesteps; ``h`` (B, H) is the previous state and
    ``u`` (H, 3H), ``bh`` (3H,) the recurrent weights, gate columns in z|r|n
    order. The reset gate scales the recurrent term of the candidate:

        z = σ(gi_z + gh_z),  r = σ(gi_r + gh_r),  gh = h·U + b_h
        n = tanh(gi_n + r ⊙ gh_n),  h' = (1 − z) ⊙ n + z ⊙ h

    The forward evaluates, entry by entry, the same expressions in the same
    order as the composed ``matmul``/``sigmoid``/``tanh`` ops, so its values
    are those of the composed graph; the backward is written out by hand.
    """
    H = h.shape[-1]
    gh = np.matmul(h.values, u.values) + bh.values
    zr = _sigmoid(gi.values[:, :2 * H] + gh[:, :2 * H])
    z, r = zr[:, :H], zr[:, H:]
    n = np.tanh(gi.values[:, 2 * H:] + r * gh[:, 2 * H:])
    out = (1.0 - z) * n + z * h.values

    def bwd(g):
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_z = g * (h.values - n) * z * (1.0 - z)
        da_r = da_n * gh[:, 2 * H:] * r * (1.0 - r)
        dgh = np.concatenate([da_z, da_r, da_n * r], axis=1)
        if gi.requires_grad:
            gi.grad += np.concatenate([da_z, da_r, da_n], axis=1)
        if h.requires_grad:
            h.grad += g * z + dgh @ u.values.T
        if u.requires_grad:
            u.grad += h.values.T @ dgh
        if bh.requires_grad:
            bh.grad += dgh.sum(axis=0)

    return _node(out, (gi, h, u, bh), bwd)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.grad += g
        elif keepdims:
            a.grad += g
        else:
            a.grad += np.expand_dims(g, axis)

    return _node(out, (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.values.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(n))


def tmax(a: Tensor, axis: int, argmax: np.ndarray | None = None) -> Tensor:
    """Max along one axis; gradient routes to the (first) argmax position.
    ``argmax`` is ``np.argmax(a.values, axis)`` when the caller already has it."""
    idx = np.argmax(a.values, axis=axis) if argmax is None else argmax
    out = np.take_along_axis(a.values, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def bwd(g):
        if a.requires_grad:
            buf = np.zeros_like(a.values)
            np.put_along_axis(buf, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
            a.grad += buf

    return _node(out, (a,), bwd)


def softmax(a: Tensor, axis: int = -1, bias: np.ndarray | None = None) -> Tensor:
    """softmax(a + bias) along ``axis``; ``bias`` is a constant added first
    (an additive mask, say) and takes no gradient."""
    x = a.values if bias is None else a.values + bias
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            a.grad += (g - dot) * out

    return _node(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def bwd(g):
        if a.requires_grad:
            a.grad += g - sm * g.sum(axis=axis, keepdims=True)

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# shape / indexing ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = a.values.reshape(shape)

    def bwd(g):
        if a.requires_grad:
            a.grad += g.reshape(a.shape)

    return _node(out, (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [(_lift(t)) for t in tensors]
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.grad += g[tuple(sl)]

    return _node(out, tuple(tensors), bwd)


def stack(tensors, axis: int = 0) -> Tensor:
    """Join same-shape tensors along a new axis."""
    tensors = [_lift(t) for t in tensors]
    out = np.stack([t.values for t in tensors], axis=axis)

    def bwd(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.grad += np.take(g, i, axis=axis)

    return _node(out, tuple(tensors), bwd)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: rows of a (V, E) table indexed by an integer array
    whose ids may repeat; a repeated row's gradients accumulate."""
    ids = np.asarray(ids)
    out = table.values[ids]

    def bwd(g):
        if table.requires_grad:
            np.add.at(table.grad, ids.ravel(), g.reshape(-1, table.shape[-1]))

    return _node(out, (table,), bwd)


def place_rows(a: Tensor, rows: np.ndarray, width: int) -> Tensor:
    """A (width, ...) tensor holding ``a``'s rows at the distinct ``rows`` and
    zero rows elsewhere; ``a`` itself when it already has every row."""
    if len(rows) == width:
        return a
    out = np.zeros((width, *a.shape[1:]))
    out[rows] = a.values

    def bwd(g):
        if a.requires_grad:
            a.grad += g[rows]

    return _node(out, (a,), bwd)


def shift_sum(a: Tensor, width: int) -> Tensor:
    """Sum of ``width`` column blocks, each shifted one step further along axis 1:
    (B, T, width*F) -> (B, T-width+1, F), with

        out[:, p] = sum_j a[:, p+j, j*F:(j+1)*F].

    With ``a = x @ W_blocks``, whose blocks hold a width-w filter's per-offset
    rows, this is that filter's convolution over x. Its adjoint is
    ``shift_spread``."""
    B, T, C = a.shape
    if T < width:
        raise ValueError(f"shift_sum: sequence length {T} shorter than width {width}")
    P, F = T - width + 1, C // width
    out = a.values[:, :P, :F].copy()
    for j in range(1, width):
        out += a.values[:, j:j + P, j * F:(j + 1) * F]

    def bwd(g):
        if a.requires_grad:
            for j in range(width):
                a.grad[:, j:j + P, j * F:(j + 1) * F] += g

    return _node(out, (a,), bwd)


def shift_spread(a: Tensor, width: int, length: int) -> Tensor:
    """The adjoint of ``shift_sum``: (B, P, F) -> (B, length, width*F),
    with out[:, p+j, j*F:(j+1)*F] = a[:, p] and zeros where no p reaches."""
    B, P, F = a.shape
    if length < P + width - 1:
        raise ValueError(f"shift_spread: length {length} shorter than {P + width - 1}")
    out = np.zeros((B, length, width * F))
    for j in range(width):
        out[:, j:j + P, j * F:(j + 1) * F] = a.values

    def bwd(g):
        if a.requires_grad:
            for j in range(width):
                a.grad += g[:, j:j + P, j * F:(j + 1) * F]

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# composite losses


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    d = sub(a, b)
    return mul(d, d)


def cross_entropy_with_indices(logits: Tensor, ids: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Per-position negative log-likelihood of integer targets."""
    ids = np.asarray(ids)
    if ids.shape != logits.shape[:-1]:
        raise ValueError(f"cross_entropy_with_indices: target shape {ids.shape} "
                         f"does not match {logits.shape[:-1]}")
    # one (leading index, target) pair per entry, so each entry is named once
    ce = neg(log_softmax(logits, axis=-1)[(*np.indices(ids.shape, sparse=True), ids)])
    if mask is not None:
        ce = mul(ce, constant(mask))
    return ce


def cross_entropy_with_dist(p: Tensor, logits: Tensor) -> Tensor:
    """Rowwise H(p, softmax(logits)) = -sum_v p_v log q_v; nonnegative for valid p."""
    return neg(tsum(mul(p, log_softmax(logits, axis=-1)), axis=-1))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(x) into every reachable trainable tensor."""
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq, reverse=True)
    loss.grad = np.ones_like(loss.values)
    for t in nodes:
        if t._bwd is not None:
            t._bwd(t.grad)
        if t._parents:
            t._grad = None  # transient; free intermediate grads


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_check(loss_fn, params, step: float = 1e-5,
                            max_coords_per_param: int = 8, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be deterministic. Coordinates are subsampled per
    parameter when the buffer is larger than ``max_coords_per_param``.
    """
    params = list(params)
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.values).all():
        raise ValueError("finite_difference_check: non-finite loss")
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, ga in zip(params, analytic):
        n = p.values.size
        coords = np.arange(n)
        if n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        flat = p.values.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            with no_grad():
                up = loss_fn().item()
            flat[c] = orig - step
            with no_grad():
                down = loss_fn().item()
            flat[c] = orig
            numeric = (up - down) / (2.0 * step)
            a = ga.reshape(-1)[c]
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# optimizers


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_global_norm(params, clip_norm: float) -> float:
    """Rescale grads so their global norm is <= clip_norm; returns pre-clip norm.
    Grads of a non-finite norm are left as they are."""
    norm = global_grad_norm(params)
    if np.isfinite(norm) and norm > clip_norm * (1.0 + 1e-12):
        scale = clip_norm / norm
        for p in params:
            p.grad *= scale
    return norm


class ClippedOptimizer:
    """Global-norm gradient clipping and the skip of a non-finite step, shared
    by the update rules below."""

    def __init__(self, params, learning_rate: float, clip_norm: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.skipped_steps = 0

    def step(self) -> float:
        """Clip, update, zero grads. Returns the pre-clip gradient norm; a
        non-finite norm skips the update and counts in ``skipped_steps``."""
        norm = clip_global_norm(self.params, self.clip_norm)
        if np.isfinite(norm):
            self._update()
        else:
            self.skipped_steps += 1
            logger.warning("optimizer: non-finite gradient norm, step skipped")
        for p in self.params:
            p.zero_grad()
        return norm


class SgdOptimizer(ClippedOptimizer):
    """Plain SGD with global-norm gradient clipping."""

    def _update(self) -> None:
        for p in self.params:
            p.values -= self.learning_rate * p.grad


class AdamOptimizer(ClippedOptimizer):
    """Adam with the same global-norm clipping contract as SGD."""

    def __init__(self, params, learning_rate: float, clip_norm: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(params, learning_rate, clip_norm)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]
        self.t = 0

    def _update(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * p.grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * p.grad * p.grad
            p.values -= self.learning_rate * (self.m[i] / b1t) / (np.sqrt(self.v[i] / b2t) + self.eps)


def make_optimizer(name: str, params, learning_rate: float, clip_norm: float):
    if name == "sgd":
        return SgdOptimizer(params, learning_rate, clip_norm)
    if name == "adam":
        return AdamOptimizer(params, learning_rate, clip_norm)
    raise ValueError(f"unknown optimizer {name!r} (expected 'sgd' or 'adam')")
