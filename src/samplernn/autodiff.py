"""Dense tensors with taped reverse-mode differentiation.

Every forward op produces a node holding its value plus a backward closure;
`backward` topologically orders the nodes reachable from a scalar loss and
runs the closures once each. The graph is rebuilt on every forward pass, so
detaching a tensor (or just wrapping a bare array) is all it takes to stop
gradients at a truncation boundary.

Broadcasting is deliberately restricted to bias-over-rows; everything else
requires exact shapes, which turns most silent mistakes into ShapeErrors.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from .errors import (
    ContractError,
    DegenerateDirectionError,
    NumericError,
    ShapeError,
)

_grad_enabled = True
_row_products = False
_check_finite = False
BLOCK = 1 << 15  # elements per pass of a blocked update; its scratch stays in cache


def _keep_freed_memory():
    """Serve every array from the heap and never trim it (glibc's mallopt
    M_MMAP_THRESHOLD and M_TRIM_THRESHOLD at 1 GiB), so a step's temporaries
    reuse pages already mapped instead of faulting fresh ones in. Returns
    whether both settings took; elsewhere than glibc it changes nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        return all(mallopt(param, 1 << 30) == 1 for param in (-3, -1))
    except (OSError, AttributeError, TypeError):
        return False


HEAP_POLICY_APPLIED = _keep_freed_memory()


@contextlib.contextmanager
def no_grad(row_products=False):
    """Disable tape recording inside the block (values only, no graph).
    row_products=True makes every matmul a stack of 1-row products, so a
    row's value does not depend on how many rows share the product."""
    global _grad_enabled, _row_products
    prev = _grad_enabled, _row_products
    _grad_enabled, _row_products = False, row_products
    try:
        yield
    finally:
        _grad_enabled, _row_products = prev


def set_check_finite(enabled):
    """Validate every op output for NaN/Inf. Slow; meant for tests."""
    global _check_finite
    _check_finite = bool(enabled)


class Tensor:
    """A dense n-d value, optionally linked into the current tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        """Same values, no history; gradients stop here."""
        return Tensor(self.data)

    def _accum(self, g, own=False):
        if self.grad is None:
            self.grad = g if own else g.copy()
        else:
            np.add(self.grad, g, out=self.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _node(data, parents, backward_fn):
    """Wrap an op result, recording the backward rule if grads are live."""
    if _check_finite and not np.all(np.isfinite(data)):
        raise NumericError("non-finite value produced by forward op")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


class Tape:
    """Topologically ordered record of the ops reachable from a root.

    Inputs always precede the ops that consume them, and backprop visits
    each node exactly once.
    """

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root):
        order = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(order)

    def backprop(self, root):
        root._accum(np.ones_like(root.data), own=True)
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def backward(loss):
    """Accumulate dloss/dx into .grad for every tensor the loss depends on."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    Tape.from_root(loss).backprop(loss)


class ParamStore:
    """Named tensors; each trainable one has a same-shape gradient accumulator."""

    def __init__(self):
        self._params = {}

    def add(self, name, data, trainable=True):
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        # C order: Adam updates each parameter through its flat view
        t = Tensor(np.asarray(data, order="C"), requires_grad=trainable)
        t.grad = np.zeros_like(t.data) if trainable else None
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad[...] = 0

    def arrays(self):
        """name -> value array, in insertion order."""
        return {name: t.data for name, t in self._params.items()}

    def grads(self):
        return {name: t.grad for name, t in self._params.items()}


# ---------------------------------------------------------------------------
# ops


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        if a.requires_grad:
            a._accum(g @ bd.T, own=True)
        if b.requires_grad:
            b._accum(ad.T @ g, own=True)

    out = np.matmul(ad[:, None, :], bd)[:, 0] if _row_products else ad @ bd
    return _node(out, (a, b), bw)


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    return _node(a.data + b.data, (a, b), bw)


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(-g, own=True)

    return _node(a.data - b.data, (a, b), bw)


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        if a.requires_grad:
            a._accum(g * bd, own=True)
        if b.requires_grad:
            b._accum(g * ad, own=True)

    return _node(ad * bd, (a, b), bw)


def scale_shift(x, scale, shift=0.0):
    """a*x + b with python scalars; handy for (1 - z) and constant scaling."""

    def bw(g):
        x._accum(g * scale, own=True)

    return _node(x.data * scale + shift, (x,), bw)


def add_bias(x, b):
    """Row-broadcast bias: [N, O] + [O]. The only broadcasting allowed."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")

    def bw(g):
        if x.requires_grad:
            x._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=0), own=True)

    return _node(x.data + b.data, (x, b), bw)


def affine(x, w, b):
    """y = x @ w + b with bias broadcast over rows."""
    return add_bias(matmul(x, w), b)


def sigmoid(x):
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        x._accum(g * (y * (1.0 - y)), own=True)

    return _node(y, (x,), bw)


def tanh(x):
    y = np.tanh(x.data)

    def bw(g):
        x._accum(g * (1.0 - y * y), own=True)

    return _node(y, (x,), bw)


def relu(x):
    d = x.data
    y = np.maximum(d, 0)

    def bw(g):
        x._accum(g * (d > 0), own=True)

    return _node(y, (x,), bw)


def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def narrow(x, axis, start, length):
    """Contiguous slice [start, start+length) along one axis. The backward
    adds into x's gradient in place, so the narrows of one tensor share one
    full-size buffer."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[idx] += g

    return _node(x.data[idx], (x,), bw)


def reshape(x, shape):
    def bw(g):
        x._accum(g.reshape(x.data.shape))

    return _node(x.data.reshape(shape), (x,), bw)


def tile_rows(v, n):
    """Repeat a vector [D] into [n, D]; gradient sums over rows."""
    if v.ndim != 1:
        raise ShapeError(f"tile_rows expects a vector, got {v.shape}")

    def bw(g):
        v._accum(g.sum(axis=0), own=True)

    return _node(np.repeat(v.data[None, :], n, axis=0), (v,), bw)


def embedding(table, ids):
    """Row lookup: ids of any shape -> ids.shape + [embed_dim]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )

    def bw(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        table._accum(buf, own=True)

    return _node(table.data[ids], (table,), bw)


def sum_all(x):
    def bw(g):
        x._accum(np.full_like(x.data, float(g)), own=True)

    return _node(np.asarray(x.data.sum(), dtype=x.dtype), (x,), bw)


def softmax_cross_entropy(logits, targets):
    """Mean NLL over rows, in nats, plus the row-stochastic probabilities.

    Stabilized by subtracting the row max before exponentiation. Targets are
    integer class indices, one per row.

    Subnormals never appear, because x86 multiplies them many times slower:
    a probability whose shifted logit is below cut = log(tiny * n * q) is
    exactly 0, and exp never sees a logit below the cut, so every other
    probability is at least n * tiny and the backward's p * g / n (g = 1 in
    training) stays normal. The loss keeps the target's unclamped logit; the
    zeroed terms are too small to move a row sum of at least 1.
    """
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N, Q], got {logits.shape}")
    n, q = logits.shape
    if q < 2:
        raise ContractError(f"need at least 2 classes, got {q}")
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} != ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= q):
        raise IndexError(
            f"target out of range [0, {q}): min={targets.min()}, max={targets.max()}"
        )
    targets = targets.astype(np.int64)

    cut = np.log(np.finfo(logits.dtype).tiny * n * q).astype(logits.dtype)
    with np.errstate(invalid="ignore"):  # non-finite logits surface as nan loss
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        z_target = z[np.arange(n), targets]
        keep = z >= cut
        ez = np.exp(np.maximum(z, cut, out=z), out=z)
        ez *= keep
        denom = ez.sum(axis=1, keepdims=True)
        probs = ez / denom
        nll = np.log(denom[:, 0]) - z_target
        loss = np.asarray(nll.mean(), dtype=logits.dtype)

    def bw(g):
        gl = probs.copy()
        gl[np.arange(n), targets] -= 1.0
        gl *= float(g) / n
        logits._accum(gl, own=True)

    return _node(loss, (logits,), bw), Tensor(probs)


def weight_norm_apply(v, g):
    """Reparameterize columns as direction * gain: w[:, j] = g[j] v[:, j] / ||v[:, j]||."""
    if v.ndim != 2 or g.ndim != 1 or v.shape[1] != g.shape[0]:
        raise ShapeError(f"weight_norm_apply: {v.shape} with gains {g.shape}")
    vd = v.data
    norms = np.sqrt(np.einsum("ij,ij->j", vd, vd))
    if np.any(norms == 0):
        j = int(np.argmin(norms))
        raise DegenerateDirectionError(f"zero-norm direction column {j}")
    scale = g.data / norms

    def bw(grad_w):
        dots = np.einsum("ij,ij->j", grad_w, vd) / norms
        if g.requires_grad:
            g._accum(dots, own=True)
        if v.requires_grad:
            # v.grad += grad_w * scale - v * (scale * dots / norms), a few
            # rows at a time, so the products stay in cache
            if v.grad is None:
                v.grad = np.zeros_like(vd)
            c = scale * dots / norms
            rows = max(1, BLOCK // vd.shape[1])
            tmp = np.empty((rows, vd.shape[1]), dtype=v.grad.dtype)
            for i in range(0, vd.shape[0], rows):
                acc = v.grad[i : i + rows]
                acc += np.multiply(grad_w[i : i + rows], scale, out=tmp[: len(acc)])
                acc -= np.multiply(vd[i : i + rows], c, out=tmp[: len(acc)])

    return _node(vd * scale, (v, g), bw)
