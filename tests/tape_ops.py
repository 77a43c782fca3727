"""Tape ops the tests build losses and oracles from, and that the program
itself never runs: elementwise sub and mul, scale, batched matmul, row
gather, axis swap, full sum and a softmax of given logits, plus the
composed slot-attention oracle of the fused ops. Each op records on
clatt.tensor's tape like the ops there. grad_check compares the tape's
gradients with central differences.

Test modules import it by name (``import tape_ops as O``): pytest puts the
directory of a test module on sys.path before importing it.
"""

from __future__ import annotations

import math

import numpy as np

from clatt import tensor as T
from clatt.tensor import Tensor, _op, _shape_error, _sum_to


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        _shape_error("sub", a.data.shape, b.data.shape)

    def back(g):
        return _sum_to(g, a.data.shape), _sum_to(-g, b.data.shape)

    return _op(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        _shape_error("mul", a.data.shape, b.data.shape)

    def back(g):
        return _sum_to(g * b.data, a.data.shape), _sum_to(g * a.data, b.data.shape)

    return _op(out, (a, b), back)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        return (g * c,)

    return _op(x.data * c, (x,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        _shape_error("matmul", a.data.shape, b.data.shape)
    out = a.data @ b.data

    def back(g):
        ga = _sum_to(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _sum_to(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _op(out, (a, b), back)


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows of x by an integer index array (any index shape)."""
    idx = np.asarray(idx, dtype=np.int64)
    out = x.data[idx]

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _op(out, (x,), back)


def swap_axes(x: Tensor, a: int, b: int) -> Tensor:
    def back(g):
        return (np.swapaxes(g, a, b),)

    return _op(np.swapaxes(x.data, a, b), (x,), back)


def tsum(x: Tensor) -> Tensor:
    def back(g):
        return (np.full_like(x.data, float(g)),)

    return _op(np.asarray(x.data.sum()), (x,), back)


def masked_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax along the last axis restricted to mask==True positions.

    The mask is a plain boolean array of the logits' rank that broadcasts
    to them, e.g. a (rows, 1, 1, S) key mask for (rows, heads, Sq, S)
    logits. Masked positions come out exactly zero; each row must keep at
    least one live entry. clatt.tensor.masked_softmax computes the logits
    of a slot class itself and applies the same arithmetic to them.
    """
    z = logits.data
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != z.ndim or any(m not in (1, s) for m, s in zip(mask.shape, z.shape)):
        _shape_error("masked_softmax", z.shape, mask.shape)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax: a row has no unmasked entries")
    if mask.all():
        p = z - z.max(axis=-1, keepdims=True)
    else:
        p = np.where(mask, z, -np.inf)
        p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def back(g):
        gz = g * p
        inner = gz.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=gz)
        gz *= p
        return (gz,)

    return _op(p, (logits,), back)


def grad_check(f, params, eps: float = 1e-6) -> float:
    """Max relative error between backward() grads and central differences.

    f must be a deterministic zero-argument callable returning a scalar
    Tensor built from the given parameter tensors, with dropout off.
    """
    params = list(params)
    T.zero_grad(params)
    T.backward(f())
    analytic = [p.grad.copy() for p in params]

    def value() -> float:
        with T.no_grad():
            return float(f().data)

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = value()
            flat[i] = orig - eps
            lo = value()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            rel = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst


def composed_slot_attention(x, cls, prm, heads):
    """The fused ops' oracle: one class of slot attention as separate tape
    ops (gather, split heads, scale, QK^T, masked softmax, PV, scatter)."""
    d = x.data.shape[1]
    rows, sq = cls.nodes.shape

    def slotted(t, table):
        g = take_rows(t, table)
        return swap_axes(T.reshape(g, table.shape + (heads, d // heads)), 1, 2)

    q = slotted(T.linear(x, prm["wq"], prm["bq"]), np.maximum(cls.nodes, 0))
    k = slotted(T.linear(x, prm["wk"]), cls.table)
    v = slotted(T.linear(x, prm["wv"], prm["bv"]), cls.table)
    logits = matmul(scale(q, 1.0 / math.sqrt(d // heads)), swap_axes(k, -1, -2))
    p = masked_softmax(logits, np.broadcast_to(cls.mask[:, None, None, :], logits.data.shape))
    ctx = T.reshape(swap_axes(matmul(p, v), 1, 2), (rows * sq, d))
    return T.spmm(cls.scatter, ctx)
