"""Reverse-mode autodiff over dense numpy arrays.

Deliberately small: just the ops the attention and message-passing stack
needs. Every op records its output on an implicit tape; backward() walks
that tape once in reverse execution order. The first recorded op after a
backward() starts a new tape and cuts the consumed one, so a step's
activations are freed as soon as the next step's forward pass begins.
Double precision is the default; float32 inputs are kept as float32.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "backward",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "concat_last_dim",
    "gelu",
    "masked_softmax",
    "layer_norm",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse",
    "dropout",
    "spmm",
    "take_rows",
    "slot_logits",
    "slot_context",
    "reshape",
    "swap_axes",
    "tsum",
    "AdamState",
    "adam_init",
    "adam_step",
    "zero_grad",
    "grad_check",
]


class Tensor:
    """A dense array plus the bookkeeping backward() needs.

    Leaf tensors created with requires_grad=True hold a zero-initialized
    .grad that backward() accumulates into. Op outputs carry closures and
    never store grads themselves.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._parents: tuple = ()
        self._backward = None
        self._tape = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Ordered record of op outputs from one forward pass."""

    __slots__ = ("nodes", "consumed")

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.consumed = False

    def release(self) -> None:
        """Drop the graph of a consumed tape: its outputs become constants.

        Each node points at its tape and the tape lists every node, so
        without this cut a tape lives until the cyclic collector runs.
        """
        for node in self.nodes:
            node._parents = ()
            node._backward = None
            node.requires_grad = False
        self.nodes.clear()


_ACTIVE_TAPE: Tape | None = None
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable recording; everything computed inside is a constant."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    global _ACTIVE_TAPE
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._backward = None
    out._tape = None
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = track
    if track:
        out._parents = parents
        out._backward = backward_fn
        if _ACTIVE_TAPE is None or _ACTIVE_TAPE.consumed:
            if _ACTIVE_TAPE is not None:
                _ACTIVE_TAPE.release()
            _ACTIVE_TAPE = Tape()
        _ACTIVE_TAPE.nodes.append(out)
        out._tape = _ACTIVE_TAPE
    return out


def backward(loss: Tensor) -> None:
    """Populate grads of every leaf tensor the scalar loss depends on."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss is not connected to any tracked computation")
    if tape.consumed:
        raise RuntimeError("backward was already called on this tape")
    tape.consumed = True
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        contribs = node._backward(g)
        for parent, pg in zip(node._parents, contribs):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward is None:
                parent.grad += pg
            elif parent._tape is tape:
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg
            # parents recorded on an older tape act as constants


def _sum_to(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo broadcasting: reduce arr back down to the given shape."""
    if arr.shape == shape:
        return arr
    extra = arr.ndim - len(shape)
    if extra > 0:
        arr = arr.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and arr.shape[i] != 1)
    if axes:
        arr = arr.sum(axis=axes, keepdims=True)
    return arr


def _shape_error(op: str, a, b) -> None:
    raise ValueError(f"{op}: shapes {tuple(a)} and {tuple(b)} do not conform")


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        _shape_error("add", a.data.shape, b.data.shape)

    def back(g):
        return _sum_to(g, a.data.shape), _sum_to(g, b.data.shape)

    return _op(out, (a, b), back)


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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b with w laid out (in_features, out_features)."""
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        _shape_error("linear", x.data.shape, w.data.shape)
    out = x.data @ w.data
    if b is not None:
        if b.data.shape != (w.data.shape[1],):
            _shape_error("linear bias", b.data.shape, (w.data.shape[1],))
        out = out + b.data

    def back(g):
        d_in, d_out = w.data.shape
        g2 = g.reshape(-1, d_out)
        x2 = x.data.reshape(-1, d_in)
        gx = (g2 @ w.data.T).reshape(x.data.shape)
        gw = x2.T @ g2
        if b is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return _op(out, parents, back)


def concat_last_dim(parts) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat_last_dim: no tensors given")
    lead = parts[0].data.shape[:-1]
    for p in parts[1:]:
        if p.data.shape[:-1] != lead:
            _shape_error("concat_last_dim", parts[0].data.shape, p.data.shape)
    out = np.concatenate([p.data for p in parts], axis=-1)
    splits = np.cumsum([p.data.shape[-1] for p in parts])[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=-1))

    return _op(out, parts, back)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-function form, x * Phi(x)."""
    z = x.data
    cdf = 0.5 * (1.0 + erf(z * _INV_SQRT2))

    def back(g):
        pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        return (g * (cdf + z * pdf),)

    return _op(z * cdf, (x,), back)


def masked_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax along the last axis restricted to mask==True positions.

    The mask is a plain boolean array of the logits' rank that broadcasts
    to them, e.g. a (rows, 1, 1, S) key mask for (rows, heads, Sq, S)
    logits. Masked positions come out exactly zero; each row must keep at
    least one live entry.
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def back(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead)
        g_bias = g.sum(axis=lead)
        gh = g * gain.data
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gh - m1 - xhat * m2)
        return gx, g_gain, g_bias

    return _op(out, (x, gain, bias), back)


def _check_idx(idx) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("loss mask selects no nodes")
    return idx


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, idx) -> Tensor:
    """Mean cross entropy over the rows named by idx, in logit space."""
    idx = _check_idx(idx)
    z = logits.data[idx]
    y = np.asarray(labels, dtype=np.int64)[idx]
    if y.min() < 0 or y.max() >= z.shape[-1]:
        raise ValueError("softmax_cross_entropy: label out of range")
    mx = z.max(axis=-1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(z - mx).sum(axis=-1))
    rows = np.arange(idx.size)
    loss = np.asarray((lse - z[rows, y]).mean())

    def back(g):
        p = np.exp(z - mx)
        p /= p.sum(axis=-1, keepdims=True)
        p[rows, y] -= 1.0
        gz = np.zeros_like(logits.data)
        np.add.at(gz, idx, p * (float(g) / idx.size))
        return (gz,)

    return _op(loss, (logits,), back)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray, idx) -> Tensor:
    idx = _check_idx(idx)
    z = logits.data[idx]
    t = np.asarray(targets, dtype=z.dtype)[idx]
    if t.shape != z.shape:
        _shape_error("binary_cross_entropy_with_logits", z.shape, t.shape)
    loss = np.asarray((np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean())

    def back(g):
        sig = np.empty_like(z)
        pos = z >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        sig[~pos] = ez / (1.0 + ez)
        gz = np.zeros_like(logits.data)
        np.add.at(gz, idx, (sig - t) * (float(g) / z.size))
        return (gz,)

    return _op(loss, (logits,), back)


def mse(pred: Tensor, target: np.ndarray, idx) -> Tensor:
    idx = _check_idx(idx)
    z = pred.data[idx]
    t = np.asarray(target, dtype=z.dtype)[idx]
    if t.shape != z.shape:
        _shape_error("mse", z.shape, t.shape)
    diff = z - t
    loss = np.asarray((diff * diff).mean())

    def back(g):
        gz = np.zeros_like(pred.data)
        np.add.at(gz, idx, diff * (2.0 * float(g) / diff.size))
        return (gz,)

    return _op(loss, (pred,), back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout; call only during training."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    keep *= 1.0 / (1.0 - rate)

    def back(g):
        return (g * keep,)

    return _op(x.data * keep, (x,), back)


def spmm(a, x: Tensor) -> Tensor:
    """Sparse (scipy CSR/CSC) times dense Tensor; the sparse side is constant."""
    out = np.asarray(a @ x.data)

    def back(g):
        return (np.asarray(a.T @ g),)

    return _op(out, (x,), back)


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows of x by an integer index array (any index shape)."""
    idx = np.asarray(idx, dtype=np.int64)
    out = x.data[idx]

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _op(out, (x,), back)


def slot_logits(q: Tensor, k: Tensor, queries, keys, heads: int, q_scatter, k_scatter) -> Tensor:
    """Per-head scaled dot products of gathered query and key rows.

    q and k are (n, d); queries (rows, Sq) and keys (rows, S) index their
    rows. Returns the (rows, heads, Sq, S) logits q_h[queries] k_h[keys]^T
    / sqrt(d // heads). The constant sparse maps q_scatter (n, rows * Sq)
    and k_scatter (n, rows * S) sum the slots' gradients back onto the n
    rows: each is its gather's transpose, less the slots whose gradient
    the caller knows to be zero (padded queries, masked keys).
    """
    rows, sq = queries.shape
    s = keys.shape[1]
    d = q.data.shape[1]
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    qs = np.swapaxes(q.data[queries].reshape(rows, sq, heads, dh), 1, 2) * c
    kg = np.swapaxes(k.data[keys].reshape(rows, s, heads, dh), 1, 2)
    out = qs @ np.swapaxes(kg, -1, -2)

    def back(g):
        gq = np.swapaxes((g @ kg) * c, 1, 2).reshape(rows * sq, d)
        gk = (np.swapaxes(qs, -1, -2) @ g).transpose(0, 3, 1, 2).reshape(rows * s, d)
        return np.asarray(q_scatter @ gq), np.asarray(k_scatter @ gk)

    return _op(out, (q, k), back)


def slot_context(p: Tensor, v: Tensor, keys, k_scatter, out_scatter) -> Tensor:
    """Attention-weighted sums of gathered value rows, scattered onto rows.

    p (rows, heads, Sq, S) weighs the value rows v[keys] head by head,
    with v (n, d) and keys (rows, S). The constant sparse map out_scatter
    (n, rows * Sq) sums the (row, query) contexts onto the n output rows,
    and k_scatter (n, rows * S) sums the value slots' gradients back onto
    v; a slot it leaves out must carry zero weight in p.
    """
    rows, heads, sq, s = p.data.shape
    d = v.data.shape[1]
    dh = d // heads
    vg = np.swapaxes(v.data[keys].reshape(rows, s, heads, dh), 1, 2)
    ctx = p.data @ vg
    out = np.asarray(out_scatter @ np.swapaxes(ctx, 1, 2).reshape(rows * sq, d))

    def back(g):
        go = np.swapaxes(np.asarray(out_scatter.T @ g).reshape(rows, sq, heads, dh), 1, 2)
        gp = go @ np.swapaxes(vg, -1, -2)
        gv = np.swapaxes(np.swapaxes(p.data, -1, -2) @ go, 1, 2).reshape(rows * s, d)
        return gp, np.asarray(k_scatter @ gv)

    return _op(out, (p, v), back)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def back(g):
        return (g.reshape(x.data.shape),)

    return _op(out, (x,), back)


def swap_axes(x: Tensor, a: int, b: int) -> Tensor:
    def back(g):
        return (np.swapaxes(g, a, b),)

    return _op(np.swapaxes(x.data, a, b), (x,), back)


def tsum(x: Tensor) -> Tensor:
    def back(g):
        return (np.full_like(x.data, float(g)),)

    return _op(np.asarray(x.data.sum()), (x,), back)


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0


def adam_init(params) -> AdamState:
    params = list(params)
    return AdamState(
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
        t=0,
    )


def adam_step(
    params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    params = list(params)
    if len(params) != len(state.m):
        raise ValueError(f"adam_step: {len(params)} params but state holds {len(state.m)}")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        if g is None:
            continue
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        if lr != 0.0:
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def zero_grad(params) -> None:
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0
        elif p.requires_grad:
            p.grad = np.zeros_like(p.data)


def grad_check(f, params, eps: float = 1e-6) -> float:
    """Max relative error between backward() grads and central differences.

    f must be a deterministic zero-argument callable returning a scalar
    Tensor built from the given parameter tensors, with dropout off.
    """
    params = list(params)
    zero_grad(params)
    loss = f()
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    def value() -> float:
        with no_grad():
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
