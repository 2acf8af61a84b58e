"""Dense n-dimensional arrays with reverse-mode automatic differentiation.

Every differentiable operation records a node on an implicit linear tape
(creation order is a topological order of the graph). ``backward`` replays
the tape once, in reverse, and deposits gradients on leaf tensors that were
created with ``requires_grad=True``. Nodes are consumed by the replay, so a
second ``backward`` without re-running the forward pass raises ``TapeError``.

Numerical contract: forward operations on finite inputs must produce finite
outputs; a NaN or Inf is raised as ``NumericalError`` instead of propagating.
Every op that computes values checks its output; only ``reshape``,
``permute``, ``concatenate``, ``pad_zeros`` and ``index``, which move values
without computing them, skip it. Reductions delegate to numpy's
deterministic pairwise summation, so identical inputs give bit-identical
outputs on a fixed platform.

The contract covers the backward too: ``backward`` checks each leaf gradient
as it deposits it and raises ``NumericalError`` naming the op whose backward
produced a NaN or Inf; a non-finite intermediate gradient reaches a leaf as
one (``inf * 0`` is NaN).

Inference runs under ``with no_grad():``, which records no node, so outputs
hold no tape and keep no backward closure alive; parameters keep
``requires_grad`` and train as before once the block is left.

``with profile() as prof:`` times the ops run inside the block, forward and
backward, and counts their tape nodes; outside one it costs a global check.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from collections import Counter
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64
# a tensor's precisions by name (``--precision``, checkpoint tags), as dtype objects:
# ``in`` then matches an array's dtype by identity, not converting a type object each time
PRECISIONS = {"f64": np.dtype(np.float64), "f32": np.dtype(np.float32)}
_FLOAT_DTYPES = tuple(PRECISIONS.values())

_SEQ = itertools.count()
_RECORDING = True  # process-wide, switched off inside no_grad()
_PROFILE = None  # process-wide, the Profile being filled inside profile()


class TensorError(Exception):
    """Base class for tensor-library errors."""


class ShapeError(TensorError):
    """Operand shapes violate an operation's contract."""


class NumericalError(TensorError):
    """An op produced NaN/Inf from finite inputs, in its forward or its backward."""


class EmptyReductionError(ShapeError):
    """Reduction over a zero-length axis."""


class TapeError(TensorError):
    """Misuse of the autodiff tape (non-scalar loss, repeated backward)."""


class TapeNode:
    """One recorded operation: inputs, a backward closure, and a sequence id.

    ``backward`` consumes the node: it sets ``backward_fn`` to None and
    ``inputs`` to ``()``, so a consumed node keeps nothing of the graph alive.
    """

    __slots__ = ("inputs", "backward_fn", "seq", "op")

    def __init__(self, inputs: tuple, backward_fn: Callable, op: str):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.seq = next(_SEQ)
        self.op = op


class Tensor:
    """Contiguous float array, optionally participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, node: Optional[TapeNode] = None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote 0-d to (1,)
        self.data = arr
        self.requires_grad = node is not None or bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})\n{self.data!r}"

    def __getitem__(self, key):
        return index(self, key)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))


def _pair(a, b):
    """Coerce operands; python-number constants adopt the tensor's dtype so
    f32 graphs are not silently promoted to f64."""
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return a, b
        if isinstance(b, (int, float)):
            return a, Tensor(np.asarray(b, dtype=a.dtype))
        return a, as_tensor(b)
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def rng(seed: int) -> np.random.Generator:
    """Seeded generator; all randomness in the package flows through these."""
    return np.random.default_rng(seed)


@contextlib.contextmanager
def no_grad():
    """Record no tape node inside the block: every op's output is a plain
    tensor that does not require grad. Nests, and the previous state comes
    back however the block is left. The switch is process-wide, not per
    thread."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = previous


class Profile:
    """Per tape op: forward and backward seconds and tape nodes recorded.

    An op's forward time is the wall time from the previous op's return (or
    the start of the profile, or the end of the last ``backward``) to its
    own, so work between ops, such as a layer's glue code, is charged to the
    op that follows it. The backward time of an op is the time in its
    closures; ``backward``'s own bookkeeping (the heap, the accumulation and
    the leaf checks) is the line named "backward".
    """

    def __init__(self):
        self.forward_s = Counter()
        self.backward_s = Counter()
        self.nodes = Counter()
        self.mark = perf_counter()

    def _forward(self, op: str, recorded: bool) -> None:
        now = perf_counter()
        self.forward_s[op] += now - self.mark
        self.nodes[op] += recorded
        self.mark = now

    def table(self) -> str:
        """One row per op (nodes, forward ms, backward ms), the slowest first,
        then the totals."""
        ops = sorted(set(self.forward_s) | set(self.backward_s),
                     key=lambda op: -(self.forward_s[op] + self.backward_s[op]))
        rows = [(op, self.nodes[op], self.forward_s[op], self.backward_s[op]) for op in ops]
        rows.append(("total", sum(self.nodes.values()), sum(self.forward_s.values()),
                     sum(self.backward_s.values())))
        return "\n".join([f"{'op':<20} {'nodes':>6} {'fwd ms':>9} {'bwd ms':>9}"] +
                         [f"{op:<20} {n:>6} {1e3 * f:>9.2f} {1e3 * b:>9.2f}" for op, n, f, b in rows])


@contextlib.contextmanager
def profile():
    """Fill a ``Profile`` with the ops run inside the block. Nests (the inner
    block fills its own), and like ``no_grad`` the switch is process-wide."""
    global _PROFILE
    previous = _PROFILE
    _PROFILE = prof = Profile()
    try:
        yield prof
    finally:
        _PROFILE = previous


# The forward arithmetic of ops and kernels that can overflow, and all of
# ``backward`` with every closure it calls, runs under this: a NaN or Inf it
# makes surfaces as NumericalError from the finiteness check on the op's output
# (``_trace``) or on the leaf gradients ``backward`` deposits, and numpy's
# RuntimeWarning before it would only repeat it. The decorator form is
# reentrant.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _trace(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable,
           op: str, check_finite: bool = True) -> Tensor:
    # the reduce ``ndarray.all`` runs, without the Python wrapper it goes through
    if check_finite and not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NumericalError(f"{op}: non-finite values in output (NaN/Inf surfaced, not propagated)")
    node = None
    if _RECORDING:
        for t in inputs:
            if t.requires_grad:
                node = TapeNode(tuple(inputs), backward_fn, op)
                break
    out = Tensor(data, node=node)
    if _PROFILE is not None:
        _PROFILE._forward(op, node is not None)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over broadcast dimensions back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


@_quiet
def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; fills ``grad`` on leaf tensors.

    One sweep over a max-heap of tape nodes keyed on ``seq``: a node is pushed
    when the first gradient reaches it, and since its consumers were created
    after it, it is popped only once they have all run and its gradient is
    complete. Closures so run in descending ``seq``, and a fan-in adds its
    terms in that order.

    Each leaf gradient is checked as it is deposited: a NaN or Inf raises
    ``NumericalError`` naming the op whose backward produced it. The closures
    run quiet, so that error is the only sign of an overflow in them.

    A node is consumed once its closure has run: it drops its closure and its
    inputs, so activations are freed as the sweep goes and afterwards a
    caller's ``loss`` keeps only its own data; a node no gradient reaches is
    left as it is. Popping a consumed node (a
    graph that shares nodes with an earlier loss) raises ``TapeError``; the
    nodes later on the tape than it have run and been consumed by then, so
    the forward pass must be re-run.
    """
    prof = _PROFILE
    start = perf_counter()
    if loss.size != 1:
        raise TapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
        return
    grads = {loss.node: np.ones_like(loss.data)}
    heap = [(-loss.node.seq, loss.node)]  # seq is unique, so nodes are never compared
    closures = 0.0
    while heap:
        node = heapq.heappop(heap)[1]
        if node.backward_fn is None:
            raise TapeError("tape already consumed: re-run the forward pass before calling backward again")
        g = grads.pop(node)
        if prof is None:
            in_grads = node.backward_fn(g)
        else:
            t0 = perf_counter()
            in_grads = node.backward_fn(g)
            spent = perf_counter() - t0
            prof.backward_s[node.op] += spent
            closures += spent
        for inp, ig in zip(node.inputs, in_grads):
            if ig is None:
                continue
            src = inp.node
            if src is not None:
                acc = grads.get(src)
                if acc is None:
                    heapq.heappush(heap, (-src.seq, src))
                    grads[src] = ig
                else:
                    grads[src] = acc + ig
            elif inp.requires_grad:
                inp.grad = np.array(ig) if inp.grad is None else inp.grad + ig
                if not np.logical_and.reduce(np.isfinite(inp.grad), axis=None):
                    raise NumericalError(f"{node.op} backward: non-finite gradient (NaN/Inf surfaced, not propagated)")
        node.backward_fn, node.inputs = None, ()  # consume the node: drop its closure and inputs
    if prof is not None:
        prof.mark = perf_counter()
        prof.backward_s["backward"] += prof.mark - start - closures


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _trace(out, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _trace(out, (a, b), bwd, "sub")


@_quiet
def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _trace(out, (a, b), bwd, "mul")


@_quiet
def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data / b.data

    def bwd(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _trace(out, (a, b), bwd, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (-g,)

    return _trace(-a.data, (a,), bwd, "neg")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _trace(out, (a,), bwd, "tanh")


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: with e = exp(-|x|), 1/(1+e) where
    x >= 0 and e/(1+e) elsewhere, computed over the whole array at once."""
    e = np.abs(x, out=np.empty_like(x))  # an array even for 0-d x
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _logistic(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _trace(out, (a,), bwd, "sigmoid")


def softplus(a) -> Tensor:
    a = as_tensor(a)
    # stable: max(x,0) + log1p(exp(-|x|))
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))

    def bwd(g):
        return (g * _logistic(a.data),)

    return _trace(out, (a,), bwd, "softplus")


# ---------------------------------------------------------------------------
# contractions and normalizations


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {x.shape} and {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {x.shape} x {y.shape}")
    out = np.matmul(x, y)

    def bwd(g):
        ga = np.matmul(g, y.swapaxes(-1, -2))
        gb = np.matmul(x.swapaxes(-1, -2), g)
        return _unbroadcast(ga, x.shape), _unbroadcast(gb, y.shape)

    return _trace(out, (a, b), bwd, "matmul")


@_quiet
def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (the maximum is subtracted first); a -inf
    entry beside finite ones gives an exact 0, as numpy's ``exp`` does."""
    a = as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    out = x - m
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _trace(out, (a,), bwd, "softmax")


@_quiet
def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bwd(g):
        p = np.exp(out)
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _trace(out, (a,), bwd, "log_softmax")


def _norm_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple([ax % ndim for ax in axis])


def _reduced_count(shape: tuple, axes: tuple, op: str) -> int:
    """The number of entries each output of a reduction over ``axes`` sums."""
    n = 1
    for ax in axes:
        if shape[ax] == 0:
            raise EmptyReductionError(f"{op} over zero-length axis {ax} of shape {shape}")
        n *= shape[ax]
    return n


def _spread(g: np.ndarray, shape: tuple, axes: tuple) -> np.ndarray:
    """A reduction's output gradient copied across the reduced ``axes``."""
    g = g.reshape([1 if i in axes else n for i, n in enumerate(shape)])
    full = np.empty(shape, dtype=g.dtype)
    full[...] = g
    return full


def reduce_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    x = a.data
    axes = _norm_axes(axis, x.ndim)
    _reduced_count(x.shape, axes, "reduce_sum")
    out = np.add.reduce(x, axis=axes)

    def bwd(g):
        return (_spread(g, x.shape, axes),)

    return _trace(out, (a,), bwd, "reduce_sum")


def reduce_mean(a, axis=None) -> Tensor:
    """The sum over ``axis`` divided by the count, as ``np.mean`` computes it:
    the same values, bit for bit, while the count is exact in the dtype."""
    a = as_tensor(a)
    x = a.data
    axes = _norm_axes(axis, x.ndim)
    n = _reduced_count(x.shape, axes, "reduce_mean")
    out = np.add.reduce(x, axis=axes) / n

    def bwd(g):
        return (_spread(g / n, x.shape, axes),)

    return _trace(out, (a,), bwd, "reduce_mean")


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _trace(out, (a,), bwd, "reshape", check_finite=False)


def permute(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes).copy()
    inv = [0] * len(axes)  # the inverse order; a negative axis counts from the end here too
    for i, ax in enumerate(axes):
        inv[ax] = i

    def bwd(g):
        return (g.transpose(inv),)

    return _trace(out, (a,), bwd, "permute", check_finite=False)


def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _trace(out, tuple(ts), bwd, "concatenate", check_finite=False)


def pad_zeros(a, pad_width) -> Tensor:
    """Zero-pad; ``pad_width`` is a per-axis list of (before, after) pairs."""
    a = as_tensor(a)
    x = a.data
    pad_width = [tuple(p) for p in pad_width]
    if len(pad_width) != x.ndim or min([min(p) for p in pad_width], default=0) < 0:
        raise ShapeError(f"pad_zeros: need {x.ndim} non-negative (before, after) pairs, got {pad_width}")
    out = np.zeros(tuple([b + s + e for (b, e), s in zip(pad_width, x.shape)]), dtype=x.dtype)
    sl = tuple([slice(b, b + s) for (b, _), s in zip(pad_width, x.shape)])
    out[sl] = x

    def bwd(g):
        return (np.ascontiguousarray(g[sl]),)

    return _trace(out, (a,), bwd, "pad_zeros", check_finite=False)


def index(a, key) -> Tensor:
    """Basic (slice/int) indexing with gradient scatter into the source shape."""
    a = as_tensor(a)
    out = a.data[key]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _trace(np.ascontiguousarray(out), (a,), bwd, "index", check_finite=False)


def masked_fill(a, keep: np.ndarray, value: float) -> Tensor:
    """Where ``keep`` is True pass input through, elsewhere write the finite
    ``value``; gradient flows only through kept entries."""
    a = as_tensor(a)
    keep = np.asarray(keep, dtype=bool)
    out = np.where(keep, a.data, value)

    def bwd(g):
        return (_unbroadcast(np.where(keep, g, 0.0), a.shape),)

    return _trace(out, (a,), bwd, "masked_fill")
