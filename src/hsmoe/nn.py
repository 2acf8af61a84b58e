"""Neural building blocks: linear maps, expert FFNs, normalizations, 3D convs.

Parameters are ``Tensor`` leaves registered on ``Module`` attributes; names are
the dotted attribute paths, unique per network, which is what checkpointing
and parameter counting rely on.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Tuple

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class Module:
    """Minimal parameter container: attribute walk yields named parameters."""

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for key, val in vars(self).items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(val, Tensor) and val.requires_grad:
                yield name, val
            elif isinstance(val, Module):
                yield from val.named_parameters(name)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def parameters(self) -> list:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def uniform(rng: Optional[np.random.Generator], shape, low: float, high: float) -> np.ndarray:
    """Initial values drawn uniformly from [low, high), or, with ``rng=None``,
    ``np.zeros(shape)``: lazily zeroed memory, nothing drawn and no page
    touched, which builds a network for its parameter names and shapes."""
    if rng is None:
        return np.zeros(shape)
    return rng.uniform(low, high, size=shape)


def _uniform_init(rng: Optional[np.random.Generator], shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return uniform(rng, shape, -bound, bound)


class Linear(Module):
    """Affine map on the trailing dimension: y = x W + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (in_dim, out_dim), in_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)
        self.in_dim = in_dim
        self.out_dim = out_dim

    @classmethod
    def over(cls, weight: Tensor, bias: Tensor) -> "Linear":
        """A Linear computing with existing weight [in,out] and bias [out]
        tensors (shared, not copied)."""
        lin = cls.__new__(cls)
        lin.weight, lin.bias = weight, bias
        lin.in_dim, lin.out_dim = weight.shape
        return lin

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"Linear: trailing dim {x.shape[-1]} != in_dim {self.in_dim} (input {x.shape})")
        squeeze = x.ndim == 1
        if squeeze:
            x = T.reshape(x, (1, -1))
        out = T.add(T.matmul(x, self.weight), self.bias)
        if squeeze:
            out = T.reshape(out, (self.out_dim,))
        return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Smooth tanh-form approximation of the Gaussian error linear unit,
    0.5 x (1 + tanh(c (x + a x^3))), as one tape op.

    The forward runs in place in the order of the composition
    ``(x*0.5) * (tanh(((x*x)*x*a + x) * c) + 1)``, so its values are
    bit-identical to that composition of traced ops; only s = 1 + tanh(.)
    is kept for the backward, which uses 1 - tanh^2 = s (2 - s).
    """
    x = T.as_tensor(x)
    s = np.multiply(x.data, x.data, out=np.empty_like(x.data))  # an array even for 0-d x
    s *= x.data
    s *= _GELU_A
    s += x.data
    s *= _GELU_C
    np.tanh(s, out=s)
    s += 1.0
    out = x.data * 0.5
    out *= s

    def bwd(g):
        dx = (2.0 - s) * x.data
        dx *= _GELU_C * (1.0 + 3.0 * _GELU_A * x.data * x.data)
        dx += 1.0
        dx *= s
        dx *= 0.5
        dx *= g
        return (dx,)

    return T._trace(out, (x,), bwd, "gelu")


_ACTIVATIONS = {
    "gelu": gelu,
    "tanh": T.tanh,
    "identity": lambda x: x,
}


def activation_fn(name: str):
    """The traced activation function called ``name``."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")
    return _ACTIVATIONS[name]


class FeedForward(Module):
    """Width-preserving expert FFN: Linear(d -> r*d) -> activation -> Linear(r*d -> d)."""

    def __init__(self, dim: int, rng: np.random.Generator, ratio: int = 2, activation: str = "gelu"):
        activation_fn(activation)
        self.lin1 = Linear(dim, ratio * dim, rng)
        self.lin2 = Linear(ratio * dim, dim, rng)
        self.dim = dim
        self.activation = activation

    @classmethod
    def over(cls, lin1: Linear, lin2: Linear, activation: str) -> "FeedForward":
        """A FeedForward computing with existing layers (shared, not copied)."""
        ffn = cls.__new__(cls)
        ffn.lin1, ffn.lin2 = lin1, lin2
        ffn.dim = lin1.in_dim
        ffn.activation = activation
        return ffn

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(activation_fn(self.activation)(self.lin1(x)))


class DynamicTanh(Module):
    """Normalization substitute: w * tanh(alpha * x) + b on the trailing dim.

    alpha is a shared scalar; w and b are per-channel. Output is bounded in
    [b - |w|, b + |w|] elementwise regardless of input magnitude.
    """

    def __init__(self, dim: int, alpha: float = 0.5):
        self.w = Tensor(np.ones(dim), requires_grad=True)
        self.b = Tensor(np.zeros(dim), requires_grad=True)
        self.alpha = Tensor(np.asarray(alpha, dtype=np.float64), requires_grad=True)
        self.dim = dim

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.mul(self.w, T.tanh(T.mul(self.alpha, x))), self.b)


class LayerNorm(Module):
    """Per-vector standardization over the trailing dim, then affine. eps=1e-5."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps
        self.dim = dim

    def __call__(self, x: Tensor) -> Tensor:
        mu = T.reduce_mean(x, axis=-1, keepdims=True)
        centered = T.sub(x, mu)
        var = T.reduce_mean(T.mul(centered, centered), axis=-1, keepdims=True)
        normed = T.div(centered, T.sqrt(T.add(var, self.eps)))
        return T.add(T.mul(normed, self.gamma), self.beta)


def make_norm(kind: str, dim: int) -> Module:
    if kind == "dyt":
        return DynamicTanh(dim)
    if kind == "ln":
        return LayerNorm(dim)
    raise ValueError(f"unknown normalization {kind!r}; choose 'dyt' or 'ln'")


# ---------------------------------------------------------------------------
# 3D convolution


def _conv3d_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def _taps(k: int, stride: int, out_sp: Tuple[int, int, int]) -> Iterator[Tuple[slice, slice, slice]]:
    """Per kernel offset (i, j, l), in row-major order, the strided slice of a
    padded volume's three spatial axes that the offset reads for every output
    voxel."""
    for i, j, l in itertools.product(range(k), repeat=3):
        yield tuple(slice(o, o + stride * n, stride) for o, n in zip((i, j, l), out_sp))


def conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor], stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B,C,D,H,W] with weight [O,C,k,k,k].

    Tap-major im2col: the input is zero-padded channel-major as [C,B,Dp,Hp,Wp],
    each of the k^3 kernel offsets copies its strided slice into one contiguous
    block of ``cols`` [k^3*C, B*S] (S output voxels per sample), and the output
    is one matmul with the weight laid out as [O, k^3*C]. Backward forms
    dW = g cols^T and, only when ``x`` requires grad, scatter-adds each
    offset's block of W^T g back through the same slices; an input that
    needs no gradient (the raw image at the stem) gets none computed.
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d expects [B,C,D,H,W], got {x.shape}")
    O, C, k = weight.shape[0], weight.shape[1], weight.shape[2]
    if x.shape[1] != C:
        raise ShapeError(f"conv3d: input channels {x.shape[1]} != weight channels {C}")
    B = x.shape[0]
    spatial = x.shape[2:]
    out_sp = tuple(_conv3d_out_extent(n, k, stride, padding) for n in spatial)
    if any(n <= 0 for n in out_sp):
        raise ShapeError(f"conv3d: kernel {k} (stride {stride}, pad {padding}) does not fit input {x.shape}")

    inner = (slice(None), slice(None)) + tuple(slice(padding, padding + n) for n in spatial)
    xp = np.zeros((C, B) + tuple(n + 2 * padding for n in spatial), dtype=x.dtype)
    xp[inner] = x.data.transpose(1, 0, 2, 3, 4)
    taps = list(_taps(k, stride, out_sp))
    cols = np.empty((len(taps), C, B) + out_sp, dtype=x.dtype)
    for t, window in enumerate(taps):
        cols[t] = xp[(Ellipsis,) + window]
    cols = cols.reshape(len(taps) * C, -1)
    wmat = weight.data.transpose(0, 2, 3, 4, 1).reshape(O, -1)  # [O, k^3*C], tap-major like cols
    out = np.ascontiguousarray((wmat @ cols).reshape((O, B) + out_sp).transpose(1, 0, 2, 3, 4))
    if bias is not None:
        out = out + bias.data.reshape(1, O, 1, 1, 1)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    xp_shape = xp.shape  # the closure keeps the shape, not the padded copy

    def bwd(g):
        gmat = g.transpose(1, 0, 2, 3, 4).reshape(O, -1)  # [O, B*S]
        dw = np.ascontiguousarray((gmat @ cols.T).reshape(O, k, k, k, C).transpose(0, 4, 1, 2, 3))
        dx = None
        if x.requires_grad:
            dcols = (wmat.T @ gmat).reshape((len(taps), C, B) + out_sp)
            dxp = np.zeros(xp_shape, dtype=dcols.dtype)
            for t, window in enumerate(taps):
                dxp[(Ellipsis,) + window] += dcols[t]
            dx = np.ascontiguousarray(dxp[inner].transpose(1, 0, 2, 3, 4))
        if bias is None:
            return dx, dw
        return dx, dw, gmat.sum(axis=1)

    return T._trace(out, inputs, bwd, "conv3d")


class Conv3d(Module):
    """3D convolution layer with bias."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0):
        fan_in = in_ch * kernel ** 3
        self.weight = Tensor(_uniform_init(rng, (out_ch, in_ch, kernel, kernel, kernel), fan_in),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d(x, self.weight, self.bias, self.stride, self.padding)


class ConvTranspose3d(Module):
    """Transposed conv with kernel 2, stride 2 (exact x2 upsampling, no overlap).

    Composed from traced primitives, so gradients come from the tape.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (in_ch, out_ch, 2, 2, 2), in_ch), requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)
        self.in_ch = in_ch
        self.out_ch = out_ch

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 5 or x.shape[1] != self.in_ch:
            raise ShapeError(f"ConvTranspose3d: expected [B,{self.in_ch},D,H,W], got {x.shape}")
        B, C, D, H, W = x.shape
        O = self.out_ch
        flat = T.reshape(T.permute(x, (0, 2, 3, 4, 1)), (B, D * H * W, C))
        mixed = T.matmul(flat, T.reshape(self.weight, (C, O * 8)))
        blocks = T.reshape(mixed, (B, D, H, W, O, 2, 2, 2))
        interleaved = T.permute(blocks, (0, 4, 1, 5, 2, 6, 3, 7))
        out = T.reshape(interleaved, (B, O, 2 * D, 2 * H, 2 * W))
        return T.add(out, T.reshape(self.bias, (O, 1, 1, 1)))
