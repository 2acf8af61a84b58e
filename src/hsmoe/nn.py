"""Neural building blocks: linear maps, GELU, normalizations, 3D convs.

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

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"Linear: trailing dim {x.shape[-1]} != in_dim {self.in_dim} (input {x.shape})")
        return T.add(T.matmul(x, self.weight), self.bias)


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
        """One tape op ("dyt") in the order of the traced composition, so its
        values are bit-identical to it; only t = tanh(alpha * x) is kept for
        the backward."""
        x = T.as_tensor(x)
        w, b, alpha = self.w.data, self.b.data, self.alpha.data
        t = np.tanh(alpha * x.data)
        out = w * t
        out += b

        def bwd(g):
            lead = tuple(range(g.ndim - 1))
            dpre = g * w
            dpre *= 1.0 - t * t  # the gradient at alpha * x
            return dpre * alpha, (g * t).sum(axis=lead), g.sum(axis=lead), np.sum(dpre * x.data)

        return T._trace(out, (x, self.w, self.b, self.alpha), bwd, "dyt")


class LayerNorm(Module):
    """Per-vector standardization over one axis, then affine. eps=1e-5."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps
        self.dim = dim

    def __call__(self, x: Tensor, axis: int = -1) -> Tensor:
        """Normalize over ``axis`` (the tokens' trailing one, or 1, the
        channels of a volume) as one tape op ("layernorm"). It keeps the
        traced composition's order (mean, centre, mean square, divide by
        sqrt(var + eps), scale, shift), so along the trailing axis its values
        are bit-identical to it."""
        x = T.as_tensor(x)
        axis %= x.ndim
        if x.shape[axis] != self.dim:
            raise ShapeError(f"LayerNorm: axis {axis} of {x.shape} != dim {self.dim}")
        affine = (self.dim,) + (1,) * (x.ndim - 1 - axis)
        gamma = self.gamma.data.reshape(affine)
        normed = x.data - np.mean(x.data, axis=axis, keepdims=True)
        std = np.sqrt(np.mean(normed * normed, axis=axis, keepdims=True) + self.eps)
        normed /= std
        out = normed * gamma
        out += self.beta.data.reshape(affine)

        def bwd(g):
            others = tuple(i for i in range(g.ndim) if i != axis)
            dn = g * gamma
            dx = normed * np.mean(dn * normed, axis=axis, keepdims=True)
            np.subtract(dn, dx, out=dx)
            dx -= np.mean(dn, axis=axis, keepdims=True)
            dx /= std
            return dx, (g * normed).sum(axis=others), g.sum(axis=others)

        return T._trace(out, (x, self.gamma, self.beta), bwd, "layernorm")


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


def _correlate(x: np.ndarray, weight: np.ndarray, stride: int, padding: int) -> Tuple[np.ndarray, list]:
    """Cross-correlation of [B,C,D,H,W] with weight [O,C,k,k,k]; returns the
    output [B,O,Do,Ho,Wo] and the k depth views that ``_weight_grad`` reads.

    Only the height and width offsets are lowered by im2col; the depth
    offsets are matmuls on overlapping views (MEC, Cho & Brand, arXiv
    1706.06873). The input is zero-padded depth-major as [C, s*P, B, Hp, Wp],
    with s the stride and P = Do + (k-1)//s, so padded depth r*s + ph is row r
    of phase ph. Each of the k^2 (j, l) offsets copies its strided slice of
    the first min(s, k) phases into ``cols`` [k^2*C, phases, P, B*Ho*Wo].
    Depth offset i reads rows i//s .. i//s+Do-1 of phase i % s, a strided
    view of ``cols`` that BLAS takes as it is, and the output is
    sum_i W_i @ view_i with W_i = weight[:, :, i] laid out as [O, k^2*C].
    """
    O, C, k = weight.shape[:3]
    B, (D, H, W) = x.shape[0], x.shape[2:]
    out_sp = tuple(_conv3d_out_extent(n, k, stride, padding) for n in (D, H, W))
    if any(n <= 0 for n in out_sp):
        raise ShapeError(f"conv3d: kernel {k} (stride {stride}, pad {padding}) does not fit input {x.shape}")
    Do, Ho, Wo = out_sp
    s, p = stride, padding
    phases, P = min(s, k), Do + (k - 1) // s
    R, N = k * k * C, B * Ho * Wo

    # s*P rows can reach up to s-1 past the padded depth; those rows stay zero
    xp = np.zeros((C, max(s * P, D + 2 * p), B, H + 2 * p, W + 2 * p), dtype=x.dtype)
    xp[:, p:p + D, :, p:p + H, p:p + W] = x.transpose(1, 2, 0, 3, 4)
    rows = xp[:, :s * P].reshape((C, P, s) + xp.shape[2:])[:, :, :phases]  # [C, P, phases, B, Hp, Wp]
    cols = np.empty((k * k, C, phases, P, B, Ho, Wo), dtype=x.dtype)
    for t, (j, l) in enumerate(itertools.product(range(k), repeat=2)):
        cols[t] = rows[..., j:j + s * Ho:s, l:l + s * Wo:s].transpose(0, 2, 1, 3, 4, 5)
    cols = cols.reshape(R, phases, P, N)
    views = [cols[:, i % s, i // s:i // s + Do].reshape(R, Do * N) for i in range(k)]
    wmats = weight.transpose(2, 0, 3, 4, 1).reshape(k, O, R)  # W_i, (j, l, c)-major like cols
    out = wmats[0] @ views[0]
    for i in range(1, k):
        out += wmats[i] @ views[i]
    return np.ascontiguousarray(out.reshape(O, Do, B, Ho, Wo).transpose(2, 0, 1, 3, 4)), views


def _weight_grad(g: np.ndarray, views: list) -> np.ndarray:
    """The gradient [O,C,k,k,k] of a ``_correlate`` weight from its output's
    gradient g [B,O,Do,Ho,Wo] and the depth views it returned: dW_i = g view_i^T."""
    k, O = len(views), g.shape[1]
    gmat = g.transpose(1, 2, 0, 3, 4).reshape(O, -1)  # [O, Do*B*Ho*Wo], columns like the views
    dw = np.stack([gmat @ view.T for view in views])  # [k, O, k^2*C]
    return np.ascontiguousarray(dw.reshape(k, O, k, k, -1).transpose(1, 4, 0, 2, 3))


def conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor], stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B,C,D,H,W] with weight [O,C,k,k,k], lowered by
    ``_correlate``, as one tape op.

    The backward forms dW by ``_weight_grad`` and, only when ``x`` requires
    grad, dx as the transposed conv (Dumoulin & Visin, arXiv 1603.07285): a
    stride-1, unpadded correlation with the flipped, transposed weight of
    ``spread``, g placed ``stride`` apart from offset k-1-p in a zero volume of
    extent n+k-1 per axis. Entries of g that fall outside it (p > k-1) belong
    to windows that read only padding and are dropped. An input that needs no
    gradient (the raw image at the stem) gets none computed.
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d expects [B,C,D,H,W], got {x.shape}")
    O, C, k = weight.shape[:3]
    if x.shape[1] != C:
        raise ShapeError(f"conv3d: input channels {x.shape[1]} != weight channels {C}")
    out, views = _correlate(x.data, weight.data, stride, padding)
    if bias is not None:
        out += bias.data.reshape(1, O, 1, 1, 1)
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        dx = None
        if x.requires_grad:
            spread = np.zeros(x.shape[:1] + (O,) + tuple(n + k - 1 for n in x.shape[2:]), dtype=g.dtype)
            src, dst, off = [Ellipsis], [Ellipsis], k - 1 - padding
            for n, m in zip(spread.shape[2:], g.shape[2:]):  # keep the m with 0 <= m*stride + off < n
                lo = max(0, -(off // stride))
                hi = max(lo, min(m, -((off - n) // stride)))
                src.append(slice(lo, hi))
                dst.append(slice(lo * stride + off, hi * stride + off, stride))
            spread[tuple(dst)] = g[tuple(src)]
            flipped = weight.data.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
            dx = _correlate(spread, flipped, 1, 0)[0]
        dw = _weight_grad(g, views)
        return (dx, dw) if bias is None else (dx, dw, g.sum(axis=(0, 2, 3, 4)))

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


def conv_transpose3d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Transposed conv, kernel 2 and stride 2 (exact x2 upsampling), of
    [B,C,D,H,W] with weight [C,O,2,2,2] and bias [O], as one tape op.

    One matmul W^T [O*8, C] @ x [B, C, D*H*W] gives each of the 8 output
    sub-lattices as a contiguous [B,O,D,H,W] block, written by strided
    assignment into the [B,O,D,2,H,2,W,2] output. It is the adjoint of the
    k2/s2 correlation, so the backward is that correlation: dx =
    ``_correlate(g, W, 2, 0)``, and dW is ``_weight_grad`` of x against its
    depth views.
    """
    if x.ndim != 5 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"conv_transpose3d: expected [B,{weight.shape[0]},D,H,W], got {x.shape}")
    B, C, D, H, W = x.shape
    O = weight.shape[1]
    wmat = weight.data.reshape(C, O * 8)
    xm = x.data.reshape(B, C, D * H * W)
    mixed = np.matmul(wmat.T, xm).reshape(B, O, 2, 2, 2, D, H, W)
    out = np.empty((B, O, D, 2, H, 2, W, 2), dtype=mixed.dtype)
    for a, b, c in itertools.product(range(2), repeat=3):
        out[:, :, :, a, :, b, :, c] = mixed[:, :, a, b, c]
    out += bias.data.reshape(1, O, 1, 1, 1, 1, 1, 1)

    def bwd(g):
        dx, views = _correlate(g, weight.data, 2, 0)
        return dx, _weight_grad(x.data, views), g.sum(axis=(0, 2, 3, 4))

    return T._trace(out.reshape(B, O, 2 * D, 2 * H, 2 * W), (x, weight, bias), bwd, "conv_transpose3d")


class ConvTranspose3d(Module):
    """Transposed conv with kernel 2, stride 2 (exact x2 upsampling, no overlap)."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (in_ch, out_ch, 2, 2, 2), in_ch), requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose3d(x, self.weight, self.bias)
