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

    def parameters(self) -> list:
        return [p for _, p in self.named_parameters()]


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

    alpha is a shared scalar, initially 0.5; w and b are per-channel. Output
    is bounded in [b - |w|, b + |w|] elementwise regardless of input magnitude.
    """

    def __init__(self, dim: int):
        self.w = Tensor(np.ones(dim), requires_grad=True)
        self.b = Tensor(np.zeros(dim), requires_grad=True)
        self.alpha = Tensor(np.asarray(0.5), requires_grad=True)
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


LAYERNORM_EPS = 1e-5


class LayerNorm(Module):
    """Per-vector standardization over one axis, then affine; the variance
    gets ``LAYERNORM_EPS`` added."""

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
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
        std = np.sqrt(np.mean(normed * normed, axis=axis, keepdims=True) + LAYERNORM_EPS)
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


def _live_taps(n: int, m: int, k: int, stride: int, pad: int) -> slice:
    """The hull [lo, hi) of the taps of one axis that read some input. Tap i
    reads positions o*stride + i - pad, o < m, of an axis of extent n: below
    lo even the last window's read falls in the leading padding, and from hi
    on even the first one's falls past the input. It is empty when every
    window reads only padding."""
    return slice(max(0, pad - (m - 1) * stride), min(k, pad + n))


@T._quiet
def _correlate(x: np.ndarray, weight: np.ndarray, stride: int, padding: int) -> Tuple[np.ndarray, tuple]:
    """Cross-correlation of [B,C,D,H,W] with weight [O,C,k,k,k]; returns the
    output [B,O,Do,Ho,Wo] and what ``_weight_grad`` reads: the depth views
    and the live taps.

    Only the live taps are lowered: per axis, the hull ``_live_taps`` of the
    taps whose windows read some input. The others read only padding; they
    add nothing to the output and get exact zeros in the weight gradient.
    Only the height and width offsets are lowered by im2col; the depth
    offsets are matmuls on overlapping views (MEC, Cho & Brand, arXiv
    1706.06873). The input is zero-padded depth-major as [C, s*P, B, Hp, Wp],
    shifted so that the first live tap of each axis is offset 0, with s the
    stride, kd the live depth taps and P = Do + (kd-1)//s, so padded depth
    r*s + ph is row r of phase ph. One strided view holds, for every live
    (j, l) offset, its slice of the first min(s, kd) phases, and one copy lays
    them out as ``cols`` [kh*kw*C, phases, P, B*Ho*Wo]. Live depth offset i
    reads rows i//s .. i//s+Do-1 of phase i % s, a strided view of ``cols``
    that BLAS takes as it is, and the output is sum_i W_i @ view_i with
    W_i = weight[:, :, i] laid out as [O, kh*kw*C].
    """
    O, C, k = weight.shape[:3]
    B, spatial = x.shape[0], x.shape[2:]
    out_sp = tuple([_conv3d_out_extent(n, k, stride, padding) for n in spatial])
    if min(out_sp) <= 0:
        raise ShapeError(f"conv3d: kernel {k} (stride {stride}, pad {padding}) does not fit input {x.shape}")
    Do, Ho, Wo = out_sp
    s, p = stride, padding
    live = tuple([_live_taps(n, m, k, s, p) for n, m in zip(spatial, out_sp)])
    # input position q of an axis sits at q + p - lo in the padded input
    (a, kd), (b, kh), (c, kw) = [(p - t.start, t.stop - t.start) for t in live]
    if min(kd, kh, kw) <= 0:  # every window reads only padding
        return np.zeros((B, O) + out_sp, dtype=x.dtype), ([], live)
    phases, P = min(s, kd), Do + (kd - 1) // s
    R, N = kh * kw * C, B * Ho * Wo

    # s*P rows can reach up to s-1 past the padded depth; those rows stay zero
    D, H, W = spatial
    xp = np.zeros((C, max(s * P, a + D), B, max((Ho - 1) * s + kh, b + H), max((Wo - 1) * s + kw, c + W)),
                  dtype=x.dtype)
    xp[:, a:a + D, :, b:b + H, c:c + W] = x.transpose(1, 2, 0, 3, 4)
    rows = xp[:, :s * P].reshape((C, P, s) + xp.shape[2:])[:, :, :phases].transpose(0, 2, 1, 3, 4, 5)
    # [kh, kw, C, phases, P, B, Ho, Wo], where tap (j, l) reads rows[..., j + s*ho, l + s*wo]:
    # a view of xp, at whose first byte rows starts (the constructor checks it fits in xp)
    *lead, sh, sw = rows.strides
    taps = np.ndarray((kh, kw) + rows.shape[:4] + (Ho, Wo), x.dtype, xp, 0, (sh, sw, *lead, s * sh, s * sw))
    cols = taps.reshape(R, phases, P, N)
    views = [cols[:, i % s, i // s:i // s + Do].reshape(R, Do * N) for i in range(kd)]
    wmats = weight[:, :, live[0], live[1], live[2]].transpose(2, 0, 3, 4, 1).reshape(kd, O, R)
    out = wmats[0] @ views[0]
    for i in range(1, kd):
        out += wmats[i] @ views[i]
    return np.ascontiguousarray(out.reshape(O, Do, B, Ho, Wo).transpose(2, 0, 1, 3, 4)), (views, live)


def _weight_grad(g: np.ndarray, lowered: tuple, shape: tuple) -> np.ndarray:
    """The gradient, of ``shape`` [O,C,k,k,k], of a ``_correlate`` weight from
    its output's gradient g [B,O,Do,Ho,Wo] and the depth views and live taps
    it returned: dW_i = g view_i^T on the live taps, exact zeros elsewhere."""
    views, (d, h, w) = lowered
    O = g.shape[1]
    dw = np.zeros(shape, dtype=g.dtype)
    gmat = g.transpose(1, 2, 0, 3, 4).reshape(O, -1)  # [O, Do*B*Ho*Wo], columns like the views
    for i, view in enumerate(views):
        dw_i = (gmat @ view.T).reshape(O, h.stop - h.start, w.stop - w.start, -1)  # (j, l, c)-major
        dw[:, :, d.start + i, h, w] = dw_i.transpose(0, 3, 1, 2)
    return dw


@T._quiet
def _transpose(g: np.ndarray, weight: np.ndarray, stride: int, padding: int, in_extents: tuple) -> np.ndarray:
    """The adjoint of ``_correlate``: the input gradient [B,C,*in_extents] of
    a correlation with weight [O,C,k,k,k] from its output's gradient g
    [B,O,Do,Ho,Wo], by col2im.

    One matmul W^T g, batch-major, gives for every live tap (i, j, l) and
    output voxel the [C] block that tap spreads back. Each tap's blocks land
    stride apart in a volume laid out like ``_correlate``'s padded input,
    which is then cropped to the input: with k >= s the first s taps of each
    axis tile the lattice and are assigned, and the others are added. Taps
    outside ``_live_taps`` would land only in the padding and are not
    computed. It is also the transposed conv's forward.
    """
    O, C, k = weight.shape[:3]
    B, out_sp = g.shape[0], g.shape[2:]
    Do, Ho, Wo = out_sp
    s, p = stride, padding
    live = [_live_taps(n, m, k, s, p) for n, m in zip(in_extents, out_sp)]
    sizes = tuple(t.stop - t.start for t in live)
    if min(sizes) <= 0:  # every window reads only padding
        return np.zeros((B, C) + tuple(in_extents), dtype=g.dtype)
    lead = [p - t.start for t in live]
    ext = tuple(max((m - 1) * s + kk, a + n) for m, kk, a, n in zip(out_sp, sizes, lead, in_extents))
    wt = weight[:, :, live[0], live[1], live[2]].reshape(O, -1).T  # [C*kd*kh*kw, O]
    cols = np.matmul(wt, g.reshape(B, O, -1)).reshape((B, C) + sizes + out_sp)
    # with k >= s the first s taps of each axis tile [0, s*m) once: they are
    # assigned, so only what lies past that lattice needs zeros first
    tiled = min(sizes) >= s
    dx = (np.empty if tiled else np.zeros)((B, C) + ext, dtype=cols.dtype)
    if tiled:
        for axis, m in enumerate(out_sp, start=2):
            dx[(slice(None),) * axis + (slice(s * m, None),)] = 0.0
    for i, j, l in itertools.product(*map(range, sizes)):
        lattice = dx[:, :, i:i + s * Do:s, j:j + s * Ho:s, l:l + s * Wo:s]
        if tiled and max(i, j, l) < s:
            lattice[...] = cols[:, :, i, j, l]
        else:
            lattice += cols[:, :, i, j, l]
    return dx[(Ellipsis,) + tuple(slice(a, a + n) for a, n in zip(lead, in_extents))]


def conv3d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B,C,D,H,W] with weight [O,C,k,k,k], lowered by
    ``_correlate``, as one tape op. Taps whose windows read only padding (a
    k=3 conv at a 1^3 extent has one live tap of 27) are not computed.

    The backward forms dW by ``_weight_grad`` and, only when ``x`` requires
    grad, dx as the transposed conv (Dumoulin & Visin, arXiv 1603.07285). At
    stride 1 with p <= k-1 that is the correlation of g, padded k-1-p, with the
    flipped, transposed weight; otherwise ``_transpose`` spreads W^T g back by
    col2im, so no zero-filled volume of spread g is correlated. An input that
    needs no gradient (the raw image at the stem) gets none computed.
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d expects [B,C,D,H,W], got {x.shape}")
    O, C, k = weight.shape[:3]
    if x.shape[1] != C:
        raise ShapeError(f"conv3d: input channels {x.shape[1]} != weight channels {C}")
    out, lowered = _correlate(x.data, weight.data, stride, padding)
    out += bias.data.reshape(1, O, 1, 1, 1)

    def bwd(g):
        dx = None
        if x.requires_grad:
            if stride == 1 and padding <= k - 1:
                flipped = weight.data.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
                dx = _correlate(g, flipped, 1, k - 1 - padding)[0]
            else:
                dx = _transpose(g, weight.data, stride, padding, x.shape[2:])
        return dx, _weight_grad(g, lowered, weight.shape), g.sum(axis=(0, 2, 3, 4))

    return T._trace(out, (x, weight, bias), bwd, "conv3d")


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

    It is the adjoint of the k2/s2 correlation with W, so the forward is
    ``_transpose``: one matmul W^T [O*8, C] @ x [B, C, D*H*W], whose 8
    sub-lattices tile the output and are written by strided assignment. The
    backward is that correlation: dx = ``_correlate(g, W, 2, 0)``, and dW is
    ``_weight_grad`` of x against its depth views.
    """
    if x.ndim != 5 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"conv_transpose3d: expected [B,{weight.shape[0]},D,H,W], got {x.shape}")
    out = _transpose(x.data, weight.data, 2, 0, tuple(2 * n for n in x.shape[2:]))
    out += bias.data.reshape(1, -1, 1, 1, 1)

    def bwd(g):
        dx, lowered = _correlate(g, weight.data, 2, 0)
        return dx, _weight_grad(x.data, lowered, weight.shape), g.sum(axis=(0, 2, 3, 4))

    return T._trace(out, (x, weight, bias), bwd, "conv_transpose3d")


class ConvTranspose3d(Module):
    """Transposed conv with kernel 2, stride 2 (exact x2 upsampling, no overlap)."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (in_ch, out_ch, 2, 2, 2), in_ch), requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose3d(x, self.weight, self.bias)
