"""Selective state-space sequence layer: linear-time gated scan.

The core primitive is the first-order linear recurrence
``h_t = decay_t * h_{t-1} + drive_t`` (h_0 = 0) along axis 1, run by one
blocked kernel, ``_scan``: O(N) arithmetic in about ``block + N / block``
interpreter steps, with no buffer of the input's size besides the output.
The backward adjoint ``lam_t = g_t + decay_{t+1} * lam_{t+1}`` is itself a
reversed linear recurrence, so it reuses the same kernel.

The model's scan is ``selective_scan_fn``, one tape op that discretizes,
scans and reads out, so the [B,N,d,n] state never becomes a Tensor.
Discretization keeps the state transition strictly inside (0,1):
``decay = exp(delta * A)`` with ``A = -softplus(rate)`` and
``delta = softplus(linear(x))``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import nn, tensor as T
from .tensor import Tensor


def _scan(a: np.ndarray, u: np.ndarray, block_size: Optional[int]) -> np.ndarray:
    """h_t = a_{t-1} * h_{t-1} + u_t along axis 1, h_0 = u_0, in blocks of
    ``min(block_size, N)`` steps (all N steps when ``block_size`` is None).

    ``a`` holds the N-1 transitions: ``a[:, t-1]`` carries h_{t-1} into h_t,
    so a caller passes ``decay[:, 1:]`` (decay_0 multiplies the zero state).
    The first loop runs every block from a zero state at once, one offset
    within the block per step, through strided views; the last block may be
    short. The second adds each block's carry, ``cumprod(a) * h`` of the
    previous block's last state, in place. With one block it runs zero times.
    """
    N = u.shape[1]
    block = N if block_size is None else min(block_size, N)
    out = np.empty_like(u)
    h = u[:, ::block].copy()  # the state of every block at offset 0
    out[:, ::block] = h
    for t in range(1, block):
        hk = h[:, :(N - 1 - t) // block + 1]  # the blocks long enough to reach offset t
        hk *= a[:, t - 1::block]
        hk += u[:, t::block]
        out[:, t::block] = hk
    for start in range(block, N, block):
        out[:, start:start + block] += (np.cumprod(a[:, start - 1:start - 1 + block], axis=1)
                                        * out[:, start - 1:start])
    return out


def _adjoint(a: np.ndarray, g: np.ndarray, block_size: Optional[int]) -> np.ndarray:
    """The scan's backward: lam_t = g_t + a_{t+1} * lam_{t+1}, a reversed
    linear recurrence run on the same kernel through reversed views, with
    a_N .. a_1 as its transitions. lam is dL/d(drive)."""
    return _scan(a[:, :0:-1], g[:, ::-1], block_size)[:, ::-1]


def linear_recurrence(decay: Tensor, drive: Tensor, block_size: Optional[int] = 64) -> Tensor:
    """h_t = decay_t * h_{t-1} + drive_t along axis 1, h_0 = 0.

    ``decay`` and ``drive`` must have identical shapes [B, N, ...].
    """
    if decay.shape != drive.shape:
        raise T.ShapeError(f"linear_recurrence: decay {decay.shape} != drive {drive.shape}")
    if decay.ndim < 2 or decay.shape[1] < 1:
        raise T.ShapeError(f"linear_recurrence needs [B, N, ...] with N >= 1, got {decay.shape}")
    a = decay.data
    h = _scan(a[:, 1:], drive.data, block_size)

    def bwd(g):
        lam = _adjoint(a, g, block_size)
        h_prev = np.concatenate([np.zeros_like(h[:, :1]), h[:, :-1]], axis=1)
        return np.ascontiguousarray(lam * h_prev), np.ascontiguousarray(lam)

    return T._trace(h, (decay, drive), bwd, "linear_recurrence")


def selective_scan_fn(x: Tensor, delta: Tensor, A: Tensor, B: Tensor, C: Tensor, D: Tensor,
                      block_size: Optional[int] = 64) -> Tensor:
    """Discretize, scan and read out as one tape op: [B,N,d] -> [B,N,d].

    x, delta: [B,N,d]; A: [d,n]; B, C: [B,N,n]; D: [d]. Per channel j and
    state k: h_t = exp(delta_t A) (.) h_{t-1} + (delta_t B_t) x_t, then
    y_t = <C_t, h_t> + D x_t. The [B,N,d,n] decay and drive are built in
    place, in the order ``exp(delta*A)`` and ``(delta*B)*x``; only the decay
    and h are kept for the backward, which returns gradients for all six
    inputs.
    """
    got = (x.shape, delta.shape, A.shape, B.shape, C.shape, D.shape)
    want = None
    if x.ndim == 3 and x.shape[1] >= 1 and A.ndim == 2:
        (b, N, d), n = x.shape, A.shape[1]
        want = ((b, N, d), (b, N, d), (d, n), (b, N, n), (b, N, n), (d,))
    if got != want:
        raise T.ShapeError(f"selective_scan: x, delta, A, B, C, D have shapes {got}, expected "
                           "[B,N,d], [B,N,d], [d,n], [B,N,n], [B,N,n], [d] with N >= 1")
    dt = delta.data[..., None]  # [B,N,d,1]
    decay = dt * A.data
    np.exp(decay, out=decay)
    drive = dt * B.data[:, :, None, :]
    drive *= x.data[..., None]
    h = _scan(decay[:, 1:], drive, block_size)
    y = np.einsum("btjk,btk->btj", h, C.data)
    y += D.data * x.data

    def bwd(g):
        lam = _adjoint(decay, g[..., None] * C.data[:, :, None, :], block_size)
        # q = dL/d(delta*A) = lam * decay * h_prev, with h_prev = 0 at t = 0
        q = lam * decay
        q[:, 0] = 0.0
        q[:, 1:] *= h[:, :-1]
        lam_b = np.einsum("btjk,btk->btj", lam, B.data)
        dx = delta.data * lam_b
        dx += g * D.data
        ddelta = np.einsum("btjk,jk->btj", q, A.data)
        ddelta += x.data * lam_b
        dA = np.einsum("btjk,btj->jk", q, delta.data)
        dB = np.einsum("btjk,btj->btk", lam, delta.data * x.data)
        dC = np.einsum("btj,btjk->btk", g, h)
        dD = np.sum(g * x.data, axis=(0, 1))
        return dx, ddelta, dA, dB, dC, dD

    return T._trace(y, (x, delta, A, B, C, D), bwd, "selective_scan")


class SSMParams(nn.Module):
    """Learnable maps producing the input-dependent scan inputs.

    ``A = -softplus(decay_rate) < 0`` and per-channel
    ``delta = softplus(step_proj(x)) > 0`` keep the decay exp(delta A)
    strictly inside (0,1).
    """

    def __init__(self, dim: int, state_dim: int, rng: np.random.Generator):
        self.decay_rate = Tensor(nn.uniform(rng, (dim, state_dim), 0.0, 1.0), requires_grad=True)
        self.step_proj = nn.Linear(dim, dim, rng)
        self.step_proj.bias.data[:] = -1.0  # softplus(-1) ~ 0.31: moderate initial step
        self.input_map = nn.Linear(dim, state_dim, rng)
        self.output_map = nn.Linear(dim, state_dim, rng)
        self.skip = Tensor(np.ones(dim), requires_grad=True)
        self.dim = dim
        self.state_dim = state_dim

    def discretize(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """delta [B,N,d], A [d,n], B [B,N,n] and C [B,N,n] for ``selective_scan_fn``."""
        delta = T.softplus(self.step_proj(x))
        A = T.neg(T.softplus(self.decay_rate))
        return delta, A, self.input_map(x), self.output_map(x)


def selective_scan(params: SSMParams, x: Tensor, block_size: Optional[int] = 64) -> Tensor:
    """Input-dependent linear-time scan: [B,N,d] -> [B,N,d]."""
    if x.ndim != 3 or x.shape[-1] != params.dim:
        raise T.ShapeError(f"selective_scan expects [B,N,{params.dim}], got {x.shape}")
    return selective_scan_fn(x, *params.discretize(x), params.skip, block_size)


class GatedSSM(nn.Module):
    """Gated scan layer: project to two branches, scan one, sigmoid-gate,
    project out. Shape-preserving on [B,N,d]."""

    def __init__(self, dim: int, state_dim: int, rng: np.random.Generator,
                 block_size: Optional[int] = 64):
        self.in_proj = nn.Linear(dim, 2 * dim, rng)
        self.ssm = SSMParams(dim, state_dim, rng)
        self.out_proj = nn.Linear(dim, dim, rng)
        self.dim = dim
        self.block_size = block_size

    def __call__(self, x: Tensor) -> Tensor:
        both = self.in_proj(x)
        main = both[..., : self.dim]
        gate = both[..., self.dim:]
        y = selective_scan(self.ssm, main, self.block_size)
        return self.out_proj(T.mul(y, T.sigmoid(gate)))
