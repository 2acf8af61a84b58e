"""Selective state-space sequence layer: linear-time gated scan.

The core primitive is the first-order linear recurrence
``h_t = decay_t * h_{t-1} + drive_t`` (h_0 = 0) along axis 1. Two forward
evaluators share one hand-derived backward: a plain sequential loop and a
blocked two-pass scan that runs the within-block work vectorized across
blocks (same O(N) arithmetic, far fewer interpreter steps). The backward
adjoint ``lam_t = g_t + decay_{t+1} * lam_{t+1}`` is itself a reversed linear
recurrence, so it reuses the same kernel.

Discretization keeps the state transition strictly inside (0,1):
``decay = exp(-softplus(rate) * delta)`` with ``delta = softplus(linear(x))``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import nn, tensor as T
from .tensor import Tensor


def _scan_sequential(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    h = np.zeros_like(u[:, 0])
    for t in range(u.shape[1]):
        h = a[:, t] * h + u[:, t]
        out[:, t] = h
    return out


def _scan_blocked(a: np.ndarray, u: np.ndarray, block: int) -> np.ndarray:
    B, N = u.shape[:2]
    rest = u.shape[2:]
    nb = math.ceil(N / block)
    pad = nb * block - N
    if pad:
        # identity elements: decay 1, drive 0 (stripped before returning)
        a = np.concatenate([a, np.ones((B, pad) + rest, dtype=a.dtype)], axis=1)
        u = np.concatenate([u, np.zeros((B, pad) + rest, dtype=u.dtype)], axis=1)
    ar = a.reshape(B, nb, block, *rest)
    ur = u.reshape(B, nb, block, *rest)

    # zero-state response of every block, vectorized across blocks
    zero_state = np.empty_like(ur)
    h = np.zeros((B, nb) + rest, dtype=u.dtype)
    for t in range(block):
        h = ar[:, :, t] * h + ur[:, :, t]
        zero_state[:, :, t] = h

    # carry initial states across blocks (superposition: h = cum_decay*init + zero_state)
    cum_decay = np.cumprod(ar, axis=2)
    init = np.empty((B, nb) + rest, dtype=u.dtype)
    carry = np.zeros((B,) + rest, dtype=u.dtype)
    for b in range(nb):
        init[:, b] = carry
        carry = cum_decay[:, b, -1] * carry + zero_state[:, b, -1]

    out = zero_state + cum_decay * init[:, :, None]
    out = out.reshape(B, nb * block, *rest)
    return np.ascontiguousarray(out[:, :N]) if pad else out


def _scan(a: np.ndarray, u: np.ndarray, block_size: Optional[int]) -> np.ndarray:
    if block_size is None or u.shape[1] <= block_size:
        return _scan_sequential(a, u)
    return _scan_blocked(a, u, block_size)


def linear_recurrence(decay: Tensor, drive: Tensor, block_size: Optional[int] = 64) -> Tensor:
    """h_t = decay_t * h_{t-1} + drive_t along axis 1, h_0 = 0.

    ``decay`` and ``drive`` must have identical shapes [B, N, ...].
    """
    if decay.shape != drive.shape:
        raise T.ShapeError(f"linear_recurrence: decay {decay.shape} != drive {drive.shape}")
    if decay.ndim < 2 or decay.shape[1] < 1:
        raise T.ShapeError(f"linear_recurrence needs [B, N, ...] with N >= 1, got {decay.shape}")
    a = decay.data
    h = _scan(a, drive.data, block_size)

    def bwd(g):
        arev = np.flip(a, axis=1)
        shifted = np.concatenate([np.ones_like(arev[:, :1]), arev[:, :-1]], axis=1)
        lam = np.flip(_scan(shifted, np.ascontiguousarray(np.flip(g, axis=1)), block_size), axis=1)
        h_prev = np.concatenate([np.zeros_like(h[:, :1]), h[:, :-1]], axis=1)
        return np.ascontiguousarray(lam * h_prev), np.ascontiguousarray(lam)

    return T._trace(h, (decay, drive), bwd, "linear_recurrence")


def apply_selective_scan(decay: Tensor, input_gain: Tensor, out_map: Tensor,
                         skip: Tensor, x: Tensor, block_size: Optional[int] = 64) -> Tensor:
    """Run the recurrence with given discretized tensors and mix the outputs.

    decay, input_gain: [B,N,d,n]; out_map: [B,N,n]; skip: [d]; x: [B,N,d].
    Per channel: h_t = decay_t (.) h_{t-1} + input_gain_t * x_t, then
    y_t = <out_map_t, h_t> + skip * x_t.
    """
    B, N, d = x.shape
    n = decay.shape[-1]
    drive = T.mul(input_gain, T.reshape(x, (B, N, d, 1)))
    h = linear_recurrence(decay, drive, block_size)
    y = T.reduce_sum(T.mul(h, T.reshape(out_map, (B, N, 1, n))), axis=-1)
    return T.add(y, T.mul(skip, x))


class SSMParams(nn.Module):
    """Learnable maps producing the input-dependent scan tensors.

    ``decay = exp(-softplus(decay_rate) * delta)`` with per-channel
    ``delta = softplus(step_proj(x)) > 0`` guarantees decay in (0,1).
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

    def discretize(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        B, N, d = x.shape
        n = self.state_dim
        delta = T.softplus(self.step_proj(x))  # [B,N,d]
        rates = T.softplus(self.decay_rate)  # [d,n]
        delta_col = T.reshape(delta, (B, N, d, 1))
        decay = T.exp(T.neg(T.mul(delta_col, rates)))
        gain = T.mul(delta_col, T.reshape(self.input_map(x), (B, N, 1, n)))
        out_map = self.output_map(x)
        return decay, gain, out_map


def selective_scan(params: SSMParams, x: Tensor, block_size: Optional[int] = 64) -> Tensor:
    """Input-dependent linear-time scan: [B,N,d] -> [B,N,d]."""
    if x.ndim != 3 or x.shape[-1] != params.dim:
        raise T.ShapeError(f"selective_scan expects [B,N,{params.dim}], got {x.shape}")
    decay, gain, out_map = params.discretize(x)
    return apply_selective_scan(decay, gain, out_map, params.skip, x, block_size)


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
