"""Selective state-space sequence layer: linear-time gated scan.

The core primitive is the first-order linear recurrence
``h_t = decay_t * h_{t-1} + drive_t`` (h_0 = 0) along axis 1. The scan cuts
the N steps into nb = ceil(N / L) blocks of L = ``block_size`` steps and
lays each [B,N,...] operand out block-major, as [L, B, nb, ...] with zeros
past N (``_to_blocks``), so offset t of every block is one contiguous slab.
One in-place kernel, ``_scan``, runs the recurrence on that layout: O(N)
arithmetic in about ``2 L + nb`` interpreter steps, with no buffer of the
state's size besides the state. The backward adjoint
``lam_t = g_t + decay_{t+1} * lam_{t+1}`` is the same recurrence run
backwards, so it is the same kernel on reversed views.

The model's scan is ``selective_scan_fn``, one tape op that discretizes,
scans and reads out in the block layout, so the [B,N,d,n] state never
becomes a Tensor and only [B,N,.]-sized arrays are laid out and back.
Discretization keeps the state transition strictly inside (0,1):
``decay = exp(delta * A)`` with ``A = -softplus(rate)`` and
``delta = softplus(linear(x))``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import nn, tensor as T
from .tensor import Tensor


def _to_blocks(v: np.ndarray, L: int) -> np.ndarray:
    """[B,N,...] -> [L,B,nb,...]: v[b, k*L + t] at [t, b, k], zeros past N."""
    (B, N), rest = v.shape[:2], v.shape[2:]
    nb = -(-N // L)
    if nb * L > N:
        v = np.concatenate((v, np.zeros((B, nb * L - N) + rest, v.dtype)), axis=1)
    return v.reshape(B, nb, L, -1).transpose(2, 0, 1, 3).copy().reshape((L, B, nb) + rest)


def _from_blocks(r: np.ndarray, N: int) -> np.ndarray:
    """The inverse of ``_to_blocks``: [L,B,nb,...] -> [B,N,...]."""
    L, B, nb = r.shape[:3]
    out = r.reshape(L, B, nb, -1).transpose(1, 2, 0, 3).reshape((B, nb * L) + r.shape[3:])
    return out if nb * L == N else np.ascontiguousarray(out[:, :N])


def _scan(within: np.ndarray, across: np.ndarray, h: np.ndarray) -> None:
    """h_t += a_t * h_{t-1} in place on the block layout h [L, B, nb, ...],
    which holds the drive on entry and the state on return.

    ``within[t-1]`` carries offset t-1 of every block into offset t, and
    ``across[:, k-1]`` carries the end of block k-1 into offset 0 of block k.
    Three passes:
    1. every block runs from a zero state, one offset per step;
    2. each block's transition product P carries the block end states across
       the blocks, so offset L-1 holds every block's true end state H;
    3. offset t < L-1 of block k adds P_t * H_{k-1}, P_t the running product
       of block k's transitions up to offset t.
    Passes 2 and 3 form each P left to right, as a cumprod along the block
    would. With one block only the first pass runs.
    """
    tmp, ends = np.empty_like(h[0]), across.copy()
    for a, prev, cur in zip(within, h[:-1], h[1:]):
        np.multiply(a, prev, out=tmp)
        cur += tmp
        ends *= a[:, 1:]
    if h.shape[2] == 1:
        return
    last = h[-1]
    by_block = last.swapaxes(0, 1)  # [nb, B, ...] views of the end states
    for end, prev, cur in zip(ends.swapaxes(0, 1), by_block[:-1], by_block[1:]):
        cur += end * prev
    carry, tail, prev_end = across.copy(), tmp[:, 1:], last[:, :-1]
    for t, cur in enumerate(h[:-1, :, 1:]):
        if t:
            carry *= within[t - 1, :, 1:]
        np.multiply(carry, prev_end, out=tail)
        cur += tail


def _times_previous(q: np.ndarray, h: np.ndarray) -> None:
    """q_t *= h_{t-1} in place on the block layout, with h_{-1} = 0."""
    q[1:] *= h[:-1]
    q[0, :, 1:] *= h[-1, :, :-1]
    q[0, :, 0] = 0.0


@T._quiet
def linear_recurrence(decay: Tensor, drive: Tensor, block_size: int) -> Tensor:
    """h_t = decay_t * h_{t-1} + drive_t along axis 1, h_0 = 0, in blocks of
    ``block_size`` steps (one block when it is at least N).

    ``decay`` and ``drive`` must have identical shapes [B, N, ...].
    """
    if decay.shape != drive.shape:
        raise T.ShapeError(f"linear_recurrence: decay {decay.shape} != drive {drive.shape}")
    if decay.ndim < 2 or decay.shape[1] < 1:
        raise T.ShapeError(f"linear_recurrence needs [B, N, ...] with N >= 1, got {decay.shape}")
    N = decay.shape[1]
    L = min(block_size, N)
    a = _to_blocks(decay.data, L)
    h = _to_blocks(drive.data, L)
    _scan(a[1:], a[0, :, 1:], h)

    def bwd(g):
        # lam_t = g_t + a_{t+1} lam_{t+1}: the kernel on the reversed layout
        lam = _to_blocks(g, L)
        _scan(a[:0:-1, :, ::-1], a[0, :, :0:-1], lam[::-1, :, ::-1])
        q = lam.copy()
        _times_previous(q, h)
        return _from_blocks(q, N), _from_blocks(lam, N)

    return T._trace(_from_blocks(h, N), (decay, drive), bwd, "linear_recurrence")


@T._quiet
def selective_scan_fn(x: Tensor, delta: Tensor, A: Tensor, B: Tensor, C: Tensor, D: Tensor,
                      block_size: int) -> Tensor:
    """Discretize, scan and read out as one tape op: [B,N,d] -> [B,N,d].

    x, delta: [B,N,d]; A: [d,n]; B, C: [B,N,n]; D: [d]. Per channel j and
    state k: h_t = exp(delta_t A) (.) h_{t-1} + (delta_t B_t) x_t, then
    y_t = <C_t, h_t> + D x_t. The [B,N,d,n] decay and drive are built in the
    block layout, in the order ``exp(delta*A)`` and ``(delta*B)*x``; the
    decay and h are kept for the backward, which contracts in that layout
    and returns gradients for all six inputs.
    """
    got = (x.shape, delta.shape, A.shape, B.shape, C.shape, D.shape)
    want = None
    if x.ndim == 3 and x.shape[1] >= 1 and A.ndim == 2:
        (b, N, d), n = x.shape, A.shape[1]
        want = ((b, N, d), (b, N, d), (d, n), (b, N, n), (b, N, n), (d,))
    if got != want:
        raise T.ShapeError(f"selective_scan: x, delta, A, B, C, D have shapes {got}, expected "
                           "[B,N,d], [B,N,d], [d,n], [B,N,n], [B,N,n], [d] with N >= 1")
    L = min(block_size, N)
    dt, Bl, Cl = (_to_blocks(v.data, L) for v in (delta, B, C))  # [L,B,nb,.]
    decay = np.einsum("...j,jk->...jk", dt, A.data)
    np.exp(decay, out=decay)
    h = np.einsum("...j,...k->...jk", dt, Bl)
    h *= _to_blocks(x.data, L)[..., None]
    _scan(decay[1:], decay[0, :, 1:], h)
    y = _from_blocks(np.einsum("...jk,...k->...j", h, Cl), N)
    y += D.data * x.data

    def bwd(g):
        gl = _to_blocks(g, L)
        lam = np.einsum("...j,...k->...jk", gl, Cl)
        _scan(decay[:0:-1, :, ::-1], decay[0, :, :0:-1], lam[::-1, :, ::-1])
        # q = dL/d(delta*A) = lam * decay * h_prev
        q = lam * decay
        _times_previous(q, h)
        lam_b = _from_blocks(np.einsum("...jk,...k->...j", lam, Bl), N)
        dx = delta.data * lam_b
        dx += g * D.data
        ddelta = _from_blocks(np.einsum("...jk,jk->...j", q, A.data), N)
        ddelta += x.data * lam_b
        dA = np.einsum("tbcjk,tbcj->jk", q, dt)  # sums offsets t, batch b, blocks c
        dB = _from_blocks(np.einsum("...jk,...j->...k", lam, _to_blocks(delta.data * x.data, L)), N)
        dC = _from_blocks(np.einsum("...j,...jk->...k", gl, h), N)
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


def selective_scan(params: SSMParams, x: Tensor, block_size: int = 64) -> Tensor:
    """Input-dependent linear-time scan: [B,N,d] -> [B,N,d]."""
    if x.ndim != 3 or x.shape[-1] != params.dim:
        raise T.ShapeError(f"selective_scan expects [B,N,{params.dim}], got {x.shape}")
    return selective_scan_fn(x, *params.discretize(x), params.skip, block_size)


class GatedSSM(nn.Module):
    """Gated scan layer: project to two branches, scan one, sigmoid-gate,
    project out. Shape-preserving on [B,N,d]."""

    def __init__(self, dim: int, state_dim: int, rng: np.random.Generator, block_size: int = 64):
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
