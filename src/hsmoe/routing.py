"""Two-level soft expert routing over grouped token slots.

Pipeline: partition the token sequence into contiguous groups, softly assign
each group's tokens to per-expert slots (dispatch weights from a per-token
softmax over all expert-slot pairs), run a dense mixture of experts over the
slots (group-pooled gate), refine every slot of every group with a second
dense mixture (per-position gate), then map slots back to tokens with the
same dispatch weights and drop the padding.

Token ordering contract: callers flatten 3D feature maps in raster order
(depth-major, then height, then width), so groups are spatially contiguous
slabs. Group boundaries change results, which makes the ordering part of the
interface.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import nn, tensor as T
from .config import StageConfig
from .tensor import ShapeError, Tensor

FFN_RATIO = 2  # an expert FFN's hidden width is FFN_RATIO * d


def group_and_pad(x: Tensor, mask: Optional[np.ndarray], group_size: int
                  ) -> Tuple[Tensor, np.ndarray]:
    """Partition [B,N,d] into ceil(N/K) groups of K tokens, zero-padding the
    tail; returns the grouped tensor [B,G,K,d] and the validity mask [B,N'].

    Padded positions carry zeros and validity 0. An absent input mask means
    all tokens are valid.
    """
    if x.ndim != 3:
        raise ShapeError(f"group_and_pad expects [B,N,d], got {x.shape}")
    B, N, d = x.shape
    if N == 0:
        raise ShapeError("group_and_pad: empty token sequence")
    if group_size < 1:
        raise ShapeError(f"group size must be >= 1, got {group_size}")
    G = math.ceil(N / group_size)
    Np = G * group_size
    padded = T.pad_zeros(x, [(0, 0), (0, Np - N), (0, 0)]) if Np > N else x
    grouped = T.reshape(padded, (B, G, group_size, d))
    valid = np.zeros((B, Np), dtype=x.dtype)
    valid[:, :N] = 1.0 if mask is None else np.asarray(mask, dtype=x.dtype)
    return grouped, valid


def ungroup(grouped: Tensor, n_tokens: int) -> Tensor:
    """Inverse of group_and_pad restricted to the valid prefix."""
    B, G, K, d = grouped.shape
    flat = T.reshape(grouped, (B, G * K, d))
    if n_tokens > G * K:
        raise ShapeError(f"cannot recover {n_tokens} tokens from {G * K} grouped positions")
    return flat[:, :n_tokens] if n_tokens < G * K else flat


def slot_assign(grouped: Tensor, valid: np.ndarray, slot_emb: Tensor
                ) -> Tuple[Tensor, Tensor]:
    """Soft-assign each group's tokens to expert slots.

    Logits are token/slot-embedding dot products; each token's dispatch row is
    a softmax over the combined expert-slot dimension (m = e*S + s). Masking
    is row-granular: an invalid token has its whole row suppressed, realized
    as an exact-zero dispatch row so padded content can never reach a slot
    (and gets zero gradient). Returns slots [B,G,M,d], the layout the two
    routing levels and ``combine`` take, and dispatch weights A [B,G,K,M].
    """
    B, G, K, d = grouped.shape
    E, S, d2 = slot_emb.shape
    if d2 != d:
        raise ShapeError(f"slot embeddings width {d2} != token width {d}")
    M = E * S
    emb_t = T.permute(T.reshape(slot_emb, (M, d)), (1, 0))
    logits = T.matmul(grouped, emb_t)  # [B,G,K,M], finite (matmul checks)
    weights = T.softmax(logits, axis=-1)
    if not valid.all():
        weights = T.masked_fill(weights, valid.reshape(B, G, K, 1).astype(bool), 0.0)
    slots = T.matmul(T.permute(weights, (0, 1, 3, 2)), grouped)  # [B,G,M,K] @ [B,G,K,d]
    return slots, weights


def _mix(outs: Tensor, gate: Tensor) -> Tensor:
    """Gate-weighted sum over the expert axis: out = sum_e gate[..., e] * outs[e].

    outs: [E, *lead, d] (one output per expert); gate: [*lead', E] with lead'
    broadcastable to lead. One tape op; the forward accumulates experts in
    index order.
    """
    lead = gate.ndim - 1
    w = gate.data.transpose((lead,) + tuple(range(lead)))[..., None]  # [E, *lead', 1]
    experts = outs.data
    out = np.add.reduce(w * experts, axis=0)

    def bwd(g):
        dgate = (experts * g).sum(axis=-1)  # [E, *lead]
        return w * g, T._unbroadcast(dgate.transpose(tuple(range(1, dgate.ndim)) + (0,)), gate.shape)

    return T._trace(out, (outs, gate), bwd, "mix")


def level1_route(slots: Tensor, router: nn.Linear, experts: ExpertBank) -> Tensor:
    """Dense first-level mixture: one gate per group (softmax over experts of
    an MLP on the slot mean), every expert runs on every group's slots.

    slots: [B,G,M,d] -> [B,G,M,d], slot structure preserved one-to-one.
    """
    B, G, M, d = slots.shape
    pooled = T.reduce_mean(slots, axis=2)  # [B,G,d]
    gate = T.softmax(router(pooled), axis=-1)  # [B,G,E]
    return _mix(experts(slots), T.reshape(gate, (B, G, 1, len(experts))))


def level2_route(slots: Tensor, router: nn.Linear, experts: ExpertBank) -> Tensor:
    """Dense second-level mixture with a per-position gate: router and experts
    are shared by every slot of every group and act on the trailing axis, so
    it runs on [B,G,M,d] as it is."""
    gate = T.softmax(router(slots), axis=-1)  # [B,G,M,E2]
    return _mix(experts(slots), gate)


def combine(slot_out: Tensor, weights: Tensor, n_tokens: int) -> Tensor:
    """Map slot outputs back to tokens: each token gets the convex combination
    of its group's slots under its own dispatch row, then padding is dropped.

    slot_out: [B,G,M,d]; weights: [B,G,K,M] (the slot_assign output, reused).
    """
    B, G, M, d = slot_out.shape
    if weights.shape[:2] != (B, G) or weights.shape[3] != M:
        raise ShapeError(f"combine: weights {weights.shape} inconsistent with slots {slot_out.shape}")
    mixed = T.matmul(weights, slot_out)  # [B,G,K,d]
    return ungroup(mixed, n_tokens)


class ExpertBank(nn.Module):
    """E width-preserving expert FFNs (Linear d->r*d, GELU, Linear r*d->d,
    with r = FFN_RATIO) stored as stacked parameters w1 [E,d,r*d],
    b1 [E,1,r*d], w2 [E,r*d,d], b2 [E,1,d].

    Calling the bank on [..., d] runs every expert on every token with one
    broadcast matmul per linear and returns [E, ..., d]; expert e is slice e
    of each stack.
    """

    def __init__(self, num: int, dim: int, rng: np.random.Generator):
        hidden = FFN_RATIO * dim
        w1 = np.zeros((num, dim, hidden))
        w2 = np.zeros((num, hidden, dim))
        if rng is not None:  # without a generator the stacks stay lazily zeroed
            for e in range(num):  # per-expert draw order: w1[e], then w2[e]
                w1[e] = nn._uniform_init(rng, (dim, hidden), dim)
                w2[e] = nn._uniform_init(rng, (hidden, dim), hidden)
        self.w1 = Tensor(w1, requires_grad=True)
        self.b1 = Tensor(np.zeros((num, 1, hidden)), requires_grad=True)
        self.w2 = Tensor(w2, requires_grad=True)
        self.b2 = Tensor(np.zeros((num, 1, dim)), requires_grad=True)
        self.dim = dim

    def __len__(self) -> int:
        return self.w1.shape[0]

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"ExpertBank: trailing dim {x.shape[-1]} != {self.dim} (input {x.shape})")
        tokens = T.reshape(x, (1, -1, self.dim))
        hidden = nn.gelu(T.add(T.matmul(tokens, self.w1), self.b1))
        out = T.add(T.matmul(hidden, self.w2), self.b2)  # [E, L, d]
        return T.reshape(out, (len(self),) + x.shape)


def is_expert_stack(name: str) -> bool:
    """Whether a dotted parameter name is one of a routing layer's stacked
    expert tensors, whose leading axis indexes experts."""
    owner, _, leaf = name.rpartition(".")
    return leaf in ("w1", "b1", "w2", "b2") and owner.rpartition(".")[2] in ("experts1", "experts2")


class HierarchicalMoE(nn.Module):
    """The full grouped two-level soft-MoE layer (shape-preserving on [B,N,d])."""

    def __init__(self, cfg: StageConfig, rng: np.random.Generator):
        d = cfg.dim
        bound = 1.0 / math.sqrt(d)
        self.slot_emb = Tensor(nn.uniform(rng, (cfg.num_experts, cfg.slots_per_expert, d), -bound, bound),
                               requires_grad=True)
        self.router1 = nn.Linear(d, cfg.num_experts, rng)
        self.experts1 = ExpertBank(cfg.num_experts, d, rng)
        self.router2 = nn.Linear(d, cfg.num_experts_l2, rng)
        self.experts2 = ExpertBank(cfg.num_experts_l2, d, rng)
        self.cfg = cfg

    def __call__(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        grouped, valid = group_and_pad(x, mask, self.cfg.group_size)
        slots, weights = slot_assign(grouped, valid, self.slot_emb)
        y1 = level1_route(slots, self.router1, self.experts1)
        return combine(level2_route(y1, self.router2, self.experts2), weights, x.shape[1])
