"""Scaling benchmarks: routing and full-network wall time versus token count,
grouped-vs-global assignment cost accounting, and the DyT-vs-LN norm timing.

All timings use min-over-repeats of perf_counter around forwards under
``T.no_grad()``, so measured cost is pure forward work.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import tensor as T
from .config import SCAN_BLOCK_SIZE, ConfigError, NetworkConfig, StageConfig
from .network import SegNet
from .routing import FFN_RATIO, HierarchicalMoE
from .tensor import Tensor


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def time_forward(fn, repeats: int = 3) -> float:
    """Min wall seconds over ``repeats`` calls (one warmup)."""
    fn()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# analytic cost accounting (multiply-accumulates, x2 for FLOPs)


def assignment_flops_grouped(n_tokens: int, group_size: int, slots_per_group: int, dim: int) -> int:
    """Grouped dispatch cost: every token is scored against its own group's
    slots only."""
    groups = math.ceil(n_tokens / group_size)
    return 2 * groups * group_size * slots_per_group * dim


def assignment_flops_global(n_tokens: int, group_size: int, slots_per_group: int, dim: int) -> int:
    """Ungrouped baseline at equal total slot capacity: every token scored
    against all groups' slots. Equals the grouped cost exactly when G=1."""
    groups = math.ceil(n_tokens / group_size)
    return 2 * n_tokens * groups * slots_per_group * dim


def routing_layer_flops(n_tokens: int, stage: StageConfig) -> int:
    """Assignment + slot aggregation + expert FFNs (both levels) + combine."""
    d = stage.dim
    M = stage.slots_per_group
    groups = math.ceil(n_tokens / stage.group_size)
    padded = groups * stage.group_size
    dispatch = 3 * 2 * padded * M * d  # logits, slot aggregation, combine
    ffn_macs = 2 * FFN_RATIO * d * d  # two linears per FFN
    positions = groups * M
    experts = 2 * positions * (stage.num_experts + stage.num_experts_l2) * ffn_macs
    routers = 2 * (groups * d * stage.num_experts + positions * d * stage.num_experts_l2)
    return dispatch + experts + routers


# ---------------------------------------------------------------------------
# sweeps


def routing_sweep(n_values: Sequence[int], group_size: int = 256, seed: int = 0,
                  repeats: int = 5) -> List[Dict]:
    """Forward wall time of the routing layer at fixed group size over N.

    The layer has width 64, 4 experts and 2 slots per expert. That width
    keeps arithmetic dominant over per-call overhead at the smallest N, so the
    fitted slope reflects the O(N) cost rather than fixed interpreter costs;
    min-over-repeats suppresses machine-load spikes.
    """
    stage = StageConfig(dim=64, num_experts=4, group_size=group_size, slots_per_expert=2)
    layer = HierarchicalMoE(stage, T.rng(seed))
    rows = []
    gen = T.rng(seed + 1)
    for n in n_values:
        x = Tensor(gen.uniform(-1, 1, (1, int(n), stage.dim)))
        with T.no_grad():
            wall = time_forward(lambda: layer(x), repeats)
        rows.append({
            "N": int(n),
            "K": group_size,
            "E": stage.num_experts,
            "S": stage.slots_per_expert,
            "G": math.ceil(n / group_size),
            "wall_ms": wall * 1e3,
            "est_flops": routing_layer_flops(int(n), stage),
            "assign_flops_grouped": assignment_flops_grouped(int(n), group_size,
                                                             stage.slots_per_group, stage.dim),
            "assign_flops_global": assignment_flops_global(int(n), group_size,
                                                           stage.slots_per_group, stage.dim),
        })
    return rows


def scan_sweep(n_values: Sequence[int], seed: int = 0) -> List[Dict]:
    """Wall time of the blocked selective-scan recurrence over sequence length:
    ``linear_recurrence`` on [1, N, 8, 2] operands in blocks of
    ``SCAN_BLOCK_SIZE`` (the model's), min over 5 repeats.

    Those widths do not keep the sweep in one cache regime: each
    [1, N, 8, 2] f64 operand is 128 N bytes, so it fits a 2 MB L2 at
    N = 2^10 but not from N = 2^14 on. Two bends in the curve offset each
    other in a log-log fit: at small N the fixed interpreter cost of the
    per-offset steps flattens it, and at large N the operands leaving cache
    steepen it.
    """
    from .ssm import linear_recurrence

    gen = T.rng(seed)
    rows = []
    for n in n_values:
        shape = (1, int(n), 8, 2)
        a = Tensor(gen.uniform(0.1, 0.9, shape))
        u = Tensor(gen.uniform(-1, 1, shape))
        wall = time_forward(lambda: linear_recurrence(a, u, SCAN_BLOCK_SIZE), 5)
        rows.append({"N": int(n), "wall_ms": wall * 1e3})
    return rows


# network_sweep's network: wide enough that array work dominates interpreter
# overhead at small N
SWEEP_NETWORK = NetworkConfig(num_classes=2, stem_channels=8, experts=(2, 3),
                              base_group_size=64, slots_per_expert=2,
                              ssm_state_dim=4)


def volume_shapes_for(n_values: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Near-cubic (D,H,W) with D*H*W = N, every extent one SWEEP_NETWORK takes."""
    shapes = []
    for n in n_values:
        exp = int(round(math.log2(n)))
        if 2 ** exp != n:
            raise ConfigError(f"token count {n} must be a power of two")
        a = exp // 3
        rem = exp - 3 * a
        dims = [2 ** (a + (1 if i < rem else 0)) for i in range(3)]
        SWEEP_NETWORK.check_extents(dims, f"token count {n}: extent")
        shapes.append(tuple(sorted(dims, reverse=True)))
    return shapes


def network_sweep(n_values: Sequence[int], seed: int = 0, repeats: int = 3) -> List[Dict]:
    """End-to-end forward wall time over input token counts (powers of two)."""
    net = SegNet(SWEEP_NETWORK, seed=seed)
    gen = T.rng(seed + 1)
    rows = []
    for n, shape in zip(n_values, volume_shapes_for(n_values)):
        x = Tensor(gen.uniform(0, 1, (1, 1) + shape))
        with T.no_grad():
            wall = time_forward(lambda: net(x), repeats)
        rows.append({"N": int(n), "shape": "x".join(map(str, shape)), "wall_ms": wall * 1e3})
    return rows


def norm_comparison(seed: int = 0) -> Dict[str, float]:
    """Per-step forward wall time of the swapped normalization (DyT vs LN)
    on [1, N, 8] activations at the sweep's token counts N = 2^12, 2^13 and
    2^14, summed over sizes; each is the minimum over 15 rounds.

    The norm layers are what the DyT/LN selector exchanges inside the block;
    timing them directly resolves the direction decisively, where a whole-net
    forward buries the swapped component under conv/scan/routing cost.
    Interleaved rounds with min-statistics cancel machine-load drift.
    """
    from . import nn

    gen = T.rng(seed + 1)
    layers = {"dyt": nn.DynamicTanh(8), "ln": nn.LayerNorm(8)}
    totals = {"dyt": 0.0, "ln": 0.0}
    with T.no_grad():
        for n in (2 ** 12, 2 ** 13, 2 ** 14):
            x = Tensor(gen.uniform(-1, 1, (1, n, 8)))
            best = {"dyt": math.inf, "ln": math.inf}
            for name, layer in layers.items():
                layer(x)  # warmup
            for _ in range(15):
                for name, layer in layers.items():
                    t0 = time.perf_counter()
                    layer(x)
                    best[name] = min(best[name], time.perf_counter() - t0)
            for name in totals:
                totals[name] += best[name]
    return {k: v * 1e3 for k, v in totals.items()}
