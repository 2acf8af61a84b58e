"""Finite-difference suites per module, shared by the CLI and the test suite.

Each suite builds small deterministic instances and checks every parameter's
tape gradient against central differences at the module's stated tolerance
(1e-6 for primitive ops, 1e-4 for composite layers, matching where FD noise
sits for each depth).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from . import nn, ssm, tensor as T
from .blocks import EncoderBlock, GatedSpatialConv
from .config import NetworkConfig, StageConfig
from .gradcheck import CheckResult, grad_check, weighted_sum_loss
from .network import SegNet
from .routing import ExpertBank, HierarchicalMoE
from .tensor import Tensor


def tensor_core_suite() -> List[CheckResult]:
    g = T.rng(101)
    a = Tensor(g.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(g.uniform(-1, 1, (4, 2)), requires_grad=True)
    x = Tensor(g.uniform(-1, 1, (2, 5)), requires_grad=True)
    return [
        grad_check(lambda: weighted_sum_loss(T.matmul(a, b)), {"a": a, "b": b},
                   name="tensor_core/matmul", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(T.softmax(x, axis=-1)), {"x": x},
                   name="tensor_core/softmax", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(T.reduce_mean(x, axis=1)), {"x": x},
                   name="tensor_core/reduce_mean", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(T.mul(T.tanh(x), T.sigmoid(x))), {"x": x},
                   name="tensor_core/elementwise", tol=1e-6),
    ]


def nn_prims_suite() -> List[CheckResult]:
    g = T.rng(102)
    ffn = ExpertBank(1, 3, g)
    dyt = nn.DynamicTanh(3)
    ln = nn.LayerNorm(3)
    conv = nn.Conv3d(2, 2, 2, g, padding=1)
    xf = Tensor(g.uniform(-1, 1, (2, 3)))
    xc = Tensor(g.uniform(-1, 1, (1, 2, 3, 3, 3)))
    return [
        grad_check(lambda: weighted_sum_loss(ffn(xf)), dict(ffn.named_parameters()),
                   name="nn_prims/ffn", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(dyt(xf)), dict(dyt.named_parameters()),
                   name="nn_prims/dyt", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(ln(xf)), dict(ln.named_parameters()),
                   name="nn_prims/layernorm", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(conv(xc)), dict(conv.named_parameters()),
                   name="nn_prims/conv3d", tol=1e-6),
    ]


def ssm_suite() -> List[CheckResult]:
    g = T.rng(103)
    a = Tensor(g.uniform(0.1, 0.9, (1, 6, 2, 2)), requires_grad=True)
    u = Tensor(g.uniform(-1, 1, (1, 6, 2, 2)), requires_grad=True)
    layer = ssm.GatedSSM(4, 2, g)
    x = Tensor(g.uniform(-1, 1, (1, 6, 4)))
    return [
        grad_check(lambda: weighted_sum_loss(ssm.linear_recurrence(a, u, block_size=3)),
                   {"decay": a, "drive": u}, name="ssm_scan/linear_recurrence", tol=1e-6),
        grad_check(lambda: weighted_sum_loss(layer(x)), dict(layer.named_parameters()),
                   name="ssm_scan/gated_layer", tol=1e-5),
    ]


def routing_suite() -> List[CheckResult]:
    g = T.rng(104)
    layer = HierarchicalMoE(StageConfig(dim=4, num_experts=2, group_size=4,
                                        slots_per_expert=1), g)
    x = Tensor(g.uniform(-1, 1, (1, 6, 4)))
    return [grad_check(lambda: weighted_sum_loss(layer(x)), dict(layer.named_parameters()),
                       name="routing/full_layer", tol=1e-4)]


def block_suite() -> List[CheckResult]:
    g = T.rng(105)
    stage = StageConfig(dim=2, num_experts=2, group_size=4, slots_per_expert=1)
    results = []
    gsc = GatedSpatialConv(2, g)
    xc = Tensor(g.uniform(-1, 1, (1, 2, 3, 3, 3)))
    results.append(grad_check(lambda: weighted_sum_loss(gsc(xc)), dict(gsc.named_parameters()),
                              name="block/gsc", tol=1e-6))
    block = EncoderBlock(stage, 1, "dyt", 2, g)
    xb = Tensor(g.uniform(-1, 1, (1, 2, 2, 2, 2)))
    results.append(grad_check(lambda: weighted_sum_loss(block(xb)), dict(block.named_parameters()),
                              name="block/full", tol=1e-4))
    return results


def network_suite() -> List[CheckResult]:
    cfg = NetworkConfig(num_classes=2, stem_channels=4, experts=(1, 2),
                        base_group_size=8, slots_per_expert=1,
                        ssm_state_dim=2)
    net = SegNet(cfg, seed=106)
    x = Tensor(T.rng(107).uniform(0, 1, (1, 1, 8, 8, 8)))
    return [grad_check(lambda: weighted_sum_loss(net(x)), dict(net.named_parameters()),
                       name="network/sampled_subset", tol=1e-4,
                       coord_budget=50, rng=T.rng(108))]


MODULE_SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "tensor_core": tensor_core_suite,
    "nn_prims": nn_prims_suite,
    "ssm_scan": ssm_suite,
    "routing": routing_suite,
    "block": block_suite,
    "network": network_suite,
}
