"""Cost accounting and sweep plumbing (timing thresholds live in acceptance)."""

import numpy as np
import pytest

from hsmoe.bench import (
    assignment_flops_global,
    assignment_flops_grouped,
    fit_loglog_slope,
    routing_layer_flops,
    volume_shapes_for,
)
from hsmoe.config import StageConfig, full_config, tiny_config
from hsmoe.metrics import count_parameters
from hsmoe.network import SegNet
from hsmoe.routing import FFN_RATIO


def test_slope_fit_recovers_exponent():
    ns = np.array([2 ** k for k in range(8, 14)])
    assert fit_loglog_slope(ns, 3.5 * ns) == pytest.approx(1.0)
    assert fit_loglog_slope(ns, 0.1 * ns ** 2) == pytest.approx(2.0)


def test_assignment_flops_linear_in_tokens_at_fixed_group_size():
    # cost G*K*M*d doubles with N (up to padding granularity)
    base = assignment_flops_grouped(1024, 64, 8, 16)
    assert assignment_flops_grouped(2048, 64, 8, 16) == 2 * base


def test_grouped_cost_never_exceeds_global_and_equal_at_one_group():
    for n in (64, 100, 1000, 4096):
        for k in (4, 16, 64, n):
            grouped = assignment_flops_grouped(n, k, 8, 16)
            glob = assignment_flops_global(n, k, 8, 16)
            assert grouped <= glob
            if k >= n:
                assert grouped == glob


def test_routing_layer_flops_positive_and_monotone():
    stage = StageConfig(dim=16, num_experts=4, group_size=64, slots_per_expert=2)
    small = routing_layer_flops(512, stage)
    big = routing_layer_flops(4096, stage)
    assert 0 < small < big


def test_volume_shapes_cover_token_counts():
    for n, shape in zip([2 ** k for k in range(10, 17)],
                        volume_shapes_for([2 ** k for k in range(10, 17)])):
        assert int(np.prod(shape)) == n
        assert all(s % 4 == 0 for s in shape)


# ---------------------------------------------------------------------------
# closed-form parameter counting for the production preset


def _linear_n(i, o):
    return i * o + o


def _conv_n(i, o, k):
    return o * i * k ** 3 + o


def _conv_t_n(i, o):
    return i * o * 8 + o


def _norm_n(kind, d):
    return 2 * d + 1 if kind == "dyt" else 2 * d


def _ffn_n(d, r):
    return _linear_n(d, r * d) + _linear_n(r * d, d)


def _gated_ssm_n(d, n):
    return (_linear_n(d, 2 * d) + d * n + _linear_n(d, d) + 2 * _linear_n(d, n)
            + d + _linear_n(d, d))


def _moe_n(stage):
    d, E, S, E2, r = (stage.dim, stage.num_experts, stage.slots_per_expert,
                      stage.num_experts_l2, FFN_RATIO)
    return (E * S * d + _linear_n(d, E) + E * _ffn_n(d, r)
            + _linear_n(d, E2) + E2 * _ffn_n(d, r))


def _network_n(cfg):
    total = _conv_n(cfg.in_channels, cfg.stem_channels, 3)
    for i, stage in enumerate(cfg.stages):
        d = stage.dim
        per_layer = (_conv_n(d, d, 3) + _conv_n(d, d, 1) + _conv_n(d, d, 3)
                     + 2 * _norm_n(cfg.norm, d)
                     + _gated_ssm_n(d, cfg.ssm_state_dim)
                     + _moe_n(stage) + _linear_n(d, d))
        total += cfg.layers_per_stage[i] * per_layer
    for i in range(cfg.num_stages - 1):
        c = cfg.channels[i]
        total += _conv_n(c, 2 * c, 3)
        total += (_conv_t_n(2 * c, c) + _conv_n(2 * c, c, 3) + _norm_n("ln", c)
                  + _conv_n(c, c, 3) + _norm_n("ln", c))
    total += _conv_t_n(cfg.stem_channels, cfg.stem_channels)
    total += _conv_n(cfg.stem_channels, cfg.num_classes, 1)
    return total


@pytest.mark.parametrize("cfg_fn", [tiny_config, full_config])
def test_manifest_matches_closed_form_count(cfg_fn):
    cfg = cfg_fn(num_classes=3)
    assert count_parameters(SegNet(cfg, seed=None)) == _network_n(cfg)


def test_full_preset_manifest_names_unique():
    count_parameters(SegNet(full_config(), seed=None))  # raises on a duplicate name
