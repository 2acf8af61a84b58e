"""Full network: stem/encoder/decoder shapes, determinism, shape-only build, gradients."""

import re

import numpy as np
import pytest

from hsmoe import network, tensor as T
from hsmoe.config import ConfigError, NetworkConfig, tiny_config
from hsmoe.gradcheck import grad_check, weighted_sum_loss
from hsmoe.network import SegNet, Stem
from hsmoe.tensor import Tensor


def mini_config(num_classes=2, norm="dyt"):
    return NetworkConfig(num_classes=num_classes, stem_channels=4,
                         experts=(1, 2), base_group_size=8, slots_per_expert=1,
                         ssm_state_dim=2, scan_block_size=16, norm=norm)


def test_stem_production_shape():
    stem = Stem(1, 48, T.rng(0))
    out = stem(Tensor(np.zeros((1, 1, 16, 16, 16))))
    assert out.shape == (1, 48, 8, 8, 8)


def test_stem_scaled_down_shape():
    stem = Stem(1, 4, T.rng(1))
    out = stem(Tensor(np.zeros((1, 1, 8, 8, 8))))
    assert out.shape == (1, 4, 4, 4, 4)


def test_stem_rejects_odd_extents():
    stem = Stem(1, 4, T.rng(2))
    with pytest.raises(ConfigError, match="pad input volumes"):
        stem(Tensor(np.zeros((1, 1, 7, 8, 8))))


def test_stem_gradient():
    stem = Stem(1, 2, T.rng(3))
    x = Tensor(T.rng(4).uniform(-1, 1, (1, 1, 4, 4, 4)))
    res = grad_check(lambda: weighted_sum_loss(stem(x)), dict(stem.named_parameters()),
                     name="stem", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_encoder_shapes_halve_and_double():
    net = SegNet(tiny_config(num_classes=2), seed=0)
    x = Tensor(T.rng(5).uniform(0, 1, (1, 1, 32, 32, 32)))
    feats = net.encoder_forward(x)
    shapes = [f.shape for f in feats]
    assert shapes == [(1, 8, 16, 16, 16), (1, 16, 8, 8, 8), (1, 32, 4, 4, 4), (1, 64, 2, 2, 2)]
    for f in feats:
        assert np.isfinite(f.data).all()


def test_network_output_matches_input_extents():
    net = SegNet(mini_config(num_classes=3), seed=1)
    x = Tensor(T.rng(6).uniform(0, 1, (2, 1, 8, 12, 8)))
    logits = net(x)
    assert logits.shape == (2, 3, 8, 12, 8)


def test_zero_head_gives_uniform_class_probabilities():
    net = SegNet(mini_config(), seed=2)
    net.head_conv.weight.data[:] = 0.0
    net.head_conv.bias.data[:] = 0.0
    logits = net(Tensor(T.rng(7).uniform(0, 1, (1, 1, 8, 8, 8))))
    assert np.array_equal(logits.data, np.zeros_like(logits.data))
    probs = T.softmax(Tensor(logits.data), axis=1)
    assert np.allclose(probs.data, 0.5)


def test_composed_head_matches_the_two_head_layers():
    net = SegNet(mini_config(num_classes=3), seed=11)
    net.head_up.bias.data[:] = T.rng(12).uniform(-1, 1, net.head_up.bias.shape)
    net.head_conv.bias.data[:] = T.rng(13).uniform(-1, 1, net.head_conv.bias.shape)
    with T.no_grad():
        feats = [Tensor(f.data, requires_grad=True)
                 for f in net.encoder_forward(Tensor(T.rng(14).uniform(0, 1, (2, 1, 8, 8, 8))))]
    head = [net.head_up.weight, net.head_up.bias, net.head_conv.weight, net.head_conv.bias]

    def uncomposed(feats):
        h = feats[-1]
        for i in range(len(net.ups) - 1, -1, -1):
            h = net.ups[i](feats[i], h)
        return net.head_conv(net.head_up(h))

    results = []
    for forward in (net.decoder_forward, uncomposed):
        for p in net.parameters():
            p.grad = None
        logits = forward(feats)
        T.backward(weighted_sum_loss(logits))
        results.append((logits.data, [p.grad for p in head]))
    (composed, grads), (want, want_grads) = results
    assert np.max(np.abs(composed - want)) <= 1e-13 * np.max(np.abs(want))
    for g, w in zip(grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_indivisible_extent_rejected():
    net = SegNet(mini_config(), seed=3)
    with pytest.raises(ConfigError, match="spatial extent 6 must be a positive multiple of 4"):
        net(Tensor(np.zeros((1, 1, 6, 8, 8))))


@pytest.mark.parametrize("field", ["layers_per_stage"])
def test_per_stage_lists_need_one_entry_per_stage(field):
    with pytest.raises(ConfigError, match=re.escape(f"{field} (4,) must have one entry per stage (2)")):
        NetworkConfig(num_classes=2, stem_channels=4, experts=(1, 2), base_group_size=8,
                      slots_per_expert=1, **{field: (4,)})


def test_determinism_same_seed_identical_logits():
    x = np.asarray(T.rng(8).uniform(0, 1, (1, 1, 8, 8, 8)))
    a = SegNet(mini_config(), seed=4)(Tensor(x)).data
    b = SegNet(mini_config(), seed=4)(Tensor(x)).data
    assert np.array_equal(a, b)


def _assert_shape_only_matches_seeded(cfg, seed):
    """SegNet(cfg, seed=None) has the seeded network's parameter names,
    shapes, dtypes and order; every drawn value is 0 and every constant
    initial value (ones, DyT's alpha, the scan's step bias) is unchanged."""
    seeded = list(SegNet(cfg, seed=seed).named_parameters())
    other = dict(SegNet(cfg, seed=seed + 1).named_parameters())
    shape_only = list(SegNet(cfg, seed=None).named_parameters())
    assert ([(n, p.shape, p.dtype) for n, p in shape_only]
            == [(n, p.shape, p.dtype) for n, p in seeded])
    drawn = 0
    for (name, p), (_, z) in zip(seeded, shape_only):
        constant = np.array_equal(p.data, other[name].data)
        drawn += not constant
        assert np.array_equal(z.data, p.data if constant else np.zeros_like(p.data)), name
        assert z.requires_grad
    assert drawn > 0


def test_manifest_matches_instantiated_network():
    _assert_shape_only_matches_seeded(mini_config(num_classes=3), seed=5)


def test_manifest_matches_tiny_preset_network():
    _assert_shape_only_matches_seeded(tiny_config(num_classes=2), seed=6)


def test_network_gradient_sampled_subset():
    net = SegNet(mini_config(), seed=7)
    x = Tensor(T.rng(9).uniform(0, 1, (1, 1, 8, 8, 8)))
    res = grad_check(lambda: weighted_sum_loss(net(x)), dict(net.named_parameters()),
                     name="network", tol=1e-4, coord_budget=50, rng=T.rng(10))
    assert res.passed, f"max rel err {res.max_rel_err}"
    assert res.coords_checked == 50
