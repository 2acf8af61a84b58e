"""Gated spatial conv and the residual block composition."""

import numpy as np

from hsmoe import blocks, nn, tensor as T
from hsmoe.blocks import BlockLayer, EncoderBlock, GatedSpatialConv, to_tokens, to_volume, zero_residual_branches
from hsmoe.config import StageConfig
from hsmoe.gradcheck import grad_check, weighted_sum_loss
from hsmoe.tensor import Tensor


def make_block(dim=2, layers=1, norm="dyt", seed=0, group=4):
    stage = StageConfig(dim=dim, num_experts=2, group_size=group, slots_per_expert=1)
    return EncoderBlock(stage, layers, norm, ssm_state_dim=2, rng=T.rng(seed))


def test_tokens_roundtrip_is_bitwise():
    x = Tensor(T.rng(0).uniform(-1, 1, (2, 3, 2, 4, 3)))
    back = to_volume(to_tokens(x), (2, 4, 3))
    assert np.array_equal(back.data, x.data)


def test_raster_order_is_depth_major():
    x = np.arange(8.0).reshape(1, 1, 2, 2, 2)
    seq = to_tokens(Tensor(x))
    assert np.array_equal(seq.data[0, :, 0], np.arange(8.0))


def test_gsc_zero_weights_is_pure_residual():
    gsc = GatedSpatialConv(2, T.rng(1))
    for p in gsc.parameters():
        p.data[:] = 0.0
    x = Tensor(T.rng(2).uniform(-1, 1, (1, 2, 3, 3, 3)))
    assert np.array_equal(gsc(x).data, x.data)


def test_gsc_preserves_shape():
    gsc = GatedSpatialConv(4, T.rng(3))
    out = gsc(Tensor(T.rng(4).uniform(-1, 1, (1, 4, 8, 8, 8))))
    assert out.shape == (1, 4, 8, 8, 8)


def test_gsc_gradient():
    gsc = GatedSpatialConv(2, T.rng(5))
    x = Tensor(T.rng(6).uniform(-1, 1, (1, 2, 3, 3, 3)))
    res = grad_check(lambda: weighted_sum_loss(gsc(x)), dict(gsc.named_parameters()),
                     name="gsc", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_block_zero_branches_is_bitwise_identity():
    block = make_block(dim=2, layers=2, seed=7)
    zero_residual_branches(block)
    x = Tensor(T.rng(8).uniform(-1, 1, (1, 2, 2, 2, 2)))
    assert np.array_equal(block(x).data, x.data)


def test_block_zero_branches_identity_with_layernorm():
    block = make_block(dim=2, layers=1, norm="ln", seed=9)
    zero_residual_branches(block)
    x = Tensor(T.rng(10).uniform(-1, 1, (1, 2, 2, 2, 2)))
    assert np.array_equal(block(x).data, x.data)


def test_block_preserves_shape():
    block = make_block(dim=4, layers=2, seed=11)
    out = block(Tensor(T.rng(12).uniform(-1, 1, (2, 4, 2, 2, 2))))
    assert out.shape == (2, 4, 2, 2, 2)


def test_block_matches_inline_composition():
    block = make_block(dim=4, layers=1, seed=13)
    layer = block.layers[0]
    x = Tensor(T.rng(14).uniform(-1, 1, (1, 4, 2, 2, 2)))
    got = block(x).data

    xh = layer.gsc(x)
    seq = to_tokens(xh)
    xt = T.add(layer.scan(layer.norm_scan(seq)), seq)
    xo = T.add(layer.proj(layer.moe(layer.norm_moe(xt))), xt)
    want = to_volume(xo, (2, 2, 2)).data
    assert np.max(np.abs(got - want)) <= 1e-12


def test_block_gradient_all_parameters():
    block = make_block(dim=2, layers=1, seed=15)
    x = Tensor(T.rng(16).uniform(-1, 1, (1, 2, 2, 2, 2)))
    res = grad_check(lambda: weighted_sum_loss(block(x)), dict(block.named_parameters()),
                     name="block", tol=1e-4)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_block_gradient_with_layernorm():
    block = make_block(dim=2, layers=1, norm="ln", seed=17)
    x = Tensor(T.rng(18).uniform(-1, 1, (1, 2, 2, 2, 2)))
    res = grad_check(lambda: weighted_sum_loss(block(x)), dict(block.named_parameters()),
                     name="block_ln", tol=1e-4)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_both_norms_give_finite_outputs():
    for norm in ("dyt", "ln"):
        block = make_block(dim=2, layers=1, norm=norm, seed=19)
        out = block(Tensor(T.rng(20).uniform(-1, 1, (1, 2, 2, 2, 2))))
        assert np.isfinite(out.data).all()
