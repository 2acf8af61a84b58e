"""Grouped slot assignment, two-level routing, combine: semantics, masking,
equivariance, and equivalence with the monolithic loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmoe import nn, routing, tensor as T
from hsmoe.config import StageConfig
from hsmoe.gradcheck import grad_check, weighted_sum_loss
from hsmoe.routing import (ExpertBank, HierarchicalMoE, combine, group_and_pad, level1_route, level2_route,
                           slot_assign, ungroup)
from hsmoe.tensor import ShapeError, Tensor

from oracles import ffn_closure, hierarchical_moe_naive


def make_layer(dim=2, experts=2, group=2, slots=1, seed=0) -> HierarchicalMoE:
    cfg = StageConfig(dim=dim, num_experts=experts, group_size=group, slots_per_expert=slots)
    return HierarchicalMoE(cfg, T.rng(seed))


def expert_fns(bank: ExpertBank) -> list:
    """Oracle closures over each expert's slice of the bank's stacks."""
    return [ffn_closure(bank.w1.data[e], bank.b1.data[e, 0], bank.w2.data[e], bank.b2.data[e, 0], "gelu")
            for e in range(len(bank))]


def run_oracle(layer: HierarchicalMoE, x, mask=None):
    fns1 = expert_fns(layer.experts1)
    fns2 = expert_fns(layer.experts2)
    return hierarchical_moe_naive(
        x, mask, layer.cfg.group_size, layer.slot_emb.data,
        layer.router1.weight.data, layer.router1.bias.data, fns1,
        layer.router2.weight.data, layer.router2.bias.data, fns2)


# ---------------------------------------------------------------------------
# group_and_pad


def test_group_exact_fit():
    x = Tensor(T.rng(0).uniform(-1, 1, (2, 8, 3)))
    grouped, valid = group_and_pad(x, None, 4)
    assert grouped.shape == (2, 2, 4, 3)
    assert valid.shape == (2, 8) and valid.all()


def test_group_with_padding():
    x = Tensor(T.rng(1).uniform(-1, 1, (1, 5, 3)))
    grouped, valid = group_and_pad(x, None, 4)
    assert grouped.shape == (1, 2, 4, 3)
    assert valid.shape == (1, 8)
    assert valid[0, :5].all() and not valid[0, 5:].any()
    assert np.array_equal(grouped.data[0, 1, 1:], np.zeros((3, 3)))


def test_group_ungroup_roundtrip_exact():
    x = Tensor(T.rng(2).uniform(-1, 1, (2, 7, 4)))
    grouped, _ = group_and_pad(x, None, 3)
    back = ungroup(grouped, 7)
    assert np.array_equal(back.data, x.data)


def test_group_empty_sequence_raises():
    with pytest.raises(ShapeError, match="empty"):
        group_and_pad(Tensor(np.zeros((1, 0, 3))), None, 4)


# ---------------------------------------------------------------------------
# slot_assign


def test_zero_token_uniform_dispatch():
    layer = make_layer(dim=2, experts=2, group=1, slots=2, seed=3)
    grouped, valid = group_and_pad(Tensor(np.zeros((1, 1, 2))), None, 1)
    slots, A = slot_assign(grouped, valid, layer.slot_emb)
    assert np.allclose(A.data, 0.25)  # M = 4 slots, logits all zero
    assert np.array_equal(slots.data, np.zeros_like(slots.data))


def test_single_slot_copies_single_token():
    # E=S=1: softmax over one entry is 1, the slot equals the token
    layer = make_layer(dim=3, experts=1, group=1, slots=1, seed=4)
    x = Tensor(T.rng(5).uniform(-1, 1, (1, 4, 3)))
    grouped, valid = group_and_pad(x, None, 1)  # one token per group
    slots, A = slot_assign(grouped, valid, layer.slot_emb)
    assert np.array_equal(A.data, np.ones((1, 4, 1, 1)))
    assert np.array_equal(slots.data.reshape(1, 4, 3), x.data)


def test_slot_assign_matches_direct_loop():
    # B=1, N=4, K=2, E=2, S=1, d=2 with small integer embeddings
    emb = Tensor(np.array([[[1.0, 0.0]], [[0.0, 2.0]]]))  # [E=2,S=1,d=2]
    x = np.array([[[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]]])
    grouped, valid = group_and_pad(Tensor(x), None, 2)
    slots, A = slot_assign(grouped, valid, emb)
    for g in range(2):
        for k in range(2):
            tok = x[0, g * 2 + k]
            logits = np.array([tok @ emb.data[0, 0], tok @ emb.data[1, 0]])
            ez = np.exp(logits - logits.max())
            assert np.allclose(A.data[0, g, k], ez / ez.sum(), atol=1e-15)
    for g in range(2):
        for m in range(2):
            want = sum(A.data[0, g, k, m] * x[0, g * 2 + k] for k in range(2))
            assert np.allclose(slots.data[0, g, m], want, atol=1e-15)


def test_padding_rows_get_exact_zero_dispatch():
    layer = make_layer(dim=2, experts=2, group=4, slots=1, seed=6)
    x = Tensor(T.rng(7).uniform(-1, 1, (1, 5, 2)))
    grouped, valid = group_and_pad(x, None, 4)
    _, A = slot_assign(grouped, valid, layer.slot_emb)
    sums = A.data.sum(axis=-1).reshape(1, -1)
    assert np.all(np.abs(sums[0, :5] - 1.0) <= 1e-12)
    assert np.array_equal(sums[0, 5:], np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 6), e=st.integers(1, 3), s=st.integers(1, 2))
def test_dispatch_rows_of_valid_tokens_sum_to_one(n, k, e, s):
    g = T.rng(n * 100 + k * 10 + e)
    emb = Tensor(g.uniform(-1, 1, (e, s, 3)))
    x = Tensor(g.uniform(-1, 1, (2, n, 3)))
    grouped, valid = group_and_pad(x, None, k)
    _, A = slot_assign(grouped, valid, emb)
    sums = A.data.sum(axis=-1).reshape(2, -1)
    valid_b = valid.astype(bool)
    assert np.all(np.abs(sums[valid_b] - 1.0) <= 1e-12)
    assert np.array_equal(sums[~valid_b], np.zeros((~valid_b).sum()))
    assert (A.data >= 0).all() and (A.data <= 1).all()


# ---------------------------------------------------------------------------
# expert bank


def test_bank_draws_match_separate_feedforwards():
    # expert by expert, w1[e] then w2[e], as separate FFNs would draw; biases start at zero
    bank = ExpertBank(3, 2, T.rng(40))
    rng = T.rng(40)
    for e in range(3):
        assert np.array_equal(bank.w1.data[e], nn._uniform_init(rng, (2, 4), 2))
        assert np.array_equal(bank.w2.data[e], nn._uniform_init(rng, (4, 2), 4))
    assert not bank.b1.data.any() and not bank.b2.data.any()


def test_layer_parameters_are_routers_and_expert_stacks():
    layer = make_layer(dim=2, experts=2, group=2, slots=1, seed=41)
    names = [n for n, _ in layer.named_parameters()]
    assert names == ["slot_emb", "router1.weight", "router1.bias",
                     "experts1.w1", "experts1.b1", "experts1.w2", "experts1.b2",
                     "router2.weight", "router2.bias",
                     "experts2.w1", "experts2.b1", "experts2.w2", "experts2.b2"]
    assert len(layer.experts1) == 2 and len(layer.experts2) == 4


def test_bank_expert_view_matches_slice_of_bank_output():
    bank = ExpertBank(3, 4, T.rng(42))
    bank.b1.data[:] = T.rng(43).uniform(-1, 1, bank.b1.shape)
    bank.b2.data[:] = T.rng(44).uniform(-1, 1, bank.b2.shape)
    x = Tensor(T.rng(45).uniform(-1, 1, (2, 3, 5, 4)))
    out = bank(x)
    assert out.shape == (3, 2, 3, 5, 4)
    for e, fn in enumerate(expert_fns(bank)):
        assert np.max(np.abs(fn(x.data) - out.data[e])) < 1e-12


def test_f32_layer_with_padding_stays_f32():
    layer = make_layer(dim=3, experts=2, group=4, slots=2, seed=46)
    for p in layer.parameters():
        p.data = p.data.astype(np.float32)
    x = Tensor(T.rng(47).uniform(-1, 1, (2, 7, 3)).astype(np.float32), requires_grad=True)
    mask = np.ones((2, 7))
    mask[1, 2] = 0.0
    out = layer(x, mask)
    assert out.dtype == np.float32
    T.backward(T.reduce_sum(out))
    assert x.grad.dtype == np.float32
    for name, p in layer.named_parameters():
        assert p.grad.dtype == np.float32, name


# ---------------------------------------------------------------------------
# level-1 routing


def test_level1_single_expert_is_plain_ffn():
    layer = make_layer(dim=3, experts=1, group=2, slots=2, seed=8)
    slots = Tensor(T.rng(9).uniform(-1, 1, (1, 2, 2, 3)))
    out = level1_route(slots, layer.router1, layer.experts1)
    want = expert_fns(layer.experts1)[0](slots.data)
    assert np.allclose(out.data, want, atol=1e-15)


def test_level1_zero_router_uniform_mixture():
    layer = make_layer(dim=3, experts=3, group=2, slots=1, seed=10)
    layer.router1.weight.data[:] = 0.0
    layer.router1.bias.data[:] = 0.0
    slots = Tensor(T.rng(11).uniform(-1, 1, (2, 2, 3, 3)))
    out = level1_route(slots, layer.router1, layer.experts1)
    want = sum(f(slots.data) for f in expert_fns(layer.experts1)) / 3.0
    assert np.allclose(out.data, want, atol=1e-14)


def test_level1_closed_form_two_experts():
    # a constant gate p = softmax(router bias) mixes the experts: p0 f0(x) + p1 f1(x)
    d = 3
    layer = make_layer(dim=d, experts=2, group=2, slots=2, seed=12)
    layer.router1.weight.data[:] = 0.0
    layer.router1.bias.data[:] = [0.3, -0.8]
    p = np.exp([0.3, -0.8]) / np.exp([0.3, -0.8]).sum()
    slots = Tensor(T.rng(13).uniform(-1, 1, (1, 2, 4, d)))
    out = level1_route(slots, layer.router1, layer.experts1)
    f0, f1 = expert_fns(layer.experts1)
    assert np.allclose(out.data, p[0] * f0(slots.data) + p[1] * f1(slots.data), atol=1e-14)


# ---------------------------------------------------------------------------
# level-2 routing


def test_level2_single_expert_is_plain_ffn():
    rng = T.rng(14)
    router, experts = nn.Linear(2, 1, rng), ExpertBank(1, 2, rng)
    seq = Tensor(T.rng(15).uniform(-1, 1, (1, 4, 2)))
    out = level2_route(seq, router, experts)
    assert np.allclose(out.data, expert_fns(experts)[0](seq.data), atol=1e-15)


def test_level2_zero_router_uniform_mixture():
    layer = make_layer(dim=2, experts=2, group=2, slots=1, seed=16)
    layer.router2.weight.data[:] = 0.0
    layer.router2.bias.data[:] = 0.0
    seq = Tensor(T.rng(17).uniform(-1, 1, (1, 4, 2)))
    out = level2_route(seq, layer.router2, layer.experts2)
    want = sum(f(seq.data) for f in expert_fns(layer.experts2)) / len(layer.experts2)
    assert np.allclose(out.data, want, atol=1e-14)


def test_level2_matches_nested_loop_to_1e12():
    layer = make_layer(dim=2, experts=1, group=2, slots=2, seed=18)  # E2=2, G*M=4
    seq = Tensor(T.rng(19).uniform(-1, 1, (1, 4, 2)))
    out = level2_route(seq, layer.router2, layer.experts2)
    fns = expert_fns(layer.experts2)
    want = np.zeros((1, 4, 2))
    for i in range(4):
        logits = seq.data[0, i] @ layer.router2.weight.data + layer.router2.bias.data
        p = np.exp(logits - logits.max())
        p /= p.sum()
        for e2, fn in enumerate(fns):
            want[0, i] += p[e2] * fn(seq.data[0, i])
    assert np.max(np.abs(out.data - want)) < 1e-12


# ---------------------------------------------------------------------------
# combine


def test_combine_single_slot_broadcasts_to_tokens():
    slot_out = Tensor(T.rng(20).uniform(-1, 1, (1, 2, 1, 3)))
    A = Tensor(np.ones((1, 2, 4, 1)))
    out = combine(slot_out, A, 8)
    for g in range(2):
        for k in range(4):
            assert np.array_equal(out.data[0, g * 4 + k], slot_out.data[0, g, 0])


def test_combine_constant_slots_passthrough():
    layer = make_layer(dim=2, experts=2, group=3, slots=1, seed=21)
    x = Tensor(T.rng(22).uniform(-1, 1, (1, 7, 2)))
    grouped, valid = group_and_pad(x, None, 3)
    _, A = slot_assign(grouped, valid, layer.slot_emb)
    const = np.tile([1.5, -2.0], (1, 3, 2, 1))
    out = combine(Tensor(const), A, 7)
    assert np.allclose(out.data, np.tile([1.5, -2.0], (1, 7, 1)), atol=1e-12)


# ---------------------------------------------------------------------------
# full layer


def test_forward_shape_and_finiteness():
    layer = make_layer(dim=4, experts=2, group=4, slots=2, seed=23)
    x = Tensor(T.rng(24).uniform(-1, 1, (2, 10, 4)))
    out = layer(x)
    assert out.shape == (2, 10, 4)
    assert np.isfinite(out.data).all()


def test_forward_matches_monolithic_oracle():
    layer = make_layer(dim=2, experts=2, group=2, slots=1, seed=25)
    x = T.rng(26).uniform(-1, 1, (1, 4, 2))
    got = layer(Tensor(x)).data
    want = run_oracle(layer, x)
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_oracle_with_padding_and_mask():
    layer = make_layer(dim=3, experts=2, group=4, slots=2, seed=27)
    g = T.rng(28)
    x = g.uniform(-1, 1, (2, 7, 3))
    mask = np.ones((2, 7))
    mask[0, 2] = 0.0  # an interior invalid token
    got = layer(Tensor(x), mask).data
    want = run_oracle(layer, x, mask)
    assert np.max(np.abs(got - want)) < 1e-12


def test_padding_invariance_against_embedded_run():
    layer = make_layer(dim=3, experts=2, group=4, slots=1, seed=29)
    g = T.rng(30)
    x5 = g.uniform(-1, 1, (1, 5, 3))
    out5 = layer(Tensor(x5)).data
    x8 = np.concatenate([x5, g.uniform(-9, 9, (1, 3, 3))], axis=1)
    mask = np.zeros((1, 8))
    mask[0, :5] = 1.0
    out8 = layer(Tensor(x8), mask).data
    assert np.max(np.abs(out8[:, :5] - out5[:, :5])) < 1e-12


def test_valid_outputs_bit_stable_under_padded_content_changes():
    layer = make_layer(dim=3, experts=2, group=4, slots=2, seed=31)
    g = T.rng(32)
    x = g.uniform(-1, 1, (1, 6, 3))
    mask = np.ones((1, 6))
    mask[0, 4:] = 0.0
    base = layer(Tensor(x), mask).data
    x2 = x.copy()
    x2[0, 4:] = g.uniform(-100, 100, (2, 3))
    again = layer(Tensor(x2), mask).data
    assert np.array_equal(base[:, :4], again[:, :4])


def test_within_group_permutation_equivariance():
    layer = make_layer(dim=3, experts=2, group=4, slots=2, seed=33)
    g = T.rng(34)
    x = g.uniform(-1, 1, (1, 8, 3))
    out = layer(Tensor(x)).data
    perm = np.array([2, 0, 3, 1])  # permute tokens inside group 0
    xp = x.copy()
    xp[0, :4] = x[0, perm]
    outp = layer(Tensor(xp)).data
    assert np.max(np.abs(outp[0, :4] - out[0, perm])) < 1e-12
    assert np.max(np.abs(outp[0, 4:] - out[0, 4:])) < 1e-12


def test_forward_gradient_all_parameters():
    layer = make_layer(dim=4, experts=2, group=4, slots=1, seed=35)
    x = Tensor(T.rng(36).uniform(-1, 1, (1, 6, 4)))
    res = grad_check(lambda: weighted_sum_loss(layer(x)),
                     dict(layer.named_parameters()), name="routing", tol=1e-4)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_oracle_equivalence_random_tiny_configs():
    g = T.rng(37)
    worst = 0.0
    for trial in range(20):
        B = int(g.integers(1, 3))
        N = int(g.integers(1, 9))
        E = int(g.integers(1, 4))
        S = int(g.integers(1, 3))
        d = int(g.integers(1, 5))
        K = int(g.integers(1, N + 1))
        cfg = StageConfig(dim=d, num_experts=E, group_size=K, slots_per_expert=S)
        layer = HierarchicalMoE(cfg, T.rng(1000 + trial))
        x = g.uniform(-1, 1, (B, N, d))
        mask = None
        if trial % 3 == 0:
            mask = (g.uniform(size=(B, N)) > 0.3).astype(np.float64)
            mask[:, 0] = 1.0  # keep at least one valid token
        got = layer(Tensor(x), mask).data
        want = run_oracle(layer, x, mask)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-12, f"max abs diff {worst}"
