"""Selective scan: recurrence semantics, blocked-vs-naive equivalence,
causality, memory, and gradients of the hand-written backward."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hsmoe import ssm, tensor as T
from hsmoe.gradcheck import grad_check, weighted_sum_loss
from hsmoe.tensor import Tensor

from oracles import scan_naive, selective_scan_naive


def _scan_inputs(g, B, N, d, n, requires_grad=False, dtype=np.float64):
    """x, delta > 0, A < 0, B, C, D for ``selective_scan_fn``."""
    draws = (g.uniform(-1, 1, (B, N, d)), g.uniform(0.1, 1.0, (B, N, d)),
             g.uniform(-1.0, -0.1, (d, n)), g.uniform(-1, 1, (B, N, n)),
             g.uniform(-1, 1, (B, N, n)), g.uniform(-1, 1, (d,)))
    return [Tensor(v.astype(dtype), requires_grad=requires_grad) for v in draws]


def test_memoryless_when_decay_zero():
    # A = -1e4 with delta >= 0.1: exp(delta*A) underflows to exactly 0
    g = T.rng(0)
    x, delta, A, Bm, C, D = _scan_inputs(g, 1, 5, 3, 2)
    A = Tensor(np.full((3, 2), -1e4))
    assert (np.exp(delta.data[..., None] * A.data) == 0).all()
    y = ssm.selective_scan_fn(x, delta, A, Bm, C, D)
    gain = delta.data[..., None] * Bm.data[:, :, None, :]
    want = (gain * x.data[..., None] * C.data[:, :, None, :]).sum(-1) + D.data * x.data
    assert np.allclose(y.data, want, atol=1e-14)


def test_cumulative_sum_case():
    # A 0 (decay 1), delta = B = C = x = 1, D 0 -> y_t = t (1-based)
    B, N, d, n = 1, 6, 1, 1
    ones = Tensor(np.ones((B, N, d)))
    y = ssm.selective_scan_fn(ones, ones, Tensor(np.zeros((d, n))), Tensor(np.ones((B, N, n))),
                              Tensor(np.ones((B, N, n))), Tensor(np.zeros(d)))
    assert np.array_equal(y.data[0, :, 0], np.arange(1, N + 1, dtype=np.float64))


@pytest.mark.parametrize("N,block", [(7, 3), (64, 8), (100, 16), (33, 64), (130, 64), (21, 4)])
def test_blocked_scan_matches_naive_recurrence(N, block):
    g = T.rng(N)
    a = g.uniform(0.0, 1.0, (2, N, 3, 2))
    u = g.uniform(-1, 1, (2, N, 3, 2))
    got = ssm.linear_recurrence(Tensor(a), Tensor(u), block_size=block)
    want = scan_naive(a, u)
    assert np.max(np.abs(got.data - want)) < 1e-10


def test_scan_equivalence_100_random_cases():
    g = T.rng(99)
    worst = 0.0
    for _ in range(100):
        B = int(g.integers(1, 3))
        N = int(g.integers(1, 65))
        d = int(g.integers(1, 5))
        n = int(g.integers(1, 5))
        a = g.uniform(0.0, 1.0, (B, N, d, n))
        u = g.uniform(-1, 1, (B, N, d, n))
        got = ssm.linear_recurrence(Tensor(a), Tensor(u), block_size=8).data
        worst = max(worst, float(np.max(np.abs(got - scan_naive(a, u)))))
    assert worst < 1e-10, f"max abs diff {worst}"


@pytest.mark.parametrize("N,block", [(1, 64), (1, None), (17, None), (17, 17), (17, 64)])
def test_one_block_scan_equals_naive_recurrence_exactly(N, block):
    g = T.rng(100 + N)
    a = g.uniform(0.0, 1.0, (2, N, 3, 2))
    u = g.uniform(-1, 1, (2, N, 3, 2))
    L = N if block is None else min(block, N)
    ab, h = ssm._to_blocks(a, L), ssm._to_blocks(u, L)
    ssm._scan(ab[1:], ab[0, :, 1:], h)
    assert np.array_equal(ssm._from_blocks(h, N), scan_naive(a, u))


def test_block_layout_roundtrip_pads_with_zeros():
    v = T.rng(103).uniform(-1, 1, (2, 21, 3))
    blocks = ssm._to_blocks(v, 4)
    assert blocks.shape == (4, 2, 6, 3)
    assert np.array_equal(blocks[:, 1, 2], v[1, 8:12])  # offset t of block k is v[:, 4k + t]
    assert not blocks[1:, :, 5].any()  # past N = 21
    assert np.array_equal(ssm._from_blocks(blocks, 21), v)


@pytest.mark.parametrize("N,block", [(21, 4), (130, 64), (17, 17)])
def test_reversed_kernel_runs_the_adjoint_recurrence(N, block):
    # lam_t = g_t + a_{t+1} lam_{t+1}, lam_{N-1} = g_{N-1}, on reversed views
    g = T.rng(104 + N)
    a = g.uniform(0.0, 1.0, (2, N, 3, 2))
    grad = g.uniform(-1, 1, (2, N, 3, 2))
    ab, lam = ssm._to_blocks(a, block), ssm._to_blocks(grad, block)
    ssm._scan(ab[:0:-1, :, ::-1], ab[0, :, :0:-1], lam[::-1, :, ::-1])
    reversed_decay = np.concatenate([np.zeros_like(a[:, :1]), a[:, :0:-1]], axis=1)
    want = scan_naive(reversed_decay, grad[:, ::-1])[:, ::-1]
    assert np.max(np.abs(ssm._from_blocks(lam, N) - want)) < 1e-12


def test_scan_peak_memory_stays_near_its_output():
    # the kernel runs in place: no buffer of the state's size, padded last block included
    g = T.rng(101)
    for N in (4096, 4000):
        a = ssm._to_blocks(g.uniform(0.1, 0.9, (1, N, 8, 8)), 64)
        u = ssm._to_blocks(g.uniform(-1, 1, (1, N, 8, 8)), 64)
        tracemalloc.start()
        try:
            ssm._scan(a[1:], a[0, :, 1:], u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * u.nbytes, f"N={N}: peak {peak / u.nbytes:.2f}x the output"


def test_adjoint_peak_memory_stays_near_its_output():
    # the reversed scan reads the decay and the gradient through views
    g = T.rng(102)
    for N in (4096, 4000):
        a = ssm._to_blocks(g.uniform(0.1, 0.9, (1, N, 8, 8)), 64)
        grad = ssm._to_blocks(g.uniform(-1, 1, (1, N, 8, 8)), 64)
        tracemalloc.start()
        try:
            ssm._scan(a[:0:-1, :, ::-1], a[0, :, :0:-1], grad[::-1, :, ::-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * grad.nbytes, f"N={N}: peak {peak / grad.nbytes:.2f}x the output"


def test_linear_recurrence_gradient():
    g = T.rng(42)
    a = Tensor(g.uniform(0.1, 0.9, (1, 6, 2, 2)), requires_grad=True)
    u = Tensor(g.uniform(-1, 1, (1, 6, 2, 2)), requires_grad=True)
    res = grad_check(lambda: weighted_sum_loss(ssm.linear_recurrence(a, u, block_size=3)),
                     {"decay": a, "drive": u}, name="linear_recurrence", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_discretized_decay_strictly_inside_unit_interval():
    g = T.rng(7)
    p = ssm.SSMParams(4, 3, g)
    x = Tensor(g.uniform(-3, 3, (2, 10, 4)))
    delta, A, _, _ = p.discretize(x)
    assert (delta.data > 0).all() and (A.data < 0).all()
    decay = np.exp(delta.data[..., None] * A.data)
    assert (decay > 0).all() and (decay < 1).all()


def test_causality_perturbation():
    g = T.rng(8)
    p = ssm.SSMParams(3, 2, g)
    x = g.uniform(-1, 1, (1, 12, 3))
    base = ssm.selective_scan(p, Tensor(x)).data
    t_cut = 5
    xp = x.copy()
    xp[:, t_cut + 1:] += g.uniform(0.5, 1.0, xp[:, t_cut + 1:].shape)
    pert = ssm.selective_scan(p, Tensor(xp)).data
    assert np.array_equal(base[:, : t_cut + 1], pert[:, : t_cut + 1])
    assert not np.allclose(base[:, t_cut + 1:], pert[:, t_cut + 1:])


def test_gated_layer_zero_input_zero_bias_gives_zero():
    glayer = ssm.GatedSSM(4, 2, T.rng(9))
    for name, par in glayer.named_parameters():
        if name.endswith("bias"):
            par.data[:] = 0.0
    out = glayer(Tensor(np.zeros((2, 5, 4))))
    assert np.array_equal(out.data, np.zeros((2, 5, 4)))


def test_gated_layer_preserves_shape():
    glayer = ssm.GatedSSM(8, 4, T.rng(10))
    out = glayer(Tensor(T.rng(11).uniform(-1, 1, (2, 64, 8))))
    assert out.shape == (2, 64, 8)


def test_gated_layer_gradient():
    glayer = ssm.GatedSSM(4, 2, T.rng(12))
    x = Tensor(T.rng(13).uniform(-1, 1, (1, 6, 4)))
    res = grad_check(lambda: weighted_sum_loss(glayer(x)),
                     dict(glayer.named_parameters()), name="gated_ssm", tol=1e-5)
    assert res.passed, f"max rel err {res.max_rel_err}"


@pytest.mark.parametrize("block", [3, 64])
def test_selective_scan_fn_gradient_every_input(block):
    # N=8 with block 3: three blocks, the last one padded; block 64: one block
    g = T.rng(20)
    inputs = _scan_inputs(g, 2, 8, 3, 2, requires_grad=True)
    names = ("x", "delta", "A", "B", "C", "D")
    res = grad_check(lambda: weighted_sum_loss(ssm.selective_scan_fn(*inputs, block_size=block)),
                     dict(zip(names, inputs)), name="selective_scan", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_selective_scan_fn_gradient_ragged_blocks():
    # N=11 with block 4: the carry crosses two block boundaries into a padded block
    inputs = _scan_inputs(T.rng(27), 2, 11, 3, 2, requires_grad=True)
    names = ("x", "delta", "A", "B", "C", "D")
    res = grad_check(lambda: weighted_sum_loss(ssm.selective_scan_fn(*inputs, block_size=4)),
                     dict(zip(names, inputs)), name="selective_scan", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


@pytest.mark.parametrize("N,block", [(1, 64), (7, 3), (33, 8), (20, None), (130, 64), (21, 4)])
def test_selective_scan_fn_matches_loop_oracle(N, block):
    g = T.rng(21 + N)
    inputs = _scan_inputs(g, 2, N, 3, 4)
    got = ssm.selective_scan_fn(*inputs, block_size=block).data
    want = selective_scan_naive(*(t.data for t in inputs))
    assert np.max(np.abs(got - want)) < 1e-12


def test_selective_scan_fn_overflow_raises_naming_op():
    # the contract's error alone: numpy warns of no overflow before it
    g = T.rng(22)
    x, delta, A, Bm, C, D = _scan_inputs(g, 1, 6, 2, 2)
    x = Tensor(np.full(x.shape, 1e308))
    ones = Tensor(np.ones(Bm.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.NumericalError, match="selective_scan"):
            ssm.selective_scan_fn(x, Tensor(np.ones(x.shape)), Tensor(np.full(A.shape, -1e-3)),
                                  ones, ones, D)


def test_linear_recurrence_overflow_raises_without_warning():
    a = Tensor(np.ones((1, 5, 2)))
    u = Tensor(np.full((1, 5, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.NumericalError, match="linear_recurrence"):
            ssm.linear_recurrence(a, u, block_size=2)


def test_selective_scan_fn_f32_in_f32_out():
    inputs = _scan_inputs(T.rng(23), 2, 9, 3, 2, requires_grad=True, dtype=np.float32)
    y = ssm.selective_scan_fn(*inputs, block_size=4)
    assert y.dtype == np.float32
    T.backward(T.reduce_sum(y))
    assert all(t.grad.dtype == np.float32 for t in inputs)


def test_selective_scan_fn_shape_mismatch_raises():
    x, delta, A, Bm, C, D = _scan_inputs(T.rng(24), 1, 4, 3, 2)
    with pytest.raises(T.ShapeError, match="selective_scan"):
        ssm.selective_scan_fn(x, delta, Tensor(np.ones((2, 3))), Bm, C, D)


def test_gated_layer_records_one_scan_node_and_no_state_sized_node():
    B, N, d, n = 2, 5, 4, 3
    glayer = ssm.GatedSSM(d, n, T.rng(25))
    out = glayer(Tensor(T.rng(26).uniform(-1, 1, (B, N, d))))
    ops, stack, seen = [], [out], set()
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        ops.append((t.node.op, t.shape))
        stack.extend(t.node.inputs)
    assert [op for op, _ in ops].count("selective_scan") == 1
    assert all(shape != (B, N, d, n) for _, shape in ops)
