"""Linear / expert FFN / DyT / LayerNorm / conv3d contracts and gradients."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmoe import nn, tensor as T
from hsmoe.gradcheck import grad_check, weighted_sum_loss
from hsmoe.routing import ExpertBank
from hsmoe.tensor import ShapeError, Tensor
from oracles import conv3d_naive


def test_linear_identity_weights():
    lin = nn.Linear(3, 3, T.rng(0))
    lin.weight.data[:] = np.eye(3)
    lin.bias.data[:] = 0.0
    x = Tensor(T.rng(1).uniform(-1, 1, (2, 3)))
    assert np.array_equal(lin(x).data, x.data)


def test_linear_zero_weight_constant_bias():
    lin = nn.Linear(3, 2, T.rng(0))
    lin.weight.data[:] = 0.0
    lin.bias.data[:] = [0.5, -1.0]
    out = lin(Tensor(np.ones((4, 3))))
    assert np.array_equal(out.data, np.tile([0.5, -1.0], (4, 1)))


def test_linear_matches_matmul_add_composition():
    lin = nn.Linear(4, 3, T.rng(2))
    x = Tensor(T.rng(3).uniform(-1, 1, (5, 4)))
    want = x.data @ lin.weight.data + lin.bias.data
    assert np.array_equal(lin(x).data, want)


def test_linear_dim_mismatch():
    lin = nn.Linear(4, 3, T.rng(2))
    with pytest.raises(ShapeError):
        lin(Tensor(np.zeros((2, 5))))


def test_ffn_zero_weights_propagates_bias():
    ffn = ExpertBank(1, 3, T.rng(4))
    for p in ffn.parameters():
        p.data[:] = 0.0
    ffn.b2.data[:] = 0.25
    out = ffn(Tensor(T.rng(5).uniform(-1, 1, (2, 3))))
    assert np.allclose(out.data, 0.25)


def test_ffn_preserves_shape():
    ffn = ExpertBank(1, 4, T.rng(6))
    x = Tensor(T.rng(7).uniform(-1, 1, (2, 3, 5, 4)))
    assert ffn(x).shape == (1, 2, 3, 5, 4)


def test_ffn_gradient():
    ffn = ExpertBank(1, 3, T.rng(8))
    x = Tensor(T.rng(9).uniform(-1, 1, (2, 3)))
    params = dict(ffn.named_parameters())
    res = grad_check(lambda: weighted_sum_loss(ffn(x)), params, name="ffn", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def _gelu_composed(x):
    """The tanh-form GELU as a composition of eight traced ops."""
    c = math.sqrt(2.0 / math.pi)
    inner = T.mul(T.add(x, T.mul(T.mul(T.mul(x, x), x), 0.044715)), c)
    return T.mul(T.mul(x, 0.5), T.add(T.tanh(inner), 1.0))


def test_gelu_is_one_op_bit_identical_to_composition():
    for dtype in (np.float64, np.float32):
        x = Tensor(np.concatenate([T.rng(50).normal(0, 3, 500), [-8.0, -0.0, 0.0, 8.0, 30.0, -30.0]])
                   .astype(dtype), requires_grad=True)
        out = nn.gelu(x)
        assert out.node.op == "gelu" and out.node.inputs == (x,)
        assert out.dtype == dtype
        assert np.array_equal(out.data, _gelu_composed(x).data)
    scalar = Tensor(np.asarray(-1.5))
    assert np.array_equal(nn.gelu(scalar).data, _gelu_composed(scalar).data)


def test_gelu_gradient_including_saturation():
    x = Tensor(np.array([-8.1, -7.9, -3.0, -0.7, -1e-3, 0.0, 0.4, 1.3, 4.0, 7.9, 8.1]),
               requires_grad=True)
    res = grad_check(lambda: weighted_sum_loss(nn.gelu(x)), {"x": x}, name="gelu", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_gelu_backward_matches_composition():
    data = T.rng(51).normal(0, 3, (4, 6))
    grads = []
    for fn in (nn.gelu, _gelu_composed):
        x = Tensor(data, requires_grad=True)
        T.backward(weighted_sum_loss(fn(x)))
        grads.append(x.grad)
    assert np.max(np.abs(grads[0] - grads[1])) < 1e-14


def test_gelu_float32_gradient_stays_float32():
    x = Tensor(T.rng(52).uniform(-4, 4, (3, 5)).astype(np.float32), requires_grad=True)
    T.backward(T.reduce_sum(nn.gelu(x)))
    assert x.grad.dtype == np.float32


def test_tiny_forward_tape_and_parameter_census():
    from collections import Counter

    from hsmoe.config import tiny_config
    from hsmoe.network import SegNet

    cfg = tiny_config(num_classes=3)
    net = SegNet(cfg, seed=0)
    x = Tensor(T.rng(53).uniform(0, 1, (4, 1, 16, 16, 16)))
    out = net(x)
    seen, stack, ops = set(), [out], Counter()
    while stack:
        t = stack.pop()
        if id(t) not in seen and t.node is not None:
            seen.add(id(t))
            ops[t.node.op] += 1
            stack.extend(t.node.inputs)
            # the head's stem_channels-wide full-resolution map is never built
            assert t.shape != (4, cfg.stem_channels) + x.shape[2:]
    assert len(seen) == 319, f"{len(seen)} tape nodes in one tiny forward"
    assert len(net.parameters()) == 198
    # one node per norm call: two per encoder layer (DyT or LN), two LNs per decoder stage
    encoder_norms = 2 * sum(cfg.layers_per_stage)
    decoder_norms = 2 * (cfg.num_stages - 1)
    assert ops["dyt"] == (encoder_norms if cfg.norm == "dyt" else 0)
    assert ops["layernorm"] == decoder_norms + (encoder_norms if cfg.norm == "ln" else 0)
    assert ops["conv_transpose3d"] == cfg.num_stages  # the decoder's upsamplings and the head
    assert not {"sqrt", "tanh", "div", "sub"} & set(ops)


# ---------------------------------------------------------------------------
# DyT


def test_dyt_alpha_zero_outputs_bias():
    dyt = nn.DynamicTanh(3)
    dyt.alpha.data[...] = 0.0
    dyt.b.data[:] = [0.1, 0.2, 0.3]
    out = dyt(Tensor(T.rng(10).uniform(-5, 5, (4, 3))))
    assert np.array_equal(out.data, np.tile([0.1, 0.2, 0.3], (4, 1)))


def test_dyt_saturation():
    dyt = nn.DynamicTanh(1)
    dyt.alpha.data[...] = 1000.0
    out = dyt(Tensor(np.ones((1, 1))))
    assert abs(out.item() - 1.0) < 1e-6


def test_dyt_scalar_reference():
    # 2*tanh(0.5) + 0.1 = 1.02423431...
    dyt = nn.DynamicTanh(1)
    dyt.alpha.data[...] = 1.0
    dyt.w.data[:] = 2.0
    dyt.b.data[:] = 0.1
    out = dyt(Tensor(np.array([[0.5]])))
    assert abs(out.item() - (2.0 * math.tanh(0.5) + 0.1)) < 1e-12
    assert abs(out.item() - 1.0242343145) < 1e-9


def test_dyt_small_signal_linearity():
    dyt = nn.DynamicTanh(2)
    dyt.alpha.data[...] = 0.01
    dyt.w.data[:] = [1.5, -0.5]
    dyt.b.data[:] = [0.2, 0.4]
    x = Tensor(T.rng(11).uniform(-0.1, 0.1, (5, 2)))  # |alpha*x| <= 1e-3
    linearized = dyt.w.data * (dyt.alpha.data * x.data) + dyt.b.data
    assert np.max(np.abs(dyt(x).data - linearized)) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_dyt_boundedness(value):
    dyt = nn.DynamicTanh(2)
    dyt.alpha.data[...] = 2.0
    dyt.w.data[:] = [1.5, -0.5]
    dyt.b.data[:] = [0.2, 0.4]
    out = dyt(Tensor(np.full((1, 2), value))).data[0]
    lo = dyt.b.data - np.abs(dyt.w.data)
    hi = dyt.b.data + np.abs(dyt.w.data)
    assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


def _dyt_composed(dyt, x):
    return T.add(T.mul(dyt.w, T.tanh(T.mul(dyt.alpha, x))), dyt.b)


def test_dyt_is_one_op_bit_identical_to_composition():
    dyt = nn.DynamicTanh(4)
    dyt.alpha.data[...] = 0.7
    dyt.w.data[:] = T.rng(14).uniform(-2, 2, 4)
    dyt.b.data[:] = T.rng(15).uniform(-1, 1, 4)
    x = Tensor(T.rng(16).normal(0, 3, (2, 5, 4)), requires_grad=True)
    out = dyt(x)
    assert out.node.op == "dyt" and out.node.inputs == (x, dyt.w, dyt.b, dyt.alpha)
    assert np.array_equal(out.data, _dyt_composed(dyt, x).data)


def test_dyt_gradient():
    dyt = nn.DynamicTanh(3)
    dyt.alpha.data[...] = 0.8
    dyt.w.data[:] = [1.5, -0.5, 0.7]
    x = Tensor(T.rng(12).uniform(-2, 2, (2, 4, 3)), requires_grad=True)
    params = dict(dyt.named_parameters())
    assert "alpha" in params
    params["x"] = x
    res = grad_check(lambda: weighted_sum_loss(dyt(x)), params, name="dyt", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


# ---------------------------------------------------------------------------
# LayerNorm


def test_layernorm_constant_vector_gives_beta():
    ln = nn.LayerNorm(4)
    ln.beta.data[:] = [1.0, 2.0, 3.0, 4.0]
    out = ln(Tensor(np.full((2, 4), 7.0)))
    assert np.allclose(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)))


def test_layernorm_unit_variance_preserved():
    ln = nn.LayerNorm(2)
    out = ln(Tensor(np.array([[-1.0, 1.0]])))
    # mean 0, var 1: standardization is identity up to the eps in the denominator
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layernorm_gradient():
    ln = nn.LayerNorm(3)
    x = Tensor(T.rng(13).uniform(-1, 1, (2, 3)), requires_grad=True)
    params = dict(ln.named_parameters())
    params["x"] = x
    res = grad_check(lambda: weighted_sum_loss(ln(x)), params, name="layernorm", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def _layernorm_composed(ln, x):
    """LayerNorm restated in numpy, one elementwise op at a time."""
    mu = np.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    normed = centered / np.sqrt(var + nn.LAYERNORM_EPS)
    return normed * ln.gamma.data + ln.beta.data


def _perturbed_layernorm(dim, seed):
    ln = nn.LayerNorm(dim)
    ln.gamma.data[:] = T.rng(seed).uniform(0.5, 1.5, dim)
    ln.beta.data[:] = T.rng(seed + 1).uniform(-1, 1, dim)
    return ln


def test_layernorm_is_one_op_bit_identical_to_composition():
    for dim in (3, 8, 40):  # numpy sums 8 or more elements pairwise
        ln = _perturbed_layernorm(dim, 60)
        x = Tensor(T.rng(62).normal(1, 3, (2, 5, dim)), requires_grad=True)
        out = ln(x)
        assert out.node.op == "layernorm" and out.node.inputs == (x, ln.gamma, ln.beta)
        assert np.array_equal(out.data, _layernorm_composed(ln, x.data))


def test_layernorm_channel_axis_of_a_volume():
    ln = _perturbed_layernorm(3, 63)
    x = Tensor(T.rng(65).uniform(-1, 1, (2, 3, 2, 3, 2)), requires_grad=True)
    tokens = Tensor(x.data.transpose(0, 2, 3, 4, 1))
    want = ln(tokens).data.transpose(0, 4, 1, 2, 3)
    np.testing.assert_allclose(ln(x, axis=1).data, want, rtol=0, atol=1e-14)
    params = dict(ln.named_parameters())
    params["x"] = x
    res = grad_check(lambda: weighted_sum_loss(ln(x, axis=1)), params, name="layernorm", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"
    with pytest.raises(ShapeError):
        ln(x, axis=2)


# ---------------------------------------------------------------------------
# conv3d


def test_conv3d_identity_kernel():
    conv = nn.Conv3d(1, 1, 1, T.rng(14))
    conv.weight.data[:] = 1.0
    conv.bias.data[:] = 0.0
    x = Tensor(T.rng(15).uniform(-1, 1, (1, 1, 3, 3, 3)))
    assert np.allclose(conv(x).data, x.data)


def test_conv3d_stride2_ones_kernel_sums_blocks():
    conv = nn.Conv3d(1, 1, 2, T.rng(16), stride=2)
    conv.weight.data[:] = 1.0
    conv.bias.data[:] = 0.0
    out = conv(Tensor(np.ones((1, 1, 4, 4, 4))))
    assert out.shape == (1, 1, 2, 2, 2)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2, 2), 8.0))


def test_conv3d_output_extents():
    conv = nn.Conv3d(2, 3, 3, T.rng(17), stride=2, padding=1)
    out = conv(Tensor(np.zeros((1, 2, 8, 8, 8))))
    assert out.shape == (1, 3, 4, 4, 4)


def test_conv3d_kernel_too_large():
    conv = nn.Conv3d(1, 1, 5, T.rng(18))
    with pytest.raises(ShapeError):
        conv(Tensor(np.zeros((1, 1, 3, 3, 3))))


def test_conv3d_gradient():
    conv = nn.Conv3d(2, 2, 2, T.rng(19), stride=1, padding=1)
    x = Tensor(T.rng(20).uniform(-1, 1, (1, 2, 3, 3, 3)), requires_grad=True)
    params = dict(conv.named_parameters())
    params["x"] = x
    res = grad_check(lambda: weighted_sum_loss(conv(x)), params, name="conv3d", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


# stride 3 leaves a depth phase no tap reads when k < 3; each case also runs with B in (1, 2)
CONV_GRID = [(s, k, p) for s in (1, 2, 3) for k in (1, 2, 3) for p in (0, 1, 2)]


@pytest.mark.parametrize("stride,k,pad", CONV_GRID)
def test_conv3d_matches_naive_oracle(stride, k, pad):
    g = T.rng(30)
    for B in (1, 2):
        x = g.uniform(-1, 1, (B, 3, 6, 5, 4))  # C=3, odd and even extents
        w = g.uniform(-1, 1, (2, 3, k, k, k))  # O=2
        b = g.uniform(-1, 1, 2)
        out = nn.conv3d(Tensor(x), Tensor(w), Tensor(b), stride, pad)
        np.testing.assert_allclose(out.data, conv3d_naive(x, w, b, stride, pad), rtol=0, atol=1e-12)


def _unread_input_mask(spatial, k, stride, pad):
    """Input voxels that no kernel window reads (per spatial axis, outer product)."""
    axes = []
    for n in spatial:
        read = np.zeros(n + 2 * pad, dtype=bool)
        for o in range((n + 2 * pad - k) // stride + 1):
            read[stride * o: stride * o + k] = True
        axes.append(~read[pad: pad + n])
    return axes[0][:, None, None] | axes[1][None, :, None] | axes[2][None, None, :]


@pytest.mark.parametrize("stride,k,pad", CONV_GRID)
def test_conv3d_input_gradient(stride, k, pad):
    conv = nn.Conv3d(2, 3, k, T.rng(31), stride=stride, padding=pad)
    for B in (1, 2):
        x = Tensor(T.rng(32).uniform(-1, 1, (B, 2, 6, 5, 4)), requires_grad=True)
        params = dict(conv.named_parameters())
        params["x"] = x
        res = grad_check(lambda: weighted_sum_loss(conv(x)), params, name="conv3d", tol=1e-6)
        assert res.passed, f"B={B}: max rel err {res.max_rel_err}"
        # voxels no window reads ((n + 2p - k) % stride != 0, or k < stride) get exactly zero
        unread = _unread_input_mask(x.shape[2:], k, stride, pad)
        assert np.all(x.grad[:, :, unread] == 0.0)
        if (stride, k, pad) in ((2, 3, 0), (2, 1, 1), (3, 1, 0), (3, 2, 0)):
            assert unread.any()


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


# the grid plus windows wholly in padding (p > k-1) at strides 1, 2 and 3
@pytest.mark.parametrize("stride,k,pad", CONV_GRID + [(1, 1, 3), (2, 3, 4), (3, 2, 3)])
def test_conv3d_gradients_are_its_adjoint(stride, k, pad, monkeypatch):
    # conv3d is bilinear in (x, W), so <conv3d(x, W), g> = <x, dx> = <W, dW> up to rounding
    calls = []
    transpose = nn._transpose
    monkeypatch.setattr(nn, "_transpose", lambda *args: calls.append(args[2:4]) or transpose(*args))
    g = T.rng(39)
    for B in (1, 2):
        x = Tensor(g.uniform(-1, 1, (B, 3, 6, 5, 4)), requires_grad=True)
        w = Tensor(g.uniform(-1, 1, (2, 3, k, k, k)), requires_grad=True)
        out = nn.conv3d(x, w, Tensor(np.zeros(2)), stride, pad)
        gout = g.uniform(-1, 1, out.shape)
        dx, dw, _ = out.node.backward_fn(gout)
        y = np.vdot(out.data, gout)
        assert _rel(y, np.vdot(x.data, dx)) <= 1e-12
        assert _rel(y, np.vdot(w.data, dw)) <= 1e-12
    # col2im serves every stride above 1 and every window wholly in padding (p > k-1)
    assert calls == ([(stride, pad)] * 2 if stride > 1 or pad > k - 1 else [])


# taps whose windows read only padding: 1 of 27 live at 1^3, 8 at 2^3 -> 1^3, 9 at 1x3x5,
# and none for a kernel-1, stride-3 conv of a 1^3 input padded 1 (its output is the bias)
@pytest.mark.parametrize("shape,k,stride,pad,live", [
    ((2, 3, 1, 1, 1), 3, 1, 1, ((1, 2), (1, 2), (1, 2))),
    ((2, 3, 2, 2, 2), 3, 2, 1, ((1, 3), (1, 3), (1, 3))),
    ((2, 3, 1, 3, 5), 3, 1, 1, ((1, 2), (0, 3), (0, 3))),
    ((2, 3, 1, 1, 1), 1, 3, 1, ((1, 1), (1, 1), (1, 1))),
])
def test_conv3d_skips_taps_that_read_only_padding(shape, k, stride, pad, live):
    g = T.rng(42)
    x = Tensor(g.uniform(-1, 1, shape), requires_grad=True)
    w = Tensor(g.uniform(-1, 1, (2, shape[1], k, k, k)), requires_grad=True)
    b = g.uniform(-1, 1, 2)
    out = nn.conv3d(x, w, Tensor(b), stride, pad)
    np.testing.assert_allclose(out.data, conv3d_naive(x.data, w.data, b, stride, pad), rtol=0, atol=1e-12)
    # only the live taps are lowered: a depth view per live depth tap, a row block per live (j, l)
    views, got = nn._correlate(x.data, w.data, stride, pad)[1]
    assert got == tuple(slice(*t) for t in live)
    sizes = [hi - lo for lo, hi in live]
    assert len(views) == (sizes[0] if min(sizes) else 0)
    assert all(v.shape[0] == sizes[1] * sizes[2] * shape[1] for v in views)
    gout = g.uniform(-1, 1, out.shape)
    dx, dw, _ = out.node.backward_fn(gout)
    dead = np.ones((k, k, k), dtype=bool)
    dead[tuple(slice(*t) for t in live)] = False
    assert np.all(dw[:, :, dead] == 0.0)
    y = np.vdot(out.data - b.reshape(1, 2, 1, 1, 1), gout)
    assert abs(y - np.vdot(x.data, dx)) <= 1e-12 * max(abs(y), 1.0)
    assert abs(y - np.vdot(w.data, dw)) <= 1e-12 * max(abs(y), 1.0)


def test_conv_transpose_gradients_are_its_adjoint():
    g = T.rng(40)
    x = Tensor(g.uniform(-1, 1, (2, 3, 2, 3, 4)), requires_grad=True)
    w = Tensor(g.uniform(-1, 1, (3, 2, 2, 2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    out = nn.conv_transpose3d(x, w, b)
    gout = g.uniform(-1, 1, out.shape)
    dx, dw, db = out.node.backward_fn(gout)
    y = np.vdot(out.data, gout)
    assert _rel(y, np.vdot(x.data, dx)) <= 1e-12
    assert _rel(y, np.vdot(w.data, dw)) <= 1e-12
    np.testing.assert_allclose(db, gout.sum(axis=(0, 2, 3, 4)), rtol=1e-13)


def test_conv_transpose_is_the_stride2_conv_input_gradient():
    g = T.rng(41)
    w = g.uniform(-1, 1, (2, 3, 2, 2, 2))  # conv3d: O=2, C=3
    x = Tensor(g.uniform(-1, 1, (2, 3, 6, 4, 8)), requires_grad=True)
    out = nn.conv3d(x, Tensor(w), Tensor(np.zeros(2)), 2, 0)
    gout = g.uniform(-1, 1, out.shape)
    dx = out.node.backward_fn(gout)[0]
    up = nn.conv_transpose3d(Tensor(gout), Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_allclose(up.data, dx, rtol=0, atol=1e-13)


def test_conv3d_skips_input_gradient_when_not_required():
    conv = nn.Conv3d(2, 3, 3, T.rng(33), stride=2, padding=1)
    data = T.rng(34).uniform(-1, 1, (2, 2, 6, 5, 4))
    grads = {}
    for x_requires_grad in (False, True):
        x = Tensor(data, requires_grad=x_requires_grad)
        for p in conv.parameters():
            p.grad = None
        T.backward(weighted_sum_loss(conv(x)))
        grads[x_requires_grad] = (x.grad, conv.weight.grad, conv.bias.grad)
    assert grads[False][0] is None
    assert grads[True][0] is not None
    assert np.array_equal(grads[False][1], grads[True][1])
    assert np.array_equal(grads[False][2], grads[True][2])
    out = conv(Tensor(data))
    assert out.node.backward_fn(np.ones(out.shape))[0] is None  # not computed, not just dropped


def test_conv3d_no_grad_peak_memory():
    # im2col copies only the k^2 height/width offsets; depth offsets are views
    g = T.rng(37)
    x = Tensor(g.uniform(-1, 1, (1, 16, 24, 24, 24)))
    conv = nn.Conv3d(16, 8, 3, T.rng(38), padding=1)
    with T.no_grad():
        tracemalloc.start()
        try:
            conv(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 15 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"


@pytest.mark.parametrize("x_requires_grad", [False, True])
def test_conv3d_float32_stays_float32(x_requires_grad):
    conv = nn.Conv3d(2, 3, 3, T.rng(35), stride=2, padding=1)
    for p in conv.parameters():
        p.data = p.data.astype(np.float32)
    x = Tensor(T.rng(36).uniform(-1, 1, (2, 2, 6, 5, 4)).astype(np.float32), requires_grad=x_requires_grad)
    out = conv(x)
    assert out.dtype == np.float32
    T.backward(T.reduce_sum(out))
    assert conv.weight.grad.dtype == np.float32
    assert conv.bias.grad.dtype == np.float32
    if x_requires_grad:
        assert x.grad.dtype == np.float32


def test_conv_transpose_doubles_extents():
    up = nn.ConvTranspose3d(3, 2, T.rng(21))
    out = up(Tensor(np.zeros((2, 3, 2, 3, 4))))
    assert out.shape == (2, 2, 4, 6, 8)
    with pytest.raises(ShapeError):
        up(Tensor(np.zeros((2, 2, 2, 3, 4))))


def test_conv_transpose_writes_one_block_per_input_voxel():
    g = T.rng(27)
    x, w, b = g.uniform(-1, 1, (2, 3, 2, 3, 4)), g.uniform(-1, 1, (3, 2, 2, 2, 2)), g.uniform(-1, 1, 2)
    out = nn.conv_transpose3d(Tensor(x), Tensor(w), Tensor(b))
    assert out.node is None
    # out[b, o, 2d+i, 2h+j, 2w+l] = sum_c x[b, c, d, h, w] w[c, o, i, j, l] + bias[o]
    want = np.einsum("bcdhw,coijl->bodihjwl", x, w).reshape(2, 2, 4, 6, 8) + b.reshape(2, 1, 1, 1)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-14)


def test_conv_transpose_gradient():
    up = nn.ConvTranspose3d(3, 2, T.rng(22))
    up.bias.data[:] = [0.3, -0.2]
    x = Tensor(T.rng(23).uniform(-1, 1, (2, 3, 2, 3, 2)), requires_grad=True)
    params = dict(up.named_parameters())
    params["x"] = x
    res = grad_check(lambda: weighted_sum_loss(up(x)), params, name="conv_transpose", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"
    out = up(x)
    assert out.node.op == "conv_transpose3d" and out.node.inputs == (x, up.weight, up.bias)


@pytest.mark.parametrize("layer", ["conv_transpose", "layernorm", "dyt"])
def test_one_op_layers_keep_float32(layer):
    x = Tensor(T.rng(28).uniform(-1, 1, (2, 3, 2, 2, 2)).astype(np.float32), requires_grad=True)
    module, call = {
        "conv_transpose": (nn.ConvTranspose3d(3, 2, T.rng(29)), lambda m: m(x)),
        "layernorm": (nn.LayerNorm(3), lambda m: m(x, axis=1)),
        "dyt": (nn.DynamicTanh(2), lambda m: m(x)),
    }[layer]
    for p in module.parameters():
        p.data = p.data.astype(np.float32)
    out = call(module)
    assert out.dtype == np.float32
    T.backward(T.reduce_sum(T.mul(out, out)))
    assert all(p.grad.dtype == np.float32 for p in module.parameters() + [x])


def test_named_parameters_unique_and_complete():
    class Wrap(nn.Module):
        def __init__(self):
            self.a = nn.Linear(2, 3, T.rng(24))
            self.blocks = [ExpertBank(1, 3, T.rng(25)), ExpertBank(1, 3, T.rng(26))]

    names = [n for n, _ in Wrap().named_parameters()]
    assert len(names) == len(set(names))
    assert len(names) == 2 + 2 * 4
