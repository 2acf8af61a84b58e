"""Tensor core: op semantics, gradient soundness, tape contracts."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmoe import tensor as T
from hsmoe.gradcheck import grad_check, weighted_sum_loss
from hsmoe.tensor import (
    EmptyReductionError,
    NumericalError,
    ShapeError,
    TapeError,
    Tensor,
)


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = T.matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_forced_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_vs_finite_differences():
    g = T.rng(3)
    a = leaf(g.uniform(-1, 1, (3, 4)))
    b = leaf(g.uniform(-1, 1, (4, 2)))
    res = grad_check(lambda: weighted_sum_loss(T.matmul(a, b)), {"a": a, "b": b},
                     name="matmul", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_matmul_batched_broadcast_gradient():
    g = T.rng(4)
    a = leaf(g.uniform(-1, 1, (2, 3, 3, 4)))
    b = leaf(g.uniform(-1, 1, (4, 2)))  # broadcast over leading batch dims
    res = grad_check(lambda: weighted_sum_loss(T.matmul(a, b)), {"a": a, "b": b},
                     name="matmul_batched", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_zeros():
    out = T.softmax(Tensor(np.zeros(4)), axis=-1)
    assert np.allclose(out.data, 0.25, atol=0, rtol=0)


def test_softmax_masked_entry_is_exactly_zero():
    out = T.softmax(Tensor(np.array([0.0, -np.inf])), axis=-1)
    assert out.data[0] == 1.0
    assert out.data[1] == 0.0


def test_softmax_reference_values():
    # frozen from the scalar exp/sum reference: e^x_i / sum_j e^x_j
    out = T.softmax(Tensor(np.array([1.0, 2.0, 3.0])), axis=-1)
    expected = np.array([0.09003057, 0.24472847, 0.66524096])
    assert np.allclose(out.data, expected, atol=5e-9)


def test_softmax_degenerate_slice_raises():
    # an entirely -inf slice has no softmax: -inf - -inf is NaN, and the output check raises
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="softmax: non-finite"):
        T.softmax(Tensor(np.array([[-np.inf, -np.inf], [0.0, 1.0]])), axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_bit_identical_to_numpy(dtype):
    x = T.rng(16).uniform(-30, 30, (3, 4, 5)).astype(dtype)
    x[0, 1, 2] = x[2, 3, 0] = -np.inf  # masked entries; no slice is wholly masked
    w = T.rng(17).uniform(0.5, 1.5, x.shape).astype(dtype)
    for axis in (-1, 0, 1):
        z = np.exp(x - np.max(x, axis=axis, keepdims=True))
        want = z / np.sum(z, axis=axis, keepdims=True)
        xs = Tensor(x, requires_grad=True)
        out = T.softmax(xs, axis=axis)
        assert out.dtype == dtype and np.array_equal(out.data, want)
        assert out.data[0, 1, 2] == 0.0 and out.data[2, 3, 0] == 0.0
        T.backward(T.reduce_sum(T.mul(out, Tensor(w))))
        grad = want * (w - np.sum(w * want, axis=axis, keepdims=True))
        assert xs.grad.dtype == dtype and np.array_equal(xs.grad, grad)
    x[1, 2] = -np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="softmax: non-finite"):
        T.softmax(Tensor(x), axis=-1)


def test_softmax_gradient():
    g = T.rng(5)
    x = leaf(g.uniform(-1, 1, (3, 5)))
    res = grad_check(lambda: weighted_sum_loss(T.softmax(x, axis=-1)), {"x": x},
                     name="softmax", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(values):
    out = T.softmax(Tensor(np.array(values, dtype=np.float64)), axis=-1)
    assert abs(out.data.sum() - 1.0) <= 1e-12
    # underflow may round tiny probabilities to exact 0; [0,1] is the fp range
    assert (out.data >= 0).all() and (out.data <= 1.0).all()


def test_log_softmax_matches_log_of_softmax():
    g = T.rng(11)
    x = Tensor(g.uniform(-2, 2, (4, 6)))
    ls = T.log_softmax(x, axis=-1)
    assert np.allclose(ls.data, np.log(T.softmax(x, axis=-1).data), atol=1e-12)


def test_log_softmax_of_a_masked_logit_raises():
    # a -inf logit has a -inf log-probability: the output is checked like any other
    with pytest.raises(NumericalError, match="log_softmax: non-finite"):
        T.log_softmax(Tensor(np.array([[0.0, -np.inf], [1.0, 2.0]])), axis=-1)


def test_log_softmax_gradient():
    g = T.rng(12)
    x = leaf(g.uniform(-1, 1, (2, 4)))
    res = grad_check(lambda: weighted_sum_loss(T.log_softmax(x, axis=-1)), {"x": x},
                     name="log_softmax", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


# ---------------------------------------------------------------------------
# reductions


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reductions_bit_identical_to_numpy(dtype):
    x = T.rng(18).uniform(-1, 1, (3, 4, 5)).astype(dtype)
    for axis in (None, 1, -1, (0, 2), (2, -3)):
        for op, ref in ((T.reduce_sum, np.sum), (T.reduce_mean, np.mean)):
            xs = Tensor(x, requires_grad=True)
            out = op(xs, axis=axis)
            want = ref(x, axis=axis)
            assert out.dtype == dtype and out.shape == want.shape and np.array_equal(out.data, want)
            w = T.rng(19).uniform(0.5, 1.5, want.shape).astype(dtype)
            T.backward(T.reduce_sum(T.mul(out, Tensor(w))))
            # the output gradient w spread over the reduced axes (and divided by the count)
            spread = np.expand_dims(w, axis if axis is not None else (0, 1, 2))
            if op is T.reduce_mean:
                spread = spread / (x.size // want.size)
            assert xs.grad.dtype == dtype and np.array_equal(xs.grad, np.broadcast_to(spread, x.shape))


def test_reduce_mean_basics():
    assert T.reduce_mean(Tensor([2.0, 4.0])).item() == 3.0
    const = T.reduce_mean(Tensor(np.full((3, 4), 7.5)), axis=1)
    assert np.array_equal(const.data, np.full(3, 7.5))


def test_reduce_mean_empty_axis_raises():
    with pytest.raises(EmptyReductionError):
        T.reduce_mean(Tensor(np.zeros((2, 0))), axis=1)


def test_reduce_mean_gradient():
    g = T.rng(6)
    x = leaf(g.uniform(-1, 1, (2, 3)))
    res = grad_check(lambda: weighted_sum_loss(T.reduce_mean(x, axis=1)), {"x": x},
                     name="reduce_mean", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


def test_reduce_sum_tuple_axes_gradient():
    g = T.rng(7)
    x = leaf(g.uniform(-1, 1, (2, 3, 4)))
    res = grad_check(lambda: weighted_sum_loss(T.reduce_sum(x, axis=(0, 2))), {"x": x},
                     name="reduce_sum", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_sum_gives_ones():
    x = leaf(np.zeros((2, 3)))
    T.backward(T.reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_analytic():
    x = leaf([1.0, 2.0])
    T.backward(T.reduce_sum(T.mul(x, x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = leaf(np.ones(3))
    with pytest.raises(TapeError):
        T.backward(T.mul(x, 2.0))


def test_backward_twice_without_reforward_raises():
    x = leaf(np.ones(3))
    loss = T.reduce_sum(T.mul(x, x))
    T.backward(loss)
    with pytest.raises(TapeError):
        T.backward(loss)


def test_grad_accumulates_over_multiple_uses():
    x = leaf([1.0, 2.0])
    loss = T.reduce_sum(T.add(T.mul(x, 3.0), T.mul(x, x)))
    T.backward(loss)
    assert np.allclose(x.grad, [3.0 + 2.0, 3.0 + 4.0])


# ---------------------------------------------------------------------------
# elementwise / shape ops


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
def test_binary_op_gradients(op):
    g = T.rng(8)
    a = leaf(g.uniform(0.5, 1.5, (2, 3)))
    b = leaf(g.uniform(0.5, 1.5, (2, 3)))
    res = grad_check(lambda: weighted_sum_loss(op(a, b)), {"a": a, "b": b},
                     name=op.__name__, tol=1e-6)
    assert res.passed, f"{op.__name__}: max rel err {res.max_rel_err}"


@pytest.mark.parametrize("op", [T.tanh, T.sigmoid, T.softplus, T.neg])
def test_unary_op_gradients(op):
    g = T.rng(9)
    x = leaf(g.uniform(-1, 1, (2, 4)))
    res = grad_check(lambda: weighted_sum_loss(op(x)), {"x": x},
                     name=op.__name__, tol=1e-6)
    assert res.passed, f"{op.__name__}: max rel err {res.max_rel_err}"


def _logistic_by_masks(x):
    """The two-branch logistic as sigmoid and softplus's backward computed it
    with boolean-mask gathers and scatters."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_softplus_grad_bit_identical_to_masked_branches(dtype):
    g = T.rng(15)
    x = np.concatenate([g.uniform(-60, 60, 500), g.normal(0, 3, 500),
                        [0.0, -0.0, 40.5, -40.5, -745.0, 800.0, 1e-30, -1e-30]]).astype(dtype)
    for data in (x, x[3:4].reshape(()), np.asarray(-0.0, dtype=dtype)):
        want = _logistic_by_masks(data.reshape(-1)).reshape(data.shape)
        got = T.sigmoid(Tensor(data)).data
        assert got.dtype == dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        xs = Tensor(data.copy(), requires_grad=True)
        T.backward(T.reduce_sum(T.softplus(xs)))
        assert xs.grad.dtype == dtype and np.array_equal(xs.grad, want)


def test_shape_op_gradients():
    g = T.rng(13)
    x = leaf(g.uniform(-1, 1, (2, 3, 4)))

    def fwd():
        y = T.permute(T.reshape(x, (2, 12)), (1, 0))
        y = T.concatenate([y, T.mul(y, 2.0)], axis=1)
        y = T.pad_zeros(y, [(1, 0), (0, 2)])
        return weighted_sum_loss(y[1:5, 0:3])

    res = grad_check(fwd, {"x": x}, name="shape_ops", tol=1e-6)
    assert res.passed, f"max rel err {res.max_rel_err}"


@pytest.mark.parametrize("order", [*itertools.permutations(range(3)), (0, -1, 1), (3, 0, 4, 2, 1)])
def test_permute_gradient_is_the_inverse_transpose(order):
    shape = (2, 3, 4) if len(order) == 3 else (2, 3, 1, 4, 5)
    x = leaf(T.rng(20).uniform(-1, 1, shape))
    out = T.permute(x, order)
    want = np.transpose(x.data, order)
    assert out.data.flags.c_contiguous and np.array_equal(out.data, want)
    w = T.rng(21).uniform(0.5, 1.5, want.shape)
    T.backward(T.reduce_sum(T.mul(out, Tensor(w))))
    assert np.array_equal(x.grad, np.transpose(w, np.argsort([ax % len(order) for ax in order])))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pad_zeros_matches_np_pad(dtype):
    x = T.rng(22).uniform(-1, 1, (2, 3, 4)).astype(dtype)
    for widths in ([(0, 0), (0, 2), (0, 0)], [(1, 0), (0, 0), (2, 3)], [(0, 0)] * 3):
        xs = Tensor(x, requires_grad=True)
        out = T.pad_zeros(xs, widths)
        assert out.dtype == dtype and np.array_equal(out.data, np.pad(x, widths))
        w = T.rng(23).uniform(0.5, 1.5, out.shape).astype(dtype)
        T.backward(T.reduce_sum(T.mul(out, Tensor(w))))
        crop = tuple(slice(b, b + n) for (b, _), n in zip(widths, x.shape))
        assert xs.grad.dtype == dtype and np.array_equal(xs.grad, w[crop])
    for widths in ([(0, -1), (0, 0), (0, 0)], [(0, 1), (0, 0)]):
        with pytest.raises(ShapeError, match="non-negative"):
            T.pad_zeros(Tensor(x), widths)


def test_masked_fill_blocks_gradient_on_filled_entries():
    x = leaf([1.0, 2.0, 3.0])
    keep = np.array([True, False, True])
    out = T.masked_fill(x, keep, -4.0)
    assert np.array_equal(out.data, [1.0, -4.0, 3.0])
    T.backward(T.reduce_sum(T.masked_fill(x, keep, 0.0)))
    assert np.array_equal(x.grad, [1.0, 0.0, 1.0])


@pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
def test_masked_fill_with_a_non_finite_value_raises(value):
    keep = np.array([True, False, True])
    with pytest.raises(NumericalError, match="masked_fill: non-finite"):
        T.masked_fill(leaf([1.0, 2.0, 3.0]), keep, value)


# ---------------------------------------------------------------------------
# numerical contracts


def test_overflow_is_surfaced_not_propagated():
    x = Tensor(np.array([1e200]))
    with pytest.raises(NumericalError, match="^mul: non-finite"):
        T.mul(x, x)


def test_division_blowup_is_surfaced():
    with pytest.raises(NumericalError, match="^div: non-finite"):
        T.div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(NumericalError, match="^div: non-finite"):
        T.div(Tensor([0.0]), Tensor([0.0]))


def test_backward_overflow_raises_without_warning():
    # the loss is a finite 1e10, but mul's backward overflows at x's gradient:
    # the leaf check's error is the only sign of it
    x = leaf([1e-300])
    loss = T.reduce_sum(T.mul(T.mul(x, 1e300), 1e10))
    assert np.isfinite(loss.item())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="mul backward"):
            T.backward(loss)


def test_determinism_same_seed_bit_identical():
    def run():
        g = T.rng(1234)
        x = Tensor(g.uniform(-1, 1, (4, 4)))
        w = Tensor(g.uniform(-1, 1, (4, 4)))
        return T.softmax(T.matmul(x, w), axis=-1).data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_weighted_sum_loss_draws_its_weights_once_per_seed_and_shape():
    out = Tensor(T.rng(3).uniform(-1, 1, (2, 3)))
    fresh = T.rng(0).uniform(0.5, 1.5, size=(2, 3))
    assert weighted_sum_loss(out).item() == T.reduce_sum(T.mul(out, Tensor(fresh))).item()
    from hsmoe.gradcheck import _loss_weights
    w = _loss_weights((2, 3))
    assert w is _loss_weights((2, 3)) and not w.flags.writeable
    assert np.array_equal(w, fresh)


def test_tensor_invariants():
    x = Tensor(np.zeros((2, 3)))
    assert x.size == int(np.prod(x.shape))
    # floats keep their dtype, anything else becomes f64, and data is C-contiguous
    assert Tensor(np.zeros(2, np.float32)).dtype == np.float32
    assert Tensor(np.arange(3)).dtype == Tensor([1, 2]).dtype == Tensor(np.zeros(2, ">f8")).dtype == np.float64
    assert Tensor(np.zeros((3, 2)).T).data.flags.c_contiguous
    assert Tensor(2.0).shape == ()
    y = leaf(np.ones((2, 2)))
    T.backward(T.reduce_sum(y))
    assert y.grad.shape == y.shape


# ---------------------------------------------------------------------------
# no_grad


def test_no_grad_records_no_node_and_leaves_parameters_alone():
    w = leaf([[1.0, -2.0], [0.5, 3.0]])
    x = Tensor(np.array([[1.0, 2.0]]))
    recorded = T.tanh(T.matmul(x, w))
    with T.no_grad():
        out = T.tanh(T.matmul(x, w))
    assert out.node is None and not out.requires_grad
    assert np.array_equal(out.data, recorded.data)
    assert w.requires_grad
    T.backward(T.reduce_sum(out))  # nothing on the tape: a no-op
    assert w.grad is None


def test_no_grad_nests_and_restores_recording():
    w = leaf([1.0, 2.0])
    with T.no_grad():
        with T.no_grad():
            assert T.mul(w, 2.0).node is None
        assert T.mul(w, 2.0).node is None
    assert T.mul(w, 2.0).node is not None


def test_no_grad_restores_recording_after_an_exception():
    w = leaf([1.0, 2.0])
    with pytest.raises(RuntimeError, match="left early"):
        with T.no_grad():
            raise RuntimeError("left early")
    out = T.reduce_sum(T.mul(w, 3.0))
    assert out.node is not None
    T.backward(out)
    assert np.array_equal(w.grad, [3.0, 3.0])
