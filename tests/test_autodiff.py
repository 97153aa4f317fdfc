import math

import numpy as np
import pytest

from samplernn import autodiff as ad
from samplernn.autodiff import ParamStore, Tape, Tensor
from samplernn.errors import (
    ContractError,
    DegenerateDirectionError,
    NumericError,
    ShapeError,
)


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_affine_identity():
    y = ad.affine(leaf([[1.0, 2.0]]), leaf([[1.0, 0.0], [0.0, 1.0]]), leaf([0.0, 0.0]))
    assert np.allclose(y.data, [[1.0, 2.0]])


def test_affine_hand_example():
    y = ad.affine(leaf([[1.0, 1.0]]), leaf([[2.0], [3.0]]), leaf([1.0]))
    assert np.allclose(y.data, [[6.0]])


def test_affine_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_sigmoid_values():
    x = leaf([0.0, 3.0])
    y = ad.sigmoid(x)
    assert y.data[0] == pytest.approx(0.5)
    assert y.data[1] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)))


def test_relu_negative_is_zero():
    assert ad.relu(leaf([-2.0])).data[0] == 0.0


def test_tanh_matches_numpy():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(ad.tanh(leaf(x)).data, np.tanh(x))


def test_softmax_ce_uniform_256():
    logits = leaf(np.zeros((3, 256)))
    loss, probs = ad.softmax_cross_entropy(logits, np.array([0, 100, 255]))
    assert float(loss.data) == pytest.approx(math.log(256.0))
    assert float(loss.data) / math.log(2.0) == pytest.approx(8.0)
    assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_ce_large_gap():
    loss, _ = ad.softmax_cross_entropy(leaf([[10.0, 0.0]]), np.array([0]))
    # -log sigmoid(10) = log(1 + e^-10)
    assert float(loss.data) == pytest.approx(math.log(1.0 + math.exp(-10.0)), rel=1e-9)
    assert float(loss.data) == pytest.approx(4.54e-5, rel=1e-2)


def test_softmax_ce_nonnegative_and_rows_sum(rng):
    logits = leaf(rng.normal(0, 5, (10, 17)))
    targets = rng.integers(0, 17, 10)
    loss, probs = ad.softmax_cross_entropy(logits, targets)
    assert float(loss.data) >= 0.0
    assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_ce_target_out_of_range():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(leaf(np.zeros((2, 4))), np.array([0, 4]))


def is_subnormal(a):
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


# rows spread far enough below their max that the unflushed softmax
# underflows into subnormals: exp is subnormal below about -87 in float32
# and -708 in float64
@pytest.mark.parametrize("dtype, low", [(np.float32, -200.0), (np.float64, -1500.0)])
def test_softmax_ce_confident_logits_make_no_subnormals(rng, dtype, low):
    n, q = 64, 256
    logits = Tensor(rng.uniform(low, 0.0, (n, q)).astype(dtype), requires_grad=True)
    targets = rng.integers(0, q, n)
    loss, probs = ad.softmax_cross_entropy(logits, targets)
    ad.backward(loss)
    assert not is_subnormal(probs.data).any()
    assert not is_subnormal(logits.grad).any()

    # the same maths written out without the cut
    rows = np.arange(n)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    ref_loss = np.asarray((np.log(denom[:, 0]) - z[rows, targets]).mean(), dtype=dtype)
    ref_grad = ez / denom
    ref_grad[rows, targets] -= 1.0
    ref_grad *= 1.0 / n
    assert is_subnormal(ref_grad).any()  # so the cut has work to do
    assert loss.data.tobytes() == ref_loss.tobytes()

    cut = np.log(np.finfo(dtype).tiny * n * q).astype(dtype)
    kept = z >= cut
    kept[rows, targets] = True  # p - 1 is -1 with or without the cut
    assert (~kept).any()
    assert np.array_equal(logits.grad[kept], ref_grad[kept])
    assert np.all(logits.grad[~kept] == 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_softmax_ce_non_finite_logits_give_nan_loss(bad):
    logits = Tensor(np.array([[0.0, bad, -1.0], [1.0, 2.0, 3.0]], dtype=np.float32))
    for target in range(3):
        loss, _ = ad.softmax_cross_entropy(logits, np.array([target, 0]))
        assert np.isnan(loss.data)


def test_backward_of_sum_is_ones():
    store = ParamStore()
    w = store.add("w", np.arange(6.0).reshape(2, 3))
    ad.backward(ad.sum_all(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_unused_parameter_gets_zero_gradient():
    store = ParamStore()
    w = store.add("w", np.ones((2, 2)))
    unused = store.add("unused", np.ones(3))
    ad.backward(ad.sum_all(w))
    assert np.array_equal(unused.grad, np.zeros(3))


def test_backward_rejects_non_scalar():
    x = leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.backward(ad.relu(x))


def test_backward_linearity(rng):
    # grad(a*L1 + b*L2) = a*grad(L1) + b*grad(L2)
    data = rng.normal(size=(3, 3))
    mix1 = Tensor(rng.normal(size=(3, 3)))
    mix2 = Tensor(rng.normal(size=(3, 3)))
    a, b = 2.5, -1.25

    def grads(fn):
        store = ParamStore()
        x = store.add("x", data)
        ad.backward(fn(x))
        return x.grad.copy()

    g1 = grads(lambda x: ad.sum_all(ad.mul(ad.tanh(x), mix1)))
    g2 = grads(lambda x: ad.sum_all(ad.mul(ad.sigmoid(x), mix2)))
    combined = grads(
        lambda x: ad.add(
            ad.scale_shift(ad.sum_all(ad.mul(ad.tanh(x), mix1)), a),
            ad.scale_shift(ad.sum_all(ad.mul(ad.sigmoid(x), mix2)), b),
        )
    )
    assert np.allclose(combined, a * g1 + b * g2, atol=1e-12)


def test_tape_topological_order_and_unique_visits():
    x = leaf([1.0, 2.0])
    y = ad.tanh(x)
    z = ad.mul(y, y)  # y consumed twice; must appear once, before z
    loss = ad.sum_all(z)
    tape = Tape.from_root(loss)
    ids = [id(n) for n in tape.nodes]
    assert len(ids) == len(set(ids))
    pos = {i: k for k, i in enumerate(ids)}
    for node in tape.nodes:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_repeated_use_accumulates_correctly():
    store = ParamStore()
    x = store.add("x", np.array([3.0]))
    y = ad.mul(x, x)  # d/dx x^2 = 2x
    ad.backward(ad.sum_all(y))
    assert x.grad[0] == pytest.approx(6.0)


def test_weight_norm_unit_column():
    v = leaf([[3.0], [4.0]])
    g = leaf([1.0])
    w = ad.weight_norm_apply(v, g)
    assert np.allclose(w.data[:, 0], [0.6, 0.8])


def test_weight_norm_identity_when_gain_is_norm(rng):
    vdata = rng.normal(size=(5, 4))
    v = leaf(vdata)
    g = leaf(np.linalg.norm(vdata, axis=0))
    assert np.allclose(ad.weight_norm_apply(v, g).data, vdata, atol=1e-12)


def test_weight_norm_column_norms_equal_gain(rng):
    v = leaf(rng.normal(size=(6, 5)))
    g = leaf(rng.normal(size=5))
    w = ad.weight_norm_apply(v, g)
    assert np.allclose(np.linalg.norm(w.data, axis=0), np.abs(g.data), atol=1e-6)


def five_pass_weight_norm(v, g, grad_w):
    """The plain form, as the op computed it before its two-pass rewrite:
    returns (w, dv, dg)."""
    norms = np.sqrt((v * v).sum(axis=0))
    u = v / norms
    dots = (grad_w * u).sum(axis=0)
    return u * g, (g / norms) * (grad_w - u * dots), dots


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_weight_norm_matches_plain_formula(rng, dtype, rtol):
    v = rng.normal(size=(96, 40)).astype(dtype)
    g = rng.normal(size=40).astype(dtype)
    grad_w = rng.normal(size=(96, 40)).astype(dtype)
    vt, gt = Tensor(v, requires_grad=True), Tensor(g, requires_grad=True)
    out = ad.weight_norm_apply(vt, gt)
    ad.backward(ad.sum_all(ad.mul(out, Tensor(grad_w))))
    for got, want in zip((out.data, vt.grad, gt.grad), five_pass_weight_norm(v, g, grad_w)):
        assert got.dtype == dtype
        # relative to the largest entry: a column's dot product may cancel to ~0
        np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())


def test_weight_norm_zero_column_rejected():
    v = leaf(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateDirectionError):
        ad.weight_norm_apply(v, leaf([1.0, 1.0]))


def test_no_grad_blocks_recording():
    x = leaf([1.0])
    with ad.no_grad():
        y = ad.tanh(x)
    assert not y.requires_grad and y._backward is None


def test_detach_cuts_history():
    x = leaf([2.0])
    y = ad.tanh(x).detach()
    z = ad.sum_all(ad.mul(y, y))
    assert not z.requires_grad


def test_embedding_rejects_out_of_range_ids():
    table = leaf(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        ad.embedding(table, np.array([0, 4]))


def test_check_finite_flags_nan():
    ad.set_check_finite(True)
    try:
        with pytest.raises(NumericError):
            ad.scale_shift(leaf([1.0]), float("inf"))
    finally:
        ad.set_check_finite(False)


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", np.ones(2))
    with pytest.raises(ContractError):
        store.add("w", np.ones(2))


def test_concat_narrow_roundtrip(rng):
    a = leaf(rng.normal(size=(2, 3)))
    b = leaf(rng.normal(size=(2, 5)))
    joined = ad.concat([a, b], axis=1)
    back = ad.narrow(joined, 1, 3, 5)
    assert np.array_equal(back.data, b.data)
    ad.backward(ad.sum_all(back))
    assert np.array_equal(b.grad, np.ones((2, 5)))
    assert np.array_equal(a.grad, np.zeros((2, 3)))
