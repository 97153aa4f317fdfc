import numpy as np
import pytest

from samplernn import autodiff as ad
from samplernn.autodiff import ParamStore
from samplernn.gradcheck import grad_check, standard_checks


def test_identity_scalar_is_exact():
    store = ParamStore()
    x = store.add("x", np.array(1.5))
    reports = grad_check(lambda: ad.scale_shift(x, 1.0), store, tolerance=1e-4)
    assert len(reports) == 1
    assert reports[0].max_rel_err < 1e-9


def test_affine_layer_passes(rng):
    store = ParamStore()
    store.add("x", rng.normal(size=(3, 4)))
    store.add("w", rng.normal(size=(4, 5)))
    store.add("b", rng.normal(size=5))
    mix = ad.Tensor(rng.normal(size=(3, 5)))

    def f():
        return ad.sum_all(ad.mul(ad.affine(store["x"], store["w"], store["b"]), mix))

    assert all(r.passed for r in grad_check(f, store, tolerance=1e-4))


def test_corrupted_backward_rule_is_caught():
    # an op whose backward rule is deliberately wrong: forward x^2, backward 3x
    def bad_square(x):
        def bw(g):
            x._accum(g * 3.0 * x.data, own=True)

        return ad._node(x.data * x.data, (x,), bw)

    store = ParamStore()
    x = store.add("x", np.array([0.7, -1.3]))
    reports = grad_check(lambda: ad.sum_all(bad_square(x)), store, tolerance=1e-4)
    assert not reports[0].passed


def test_standard_suite_all_pass():
    reports = standard_checks(tolerance=1e-4, seed=0)
    failures = [r.line() for r in reports if not r.passed]
    assert not failures, "\n".join(failures)
    names = {r.name for r in reports}
    for expected in (
        "affine",
        "sigmoid",
        "tanh",
        "relu",
        "softmax_cross_entropy",
        "lstm_cell",
        "gru_cell",
        "weight_norm",
        "narrow",
        "embedding",
        "upsampler",
        "two_tier_forward_lstm",
        "two_tier_forward_gru",
    ):
        assert expected in names


def test_report_line_mentions_verdict():
    store = ParamStore()
    x = store.add("x", np.array(2.0))
    report = grad_check(lambda: ad.scale_shift(x, 2.0), store, tolerance=1e-4)[0]
    assert "PASS" in report.line()
