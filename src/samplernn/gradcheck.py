"""Finite-difference verification of every backward rule.

The harness compares taped gradients against central differences in double
precision. `standard_checks` covers each registered layer on seeded toy
shapes, from single ops up to the full two-tier forward, and is what the
`gradcheck` CLI subcommand runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .autodiff import ParamStore, Tensor

FD_STEP = 1e-5
MAX_EXHAUSTIVE = 10_000
SUBSAMPLE = 1024
# relative-error denominator floor: keeps pure float noise from dominating
# when both gradients are ~0
SCALE_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    name: str
    param: str
    max_rel_err: float
    checked: int
    tolerance: float

    @property
    def passed(self):
        return self.max_rel_err < self.tolerance

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<24} {self.param:<24} rel_err={self.max_rel_err:.3e} "
            f"tol={self.tolerance:.1e} n={self.checked} {verdict}"
        )


def grad_check(f, params, tolerance=1e-4, step=FD_STEP, name="f", rng=None):
    """Compare taped gradients of f() against central finite differences.

    f rebuilds its forward pass from `params` on every call and returns a
    scalar Tensor. Every coordinate is probed when a parameter has at most
    10^4 entries; larger ones use a seeded random subsample. Returns one
    report per parameter; failures are reported, not raised.
    """
    rng = rng or np.random.Generator(np.random.PCG64(0))
    params.zero_grad()
    loss = f()
    ad.backward(loss)
    analytic = {k: v.copy() for k, v in params.grads().items()}

    def value():
        with ad.no_grad():
            return float(f().data)

    reports = []
    for pname, tensor in params.items():
        flat = tensor.data.reshape(-1)
        n = flat.size
        if n <= MAX_EXHAUSTIVE:
            idxs = range(n)
            checked = n
        else:
            idxs = rng.choice(n, size=SUBSAMPLE, replace=False)
            checked = SUBSAMPLE
        ana = analytic[pname].reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            up = value()
            flat[i] = orig - step
            down = value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(numeric), abs(ana[i]), SCALE_FLOOR)
            worst = max(worst, abs(numeric - ana[i]) / denom)
        reports.append(GradCheckReport(name, pname, worst, checked, tolerance))
    return reports


# ---------------------------------------------------------------------------
# registered layer suite


def _store(**arrays):
    ps = ParamStore()
    for k, v in arrays.items():
        ps.add(k, np.asarray(v, dtype=np.float64))
    return ps


def _toy_config(cell, **overrides):
    base = dict(
        q_levels=7,
        embed_size=3,
        hidden_dim=6,
        n_layers=2,
        cell=cell,
        frame_size=2,
        sample_rate=16000,
        h0_mode=mdl.H0_LEARNED,
        skip_connections=True,
        weight_norm=True,
        seed=11,
    )
    base.update(overrides)
    return mdl.ModelConfig(**base)


def standard_checks(tolerance=1e-4, seed=0):
    """Run the finite-difference suite over every registered layer."""
    rng = np.random.Generator(np.random.PCG64(seed))
    reports = []

    def run(name, params, f):
        reports.extend(grad_check(f, params, tolerance=tolerance, name=name, rng=rng))

    ps = _store(x=rng.standard_normal((3, 4)), w=rng.standard_normal((4, 5)),
                b=rng.standard_normal(5))
    mix = Tensor(rng.standard_normal((3, 5)))
    run("affine", ps, lambda: ad.sum_all(ad.mul(ad.affine(ps["x"], ps["w"], ps["b"]), mix)))

    for kind, op in (("sigmoid", ad.sigmoid), ("tanh", ad.tanh), ("relu", ad.relu)):
        # keep relu inputs away from the kink at 0
        data = rng.uniform(0.1, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        ps = _store(x=data)
        mix = Tensor(rng.standard_normal((3, 4)))
        run(kind, ps, lambda op=op, ps=ps, mix=mix: ad.sum_all(ad.mul(op(ps["x"]), mix)))

    ps = _store(logits=rng.standard_normal((4, 7)))
    targets = rng.integers(0, 7, size=4)
    run("softmax_cross_entropy", ps,
        lambda: ad.softmax_cross_entropy(ps["logits"], targets)[0])

    ps = _store(v=rng.standard_normal((4, 3)), g=rng.standard_normal(3))
    mix = Tensor(rng.standard_normal((4, 3)))
    run("weight_norm", ps,
        lambda: ad.sum_all(ad.mul(ad.weight_norm_apply(ps["v"], ps["g"]), mix)))

    ps = _store(table=rng.standard_normal((11, 5)))
    ids = rng.integers(0, 11, size=(2, 3))
    mix = Tensor(rng.standard_normal((2, 3, 5)))
    run("embedding", ps, lambda: ad.sum_all(ad.mul(ad.embedding(ps["table"], ids), mix)))

    h = 5
    bias = np.zeros(4 * h)
    bias[h : 2 * h] = 3.0  # exercise the large forget-gate bias path
    ps = _store(x=rng.standard_normal((2, 3)), h=rng.standard_normal((2, h)) * 0.5,
                c=rng.standard_normal((2, h)) * 0.5,
                w=rng.standard_normal((3 + h, 4 * h)) * 0.4, b=bias)
    mix_h = Tensor(rng.standard_normal((2, h)))
    mix_c = Tensor(rng.standard_normal((2, h)))

    def lstm_loss():
        h2, c2 = mdl.lstm_cell(ps["x"], (ps["h"], ps["c"]), (ps["w"], ps["b"]))
        return ad.add(ad.sum_all(ad.mul(h2, mix_h)), ad.sum_all(ad.mul(c2, mix_c)))

    run("lstm_cell", ps, lstm_loss)

    ps = _store(x=rng.standard_normal((2, 3)), h=rng.standard_normal((2, h)) * 0.5,
                wz=rng.standard_normal((3 + h, 2 * h)) * 0.4, bz=rng.standard_normal(2 * h) * 0.1,
                wc=rng.standard_normal((3 + h, h)) * 0.4, bc=rng.standard_normal(h) * 0.1)
    mix = Tensor(rng.standard_normal((2, h)))
    run("gru_cell", ps,
        lambda: ad.sum_all(ad.mul(
            mdl.gru_cell(ps["x"], ps["h"], (ps["wz"], ps["bz"]), (ps["wc"], ps["bc"])),
            mix)))

    # upsampler / frame tier: conditioning of a 2-layer skip stack
    model = mdl.init_params(_toy_config(mdl.CELL_LSTM, seed=21), dtype=np.float64)
    codes = np.random.Generator(np.random.PCG64(31)).integers(0, 7, size=(2, 6))
    mix = Tensor(rng.standard_normal((2, 3, 2, 6)))

    def frame_loss():
        cond, _ = model.frame_tier_forward(codes, model.initial_state(2))
        return ad.sum_all(ad.mul(cond, mix))

    run("upsampler", model.params, frame_loss)

    for cell in (mdl.CELL_LSTM, mdl.CELL_GRU):
        # seeds chosen so no relu pre-activation sits within the FD step of 0
        m = mdl.init_params(_toy_config(cell, seed=5 if cell == mdl.CELL_LSTM else 9),
                            dtype=np.float64)
        full_codes = np.random.Generator(np.random.PCG64(41)).integers(0, 7, size=(2, 8))

        def full_loss(m=m, full_codes=full_codes):
            out = m.forward_logits(full_codes, m.initial_state(2))
            return ad.softmax_cross_entropy(out.logits, out.targets)[0]

        run(f"two_tier_forward_{cell}", m.params, full_loss)

    # y feeds two overlapping narrows and one whole-tensor op; as an op
    # output its grad starts as None, so the first narrow allocates it
    ps = _store(x=rng.standard_normal((3, 6)))
    mix_a = Tensor(rng.standard_normal((3, 2)))
    mix_b = Tensor(rng.standard_normal((2, 6)))
    mix = Tensor(rng.standard_normal((3, 6)))

    def narrow_loss():
        y = ad.tanh(ps["x"])
        a = ad.sum_all(ad.mul(ad.narrow(y, 1, 1, 2), mix_a))
        b = ad.sum_all(ad.mul(ad.narrow(y, 0, 1, 2), mix_b))
        return ad.add(ad.add(a, b), ad.sum_all(ad.mul(y, mix)))

    run("narrow", ps, narrow_loss)

    return reports
