import dataclasses
import math

import numpy as np
import pytest

from samplernn import autodiff as ad
from samplernn.autodiff import Tensor
from samplernn.errors import ContractError, FramingError, ShapeError
from samplernn.model import (
    CELL_MAPS,
    H0_RANDOM_STD,
    ModelConfig,
    dequantize,
    gru_cell,
    init_params,
    lstm_cell,
    model_forward_nll,
    param_shapes,
    quantize,
)

from conftest import toy_config


# -- quantizer ----------------------------------------------------------------


def test_quantize_edges_and_midpoint():
    assert quantize(-1.0, 256) == 0
    assert quantize(0.0, 256) == 128
    assert quantize(1.0, 256) == 255  # upper edge clamped into range


def test_quantize_clamps_out_of_range():
    assert quantize(-3.5, 256) == 0
    assert quantize(7.0, 256) == 255


def test_dequantize_bin_midpoints():
    assert dequantize(0, 256) == pytest.approx(2 * 0.5 / 256 - 1)  # -0.99609375
    assert dequantize(0, 256) == pytest.approx(-0.99609375)
    assert dequantize(255, 256) == pytest.approx(0.99609375)
    assert dequantize(255, 256) == -dequantize(0, 256)


def test_dequantize_range_check():
    with pytest.raises(IndexError):
        dequantize(256, 256)
    with pytest.raises(IndexError):
        dequantize(-1, 256)


def test_code_stability_all_256():
    codes = np.arange(256)
    assert np.array_equal(quantize(dequantize(codes, 256), 256), codes)


def test_quantizer_monotone_on_grid():
    grid = np.linspace(-1.2, 1.2, 10_000)
    codes = quantize(grid, 256)
    assert np.all(np.diff(codes) >= 0)


def test_roundtrip_error_bound_on_grid():
    grid = np.linspace(-1.0, 1.0, 10_000)
    err = np.abs(dequantize(quantize(grid, 256), 256) - grid)
    assert err.max() <= 1.0 / 256.0


def test_quantize_rejects_nan():
    with pytest.raises(ValueError):
        quantize(float("nan"), 256)


# -- cells --------------------------------------------------------------------


def zero_cell(in_dim, hidden, forget_bias=3.0, gru=False, dtype=np.float64):
    if gru:
        return (
            (Tensor(np.zeros((in_dim + hidden, 2 * hidden), dtype)),
             Tensor(np.zeros(2 * hidden, dtype))),
            (Tensor(np.zeros((in_dim + hidden, hidden), dtype)),
             Tensor(np.zeros(hidden, dtype))),
        )
    bias = np.zeros(4 * hidden, dtype)
    bias[hidden : 2 * hidden] = forget_bias
    return (Tensor(np.zeros((in_dim + hidden, 4 * hidden), dtype)), Tensor(bias))


def test_lstm_forget_gate_bias_three():
    # all-zero weights, zero input/state: c' = sigmoid(3) * c per coordinate
    h = Tensor(np.zeros((1, 5)))
    c = Tensor(np.ones((1, 5)))
    x = Tensor(np.zeros((1, 3)))
    h2, c2 = lstm_cell(x, (h, c), zero_cell(3, 5))
    sig3 = 1.0 / (1.0 + math.exp(-3.0))
    assert np.allclose(c2.data, sig3)
    assert sig3 == pytest.approx(0.9526, abs=1e-4)


def test_lstm_all_zero_gives_zero():
    h = Tensor(np.zeros((2, 4)))
    c = Tensor(np.zeros((2, 4)))
    x = Tensor(np.zeros((2, 3)))
    h2, c2 = lstm_cell(x, (h, c), zero_cell(3, 4, forget_bias=0.0))
    assert np.allclose(h2.data, 0.0) and np.allclose(c2.data, 0.0)


def test_gru_carry_through_when_update_gate_closed(rng):
    # large negative update-gate bias forces z ~ 0, so h' ~ h
    hidden = 6
    w = (
        (Tensor(rng.normal(size=(3 + hidden, 2 * hidden)) * 0.1),
         Tensor(np.concatenate([np.full(hidden, -30.0), np.zeros(hidden)]))),
        (Tensor(rng.normal(size=(3 + hidden, hidden)) * 0.1),
         Tensor(np.zeros(hidden))),
    )
    h = Tensor(rng.normal(size=(2, hidden)))
    h2 = gru_cell(Tensor(rng.normal(size=(2, 3))), h, *w)
    assert np.allclose(h2.data, h.data, atol=1e-10)


def test_gru_all_zero_gives_zero():
    h2 = gru_cell(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))), *zero_cell(4, 4, gru=True))
    assert np.allclose(h2.data, 0.0)


# -- frame tier ---------------------------------------------------------------


def test_frame_tier_single_step_shape():
    model = init_params(toy_config())
    codes = np.zeros((1, 4), dtype=np.int64)
    cond, _ = model.frame_tier_forward(codes, model.initial_state(1))
    assert cond.shape == (1, 1, 4, 8)  # exactly frame_size conditioning vectors


def test_frame_tier_rejects_ragged_length():
    model = init_params(toy_config())
    with pytest.raises(FramingError):
        model.frame_tier_forward(np.zeros((1, 6), dtype=np.int64), model.initial_state(1))


def test_frame_tier_matches_hand_computed_reference():
    # skip_connections off, one layer, 2-dim toy: the conditioning must equal
    # the manually rolled LSTM + per-position projections
    cfg = toy_config(
        n_layers=1, hidden_dim=2, frame_size=2, q_levels=4, embed_size=2,
        skip_connections=False, weight_norm=False, seed=9,
    )
    model = init_params(cfg, dtype=np.float64)
    p = model.params
    codes = np.array([[0, 3, 1, 2]])
    cond, _ = model.frame_tier_forward(codes, model.initial_state(1))

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    frames = dequantize(codes, 4).reshape(1, 2, 2)
    h = np.zeros((1, 2))
    c = np.zeros((1, 2))
    expected = np.zeros((1, 2, 2, 2))
    for t in range(2):
        x = frames[:, t] @ p["frame_in.w"].data + p["frame_in.b"].data
        z = np.concatenate([x, h], axis=1) @ p["rnn0.gates.w"].data + p["rnn0.gates.b"].data
        i, f, g, o = np.split(z, 4, axis=1)
        c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
        h = sigmoid(o) * np.tanh(c)
        for k in range(2):  # column block k of up is position k's map
            cols = slice(2 * k, 2 * k + 2)
            expected[:, t, k] = h @ p["up.w"].data[:, cols] + p["up.b"].data[cols]
    assert np.allclose(cond.data, expected, atol=1e-12)


def test_frame_tier_state_threading():
    model = init_params(toy_config(seed=17), dtype=np.float64)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 16, (2, 12))
    b = rng.integers(0, 16, (2, 8))
    whole, _ = model.frame_tier_forward(np.hstack([a, b]), model.initial_state(2))
    cond_a, state = model.frame_tier_forward(a, model.initial_state(2))
    cond_b, _ = model.frame_tier_forward(b, state)
    joined = np.concatenate([cond_a.data, cond_b.data], axis=1)
    assert np.allclose(whole.data, joined, atol=1e-12)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("skip", [True, False])
def test_frame_tier_loop_holds_only_the_recurrence(monkeypatch, cell, skip):
    # one more frame records one narrow of the hoisted input and one cell
    # call per layer; every other op runs once per forward
    made = []
    real = ad._node
    monkeypatch.setattr(ad, "_node", lambda *args: made.append(1) or real(*args))

    def ops(fn):
        made.clear()
        fn()
        return len(made)

    model = init_params(toy_config(cell=cell, n_layers=3, skip_connections=skip))
    hid, fs = model.config.hidden_dim, model.config.frame_size
    weights = [model._linear(f"rnn0.{name}") for name, _ in CELL_MAPS[cell]]
    x, h, c = (Tensor(np.zeros((2, hid), dtype=np.float32), requires_grad=True)
               for _ in range(3))
    if cell == "lstm":
        per_cell = ops(lambda: lstm_cell(x, (h, c), *weights))
    else:
        per_cell = ops(lambda: gru_cell(x, h, *weights))
    codes = np.zeros((2, 4 * fs), dtype=np.int64)
    per_t = [ops(lambda t=t: model.frame_tier_forward(codes[:, : t * fs],
                                                      model.initial_state(2)))
             for t in (1, 2, 3, 4)]
    assert np.diff(per_t).tolist() == [1 + 3 * per_cell] * 3


# -- sample tier ----------------------------------------------------------------


def test_sample_tier_logit_width_is_q_levels():
    model = init_params(ModelConfig(q_levels=256, embed_size=8, hidden_dim=16,
                                    n_layers=1, frame_size=4, seed=0))
    logits = model.sample_tier_forward(
        np.zeros(4, dtype=np.int64), Tensor(np.zeros(16, dtype=np.float32))
    )
    assert logits.shape == (256,)


def test_sample_tier_window_sensitivity(rng):
    model = init_params(toy_config(seed=23))
    cond = Tensor(rng.normal(size=(1, 8)).astype(np.float32))
    a = model.sample_tier_forward(np.array([[0, 1, 2, 3]]), cond)
    b = model.sample_tier_forward(np.array([[3, 2, 1, 0]]), cond)
    assert not np.allclose(a.data, b.data)


def test_sample_tier_rejects_bad_window():
    model = init_params(toy_config())
    with pytest.raises(ShapeError):
        model.sample_tier_forward(np.zeros((1, 3), dtype=np.int64), Tensor(np.zeros((1, 8))))


def test_embedding_gradient_hits_only_used_codes():
    model = init_params(toy_config(seed=2), dtype=np.float64)
    windows = np.array([[1, 5, 5, 9]])
    cond = Tensor(np.zeros((1, 8)))
    logits = model.sample_tier_forward(windows, cond)
    model.params.zero_grad()
    loss = ad.sum_all(logits)
    ad.backward(loss)
    grad = model.params["embed"].grad
    used = np.unique(windows)
    nonzero_rows = np.where(np.abs(grad).sum(axis=1) > 0)[0]
    assert set(nonzero_rows) == set(used)


# -- full forward ---------------------------------------------------------------


def test_nll_uniform_with_zeroed_output_layer(rng):
    model = init_params(ModelConfig(q_levels=256, embed_size=4, hidden_dim=8,
                                    n_layers=1, frame_size=4, seed=0))
    model.params["samp.out.g"].data[:] = 0.0
    model.params["samp.out.b"].data[:] = 0.0
    codes = rng.integers(0, 256, (2, 32))
    bits, _ = model_forward_nll(model, codes, model.initial_state(2))
    assert bits == pytest.approx(8.0, abs=1e-6)


def test_nll_batch_permutation_invariant(rng):
    model = init_params(toy_config(seed=5))
    codes = rng.integers(0, 16, (4, 16))
    bits, _ = model_forward_nll(model, codes, model.initial_state(4))
    perm = codes[[2, 0, 3, 1]]
    bits_p, _ = model_forward_nll(model, perm, model.initial_state(4))
    assert bits == pytest.approx(bits_p, abs=1e-6)


def test_forward_rejects_short_cold_segment():
    model = init_params(toy_config())
    with pytest.raises(ContractError):
        model.forward_logits(np.zeros((1, 4), dtype=np.int64), model.initial_state(1))


def test_causality_under_future_perturbation(rng):
    model = init_params(toy_config(seed=29), dtype=np.float64)
    codes = rng.integers(0, 16, (1, 32))
    base = model.forward_logits(codes, model.initial_state(1)).logits_per_position()
    fs = model.config.frame_size
    for t in rng.choice(np.arange(fs, 31), size=10, replace=False):
        mutated = codes.copy()
        mutated[0, t + 1 :] = rng.integers(0, 16, 31 - t)
        out = model.forward_logits(mutated, model.initial_state(1)).logits_per_position()
        # positions up to and including t predict from codes < t only
        upto = t - fs + 1
        assert np.array_equal(out[:, :upto], base[:, :upto])


def test_model_state_threading_full(rng):
    model = init_params(toy_config(seed=31))
    codes = rng.integers(0, 16, (2, 48))
    whole = model.forward_logits(codes, model.initial_state(2)).logits_per_position()
    state = model.initial_state(2)
    parts = []
    for s in range(3):
        out = model.forward_logits(codes[:, s * 16 : (s + 1) * 16], state)
        parts.append(out.logits_per_position())
        state = out.state.detached()
    seg = np.concatenate(parts, axis=1)
    assert np.abs(whole - seg).max() <= 1e-5


def test_randomized_initial_state_equals_block_draws():
    # one Generator for the batch: every h layer as one [B, H] block, then
    # every c layer, exactly as training always drew them
    model = init_params(toy_config(seed=4, n_layers=3, h0_mode="randomized"))
    b, hid = 5, model.config.hidden_dim
    state = model.initial_state(b, rng=np.random.Generator(np.random.PCG64(21)))
    ref = np.random.Generator(np.random.PCG64(21))
    h = [ref.normal(0.0, H0_RANDOM_STD, (b, hid)).astype(np.float32) for _ in range(3)]
    c = [ref.normal(0.0, H0_RANDOM_STD, (b, hid)).astype(np.float32) for _ in range(3)]
    for got, want in zip(state.h + state.c, h + c):
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == want.tobytes()


def test_randomized_initial_state_per_row_streams():
    model = init_params(toy_config(seed=4, h0_mode="randomized"))

    def streams(seeds):
        return [np.random.Generator(np.random.PCG64(s)) for s in seeds]

    pair = model.initial_state(2, rng=streams([7, 8]))
    solo = model.initial_state(1, rng=streams([8]))
    for a, s in zip(pair.h + pair.c, solo.h + solo.c):
        assert np.array_equal(a.data[1:], s.data)
    with pytest.raises(ContractError):
        model.initial_state(3, rng=streams([7, 8]))


# -- init ---------------------------------------------------------------------


def test_init_forget_bias_and_zero_biases():
    model = init_params(toy_config(seed=0))
    h = model.config.hidden_dim
    for l in range(model.config.n_layers):
        b = model.params[f"rnn{l}.gates.b"].data
        assert np.all(b[h : 2 * h] == 3.0)
        assert np.all(b[:h] == 0.0) and np.all(b[2 * h :] == 0.0)
    assert np.all(model.params["samp.out.b"].data == 0.0)
    assert np.all(model.params["h0.h0"].data == 0.0)


def test_init_deterministic_for_seed():
    a = init_params(toy_config(seed=44))
    b = init_params(toy_config(seed=44))
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data)
    c = init_params(toy_config(seed=45))
    assert not np.array_equal(a.params["embed"].data, c.params["embed"].data)


def test_init_weight_norm_starts_as_identity_reparam():
    model = init_params(toy_config(seed=8))
    w = model._weight("samp.h1")
    assert np.allclose(w.data, model.params["samp.h1.v"].data, atol=1e-6)


def test_effective_columns_norm_equals_gain(rng):
    model = init_params(toy_config(seed=12))
    model.params["samp.h1.g"].data[:] = rng.normal(size=8).astype(np.float32)
    w = model._weight("samp.h1")
    assert np.allclose(
        np.linalg.norm(w.data, axis=0), np.abs(model.params["samp.h1.g"].data), atol=1e-6
    )


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("weight_norm", [True, False])
@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("h0_mode", ["learned", "randomized"])
def test_param_table_lists_only_parameters_the_model_reads(cell, weight_norm, skip, h0_mode):
    cfg = toy_config(cell=cell, weight_norm=weight_norm, skip_connections=skip, h0_mode=h0_mode,
                     seed=6)
    model = init_params(cfg, dtype=np.float64)
    table = param_shapes(cfg)
    assert [(name, t.shape) for name, t in model.params.items()] == list(table.items())
    codes = np.random.Generator(np.random.PCG64(2)).integers(0, cfg.q_levels, size=(2, 16))
    out = model.forward_logits(codes, model.initial_state(2, rng=np.random.default_rng(0)))
    ad.backward(ad.softmax_cross_entropy(out.logits, out.targets)[0])
    assert [name for name in table if not np.any(model.params[name].grad)] == []


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("weight_norm", [True, False])
def test_folded_model_is_the_same_function(cell, weight_norm, rng):
    model = init_params(toy_config(cell=cell, weight_norm=weight_norm, seed=9))
    for name, t in model.params.items():
        if name.endswith(".g"):  # gains off the column norms, so folding has work to do
            t.data[:] = rng.uniform(0.5, 2.0, t.shape)
    folded = model.folded()
    assert folded.config == dataclasses.replace(model.config, weight_norm=False)
    table = param_shapes(folded.config)
    assert [(name, t.shape) for name, t in folded.params.items()] == list(table.items())
    assert all(not t.requires_grad and t.grad is None for _, t in folded.params.items())
    assert folded.params["embed"].data is model.params["embed"].data  # shared, not copied
    codes = rng.integers(0, 16, (3, 24))
    with ad.no_grad():
        want = model.forward_logits(codes, model.initial_state(3)).logits.data
        got = folded.forward_logits(codes, folded.initial_state(3)).logits.data
    assert got.tobytes() == want.tobytes()


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(n_layers=10)
    with pytest.raises(ContractError):
        ModelConfig(q_levels=1)
    with pytest.raises(ContractError):
        ModelConfig(cell="elman")
