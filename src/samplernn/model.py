"""Two-tier recurrent sample predictor.

The frame tier consumes non-overlapping windows of `frame_size` quantized
samples (dequantized to real amplitudes), advances a deep LSTM/GRU stack one
step per window, and upsamples each step's output into `frame_size`
conditioning vectors. The sample tier embeds the previous `frame_size`
codes, mixes them with the matching conditioning vector, and emits logits
over the quantization levels.

Carried state is explicit, and `carry_shapes` names it: the recurrent
vectors plus the last frame's codes and conditioning rows, which is exactly
what makes segment-by-segment processing equal to one whole-sequence pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .errors import ContractError, FramingError, ShapeError

CELL_LSTM = "lstm"
CELL_GRU = "gru"
H0_LEARNED = "learned"
H0_RANDOMIZED = "randomized"

# std of per-sequence h0 draws in randomized mode (variance 0.01: small
# enough not to saturate gates)
H0_RANDOM_STD = 0.1


@dataclass
class ModelConfig:
    q_levels: int = 256
    embed_size: int = 256
    hidden_dim: int = 1024
    n_layers: int = 5
    cell: str = CELL_LSTM
    frame_size: int = 16
    sample_rate: int = 16000
    h0_mode: str = H0_LEARNED
    skip_connections: bool = True
    weight_norm: bool = True
    forget_bias_init: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.q_levels < 2:
            raise ContractError(f"q_levels must be >= 2, got {self.q_levels}")
        if self.frame_size < 2:
            raise ContractError(f"frame_size must be >= 2, got {self.frame_size}")
        if not 1 <= self.n_layers <= 9:
            raise ContractError(f"n_layers must be in [1, 9], got {self.n_layers}")
        if self.embed_size < 1 or self.hidden_dim < 1:
            raise ContractError("embed_size and hidden_dim must be >= 1")
        if self.cell not in (CELL_LSTM, CELL_GRU):
            raise ContractError(f"cell must be lstm or gru, got {self.cell!r}")
        if self.h0_mode not in (H0_LEARNED, H0_RANDOMIZED):
            raise ContractError(f"h0_mode must be learned or randomized, got {self.h0_mode!r}")
        if self.sample_rate <= 0:
            raise ContractError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.isfinite(self.forget_bias_init):
            raise ContractError(f"forget_bias_init must be finite, got {self.forget_bias_init}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def quantize(x, q_levels=256):
    """Map amplitudes to integer codes in [0, q_levels) via equal-width bins.

    Values outside [-1, 1] are clamped first; the map is monotone
    non-decreasing. Scalars in, scalar out; arrays in, arrays out.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize requires finite amplitudes")
    arr = np.clip(arr, -1.0, 1.0)
    codes = np.clip(np.floor((arr + 1.0) * (q_levels / 2.0)), 0, q_levels - 1)
    return int(codes) if np.ndim(x) == 0 else codes.astype(np.int64)


def dequantize(codes, q_levels=256):
    """Bin-midpoint amplitude of each code: 2*(code + 0.5)/q_levels - 1."""
    arr = np.asarray(codes)
    if arr.size and (arr.min() < 0 or arr.max() >= q_levels):
        raise IndexError(
            f"code out of range [0, {q_levels}): min={arr.min()}, max={arr.max()}"
        )
    out = 2.0 * (arr + 0.5) / q_levels - 1.0
    return float(out) if np.ndim(codes) == 0 else out


# each cell's recurrent maps, (name, width k) of an [in+H, k*H] affine over
# the concatenated input and hidden vector: the only place they are named
CELL_MAPS = {CELL_LSTM: (("gates", 4),), CELL_GRU: (("zr", 2), ("cand", 1))}


def lstm_cell(x, state, gates):
    """One LSTM step: gate order i, f, g, o along the fused affine output.

    c' = f*c + i*g, h' = o*tanh(c'). gates is a (w, b) pair. Returns (h', c').
    """
    h, c = state
    hidden = h.shape[1]
    z = ad.affine(ad.concat([x, h], axis=1), *gates)
    if z.shape[1] != 4 * hidden:
        raise ShapeError(f"lstm gates shape {z.shape} != [B, {4 * hidden}]")
    i = ad.sigmoid(ad.narrow(z, 1, 0, hidden))
    f = ad.sigmoid(ad.narrow(z, 1, hidden, hidden))
    g = ad.tanh(ad.narrow(z, 1, 2 * hidden, hidden))
    o = ad.sigmoid(ad.narrow(z, 1, 3 * hidden, hidden))
    c2 = ad.add(ad.mul(f, c), ad.mul(i, g))
    h2 = ad.mul(o, ad.tanh(c2))
    return h2, c2


def gru_cell(x, h, zr, cand):
    """One GRU step: h' = (1-z)*h + z*h~ with h~ = tanh(W [x, r*h] + b)."""
    hidden = h.shape[1]
    gates = ad.affine(ad.concat([x, h], axis=1), *zr)
    if gates.shape[1] != 2 * hidden:
        raise ShapeError(f"gru update/reset shape {gates.shape} != [B, {2 * hidden}]")
    z = ad.sigmoid(ad.narrow(gates, 1, 0, hidden))
    r = ad.sigmoid(ad.narrow(gates, 1, hidden, hidden))
    h_new = ad.tanh(ad.affine(ad.concat([x, ad.mul(r, h)], axis=1), *cand))
    return ad.add(ad.mul(ad.scale_shift(z, -1.0, 1.0), h), ad.mul(z, h_new))


def carry_shapes(config, batch, dtype):
    """Ordered name -> (shape, dtype) of a warm carried state, the only place
    carry names are written: each layer's h, then its c for LSTM, then the
    last frame's codes and conditioning. ModelState converts through it, and
    a checkpoint's carry records are checked against it."""
    hid, fs, layers = config.hidden_dim, config.frame_size, range(config.n_layers)
    cells = "hc" if config.cell == CELL_LSTM else "h"
    shapes = {f"{s}{l}": ((batch, hid), dtype) for s in cells for l in layers}
    shapes["prev_codes"] = ((batch, fs), np.dtype(np.int64))
    shapes["prev_cond"] = ((batch, fs, hid), dtype)
    return shapes


@dataclass
class ModelState:
    """Everything carried between consecutive segments of one sequence: the
    per-layer recurrent vectors, batch-major, and once warm the last frame's
    codes and conditioning rows."""

    h: list
    c: list | None = None  # LSTM only
    prev_codes: np.ndarray | None = None  # [B, frame_size] int64
    prev_cond: np.ndarray | None = None  # [B, frame_size, hidden] values

    @property
    def warm(self):
        return self.prev_codes is not None

    def detached(self):
        return replace(self, h=[t.detach() for t in self.h],
                       c=None if self.c is None else [t.detach() for t in self.c])

    def arrays(self, config):
        """A warm state as {carry_shapes name: array}, sharing its arrays."""
        values = [t.data for t in self.h + (self.c or [])] + [self.prev_codes, self.prev_cond]
        return dict(zip(carry_shapes(config, len(self.prev_codes), self.prev_cond.dtype), values))

    @classmethod
    def from_arrays(cls, config, arrays):
        """The warm state whose entries are `arrays`, keyed and ordered as
        carry_shapes; it adopts the arrays as they are."""
        *rnn, prev_codes, prev_cond = arrays.values()
        rnn = [Tensor(a) for a in rnn]
        return cls(rnn[: config.n_layers], rnn[config.n_layers :] or None, prev_codes, prev_cond)


@dataclass
class ForwardResult:
    logits: Tensor  # [B*P, q_levels]
    targets: np.ndarray  # [B*P]
    batch: int
    count: int  # P = predicted positions per row
    state: ModelState

    def logits_per_position(self):
        """Values reshaped to [B, P, q_levels]."""
        b, p = self.batch, self.count
        return self.logits.data.reshape(b, p, -1)


class SampleRnnModel:
    """Parameter store plus configuration for the two-tier architecture."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @property
    def dtype(self):
        return self.params["embed"].dtype

    # -- parameter plumbing -------------------------------------------------

    def _weight(self, name):
        if self.config.weight_norm:
            return ad.weight_norm_apply(self.params[name + ".v"], self.params[name + ".g"])
        return self.params[name + ".w"]

    def _linear(self, name):
        return self._weight(name), self.params[name + ".b"]

    def folded(self):
        """The same function as a weight_norm=False model whose name.w entries
        are the effective weights, computed once; every other entry shares
        this model's array. No entry is trainable or holds a gradient."""
        config, params = replace(self.config, weight_norm=False), ParamStore()
        with ad.no_grad():
            for name in param_shapes(config):
                t = self._weight(name[:-2]) if name.endswith(".w") else self.params[name]
                params.add(name, t.data, trainable=False)
        return SampleRnnModel(config, params)

    # -- state --------------------------------------------------------------

    def initial_state(self, batch_size, rng=None):
        """Cold state: h0 per layer, no code history, no conditioning.

        learned mode broadcasts the trainable h0 vectors (gradients flow
        back into them); randomized mode draws N(0, 0.01) rows from `rng`,
        either one Generator for every row or a sequence of per-row
        Generators. Every layer's h rows are drawn before any layer's c
        rows, one row at a time, which for a single Generator equals one
        [batch_size, hidden] block draw per layer.
        """
        cfg = self.config
        if cfg.h0_mode == H0_LEARNED:
            def h0(name):
                return ad.tile_rows(self.params[name], batch_size)
        else:
            if rng is None:
                raise ContractError("randomized h0 needs an rng stream")
            rows = [rng] * batch_size if isinstance(rng, np.random.Generator) else list(rng)
            if len(rows) != batch_size:
                raise ContractError(f"{len(rows)} h0 streams for a batch of {batch_size}")

            def h0(name):  # drawn, not read from params
                return Tensor(np.stack([
                    g.normal(0.0, H0_RANDOM_STD, cfg.hidden_dim) for g in rows
                ]).astype(self.dtype))
        h = [h0(f"h0.h{l}") for l in range(cfg.n_layers)]
        c = [h0(f"h0.c{l}") for l in range(cfg.n_layers)] if cfg.cell == CELL_LSTM else None
        return ModelState(h, c)

    # -- frame tier ---------------------------------------------------------

    def frame_tier_forward(self, codes, state):
        """Advance the stack one step per frame of codes from state's h and c.

        codes: int [B, T*frame_size]. Returns (conditioning [B, T, frame_size,
        hidden] as a Tensor, the cold ModelState after the last frame). Only
        the recurrence runs frame by frame: the input map runs once over all
        B*T frames before the loop, and each layer's skip map and the
        upsampler once over all frames after it. The upsampler is one [hidden,
        frame_size*hidden] map whose column block k is intra-frame position
        k's linear map.
        """
        cfg = self.config
        hid = cfg.hidden_dim
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] == 0 or codes.shape[1] % cfg.frame_size:
            raise FramingError(
                f"frame input length {codes.shape} not divisible by frame_size={cfg.frame_size}"
            )
        b = codes.shape[0]
        t_steps = codes.shape[1] // cfg.frame_size
        frames = dequantize(codes, cfg.q_levels).astype(self.dtype).reshape(
            b * t_steps, cfg.frame_size
        )
        # batch-major rows: frame t of row i is x_in[i, t*hid:(t+1)*hid]
        x_in = ad.reshape(ad.affine(Tensor(frames), *self._linear("frame_in")),
                          (b, t_steps * hid))
        maps = CELL_MAPS[cfg.cell]
        cells = [[self._linear(f"rnn{l}.{name}") for name, _ in maps] for l in range(cfg.n_layers)]

        h = list(state.h)
        c = list(state.c) if state.c is not None else None
        outs = [[] for _ in range(cfg.n_layers)]
        for t in range(t_steps):
            x = ad.narrow(x_in, 1, t * hid, hid)
            for l in range(cfg.n_layers):
                if cfg.cell == CELL_LSTM:
                    h[l], c[l] = lstm_cell(x, (h[l], c[l]), *cells[l])
                else:
                    h[l] = gru_cell(x, h[l], *cells[l])
                x = h[l]
                outs[l].append(x)

        def over_frames(l):  # layer l's outputs as [B*T, hid], batch-major
            return ad.reshape(ad.concat(outs[l], axis=1), (b * t_steps, hid))

        if cfg.skip_connections:
            out = None
            for l in range(cfg.n_layers):
                proj = ad.affine(over_frames(l), *self._linear(f"skip{l}"))
                out = proj if out is None else ad.add(out, proj)
        else:
            out = over_frames(cfg.n_layers - 1)
        cond = ad.reshape(ad.affine(out, *self._linear("up")),
                          (b, t_steps, cfg.frame_size, hid))
        return cond, ModelState(h, c)

    # -- sample tier ----------------------------------------------------------

    def sample_tier_forward(self, windows, cond):
        """Logits over codes from a window of previous codes plus conditioning.

        windows: int [..., frame_size]; cond: Tensor [..., hidden] with the
        same leading shape. Returns logits [..., q_levels].
        """
        cfg = self.config
        windows = np.asarray(windows)
        if windows.shape[-1] != cfg.frame_size:
            raise ShapeError(
                f"window length {windows.shape[-1]} != frame_size {cfg.frame_size}"
            )
        lead = windows.shape[:-1]
        if tuple(cond.shape[:-1]) != lead or cond.shape[-1] != cfg.hidden_dim:
            raise ShapeError(f"conditioning shape {cond.shape} does not match windows {windows.shape}")
        n = int(np.prod(lead, dtype=np.int64)) if lead else 1

        emb = ad.reshape(
            ad.embedding(self.params["embed"], windows.reshape(n, cfg.frame_size)),
            (n, cfg.frame_size * cfg.embed_size),
        )
        u = ad.add(
            ad.affine(emb, *self._linear("samp.in")),
            ad.reshape(cond, (n, cfg.hidden_dim)),
        )
        h1 = ad.relu(ad.affine(u, *self._linear("samp.h1")))
        h2 = ad.relu(ad.affine(h1, *self._linear("samp.h2")))
        logits = ad.affine(h2, *self._linear("samp.out"))
        return ad.reshape(logits, lead + (cfg.q_levels,))

    # -- full forward ---------------------------------------------------------

    def forward_logits(self, codes, state):
        """Teacher-forced logits for every predictable position of a segment.

        A warm state's carried frame is a one-frame prefix on the codes and
        on the conditioning, so only a cold state skips its first frame_size
        positions. The new state's prev_codes are int64, as carry_shapes
        types them, whatever int type the codes come in.
        """
        cfg = self.config
        fs = cfg.frame_size
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ShapeError(f"codes must be [B, L], got {codes.shape}")
        b, length = codes.shape
        if length % fs:
            raise FramingError(f"segment length {length} not divisible by frame_size {fs}")
        if not state.warm and length < 2 * fs:
            raise ContractError(
                f"cold segment needs at least {2 * fs} samples, got {length}"
            )

        cond, cold = self.frame_tier_forward(codes, state)
        t_steps = length // fs
        usable = ad.narrow(cond, 1, 0, t_steps - 1)  # frame t conditions frame t+1
        ext = codes
        if state.warm:
            prev = ad.reshape(Tensor(state.prev_cond), (b, 1, fs, cfg.hidden_dim))
            usable = ad.concat([prev, usable], axis=1)
            ext = np.concatenate([state.prev_codes, codes], axis=1)

        count = ext.shape[1] - fs
        cond_flat = ad.reshape(usable, (b * count, cfg.hidden_dim))
        # position t of ext is predicted from the window ext[:, t-fs : t)
        wins = np.lib.stride_tricks.sliding_window_view(ext, fs, axis=1)[:, :count]
        logits = self.sample_tier_forward(wins.reshape(b * count, fs), cond_flat)
        targets = ext[:, fs:].reshape(-1)

        new_state = replace(
            cold, prev_codes=codes[:, -fs:].astype(np.int64), prev_cond=cond.data[:, -1].copy()
        )
        return ForwardResult(logits, targets, b, count, new_state)


def model_forward_nll(model, codes, state):
    """Mean teacher-forced NLL in bits/sample over a segment; no gradients.

    Returns (bits, detached new state).
    """
    with ad.no_grad():
        out = model.forward_logits(codes, state)
        loss, _ = ad.softmax_cross_entropy(out.logits, out.targets)
    return float(loss.data) / np.log(2.0), out.state.detached()


# ---------------------------------------------------------------------------
# initialization


def _uniform_fan(rng, shape, dtype, blocks=1):
    """uniform(-a, a), a = sqrt(6/(fan_in+fan_out)), for `blocks` maps side
    by side: each [fan_in, fan_out] block is drawn in turn, as if it were its
    own map, and cast straight into its columns."""
    fan_in, fan_out = shape[0], shape[1] // blocks
    a = np.sqrt(6.0 / (fan_in + fan_out))
    if blocks == 1:
        return rng.uniform(-a, a, shape).astype(dtype)
    arr = np.empty(shape, dtype=dtype)
    for k in range(blocks):
        arr[:, k * fan_out : (k + 1) * fan_out] = rng.uniform(-a, a, (fan_in, fan_out))
    return arr


def param_shapes(config):
    """Ordered name -> shape of every parameter the model reads: the only
    place they are written. init_params draws in this order, and a
    checkpoint load checks its records against it."""
    cfg, h, layers = config, config.hidden_dim, range(config.n_layers)
    lstm = cfg.cell == CELL_LSTM
    maps = [("frame_in", cfg.frame_size, h)]  # (name, fan_in, fan_out) per linear map
    maps += [(f"rnn{l}.{name}", 2 * h, k * h) for l in layers for name, k in CELL_MAPS[cfg.cell]]
    maps += [(f"skip{l}", h, h) for l in layers if cfg.skip_connections]
    maps += [("up", h, cfg.frame_size * h)]  # column block k: position k's map
    maps += [("samp.in", cfg.frame_size * cfg.embed_size, h), ("samp.h1", h, h),
             ("samp.h2", h, h), ("samp.out", h, cfg.q_levels)]
    shapes = {"embed": (cfg.q_levels, cfg.embed_size)}
    for name, fan_in, fan_out in maps:
        shapes[name + (".v" if cfg.weight_norm else ".w")] = (fan_in, fan_out)
        if cfg.weight_norm:
            shapes[name + ".g"] = (fan_out,)
        shapes[name + ".b"] = (fan_out,)
    if cfg.h0_mode == H0_LEARNED:
        shapes.update({f"h0.{s}{l}": (h,) for l in layers for s in ("hc" if lstm else "h")})
    return shapes


def init_params(config, dtype=np.float32):
    """Build a SampleRnnModel with freshly initialized parameters, drawn in
    param_shapes order. Weights (the 2-D entries) draw from uniform(-a, a),
    a = sqrt(6/(fan_in+fan_out)); biases start at zero except LSTM forget
    gates (forget_bias_init); with weight norm enabled the gains start at the
    column norms so the effective weight equals the drawn direction matrix.
    The upsampler draws each position's [hidden, hidden] column block as its
    own map. Deterministic for a fixed seed.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = ParamStore()
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            blocks = config.frame_size if name.startswith("up.") else 1
            arr = _uniform_fan(rng, shape, dtype, blocks)
        elif name.endswith(".g"):
            v = params[name[: -len(".g")] + ".v"].data
            arr = np.sqrt(np.einsum("ij,ij->j", v, v)).astype(dtype)  # as weight_norm_apply
        else:
            arr = np.zeros(shape, dtype=dtype)
            if name.endswith(".gates.b"):
                arr[shape[0] // 4 : shape[0] // 2] = config.forget_bias_init
        params.add(name, arr)
    return SampleRnnModel(config, params)
