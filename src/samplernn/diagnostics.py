"""Operational health checks on generated clips.

Two failure modes matter in practice: a run that only produces broadband
noise (restart it), and a checkpoint whose clips cycle the same short figure
forever (skip it for long generations). Spectral flatness catches the first,
a long-lag autocorrelation peak the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

FLATNESS_WINDOW = 2048
FLATNESS_THRESHOLD = 0.5
TRAP_THRESHOLD = 0.8
TRAP_MIN_LAG_S = 0.25
TRAP_MAX_LAG_S = 8.0
# shortest lag treated as tonal periodicity rather than signal smoothness
TONAL_MIN_LAG_S = 0.0005

FLAG_WHITE_NOISE = "white_noise_suspect"
FLAG_TRAP = "trap_suspect"


@dataclass
class DiagnosticsReport:
    clip: str
    flatness: float
    ac_peak: float
    ac_lag_s: float
    flags: tuple

    def line(self):
        return (
            f"clip={self.clip} flatness={self.flatness:.4f} "
            f"ac_peak={self.ac_peak:.4f} ac_lag_s={self.ac_lag_s:.3f} "
            f"flags={','.join(self.flags)}"
        )


def spectral_flatness(buffer, window=FLATNESS_WINDOW):
    """Geometric/arithmetic mean ratio of the averaged power spectrum.

    Power spectra of Hann windows (50% overlap) are averaged Welch-style
    before the ratio, so white noise scores near 1 and a pure tone near 0.
    Silence is defined as 0: it is not noise.
    """
    x = np.asarray(buffer.samples, dtype=np.float64)
    if x.size < window:
        raise ContractError(f"clip of {x.size} samples shorter than window {window}")
    if np.max(np.abs(x)) == 0.0:
        return 0.0
    hop = window // 2
    taper = np.hanning(window)
    n_frames = (x.size - window) // hop + 1
    power = np.zeros(window // 2 + 1)
    for i in range(n_frames):
        frame = x[i * hop : i * hop + window] * taper
        spec = np.fft.rfft(frame)
        power += np.abs(spec) ** 2
    power /= n_frames
    amean = power.mean()
    floored = np.maximum(power, amean * 1e-12)
    gmean = np.exp(np.mean(np.log(floored)))
    return float(gmean / amean)


def _autocorr_curve(x, max_lag):
    """Normalized autocorrelation r(tau) for tau in [0, max_lag].

    r(tau) = sum x[t] x[t+tau] / sqrt(E_head E_tail) over the overlap, which
    keeps every value in [-1, 1] regardless of lag.
    """
    n = x.size
    m = 1 << int(np.ceil(np.log2(n + max_lag + 1)))
    spec = np.fft.rfft(x, m)
    raw = np.fft.irfft(spec * np.conj(spec), m)[: max_lag + 1]
    sq = np.cumsum(x * x)
    total = sq[-1]
    lags = np.arange(max_lag + 1)
    e_head = sq[n - 1 - lags]
    e_tail = total - np.concatenate(([0.0], sq[lags[1:] - 1]))
    denom = np.sqrt(e_head * e_tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, raw / denom, 0.0)
    return np.clip(r, -1.0, 1.0)


def detect_loop_trap(buffer, min_lag=TRAP_MIN_LAG_S, max_lag=TRAP_MAX_LAG_S):
    """Peak normalized autocorrelation of the mean-removed clip.

    Scans lags in [min_lag, max_lag] seconds and returns (peak, lag_seconds).
    A constant clip is defined as (0, 0): its mean-removed signal is zero.
    """
    sr = buffer.sample_rate
    x = np.asarray(buffer.samples, dtype=np.float64)
    lag0 = max(1, int(round(min_lag * sr)))
    lag1 = int(round(max_lag * sr))
    if lag1 >= x.size / 2:
        raise ContractError(
            f"max_lag {max_lag}s needs a clip longer than {2 * max_lag}s, got {x.size / sr:.2f}s"
        )
    if lag1 <= lag0:
        raise ContractError(f"empty lag window [{min_lag}, {max_lag}]s")
    x = x - x.mean()
    if np.max(np.abs(x)) == 0.0:
        return 0.0, 0.0
    r = _autocorr_curve(x, lag1)
    window = r[lag0 : lag1 + 1]
    best = int(np.argmax(window))
    return float(window[best]), (lag0 + best) / sr


def tonal_peak(buffer, min_lag=TRAP_MIN_LAG_S):
    """Peak autocorrelation over sub-riff lags (tone periods).

    High values mean the clip is short-period periodic -- a tone -- so a high
    long-lag peak is just that periodicity repeating, not a trapped riff.
    """
    sr = buffer.sample_rate
    x = np.asarray(buffer.samples, dtype=np.float64)
    x = x - x.mean()
    if np.max(np.abs(x)) == 0.0:
        return 0.0
    lag0 = max(2, int(round(TONAL_MIN_LAG_S * sr)))
    lag1 = int(round(min_lag * sr)) - 1
    if lag1 <= lag0:
        return 0.0
    r = _autocorr_curve(x, lag1)
    return float(np.max(r[lag0 : lag1 + 1]))


def diagnose_clip(
    buffer,
    clip_name="",
    flatness_threshold=FLATNESS_THRESHOLD,
    trap_threshold=TRAP_THRESHOLD,
    min_lag=TRAP_MIN_LAG_S,
    max_lag=TRAP_MAX_LAG_S,
):
    """Full report for one clip: flatness, trap peak/lag, and flags.

    trap_suspect requires the long-lag peak to exceed the threshold *without*
    an equally strong tone-period correlation explaining it; pure tones
    repeat at every multiple of their period and are not riff traps.
    """
    # comparisons that NaN fails, so a NaN is refused with the rest
    if not 0 <= min_lag < max_lag:
        raise ContractError(f"lags need 0 <= min_lag < max_lag, got min_lag={min_lag} max_lag={max_lag}")
    if np.isnan([flatness_threshold, trap_threshold]).any():
        raise ContractError(
            f"flatness_threshold={flatness_threshold} trap_threshold={trap_threshold}: not a number"
        )
    flatness = spectral_flatness(buffer)
    max_ok = min(max_lag, (len(buffer) // 2 - 1) / buffer.sample_rate)
    if max_ok > min_lag:
        peak, lag = detect_loop_trap(buffer, min_lag, max_ok)
    else:
        peak, lag = 0.0, 0.0  # clip too short to scan for riff repeats
    flags = []
    if flatness > flatness_threshold:
        flags.append(FLAG_WHITE_NOISE)
    if peak > trap_threshold and tonal_peak(buffer, min_lag) <= trap_threshold:
        flags.append(FLAG_TRAP)
    return DiagnosticsReport(clip_name, flatness, peak, lag, tuple(flags))
