#!/usr/bin/env python3
"""Audio ingest walkthrough: WAV round trips, the 256-level quantizer, and
corpus chunking with a persisted split manifest.

Run from the repository root:  python3 demos/01_audio_and_quantization.py
"""

import atexit
import os
import shutil
import tempfile

import numpy as np

from samplernn import (
    AudioBuffer,
    chunk_corpus,
    dequantize,
    quantize,
    read_wav,
    save_manifest,
    split_dataset,
    write_wav,
)

workdir = tempfile.mkdtemp(prefix="samplernn_demo_")
atexit.register(shutil.rmtree, workdir, ignore_errors=True)
sr = 16000

print("=== 16-bit WAV round trip ===")
t = np.arange(sr) / sr
tone = 0.8 * np.sin(2 * np.pi * 440.0 * t)
path = os.path.join(workdir, "tone.wav")
write_wav(AudioBuffer(tone, sr), path)
back = read_wav(path)
err = np.abs(back.samples - tone.astype(np.float32)).max()
print(f"wrote {len(tone)} samples, max round-trip error {err:.2e} (half a PCM step)")

print("\n=== linear quantizer ===")
probes = [-1.0, -0.5, 0.0, 0.5, 1.0]
for x in probes:
    c = quantize(x)
    print(f"  amplitude {x:+.2f} -> code {c:3d} -> midpoint {dequantize(c):+.5f}")
codes = np.arange(256)
assert np.array_equal(quantize(dequantize(codes)), codes)
print("all 256 codes are fixed points of quantize(dequantize(.))")
grid = np.linspace(-1, 1, 10_000)
print(f"max |dequantize(quantize(x)) - x| on a grid: {np.abs(dequantize(quantize(grid)) - grid).max():.5f}"
      f" (bound 1/256 = {1/256:.5f})")

print("\n=== chunking and splits ===")
long_path = os.path.join(workdir, "long.wav")
write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 220.0 * np.arange(sr * 50) / sr), sr), long_path)
chunks, manifest = chunk_corpus([long_path], chunk_seconds=2.0, sample_rate=sr)
print(f"50 s corpus at 2 s/chunk -> {len(chunks)} chunks of {manifest.chunk_length_samples} samples")
manifest = split_dataset(manifest, (0.88, 0.06, 0.06), seed=7)
print("split sizes:", manifest.split_sizes())
manifest_path = os.path.join(workdir, "manifest.tsv")
save_manifest(manifest, manifest_path)
with open(manifest_path) as fh:
    head = [next(fh).rstrip() for _ in range(3)]
print("manifest head:")
for line in head:
    print("  " + line)
