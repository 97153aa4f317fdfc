#!/usr/bin/env python3
"""End-to-end walkthrough at desk scale: synthesize a sine corpus, chunk and
split it, train the two-tier model with truncated BPTT, then sample clips
from the checkpoint and read their diagnostics.

Takes about a minute on one CPU core.
Run:  python3 demos/03_train_sine_and_generate.py
"""

import atexit
import os
import shutil
import tempfile

import numpy as np

from samplernn import (
    AudioBuffer,
    ChunkDataset,
    GenConfig,
    build_run_config,
    chunk_corpus,
    diagnose_clip,
    generate_batch,
    init_params,
    split_dataset,
    train_loop,
    write_wav,
)

workdir = tempfile.mkdtemp(prefix="samplernn_demo_")
atexit.register(shutil.rmtree, workdir, ignore_errors=True)
sr = 16000

print("=== corpus: 60 seconds of a 440 Hz sine ===")
t = np.arange(sr * 60) / sr
corpus_path = os.path.join(workdir, "sine.wav")
write_wav(AudioBuffer(0.8 * np.sin(2 * np.pi * 440.0 * t), sr), corpus_path)
_, manifest = chunk_corpus([corpus_path], chunk_seconds=2.0, sample_rate=sr)
manifest = split_dataset(manifest, (0.88, 0.06, 0.06), seed=0)
print("split sizes:", manifest.split_sizes())

print("\n=== training (desk preset, shortened) ===")
run = build_run_config(preset="desk")
cfg = run.train
cfg.max_iterations = 300
cfg.validate_every = 50
cfg.checkpoint_every = 300
dataset = ChunkDataset(manifest, run.model.q_levels)
model = init_params(run.model)
result = train_loop(model, cfg, dataset.codes("train"), dataset.codes("validation"),
                    os.path.join(workdir, "ckpts"),
                    metrics_path=os.path.join(workdir, "metrics.log"))
for m in result.metrics:
    print(" ", m.line())
print("checkpoint:", result.final_checkpoint)

print("\n=== batched argmax generation ===")
clips = generate_batch(model, GenConfig(n_seq=2, clip_seconds=2.0, mode="argmax", seed=3))
for k, clip in enumerate(clips):
    out = os.path.join(workdir, f"clip{k}.wav")
    write_wav(clip, out)
    spectrum = np.abs(np.fft.rfft(clip.samples[:8192]))
    peak = int(np.argmax(spectrum[1:])) + 1
    print(f"  clip {k}: dominant FFT peak {peak * sr / 8192:.1f} Hz "
          f"(bin {peak}, 440 Hz sits at bin {440 * 8192 / sr:.2f})")
    print("   ", diagnose_clip(clip, os.path.basename(out)).line())

