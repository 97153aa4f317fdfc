"""Smoke test of the demos: each runs to exit 0 and leaves no work directory.

Demo 03 trains for 300 iterations (about 16 s on one core), so it is left to
be run by hand: python3 demos/03_train_sine_and_generate.py
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", [
    "01_audio_and_quantization.py",
    "02_autodiff_and_gradcheck.py",
    "04_sampling_and_diagnostics.py",
])
def test_demo_runs_and_cleans_up(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []
