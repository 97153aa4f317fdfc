"""Two-tier recurrent raw-audio generation: data prep, training, sampling."""

__version__ = "0.1.0"  # before the imports: training writes it into run logs

from .audio import (
    AudioBuffer,
    ChunkManifest,
    chunk_corpus,
    load_manifest,
    read_wav,
    save_manifest,
    split_dataset,
    write_wav,
)
from .autodiff import ParamStore, Tape, Tensor, backward, no_grad
from .checkpoint import (
    Checkpoint,
    checkpoint_path,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .config import RunConfig, TrainConfig, build_run_config, load_config_file
from .diagnostics import (
    DiagnosticsReport,
    detect_loop_trap,
    diagnose_clip,
    spectral_flatness,
)
from .generate import (
    GenConfig,
    checkpoint_generation_schedule,
    generate_batch,
    sample_categorical,
    sequence_stream,
)
from .gradcheck import GradCheckReport, grad_check, standard_checks
from .model import (
    ModelConfig,
    ModelState,
    SampleRnnModel,
    dequantize,
    gru_cell,
    init_params,
    lstm_cell,
    model_forward_nll,
    quantize,
)
from .training import (
    Adam,
    ChunkDataset,
    clip_gradients,
    tbptt_step,
    train_loop,
    validate,
)

__all__ = [
    "Adam",
    "AudioBuffer",
    "Checkpoint",
    "ChunkDataset",
    "ChunkManifest",
    "DiagnosticsReport",
    "GenConfig",
    "GradCheckReport",
    "ModelConfig",
    "ModelState",
    "ParamStore",
    "RunConfig",
    "SampleRnnModel",
    "Tape",
    "Tensor",
    "TrainConfig",
    "backward",
    "build_run_config",
    "checkpoint_generation_schedule",
    "checkpoint_path",
    "chunk_corpus",
    "clip_gradients",
    "dequantize",
    "detect_loop_trap",
    "diagnose_clip",
    "generate_batch",
    "grad_check",
    "gru_cell",
    "init_params",
    "load_checkpoint",
    "load_config_file",
    "load_manifest",
    "lstm_cell",
    "model_forward_nll",
    "model_from_checkpoint",
    "no_grad",
    "quantize",
    "read_wav",
    "sample_categorical",
    "save_checkpoint",
    "save_manifest",
    "sequence_stream",
    "spectral_flatness",
    "split_dataset",
    "standard_checks",
    "tbptt_step",
    "train_loop",
    "validate",
    "write_wav",
]
