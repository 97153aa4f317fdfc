"""Command-line pipeline: chunk, split, train, generate, diagnose, gradcheck.

Exit codes: 0 success, 1 a failed gradcheck group, 2 usage or input error,
3 training divergence.
Commands coordinate only through files (manifest, checkpoints, WAVs), and
every run is reproducible from its echoed configuration.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from . import audio
from .autodiff import ParamStore
from .config import build_run_config
from .diagnostics import diagnose_clip
from .errors import ContractError, DivergenceError, EmptyCorpusError, SampleRnnError
from .generate import GenConfig, checkpoint_generation_schedule, write_checkpoint_clips
from .gradcheck import standard_checks
from .model import SampleRnnModel, init_params
from .training import ChunkDataset, train_loop

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3


def _parse_ratios(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be train,test,validation")
    return tuple(parts)


def _print_split_sizes(manifest):
    sizes = manifest.split_sizes()
    print(f"train={sizes['train']} test={sizes['test']} val={sizes['validation']}")


def cmd_chunk(args):
    files = sorted(glob.glob(os.path.join(args.corpus_dir, "*.wav")))
    if not files:
        raise EmptyCorpusError(f"no WAV files in {args.corpus_dir}")
    _, manifest = audio.chunk_corpus(
        files, args.chunk_seconds, args.rate, corpus_id=args.corpus_id
    )
    manifest = audio.split_dataset(manifest, args.ratios, args.seed)
    audio.save_manifest(manifest, args.manifest)
    _print_split_sizes(manifest)
    return EXIT_OK


def cmd_split(args):
    manifest = audio.load_manifest(args.manifest)
    manifest = audio.split_dataset(manifest, args.ratios, args.seed)
    audio.save_manifest(manifest, args.out or args.manifest)
    _print_split_sizes(manifest)
    return EXIT_OK


_TRAIN_OVERRIDES = {
    "layers": "model.n_layers",
    "cell": "model.cell",
    "dim": "model.hidden_dim",
    "embed": "model.embed_size",
    "frame": "model.frame_size",
    "q_levels": "model.q_levels",
    "rate": "model.sample_rate",
    "h0_mode": "model.h0_mode",
    "model_seed": "model.seed",
    "batch": "train.batch_size",
    "tbptt": "train.tbptt_len",
    "lr": "train.lr",
    "clip_norm": "train.clip_norm",
    "iters": "train.max_iterations",
    "checkpoint_every": "train.checkpoint_every",
    "validate_every": "train.validate_every",
    "seed": "train.seed",
}


def cmd_train(args):
    overrides = {key: getattr(args, attr) for attr, key in _TRAIN_OVERRIDES.items()}
    run = build_run_config(args.preset, args.config, overrides)

    manifest = audio.load_manifest(args.manifest)
    dataset = ChunkDataset(manifest, run.model.q_levels, run.model.sample_rate)
    train_codes = dataset.codes("train")
    val_codes = dataset.codes("validation")
    del dataset  # only the codes live through training

    # a fresh run draws its parameters; a resume takes its whole run from the
    # checkpoint, refusing a changed config, so its model only carries this one
    model = init_params(run.model) if args.resume is None else SampleRnnModel(run.model, ParamStore())
    metrics = args.metrics or os.path.join(args.ckpt_dir, "metrics.log")
    try:
        result = train_loop(
            model,
            run.train,
            train_codes,
            val_codes,
            args.ckpt_dir,
            metrics_path=metrics,
            header_lines=run.echo_lines(),
            resume_from=args.resume,
        )
    except DivergenceError as exc:
        print(
            f"error: diverged at iteration {exc.iteration}; "
            f"last good checkpoint: {exc.last_checkpoint}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    if result.metrics:
        last = result.metrics[-1]
        print(f"done: {last.line()}")
    print(f"final checkpoint: {result.final_checkpoint}")
    return EXIT_OK


def cmd_generate(args):
    cfg = GenConfig(
        n_seq=args.n_seq,
        clip_seconds=args.seconds,
        temperature=args.temperature,
        mode="argmax" if args.argmax else "softmax_sample",
        seed=args.seed,
    )
    if args.ckpt_dir:
        reports = checkpoint_generation_schedule(args.ckpt_dir, cfg, args.out_dir)
    else:
        reports = write_checkpoint_clips(args.ckpt, cfg, args.out_dir)
    for report in reports:
        print(report.line())
    print(f"wrote {len(reports)} clip(s) to {args.out_dir}")
    return EXIT_OK


def cmd_diagnose(args):
    for path in args.wavs:
        buf = audio.read_wav(path)
        try:
            report = diagnose_clip(
                buf,
                clip_name=os.path.basename(path),
                flatness_threshold=args.flatness_threshold,
                trap_threshold=args.trap_threshold,
                min_lag=args.min_lag,
                max_lag=args.max_lag,
            )
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None
        print(report.line())
    return EXIT_OK  # diagnostics inform, they do not gate


def cmd_gradcheck(args):
    reports = standard_checks(tolerance=args.tolerance, seed=args.seed)
    for r in reports:
        print(r.line())
    failures = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failures)}/{len(reports)} parameter groups passed")
    return EXIT_OK if not failures else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="samplernn",
        description="Raw-audio corpus chunking, two-tier RNN training, and batched generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chunk", help="slice a WAV corpus into chunks and split it")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--manifest", required=True, help="output manifest path")
    p.add_argument("--chunk-seconds", type=float, default=8.0)
    p.add_argument("--rate", type=int, default=16000)
    p.add_argument("--ratios", type=_parse_ratios, default=(0.88, 0.06, 0.06))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus-id", default="corpus")
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("split", help="re-assign dataset splits in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="output path (default: overwrite input)")
    p.add_argument("--ratios", type=_parse_ratios, default=(0.88, 0.06, 0.06))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="truncated-BPTT training with checkpoints")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--metrics", help="metrics log path (default: <ckpt-dir>/metrics.log)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--preset", choices=["paper", "desk"])
    p.add_argument("--resume", help="checkpoint to resume from")
    # values stay text: the config parser types and checks them
    for attr, key in _TRAIN_OVERRIDES.items():
        p.add_argument("--" + attr.replace("_", "-"), dest=attr, help=f"sets {key}")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample clips from checkpoints")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ckpt", help="a single checkpoint file")
    src.add_argument("--ckpt-dir", help="generate for every checkpoint in a directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-seq", type=int, default=10, dest="n_seq")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--argmax", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("diagnose", help="flatness and loop-trap report for WAV clips")
    p.add_argument("wavs", nargs="+")
    p.add_argument("--flatness-threshold", type=float, default=0.5)
    p.add_argument("--trap-threshold", type=float, default=0.8)
    p.add_argument("--min-lag", type=float, default=0.25)
    p.add_argument("--max-lag", type=float, default=8.0)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyCorpusError as exc:
        print(f"error: empty-corpus ({exc})", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"error: diverged ({exc})", file=sys.stderr)
        return EXIT_DIVERGED
    except (SampleRnnError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
