"""PCM audio ingest, corpus chunking, and dataset split bookkeeping.

Canonical interchange format is 16-bit mono PCM WAV, little-endian. Chunking
slices each source file into contiguous non-overlapping fixed-length pieces
(trailing remainder discarded) and records provenance in a plain-text
manifest so every chunk can be re-read from its source.
"""

from __future__ import annotations

import io
import math
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AudioFormatError,
    ContractError,
    EmptyCorpusError,
    InsufficientDataError,
    RateMismatchError,
    UnsupportedFormatError,
)

SPLIT_TAGS = ("train", "test", "validation")


@dataclass
class AudioBuffer:
    """Mono samples in [-1, 1] with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise ContractError(f"AudioBuffer needs 1-d samples, got {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ContractError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ContractError("AudioBuffer samples must be finite")

    @property
    def duration(self):
        return self.samples.size / self.sample_rate

    def __len__(self):
        return self.samples.size


@dataclass
class ManifestEntry:
    chunk_id: int
    source_file: str
    offset_samples: int
    split_tag: str


@dataclass
class ChunkManifest:
    """Persisted record of corpus chunks and their split assignment."""

    corpus_id: str
    chunk_length_samples: int
    entries: list = field(default_factory=list)
    shuffle_seed: int = 0

    def split_ids(self, tag):
        if tag not in SPLIT_TAGS:
            raise ContractError(f"unknown split tag {tag!r}")
        return [e.chunk_id for e in self.entries if e.split_tag == tag]

    def split_sizes(self):
        return {tag: len(self.split_ids(tag)) for tag in SPLIT_TAGS}


def read_wav(path):
    """Read a 16-bit mono PCM WAV into an AudioBuffer.

    Samples are mapped to [-1, 1] by dividing by 32768. Malformed containers
    raise AudioFormatError; readable files that are not 16-bit mono PCM at a
    positive rate raise UnsupportedFormatError naming the offending field.
    """
    try:
        with open(path, "rb") as fh, wave.open(fh, "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            comptype = w.getcomptype()
            rate = w.getframerate()
            frames = w.readframes(w.getnframes())
    except (wave.Error, RuntimeError) as exc:  # RuntimeError: a chunk seek past its end
        raise AudioFormatError(f"{path}: {str(exc) or 'malformed RIFF chunk'}") from exc
    except EOFError as exc:
        raise AudioFormatError(f"{path}: truncated WAV header") from exc
    except ValueError as exc:  # open() refuses a NUL byte in the path
        raise AudioFormatError(f"{path!r}: {exc}") from exc
    if comptype != "NONE":
        raise UnsupportedFormatError(f"{path}: compression type {comptype!r}, expected PCM")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: {channels} channels, expected mono")
    if width != 2:
        raise UnsupportedFormatError(f"{path}: sample width {8 * width} bits, expected 16")
    if rate == 0:
        raise UnsupportedFormatError(f"{path}: sample rate 0, expected a positive rate")
    if len(frames) % 2:
        raise AudioFormatError(f"{path}: data chunk of {len(frames)} bytes ends inside a sample")
    pcm = np.frombuffer(frames, dtype="<i2")
    return AudioBuffer(pcm.astype(np.float32) / 32768.0, rate)


def write_wav(buffer, path):
    """Write an AudioBuffer as 16-bit mono PCM.

    Samples are clamped to [-1, 1], scaled to the 16-bit grid, and rounded to
    the nearest representable frame, so writing back a just-read buffer
    reproduces the PCM bytes exactly.
    """
    if len(buffer) == 0:
        raise ContractError("refusing to write an empty buffer")
    x = np.clip(buffer.samples.astype(np.float64), -1.0, 1.0)
    pcm = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    with open(path, "wb") as fh, wave.open(fh, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buffer.sample_rate)
        w.writeframes(pcm.tobytes())


def chunk_corpus(files, chunk_seconds, sample_rate, corpus_id="corpus"):
    """Slice WAV files into consecutive fixed-length chunks.

    Every file must already be at `sample_rate` (no resampling happens here;
    a mismatch is an error). Returns (chunks, manifest); all manifest entries
    start in the train split until split_dataset reassigns them.
    """
    if not 0 < chunk_seconds < math.inf:  # NaN fails this too
        raise ContractError(f"chunk_seconds must be positive and finite, got {chunk_seconds}")
    chunk_len = int(round(chunk_seconds * sample_rate))
    if chunk_len <= 0:
        raise ContractError(f"chunk of {chunk_seconds}s at {sample_rate}Hz is empty")
    files = [str(p) for p in files]
    chunks = []
    entries = []
    for path in files:
        buf = read_wav(path)
        if buf.sample_rate != sample_rate:
            raise RateMismatchError(
                f"{path}: sample rate {buf.sample_rate} != required {sample_rate}"
            )
        n_whole = len(buf) // chunk_len
        for i in range(n_whole):
            offset = i * chunk_len
            entries.append(
                ManifestEntry(len(entries), str(path), offset, "train")
            )
            chunks.append(
                AudioBuffer(buf.samples[offset : offset + chunk_len], sample_rate)
            )
    if not chunks:
        raise EmptyCorpusError(
            f"no chunks of {chunk_seconds}s could be cut from {len(files)} file(s)"
        )
    manifest = ChunkManifest(corpus_id, chunk_len, entries)
    return chunks, manifest


def split_dataset(manifest, ratios, seed):
    """Assign chunks to train/test/validation by seeded shuffle.

    Counts are floor(N * ratio) per split with every remainder chunk going to
    train. Returns a new manifest; the input is untouched.
    """
    train_r, test_r, val_r = ratios
    # comparisons that NaN fails, so a NaN is refused with the rest
    if not all(r > 0 for r in ratios):
        raise ContractError(f"ratios must be positive, got {ratios}")
    if not abs(train_r + test_r + val_r - 1.0) <= 1e-9:
        raise ContractError(f"ratios must sum to 1, got {ratios}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    n = len(manifest.entries)
    if n < 3:
        raise InsufficientDataError(f"{n} chunks cannot populate all splits")

    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    n_test = int(n * test_r)
    n_val = int(n * val_r)
    n_train = n - n_test - n_val  # floor(N*train) plus all remainder

    tags = {}
    for pos, chunk_id in enumerate(order):
        if pos < n_train:
            tags[int(chunk_id)] = "train"
        elif pos < n_train + n_test:
            tags[int(chunk_id)] = "test"
        else:
            tags[int(chunk_id)] = "validation"

    entries = [
        ManifestEntry(e.chunk_id, e.source_file, e.offset_samples, tags[e.chunk_id])
        for e in manifest.entries
    ]
    return ChunkManifest(manifest.corpus_id, manifest.chunk_length_samples, entries, seed)


def save_manifest(manifest, path):
    """Write the line-oriented manifest format (header + one row per chunk)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"#corpus_id={manifest.corpus_id} seed={manifest.shuffle_seed} "
            f"chunk_len={manifest.chunk_length_samples}\n"
        )
        for e in manifest.entries:
            fh.write(f"{e.chunk_id}\t{e.source_file}\t{e.offset_samples}\t{e.split_tag}\n")


def _manifest_int(path, lineno, name, text):
    try:
        return int(text)
    except ValueError:
        raise ContractError(f"{path}:{lineno}: {name} {text!r} is not an integer") from None


def open_text(path, error):
    """A UTF-8 text file as an in-memory file with universal newlines.

    Bytes that are not UTF-8 raise `error` naming the file and line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})") from None
    return io.StringIO(text, newline=None)


def load_manifest(path):
    """Read a manifest written by save_manifest.

    A malformed header or row, or bytes that are not UTF-8, raise
    ContractError naming the file and line.
    """
    with open_text(path, ContractError) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ContractError(f"{path}:1: missing manifest header line")
        fields = {}
        for token in header[1:].split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ContractError(f"{path}:1: header token {token!r} is not key=value")
            fields[key] = value
        for key in ("corpus_id", "seed", "chunk_len"):
            if key not in fields:
                raise ContractError(f"{path}:1: header lacks {key}")
        manifest = ChunkManifest(
            fields["corpus_id"],
            _manifest_int(path, 1, "chunk_len", fields["chunk_len"]),
            [],
            _manifest_int(path, 1, "seed", fields["seed"]),
        )
        if manifest.chunk_length_samples <= 0:
            raise ContractError(f"{path}:1: chunk_len {manifest.chunk_length_samples} is not positive")
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            row = line.split("\t")
            if len(row) != 4:
                raise ContractError(
                    f"{path}:{lineno}: {len(row)} tab-separated fields, expected 4 "
                    "(chunk_id, source_file, offset_samples, split_tag)"
                )
            cid, src, off, tag = row
            if tag not in SPLIT_TAGS:
                raise ContractError(f"{path}:{lineno}: bad split tag {tag!r}")
            manifest.entries.append(ManifestEntry(
                _manifest_int(path, lineno, "chunk_id", cid),
                src,
                _manifest_int(path, lineno, "offset_samples", off),
                tag,
            ))
    ids = [e.chunk_id for e in manifest.entries]
    if sorted(ids) != list(range(len(ids))):
        raise ContractError(f"{path}: chunk ids are not dense 0..N-1")
    return manifest
