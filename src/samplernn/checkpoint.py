"""Binary checkpoint container.

Layout: magic `SRNNCKPT`, u32 version, u64 header length, a plain-text
header of key=value lines (configs, iteration, optimizer step, PRNG state,
validation history, record count) and its check, then the records. Each
record is its header (u32 name length, name, dtype tag, ndim, u64 shape),
its little-endian payload and its check. A check is the first 8 bytes of
SHA-256 over the bytes since the previous check (the header's covers the
magic, version and length too); it catches torn writes and bit rot, not
tampering.

A save streams each record's own bytes, hashing them on the way, into a
temp file, then renames it atomically. A load checks magic and version,
then the header's check before it parses a field, then reads each record
straight into a fresh array and checks it there, so it holds no
file-sized buffer and allocates nothing the file's size cannot back. The
records are then checked against the header config's tables in `model`:
`param_shapes` for the param and adam records, `carry_shapes` for the
carry. So both load paths adopt the records as they are, with no copy:
`model_from_checkpoint` builds an inference model, with no gradient
buffers, and `training.resume` builds the training run.

Besides parameters and Adam moments, a checkpoint stores the warm training
carry state, so resuming mid-chunk reproduces the uninterrupted loss
trajectory exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import config
from .autodiff import ParamStore
from .errors import CheckpointError, ConfigError, ContractError
from .model import ModelConfig, SampleRnnModel, carry_shapes, param_shapes

MAGIC = b"SRNNCKPT"
VERSION = 3
_PREFIX = struct.Struct("<8sIQ")  # magic, version, header length

_DTYPE_TAGS = {np.dtype("<f4"): 1, np.dtype("<f8"): 2, np.dtype("<i8"): 3}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def checkpoint_path(directory, iteration):
    return os.path.join(directory, f"ckpt_{iteration:08d}.srnn")


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: config.TrainConfig
    iteration: int
    params: dict
    extra_arrays: dict  # adam.m.*, adam.v.*, carry.*
    adam_step: int
    rng_state: dict
    val_history: list

    @classmethod
    def capture(cls, model, train_cfg, iteration, optimizer, rng, val_history, carry_state):
        extras = {}
        for name, _ in model.params.items():
            extras[f"adam.m.{name}"] = optimizer.m[name]
            extras[f"adam.v.{name}"] = optimizer.v[name]
        if carry_state is not None:  # warm: a cold state is never carried
            extras.update({f"carry.{name}": arr
                           for name, arr in carry_state.arrays(model.config).items()})
        return cls(
            model.config,
            train_cfg,
            iteration,
            dict(model.params.arrays()),
            extras,
            optimizer.step_count,
            rng.bit_generator.state,
            list(val_history),
        )


def param_store(ck, trainable):
    """A ParamStore whose entries are the param records themselves (owned,
    aligned, writable arrays from the load), in param_shapes order: the
    store and ck.params share those arrays. Nothing is drawn or copied: the
    load has checked the records against that table. Only a trainable
    store gives its entries gradient buffers."""
    params = ParamStore()
    for name in param_shapes(ck.model_config):
        params.add(name, ck.params[name], trainable=trainable)
    return params


def model_from_checkpoint(ck):
    """An inference model on the param records: nothing in it is trainable
    or holds a gradient."""
    return SampleRnnModel(ck.model_config, param_store(ck, trainable=False))


def _check(*parts):
    """The first 8 bytes of SHA-256 over the parts, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()[:8]


def _records(ck):
    """Each record's header and its payload as a byte view of the array."""
    params = ((f"param.{name}", arr) for name, arr in ck.params.items())
    for name, arr in itertools.chain(params, ck.extra_arrays.items()):
        arr = np.ascontiguousarray(arr)
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for record {name!r}")
        name_b = name.encode("utf-8")
        head = struct.pack(
            f"<I{len(name_b)}sBB{arr.ndim}Q",
            len(name_b), name_b, _DTYPE_TAGS[arr.dtype], arr.ndim, *arr.shape,
        )
        yield head, arr.reshape(-1).view(np.uint8)


def save_checkpoint(path, ck):
    """Stream to a temp file, then rename it into place; round-trips bitwise."""
    for name in ck.extra_arrays:
        if name.startswith("param."):
            raise CheckpointError(f"{path}: extra record {name!r} would shadow a parameter")
    header_lines = config.RunConfig(ck.model_config, ck.train_config).echo_lines()
    header_lines.append(f"iteration={ck.iteration}")
    header_lines.append(f"adam.step={ck.adam_step}")
    st = ck.rng_state
    header_lines.append(f"rng.state={st['state']['state']}")
    header_lines.append(f"rng.inc={st['state']['inc']}")
    header_lines.append(f"rng.has_uint32={st['has_uint32']}")
    header_lines.append(f"rng.uinteger={st['uinteger']}")
    header_lines.append(
        "val_history=" + ",".join(f"{i}:{float(b)!r}" for i, b in ck.val_history)
    )
    header_lines.append(f"records={len(ck.params) + len(ck.extra_arrays)}")
    header = ("\n".join(header_lines) + "\n").encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            head = _PREFIX.pack(MAGIC, VERSION, len(header)) + header
            fh.write(head + _check(head))
            for rec_head, payload in _records(ck):
                fh.write(rec_head)
                fh.write(payload)
                fh.write(_check(rec_head, payload))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_val_history(text):
    pairs = [item.partition(":") for item in text.split(",")] if text else []
    return [(int(i), float(b)) for i, _, b in pairs]


def _check_records(path, run, records):
    """Raise CheckpointError naming the file and the record unless the
    param.*, adam.m.* and adam.v.* records are exactly the parameter table
    of the header's model config, all in param.embed's float dtype, and the
    carry.* records of its carry table for train.batch_size rows are all
    there or all absent. Other records pass through."""
    m = run.model
    embed = records.get("param.embed", np.empty(0, "<f4"))
    dtype = embed.dtype if embed.dtype.kind == "f" else np.dtype("<f4")
    want = {prefix + name: (shape, dtype) for prefix in ("param.", "adam.m.", "adam.v.")
            for name, shape in param_shapes(m).items()}
    for name in records:
        if name.startswith(("param.", "adam.")) and name not in want:
            raise CheckpointError(f"{path}: unexpected record {name!r} for the header's model config")
    carry = {f"carry.{name}": s for name, s in carry_shapes(m, run.train.batch_size, dtype).items()}
    if carry.keys() & records.keys():
        want.update(carry)
    for name, (shape, kind) in want.items():
        arr = records.get(name)
        if arr is None or arr.shape != shape or arr.dtype != kind:
            got = "missing" if arr is None else f"{arr.dtype} {list(arr.shape)}"
            raise CheckpointError(f"{path}: record {name!r} is {got}, expected {kind} {list(shape)}")


def load_checkpoint(path):
    """Parse and verify a checkpoint file.

    Raises CheckpointError on bad magic, version mismatch, a header or
    record checksum mismatch (naming the record), truncation, an I/O error,
    a missing or bad header field (naming the file and the key), or a record
    that repeats or does not fit the header's config (naming the file and
    the record); a corrupted file never yields partial parameters. Every
    returned array is owned, aligned and writable: its record is read
    straight into it.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(path, fh)
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _read_checkpoint(path, fh):
    left = os.fstat(fh.fileno()).st_size

    def take(n, dtype=None, shape=()):
        """The next n bytes, or with a dtype a fresh array of that shape read
        from them; n is checked against the bytes left in the file first, so
        a corrupted length allocates nothing."""
        nonlocal left
        if n > left:
            raise CheckpointError(f"{path}: truncated file")
        left -= n
        out = bytearray(n) if dtype is None else np.empty(shape, dtype)
        if fh.readinto(out if dtype is None else out.reshape(-1).view(np.uint8)) != n:
            raise CheckpointError(f"{path}: truncated file")
        return out

    prefix = take(_PREFIX.size)
    magic, version, header_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    if version != VERSION:
        raise CheckpointError(f"{path}: version {version} unsupported (expected {VERSION})")
    text = take(header_len)
    if take(8) != _check(prefix, text):
        raise CheckpointError(f"{path}: checksum mismatch in the header, file is corrupted")
    # a byte that is not UTF-8 becomes U+FFFD, which no field's parser accepts
    lines = str(text, "utf-8", "replace").splitlines()
    mapping = dict(line.partition("=")[::2] for line in lines if line)

    try:
        run = config.parse_run_config(mapping)
    except (ConfigError, ContractError) as exc:
        raise CheckpointError(f"{path}: header: {exc}") from exc

    def field(key, parse=int):
        if key not in mapping:
            raise CheckpointError(f"{path}: header missing {key}")
        try:
            return parse(mapping[key])
        except ValueError as exc:
            raise CheckpointError(
                f"{path}: header {key}={mapping[key]!r} is not valid ({exc})"
            ) from exc

    rng_state = {
        "bit_generator": "PCG64",
        "state": {"state": field("rng.state"), "inc": field("rng.inc")},
        "has_uint32": field("rng.has_uint32"),
        "uinteger": field("rng.uinteger"),
    }
    try:
        np.random.PCG64().state = rng_state
    except (ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: header rng.* is not a PCG64 state ({exc})") from exc
    iteration = field("iteration")
    adam_step = field("adam.step")
    val_history = field("val_history", _parse_val_history)

    records = {}
    for _ in range(field("records")):
        lead = take(4)
        named = take(struct.unpack("<I", lead)[0] + 2)  # name, dtype tag, ndim
        name, tag, ndim = str(named[:-2], "utf-8", "replace"), named[-2], named[-1]
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} in record {name!r}")
        dims = take(8 * ndim)
        shape, dtype = struct.unpack(f"<{ndim}Q", dims), _TAG_DTYPES[tag]
        if max(shape, default=0) > sys.maxsize:  # numpy cannot index it, even if empty
            raise CheckpointError(f"{path}: record {name!r} has shape {list(shape)}")
        arr = take(math.prod(shape) * dtype.itemsize, dtype, shape)
        if take(8) != _check(lead, named, dims, arr):
            raise CheckpointError(f"{path}: checksum mismatch in record {name!r}, file is corrupted")
        if name in records:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        records[name] = arr
    if left:
        raise CheckpointError(f"{path}: {left} bytes after the header's {len(records)} records")
    _check_records(path, run, records)
    params = {name[len("param.") :]: a for name, a in records.items() if name.startswith("param.")}
    extras = {name: a for name, a in records.items() if not name.startswith("param.")}

    return Checkpoint(
        run.model, run.train, iteration, params, extras, adam_step, rng_state, val_history
    )
