"""Named-tensor-block container used for all parameter checkpoints.

Layout (little-endian): magic "HSRLPN1\\0", u32 version, u32 block count,
then per block: u16 name length, utf-8 name, u8 ndim, u32 dims, float64
row-major data. Block names are unique, every value is finite, and blocks
keep insertion order, so save(load(f)) is byte-identical to f. Checkpoints,
codebooks and run manifests go through `write_atomic`, so a crash mid-write
never leaves a truncated file. The tab-separated text inputs are read
through `read_lines`.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import FormatError, HsrlError

CHECKPOINT_MAGIC = b"HSRLPN1\x00"
CHECKPOINT_VERSION = 1


class BinaryReader:
    """Bounds-checked cursor over a binary blob; `label` names the format."""

    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.label = label
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.label} truncated while reading {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out


def read_lines(path, error: type[HsrlError]) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file, CRLF and CR line ends read as
    LF; bytes that are not UTF-8 raise `error` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def write_atomic(path, data: bytes) -> None:
    """Replace `path` with `data` whole or not at all: write a temp file in
    the same directory, flush and fsync it, then rename it over `path`."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_tensors(path, named: dict[str, np.ndarray]) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(named))]
    for name, arr in named.items():
        raw = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_atomic(path, b"".join(parts))


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        rd = BinaryReader(fh.read(), "checkpoint")
    if rd.take(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    version, count = struct.unpack("<II", rd.take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    named: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", rd.take(2, f"block {i} name length"))
        try:
            name = rd.take(name_len, f"block {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"block {i} name is not valid UTF-8") from None
        if name in named:
            raise FormatError(f"block {i}: duplicate block name {name!r}")
        (ndim,) = struct.unpack("<B", rd.take(1, f"block {name} ndim"))
        shape = struct.unpack(f"<{ndim}I", rd.take(4 * ndim, f"block {name} shape"))
        raw = rd.take(8 * math.prod(shape), f"block {name} data")
        try:
            named[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError:  # more dimensions than numpy supports
            raise FormatError(f"block {name} has {ndim} dimensions") from None
        if not np.isfinite(named[name]).all():
            raise FormatError(f"block {name} holds NaN or infinite values")
    if rd.pos != len(rd.blob):
        raise FormatError("trailing bytes after checkpoint payload")
    return named


def load_into(params: dict, named: dict[str, np.ndarray], label: str) -> None:
    """Copy each array of `named` into the parameter tensor of the same name.
    Every name, shape and value is checked before any tensor is written, so
    an error leaves all of them as they were."""
    if set(named) != set(params):
        raise FormatError(f"{label} does not fit this config: blocks differ "
                          f"on {sorted(set(params) ^ set(named))}")
    for name, tensor in params.items():
        if named[name].shape != tensor.data.shape:
            raise FormatError(f"{label} does not fit this config: block {name} "
                              f"has shape {named[name].shape}, expected "
                              f"{tensor.data.shape}")
        if not np.isfinite(named[name]).all():
            raise FormatError(f"{label} block {name} holds NaN or infinite values")
    for name, tensor in params.items():
        tensor.data = named[name].copy()
