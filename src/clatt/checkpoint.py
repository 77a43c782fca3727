"""Single-file parameter checkpoints with a documented byte layout.

Layout, all integers little-endian:

    bytes 0..3    magic b"CLT1"
    bytes 4..11   uint64 header length H
    bytes 12..    UTF-8 JSON header of exactly H bytes
    rest          payload: raw little-endian array bytes, back to back

The JSON header is {"entries": [...]} where each entry carries name,
shape (list of ints), dtype (numpy little-endian string such as "<f8"),
offset (relative to the payload start) and nbytes. Entries appear in
payload order, so the format can be read from any language with a JSON
parser and a seek. ``clatt train`` adds two keys: "spec", the model's
``ModelSpec.to_json()`` object as the grid tuned it, and "transform", the
feature transform the model was trained on.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import model_record
from .errors import InputError
from .graphs import FEATURE_TRANSFORMS

__all__ = ["Checkpoint", "CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"CLT1"


class CheckpointError(InputError):
    """Malformed or truncated checkpoint file."""


class Checkpoint(dict):
    """Arrays by name, in payload order, plus the ModelSpec and feature
    transform the header records (None in a checkpoint without them)."""

    spec = None
    transform = None


def _as_array(value) -> np.ndarray:
    data = getattr(value, "data", value)
    arr = np.asarray(data)
    if arr.dtype.kind not in "fiu":
        raise CheckpointError(f"unsupported dtype {arr.dtype} in checkpoint")
    return np.ascontiguousarray(arr.astype(arr.dtype.newbyteorder("<"), copy=False))


def save_checkpoint(path, params: dict, spec=None, transform: str | None = None) -> None:
    """Write named arrays (or Tensors; .data is used) to a single file, with
    the model's ModelSpec and feature transform in the header when given."""
    entries = []
    blobs = []
    offset = 0
    for name, value in params.items():
        arr = _as_array(value)
        raw = arr.tobytes()
        entries.append(
            {
                "name": str(name),
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    header = {"entries": entries}
    if spec is not None:
        header["spec"] = json.loads(spec.to_json())
    if transform is not None:
        header["transform"] = transform
    header = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(len(header), dtype="<u8").tobytes())
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def _entry_array(i: int, entry, payload: bytes, seen) -> tuple[str, np.ndarray]:
    """Check one header entry against the schema and the payload, read it."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"entry {i} is not an object")
    name, shape, dtype, offset, nbytes = (entry.get(k) for k in ("name", "shape", "dtype", "offset", "nbytes"))
    if not isinstance(name, str) or name in seen:
        raise CheckpointError(f"entry {i} has a missing or repeated name {name!r}")
    counts = [offset, nbytes] + (shape if isinstance(shape, list) else [None])
    if not all(type(c) is int and c >= 0 for c in counts):
        raise CheckpointError(f"entry {name!r}: offset, nbytes and shape must be non-negative integers")
    try:
        dtype = np.dtype(dtype)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"entry {name!r}: bad dtype {dtype!r}") from exc
    if dtype.kind not in "fiu":
        raise CheckpointError(f"entry {name!r}: unsupported dtype {dtype}")
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise CheckpointError(f"entry {name!r}: shape {shape} of {dtype} is not {nbytes} bytes")
    if offset + nbytes > len(payload):
        raise CheckpointError(f"entry {name!r} runs past end of file")
    try:
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype=dtype).reshape(shape)
    except ValueError as exc:
        raise CheckpointError(f"entry {name!r}: {exc}") from exc
    return name, arr.copy()


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back as an ordered name -> ndarray mapping.

    Every malformed file raises CheckpointError; the header length is
    checked against the file size before the header is read, and a
    recorded spec or transform against the schema of a config's model and
    the known transforms.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        size_raw = fh.read(8)
        if len(size_raw) != 8:
            raise CheckpointError("truncated header length")
        header_len = int(np.frombuffer(size_raw, dtype="<u8")[0])
        if header_len > size - 12:
            raise CheckpointError(f"header length {header_len} exceeds the {size - 12} bytes after it")
        header_raw = fh.read(header_len)
        if len(header_raw) != header_len:
            raise CheckpointError("truncated header")
        try:
            header = json.loads(header_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from exc
        payload = fh.read()
    entries = header.get("entries", []) if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise CheckpointError("header is not an object with an entries list")
    out = Checkpoint()
    for i, entry in enumerate(entries):
        name, arr = _entry_array(i, entry, payload, out.keys())
        out[name] = arr
    if "spec" in header:
        try:
            out.spec = model_record(header["spec"], "spec")
        except InputError as exc:
            raise CheckpointError(f"header {exc}") from None
    if "transform" in header:
        out.transform = header["transform"]
        if not isinstance(out.transform, str) or out.transform not in FEATURE_TRANSFORMS:
            raise CheckpointError(f"header transform {out.transform!r} is not one of {FEATURE_TRANSFORMS}")
    return out
