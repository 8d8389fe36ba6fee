"""Byte-stable checkpoint container.

Layout: magic, format version, a canonical-JSON header (sorted keys), then
each parameter sorted by name as (name, shape, row-major float64 little-endian
values). Two saves of identical content produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from restyle.autodiff import Tensor

MAGIC = b"RSTYCKPT"
VERSION = 1


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def params_hash(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params[name].values, dtype="<f8").tobytes())
    return h.hexdigest()


def file_hash(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@contextmanager
def atomic_write(path):
    """Binary file handle for ``path`` that replaces it only when the block
    completes: the bytes go to a temp file of the writer's own in the same
    directory, which is flushed to disk and then renamed over ``path``. A
    crash mid-write leaves the previous file intact, and of two writers of one
    path the later rename wins with its whole content."""
    path = Path(path)
    fd, name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    tmp = Path(name)
    try:
        with os.fdopen(fd, "wb") as f:
            # mkstemp creates the file private; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(f.fileno(), 0o666 & ~umask)
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, params: dict[str, Tensor], header: dict) -> None:
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        hblob = json.dumps(header, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")
        f.write(struct.pack("<I", len(hblob)))
        f.write(hblob)
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            nblob = name.encode("utf-8")
            f.write(struct.pack("<I", len(nblob)))
            f.write(nblob)
            shape = params[name].values.shape
            f.write(struct.pack("<I", len(shape)))
            f.write(struct.pack(f"<{len(shape)}q", *shape))
            f.write(np.ascontiguousarray(params[name].values, dtype="<f8").tobytes())


def _read(f, n: int, path) -> bytes:
    blob = f.read(n)
    if len(blob) != n:
        raise ValueError(f"checkpoint {path}: truncated (wanted {n} bytes at "
                         f"offset {f.tell() - len(blob)}, got {len(blob)})")
    return blob


def _read_header(f, path) -> dict:
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic {magic!r}")
    (version,) = struct.unpack("<I", _read(f, 4, path))
    if version != VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version}")
    (hlen,) = struct.unpack("<I", _read(f, 4, path))
    return json.loads(_read(f, hlen, path).decode("utf-8"))


def load_header(path) -> dict:
    """A checkpoint's header, without reading its weights."""
    with open(path, "rb") as f:
        return _read_header(f, path)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        header = _read_header(f, path)
        (count,) = struct.unpack("<I", _read(f, 4, path))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(f, 4, path))
            name = _read(f, nlen, path).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read(f, 4, path))
            shape = struct.unpack(f"<{ndim}q", _read(f, 8 * ndim, path))
            n = int(np.prod(shape)) if ndim else 1
            buf = np.frombuffer(_read(f, 8 * n, path), dtype="<f8").astype(np.float64)
            arrays[name] = buf.reshape(shape)
    return header, arrays


def restore_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing={missing} unexpected={extra}")
    for name, p in params.items():
        if p.values.shape != arrays[name].shape:
            raise ValueError(
                f"checkpoint mismatch for {name}: shape {arrays[name].shape} vs {p.values.shape}")
        p.values[...] = arrays[name]
