"""Binary parameter container, and the file I/O both containers share.

Layout, all little-endian:
    magic    4 bytes  b"LMTW"
    version  u32      currently 1
    count    u32      number of parameters
    then per parameter, sorted by name:
    name_len u32
    name     UTF-8 bytes
    rank     u32
    extents  rank * u64
    values   prod(extents) * f64, C order

Round-trips are bitwise: save(load(b)) == b for any container this module
produced.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"LMTW"
VERSION = 1


class ContainerError(ValueError):
    """Malformed or truncated parameter container."""


def read_into(f, buf: np.ndarray, path) -> None:
    """Fill buf from f's position by one readinto; a short read is an OSError."""
    got = f.readinto(buf)
    if got != buf.nbytes:
        raise OSError(f"short read of {path}: {got} of {buf.nbytes} bytes at offset "
                      f"{f.tell() - got}; the file is shorter than its size said")


def read_file(path) -> np.ndarray:
    """The whole file in one private uint8 buffer, filled by one readinto. A
    shared mapping would raise SIGBUS if another process truncated the file."""
    with open(path, "rb") as f:
        buf = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        read_into(f, buf, path)
    return buf


def _param_parts(params: dict[str, np.ndarray]):
    yield MAGIC + struct.pack("<II", VERSION, len(params))
    for name in sorted(params):
        # np.ascontiguousarray promotes rank 0 to rank 1; np.array does not
        arr = np.array(params[name], dtype="<f8", order="C", copy=None)
        nb = name.encode("utf-8")
        yield struct.pack(f"<I{len(nb)}sI{arr.ndim}Q", len(nb), nb, arr.ndim, *arr.shape)
        yield arr


def dump_params(params: dict[str, np.ndarray]) -> bytes:
    return b"".join(_param_parts(params))


def _need(buf, off: int, n: int, what: str) -> int:
    if off + n > len(buf):
        raise ContainerError(f"truncated container: expected {n} bytes for {what} at offset {off}")
    return off + n


def _take(buf, off: int, fmt: str, what: str):
    end = _need(buf, off, struct.calcsize(fmt), what)
    return struct.unpack_from(fmt, buf, off), end


def load_params(buf) -> dict[str, np.ndarray]:
    """Parse an LMTW buffer; the arrays are read-only views of buf."""
    buf = np.frombuffer(buf, dtype=np.uint8)
    buf.flags.writeable = False
    (magic, version, count), off = _take(buf, 0, "<4sII", "header")
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,), off = _take(buf, off, "<I", "name length")
        (name,), off = _take(buf, off, f"{nlen}s", "name")
        try:
            name = name.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ContainerError(f"parameter name at offset {off - nlen} is not UTF-8: {e}") from e
        if params and name <= next(reversed(params)):
            raise ContainerError(f"parameter names not strictly sorted at {name!r}")
        (rank,), off = _take(buf, off, "<I", "rank")
        shape, off = _take(buf, off, f"<{rank}Q", "extents")
        end = _need(buf, off, 8 * math.prod(shape), f"values of {name!r}")
        try:
            params[name] = buf[off:end].view("<f8").reshape(shape)
        except ValueError as e:  # zero-size but with an extent numpy cannot hold
            raise ContainerError(f"extents {shape} of {name!r}: {e}") from e
        off = end
    if off != len(buf):
        raise ContainerError(f"{len(buf) - off} trailing bytes after last parameter")
    return params


def save_params_file(path, params: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.writelines(_param_parts(params))


def load_params_file(path) -> dict[str, np.ndarray]:
    return load_params(read_file(path))
