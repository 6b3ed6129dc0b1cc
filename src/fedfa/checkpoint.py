"""Binary model checkpoints.

Layout (all integers little-endian):

    magic   4 bytes  b"FFA1"
    version u32      currently 1
    then per tensor, until EOF:
        name_len u32
        name     UTF-8, name_len bytes
        rank     u32
        dims     rank x u64
        payload  float64 little-endian, C order

Tensor order in the file follows the dict insertion order, so a
save/load round trip preserves it.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

MAGIC = b"FFA1"
VERSION = 1


def encode(tensors: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim:
            a = np.ascontiguousarray(a)  # ascontiguousarray promotes rank 0 to rank 1
        buf.write(struct.pack(f"<I{len(nb)}sI{a.ndim}Q",
                              len(nb), nb, a.ndim, *a.shape))
        buf.write(a.astype("<f8").tobytes())
    return buf.getvalue()


def decode(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise ValueError(f"bad checkpoint magic {blob[:4]!r}")
    off = 4

    def span(n: int, what: str) -> int:
        """Start of the next n bytes, which hold ``what``; moves past them."""
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"truncated checkpoint: {what} needs {n} bytes "
                             f"at offset {off}, but the blob ends at {len(blob)}")
        off += n
        return off - n

    (version,) = struct.unpack_from("<I", blob, span(4, "version"))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    while off < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, span(4, "name length"))
        start = span(name_len, "name")
        try:
            name = blob[start:off].decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"tensor name at offset {start} is not UTF-8: "
                             f"{e.reason} at its byte {e.start}") from None
        if name in tensors:
            raise ValueError(f"repeated tensor {name!r} at offset {start}")
        (rank,) = struct.unpack_from("<I", blob, span(4, f"rank of {name!r}"))
        at = span(8 * rank, f"dims of {name!r}")
        dims = struct.unpack_from(f"<{rank}Q", blob, at)
        count = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=span(8 * count, f"payload of {name!r}"))
        try:  # an empty tensor's other dims are not bounded by the blob
            arr = arr.reshape(dims)
        except ValueError as e:
            raise ValueError(f"dims of {name!r} at offset {at} give shape "
                             f"{dims}, which numpy cannot build: {e}") from None
        tensors[name] = arr.astype(np.float64)
    return tensors


def save(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(encode(tensors))


def load(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        return decode(f.read())
