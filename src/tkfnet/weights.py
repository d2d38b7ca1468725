"""Binary serialization for named rank-4 float32 tensors.

Layout, all integers little-endian u32:

    magic "TKFW" | version=1 | record count
    per record: name length | utf-8 name | rank=4 | four dims | float32 payload

Round-trips are bit-exact. Readers are strict: wrong magic, unknown
versions, duplicate names, truncation and trailing bytes all raise
``WeightsFormatError`` with the byte offset where parsing failed.
"""

import io
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TKFW"
VERSION = 1
_U32 = struct.Struct("<I")


class WeightsFormatError(ValueError):
    """Malformed weights container."""


def _pack_record(name, arr):
    encoded = name.encode("utf-8")
    if not encoded:
        raise ValueError("tensor names must be non-empty")
    if arr.ndim != 4:
        raise ValueError(f"tensor {name!r} must be rank 4, got rank {arr.ndim}")
    payload = np.ascontiguousarray(arr, dtype="<f4")
    parts = [_U32.pack(len(encoded)), encoded, _U32.pack(4)]
    parts.extend(_U32.pack(d) for d in arr.shape)
    parts.append(payload.tobytes())
    return b"".join(parts)


def serialize_weights(arrays):
    """Serialize an ordered name -> array mapping to container bytes."""
    parts = [MAGIC, _U32.pack(VERSION), _U32.pack(len(arrays))]
    parts.extend(_pack_record(name, arr) for name, arr in arrays.items())
    return b"".join(parts)


def write_weights(path, arrays):
    Path(path).write_bytes(serialize_weights(arrays))


class _Reader:
    """Bounds-checked cursor over a binary stream of known size."""

    def __init__(self, stream):
        self.stream = stream
        self.size = stream.seek(0, io.SEEK_END)
        stream.seek(0)
        self.pos = 0

    def _check(self, count, what, have=None):
        # Every bound is checked against the size before a byte is read or a
        # buffer allocated; ``have`` reports a stream that ended early.
        if have is None:
            have = self.size - self.pos
        if count > have:
            raise WeightsFormatError(
                f"truncated {what} at byte {self.pos}: need {count} bytes, have {have}"
            )

    def take(self, count, what):
        self._check(count, what)
        chunk = self.stream.read(count)
        self._check(count, what, len(chunk))
        self.pos += count
        return chunk

    def take_array(self, dims, what):
        """The next float32 payload of shape ``dims``, read straight into a
        new array once its size has passed the check."""
        # Python ints: a crafted header must not wrap the size to a small value.
        count = math.prod(dims) * 4
        self._check(count, what)
        arr = np.empty(dims, dtype="<f4")
        view = memoryview(arr).cast("B")
        filled = 0
        while filled < count:
            got = self.stream.readinto(view[filled:])
            if not got:
                self._check(count, what, filled)
            filled += got
        self.pos += count
        return arr

    def u32(self, what):
        return _U32.unpack(self.take(4, what))[0]


def _parse(stream):
    """Parse a container stream into an ordered name -> float32 array dict."""
    reader = _Reader(stream)
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise WeightsFormatError(f"bad magic {magic!r} at byte 0; expected {MAGIC!r}")
    version = reader.u32("version")
    if version != VERSION:
        raise WeightsFormatError(
            f"unsupported version {version} at byte 4; this reader handles {VERSION}"
        )
    count = reader.u32("record count")
    arrays = {}
    for index in range(count):
        name_start = reader.pos
        name_len = reader.u32("name length")
        if name_len == 0:
            raise WeightsFormatError(f"empty tensor name at byte {name_start}")
        raw_name = reader.take(name_len, "tensor name")
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError as exc:
            raise WeightsFormatError(f"undecodable tensor name at byte {name_start}: {exc}") from exc
        if name in arrays:
            raise WeightsFormatError(f"duplicate tensor name {name!r} at byte {name_start}")
        rank_start = reader.pos
        rank = reader.u32("rank")
        if rank != 4:
            raise WeightsFormatError(
                f"tensor {name!r} has rank {rank} at byte {rank_start}; only rank 4 is stored"
            )
        dims = tuple(reader.u32("dimension") for _ in range(4))
        if any(d == 0 for d in dims):
            raise WeightsFormatError(f"tensor {name!r} has zero dimension {dims} at byte {rank_start}")
        arrays[name] = reader.take_array(dims, f"payload of {name!r}")
    if reader.pos != reader.size:
        raise WeightsFormatError(
            f"{reader.size - reader.pos} trailing bytes after record {count} at byte {reader.pos}"
        )
    return arrays


def deserialize_weights(data):
    """Parse container bytes into an ordered name -> float32 array dict."""
    return _parse(io.BytesIO(data))


def read_weights(path):
    """Read a container file, each payload straight into its array."""
    try:
        with open(path, "rb") as stream:
            return _parse(stream)
    except OSError as exc:
        raise WeightsFormatError(f"cannot read {path}: {exc}") from exc


def write_tensor(path, arr, name="tensor"):
    """Store a single rank-4 array as a one-record container (.rt32)."""
    write_weights(path, {name: np.asarray(arr, dtype=np.float32)})


def read_tensor(path):
    """Read a one-record container back as a float32 array."""
    arrays = read_weights(path)
    if len(arrays) != 1:
        raise WeightsFormatError(
            f"{path}: expected exactly one tensor record, found {len(arrays)}"
        )
    return next(iter(arrays.values()))
