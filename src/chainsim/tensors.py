"""Flat sample tensors plus the binary dump/load format used by the CLI.

Layouts are row-major with index order [n][c][x][y] for input maps,
[m][c][i][j] for kernel stacks, [n][m][x][y] for output maps and [m]
for bias vectors.
"""

from __future__ import annotations

import math
import struct

from .fixedpoint import DEFAULT_FORMAT, FixedFormat

MAGIC = b"CNNT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHHHH")  # magic, version, rank, four dims
DUMP_BITS = 16  # the dump stores every sample as a little-endian int16


class ShapeError(ValueError):
    """Tensor/layer dimension mismatch; message names the offending axis."""


class SampleTensor:
    """Immutable flat tensor of raw fixed-point samples."""

    __slots__ = ("dims", "payload", "fmt", "_strides")

    def __init__(self, dims, payload, fmt: FixedFormat = DEFAULT_FORMAT):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d <= 0 for d in dims):
            raise ShapeError("dims must be positive, got %r" % (dims,))
        payload = tuple(payload)
        size = math.prod(dims)
        if len(payload) != size:
            raise ShapeError(
                "payload length %d does not match dims %r (expect %d)"
                % (len(payload), dims, size)
            )
        lo, hi = fmt.sample_min, fmt.sample_max
        for v in payload:
            if not lo <= v <= hi:
                raise ValueError("sample %d not representable in %d bits" % (v, fmt.total_bits))
        strides = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "fmt", fmt)
        object.__setattr__(self, "_strides", tuple(reversed(strides)))

    def __setattr__(self, name, value):
        raise AttributeError("SampleTensor is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SampleTensor)
            and self.dims == other.dims
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.dims, self.payload))

    @property
    def rank(self) -> int:
        return len(self.dims)

    def flat_index(self, *idx) -> int:
        if len(idx) != self.rank:
            raise ShapeError("expected %d indices, got %d" % (self.rank, len(idx)))
        off = 0
        for axis, (i, d, s) in enumerate(zip(idx, self.dims, self._strides)):
            if not 0 <= i < d:
                raise ShapeError("index %d out of range on axis %d (extent %d)" % (i, axis, d))
            off += i * s
        return off

    def at(self, *idx) -> int:
        return self.payload[self.flat_index(*idx)]

    def dump_bytes(self) -> bytes:
        if self.rank > 4:
            raise ShapeError("dump supports rank <= 4, got %d" % self.rank)
        if self.fmt.total_bits > DUMP_BITS:
            raise ValueError("dump stores %d-bit samples, got a %d-bit format"
                             % (DUMP_BITS, self.fmt.total_bits))
        dims4 = self.dims + (1,) * (4 - self.rank)
        head = _HEADER.pack(MAGIC, FORMAT_VERSION, self.rank, *dims4)
        body = struct.pack("<%dh" % len(self.payload), *self.payload)
        return head + body

    @classmethod
    def load_bytes(cls, blob: bytes, fmt: FixedFormat = DEFAULT_FORMAT) -> "SampleTensor":
        if len(blob) < _HEADER.size:
            raise ValueError("tensor blob shorter than header")
        magic, version, rank, d0, d1, d2, d3 = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise ValueError("bad magic %r" % (magic,))
        if version != FORMAT_VERSION:
            raise ValueError("unsupported tensor format version %d" % version)
        if not 1 <= rank <= 4:
            raise ValueError("bad rank %d" % rank)
        dims = (d0, d1, d2, d3)[:rank]
        if (d0, d1, d2, d3)[rank:] != (1,) * (4 - rank):
            raise ValueError("dims past rank %d must be 1" % rank)
        size = math.prod(dims)
        body = len(blob) - _HEADER.size
        if body != 2 * size:
            raise ValueError("tensor payload of dims %r: expected %d bytes, got %d"
                             % (dims, 2 * size, body))
        payload = struct.unpack_from("<%dh" % size, blob, _HEADER.size)
        return cls(dims, payload, fmt)

    def dump(self, path) -> None:
        blob = self.dump_bytes()   # raises before the file is created
        with open(path, "wb") as fh:
            fh.write(blob)

    @classmethod
    def load(cls, path, fmt: FixedFormat = DEFAULT_FORMAT) -> "SampleTensor":
        with open(path, "rb") as fh:
            return cls.load_bytes(fh.read(), fmt)
