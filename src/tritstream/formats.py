"""Binary containers: progressive streams and latent tensor files.

All multi-byte fields are little-endian.

Progressive stream ("DPTS"):

    offset 0   magic "DPTS" (4 bytes)
           4   format version (1 byte, currently 1)
           5   producer arithmetic profile (1 byte, currently 1)
           6   digit base, 2 or 3 (1 byte)
           7   sigma storage mode, 0 = out-of-band, 1 = embedded (1 byte)
           8   dims C, H, W (3 x uint32)
          20   plane count l_max (1 byte)
          21   [mode 1 only] K raw float32 scales
           .   plane directory: l_max x uint32 payload byte lengths
           .   plane payloads, concatenated

The profile byte pins the float arithmetic the producer used for priority
ordering (IEEE-754 float64 with numpy's pairwise row reduction); a decoder
must reject a profile it does not implement, since digit order depends on
it.  Directory entries are written once at encode time and never rewritten:
a truncated stream keeps the full directory, and the decoder treats the
lengths as upper bounds capped by the physical end of the bytes.

Latent tensor file ("LTEN"): magic, version byte, dims C,H,W as uint32, then
K int32 values followed by K float32 scales.  Reconstruction file ("LFLT"):
same layout with a single block of K float32 values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .reduction import Shape

__all__ = [
    "STREAM_MAGIC",
    "STREAM_VERSION",
    "ARITHMETIC_PROFILE",
    "StreamHeader",
    "stream_header_size",
    "pack_stream_header",
    "parse_stream_header",
    "write_lten",
    "read_lten",
    "write_lflt",
    "read_lflt",
]

STREAM_MAGIC = b"DPTS"
LATENT_MAGIC = b"LTEN"
FLOATS_MAGIC = b"LFLT"
STREAM_VERSION = 1
ARITHMETIC_PROFILE = 1

_STREAM_HEAD = struct.Struct("<4sBBBB3IB")
_INT64_MAX = int(np.iinfo(np.int64).max)
_TENSOR_HEAD = struct.Struct("<4sB3I")


@dataclass(frozen=True)
class StreamHeader:
    """Parsed fixed part of a progressive stream.

    payload_lengths are the directory entries (upper bounds under
    truncation); header_size is the offset of the first payload byte.
    sigmas is None in storage mode 0.
    """

    base: int
    sigma_mode: int
    shape: Shape
    l_max: int
    payload_lengths: np.ndarray
    sigmas: np.ndarray | None
    header_size: int


def stream_header_size(shape: Shape, sigma_mode: int, l_max: int) -> int:
    """Byte offset of the first payload in a stream with these parameters."""
    size = _STREAM_HEAD.size + 4 * l_max
    if sigma_mode == 1:
        size += 4 * shape.size
    return size


def pack_stream_header(base: int, sigma_mode: int, shape: Shape, l_max: int,
                       payload_lengths: np.ndarray,
                       sigmas32: np.ndarray | None) -> bytes:
    """Serialize the header, sigma block (mode 1), and plane directory."""
    out = bytearray()
    out += _STREAM_HEAD.pack(STREAM_MAGIC, STREAM_VERSION, ARITHMETIC_PROFILE,
                             base, sigma_mode,
                             shape.channels, shape.height, shape.width, l_max)
    if sigma_mode == 1:
        if sigmas32 is None or sigmas32.size != shape.size:
            raise ValueError("storage mode 1 needs one float32 scale per element")
        out += np.ascontiguousarray(sigmas32, dtype="<f4").tobytes()
    lengths = np.asarray(payload_lengths, dtype="<u4")
    if lengths.size != l_max:
        raise ValueError("one directory entry per plane is required")
    out += lengths.tobytes()
    return bytes(out)


def parse_stream_header(data: bytes) -> StreamHeader:
    """Parse and validate everything before the first payload byte."""
    if len(data) < _STREAM_HEAD.size:
        raise FormatError("stream shorter than its fixed header")
    magic, version, profile, base, sigma_mode, c, h, w, l_max = \
        _STREAM_HEAD.unpack_from(data)
    if magic != STREAM_MAGIC:
        raise FormatError(f"bad stream magic {magic!r}")
    if version != STREAM_VERSION:
        raise FormatError(f"unsupported stream version {version}")
    if profile != ARITHMETIC_PROFILE:
        raise FormatError(f"unsupported arithmetic profile {profile}")
    if base not in (2, 3):
        raise FormatError(f"invalid digit base {base}")
    if sigma_mode not in (0, 1):
        raise FormatError(f"invalid sigma storage mode {sigma_mode}")
    if min(c, h, w) < 1 or l_max < 1:
        raise FormatError("invalid dimensions")
    if base ** l_max > _INT64_MAX:
        raise FormatError(f"{l_max} base-{base} planes overflow an int64 interval length")
    shape = Shape(c, h, w)
    pos = _STREAM_HEAD.size
    sigmas = None
    if sigma_mode == 1:
        end = pos + 4 * shape.size
        if len(data) < end:
            raise FormatError("stream truncated inside the sigma block")
        sigmas = np.frombuffer(data, dtype="<f4", count=shape.size, offset=pos)
        pos = end
    end = pos + 4 * l_max
    if len(data) < end:
        raise FormatError("stream truncated inside the plane directory")
    lengths = np.frombuffer(data, dtype="<u4", count=l_max, offset=pos)
    return StreamHeader(
        base=base,
        sigma_mode=sigma_mode,
        shape=shape,
        l_max=l_max,
        payload_lengths=lengths,
        sigmas=sigmas,
        header_size=end,
    )


def _parse_tensor_head(data: bytes, magic: bytes) -> tuple[Shape, int]:
    if len(data) < _TENSOR_HEAD.size:
        raise FormatError("file shorter than its header")
    got, version, c, h, w = _TENSOR_HEAD.unpack_from(data)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    if version != 1:
        raise FormatError(f"unsupported file version {version}")
    if min(c, h, w) < 1:
        raise FormatError("invalid dimensions")
    return Shape(c, h, w), _TENSOR_HEAD.size


def write_lten(values: np.ndarray, sigmas: np.ndarray) -> bytes:
    """Serialize an integer latent tensor with its per-element scales."""
    values = np.asarray(values)
    sigmas = np.asarray(sigmas)
    if values.ndim != 3 or values.shape != sigmas.shape:
        raise ValueError("values and sigmas must share one (C, H, W) shape")
    shape = Shape(*values.shape)
    i32 = np.iinfo(np.int32)
    if values.min() < i32.min or values.max() > i32.max:
        raise ValueError("latent values exceed the int32 container range")
    out = bytearray()
    out += _TENSOR_HEAD.pack(LATENT_MAGIC, 1, shape.channels, shape.height, shape.width)
    out += np.ascontiguousarray(values, dtype="<i4").tobytes()
    out += np.ascontiguousarray(sigmas, dtype="<f4").tobytes()
    return bytes(out)


def read_lten(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse an LTEN file into (int64 values, float32 sigmas), both (C,H,W)."""
    shape, pos = _parse_tensor_head(data, LATENT_MAGIC)
    k = shape.size
    if len(data) != pos + 8 * k:
        raise FormatError("file size does not match its dimensions")
    values = np.frombuffer(data, dtype="<i4", count=k, offset=pos)
    sigmas = np.frombuffer(data, dtype="<f4", count=k, offset=pos + 4 * k)
    dims = (shape.channels, shape.height, shape.width)
    return values.astype(np.int64).reshape(dims), sigmas.reshape(dims).copy()


def write_lflt(values: np.ndarray) -> bytes:
    """Serialize a real-valued (C, H, W) tensor as float32."""
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError("expected a (C, H, W) tensor")
    shape = Shape(*values.shape)
    out = bytearray()
    out += _TENSOR_HEAD.pack(FLOATS_MAGIC, 1, shape.channels, shape.height, shape.width)
    out += np.ascontiguousarray(values, dtype="<f4").tobytes()
    return bytes(out)


def read_lflt(data: bytes) -> np.ndarray:
    """Parse an LFLT file into a float32 (C, H, W) tensor."""
    shape, pos = _parse_tensor_head(data, FLOATS_MAGIC)
    k = shape.size
    if len(data) != pos + 4 * k:
        raise FormatError("file size does not match its dimensions")
    values = np.frombuffer(data, dtype="<f4", count=k, offset=pos)
    return values.reshape((shape.channels, shape.height, shape.width)).copy()
