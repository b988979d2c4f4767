"""Minimal RIFF/WAVE reader and writer.

Reads PCM 16/24-bit and IEEE float32, mono or multichannel, with the format
tag in the fmt chunk or in a WAVE_FORMAT_EXTENSIBLE subformat; writes IEEE
float32. No resampling: callers must check the returned rate.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import SceneParseError, SceneValidationError

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE


def read_wav(path: str):
    """Returns (samples as float64 array of shape (n, channels), rate)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise SceneParseError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        size = struct.unpack_from("<I", data, pos + 4)[0]
        body = data[pos + 8: pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise SceneParseError(f"{path}: fmt chunk too short ({len(body)} bytes)")
            fmt = body
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise SceneParseError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if channels == 0:
        raise SceneParseError(f"{path}: fmt chunk declares 0 channels")
    if rate == 0:
        raise SceneParseError(f"{path}: fmt chunk declares sample rate 0")
    if (tag == _FMT_EXTENSIBLE and len(fmt) >= 26
            and struct.unpack_from("<H", fmt, 16)[0] >= 22):
        # the subformat GUID (cbSize >= 22) starts with the real format tag
        tag = struct.unpack_from("<H", fmt, 24)[0]
    if (tag, bits) not in ((_FMT_FLOAT, 32), (_FMT_PCM, 16), (_FMT_PCM, 24)):
        raise SceneParseError(f"{path}: unsupported WAV format (tag {tag}, {bits} bit)")
    # a truncated data chunk ends in a partial frame: drop it
    frame = channels * bits // 8
    payload = payload[: len(payload) // frame * frame]
    if tag == _FMT_FLOAT:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    elif bits == 16:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        ints = (raw[:, 0].astype(np.int32)
                | (raw[:, 1].astype(np.int32) << 8)
                | (raw[:, 2].astype(np.int32) << 16))
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        samples = ints.astype(np.float64) / float(1 << 23)
    return samples.reshape(-1, channels), float(rate)


def write_wav(path: str, samples: np.ndarray, rate: float):
    """Write (n, channels) or (n,) samples as IEEE float32.

    Raises before the file is opened when ``rate`` is not a whole number of
    Hz, when it, the byte rate or the RIFF size does not fit the header's
    32-bit fields, or when a sample is not finite as float32.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    block_align = channels * 4
    if not (float(rate).is_integer() and 0 <= rate < 2**32 and rate * block_align < 2**32):
        raise SceneValidationError(f"{path}: a WAV header needs a whole number of Hz below "
                                   f"2^32 / (4 x channels), not {rate} Hz x {channels} channel(s)")
    if 36 + 4 * x.size >= 2**32:  # checked before a payload of GiB is converted
        raise SceneValidationError(f"{path}: {x.size} float32 samples exceed a WAV file's "
                                   "32-bit RIFF size")
    with np.errstate(over="ignore"):  # beyond the float32 range: inf, rejected below
        f32 = x.astype("<f4", order="C")  # frame by frame, as the file holds it
    # min and max allocate nothing, and are NaN when a sample is
    if f32.size and not (math.isfinite(f32.min()) and math.isfinite(f32.max())):
        raise SceneValidationError(
            f"{path}: a sample is not finite or exceeds the float32 range")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + f32.nbytes, b"WAVE",
        b"fmt ", 16, _FMT_FLOAT, channels, int(rate), int(rate) * block_align, block_align, 32,
        b"data", f32.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f32)  # its buffer, with no bytes copy
