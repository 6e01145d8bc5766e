"""Waveform container and RIFF/WAVE I/O.

Files are written as mono 32-bit IEEE float with a ``fact`` chunk: a 58-byte
header, then the samples as little-endian float32. Reading accepts integer
PCM at 8 (unsigned), 16, 24 and 32 bits and IEEE float at 32 and 64 bits,
plain or ``WAVE_FORMAT_EXTENSIBLE``, with any number of channels. Samples
become float64 in [-1, 1): integers are divided by 2**(bits - 1) (8-bit is
offset by 128 first, 24-bit is read as the left-justified int32), and
multichannel input is averaged to mono. Chunks other than ``fmt `` and
``data`` are skipped. RIFX, RF64, compressed formats and malformed or
truncated files raise AudioError.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SAMPLE_RATE = 22_050


class AudioError(Exception):
    pass


@dataclass
class Waveform:
    samples: np.ndarray  # float64, mono
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioError(f"expected mono samples, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise AudioError(f"sample rate must be positive: {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)


class Buffer:
    """An array reused from call to call, so a process faults its pages in
    once, not per use: ``take(n)`` is a view of its first n entries, valid
    until the next ``take``. An n past its length reallocates it at twice
    that length or n; pages past the largest n taken stay untouched."""

    def __init__(self, dtype: str = "<f8"):
        self.array = np.empty(0, dtype)

    def take(self, n: int, zero: bool = False) -> np.ndarray:
        if n > len(self.array):
            self.array = np.empty(max(n, 2 * len(self.array)), self.array.dtype)
        if zero:
            self.array[:n] = 0
        return self.array[:n]


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# Bytes 4-15 of the KSDATAFORMAT_SUBTYPE GUIDs; bytes 0-3 hold the format tag.
_SUBTYPE_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# Sample width in bytes -> (stored dtype, offset, scale) for integer PCM.
_PCM_WIDTHS = {1: ("<u1", 128.0, 2 ** 7), 2: ("<i2", 0.0, 2 ** 15),
               3: ("<i4", 0.0, 2 ** 31), 4: ("<i4", 0.0, 2 ** 31)}
_FLOAT_HEADER = struct.Struct("<4sI4s 4sIHHIIHHH 4sII 4sI")
# the most frames whose float32 file size, less 8, fits the RIFF header's
# 32-bit size field
MAX_WAV_FRAMES = (0xFFFFFFFF - (_FLOAT_HEADER.size - 8)) // 4
# the highest rate whose byte rate, 4 bytes a frame, fits the fmt chunk's
# 32-bit field
MAX_SAMPLE_RATE = 0xFFFFFFFF // 4


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) < n:
        raise AudioError(f"{path}: truncated header")
    return data


def _sample_format(fmt: bytes, path) -> tuple[np.dtype, int, int, int]:
    """Decode a ``fmt `` chunk into (stored dtype, channels, rate, width)."""
    if len(fmt) < 16:
        raise AudioError(f"{path}: fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _SUBTYPE_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels == 0 or block_align == 0 or block_align % channels:
        raise AudioError(f"{path}: {channels} channels in {block_align}-byte frames")
    width = block_align // channels
    if tag == _PCM and width in _PCM_WIDTHS and 0 < bits <= 8 * width:
        return np.dtype(_PCM_WIDTHS[width][0]), channels, rate, width
    if tag == _IEEE_FLOAT and width in (4, 8) and bits == 8 * width:
        return np.dtype(f"<f{width}"), channels, rate, width
    raise AudioError(f"{path}: unsupported format tag {tag:#06x} "
                     f"with {bits}-bit samples")


def read_wav(path: str | Path) -> Waveform:
    with open(path, "rb") as f:
        riff, _, wave = struct.unpack("<4sI4s", _read_exact(f, 12, path))
        if riff != b"RIFF" or wave != b"WAVE":
            raise AudioError(f"{path}: not a RIFF/WAVE file ({riff!r}, {wave!r})")
        sample_format = None
        while True:
            head = f.read(8)
            if not head:
                missing = "fmt" if sample_format is None else "data"
                raise AudioError(f"{path}: no {missing} chunk")
            if len(head) < 8:
                raise AudioError(f"{path}: truncated header")
            chunk_id, size = struct.unpack("<4sI", head)
            if chunk_id == b"data":
                if sample_format is None:
                    raise AudioError(f"{path}: data chunk before fmt chunk")
                break
            skip = size + size % 2  # odd-sized chunks carry a pad byte
            if chunk_id == b"fmt ":
                fmt = _read_exact(f, min(size, 40), path)
                sample_format = _sample_format(fmt, path)
                skip -= len(fmt)
            f.seek(skip, 1)
        dtype, channels, rate, width = sample_format
        count = size - size % (width * channels)
        if os.fstat(f.fileno()).st_size - f.tell() < count:
            raise AudioError(f"{path}: data chunk shorter than its {size} bytes")
        raw = np.empty(count, np.uint8)
        f.readinto(raw)
    if width == 3:
        wide = np.zeros((raw.size // 3, 4), np.uint8)
        wide[:, 1:] = raw.reshape(-1, 3)
        raw = wide
    data = raw.view(dtype).reshape(-1, channels)
    if dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # a signalling NaN reads as NaN
            samples = data.mean(axis=1) if channels > 1 else data[:, 0]
            return Waveform(samples.astype(np.float64), rate)
    _, offset, scale = _PCM_WIDTHS[width]
    samples = data.astype(np.float64)
    samples -= offset
    samples /= scale
    return Waveform(samples.mean(axis=1) if channels > 1 else samples[:, 0], rate)


def write_wav(path: str | Path, waveform: Waveform,
              out: Buffer | None = None) -> np.ndarray:
    """Write ``waveform`` as mono 32-bit IEEE float and return the samples
    written, rounded to little-endian float32, in ``out`` if given."""
    frames = len(waveform)
    nbytes = 4 * frames
    if frames > MAX_WAV_FRAMES:
        raise AudioError(f"{path}: {nbytes} bytes of samples exceed the RIFF "
                         "size limit")
    rate = waveform.sample_rate
    if rate > MAX_SAMPLE_RATE:
        raise AudioError(f"{path}: a sample rate of {rate} Hz exceeds the "
                         f"{MAX_SAMPLE_RATE} Hz a WAV header holds")
    riff_size = _FLOAT_HEADER.size - 8 + nbytes
    header = _FLOAT_HEADER.pack(b"RIFF", riff_size, b"WAVE",
                                b"fmt ", 18, _IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
                                b"fact", 4, frames, b"data", nbytes)
    samples = (out or Buffer("<f4")).take(frames)
    samples[:] = waveform.samples
    with open(path, "wb") as f:
        f.write(header)
        f.write(memoryview(samples))
    return samples
