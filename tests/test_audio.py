"""RIFF/WAVE codec: scipy.io.wavfile is the oracle for bytes and values."""

import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from scoreforge import audio
from scoreforge.audio import AudioError, Waveform, read_wav, write_wav

_SCALES = {np.dtype(np.uint8): (128.0, 2 ** 7), np.dtype(np.int16): (0.0, 2 ** 15),
           np.dtype(np.int32): (0.0, 2 ** 31)}


def scipy_samples(path) -> tuple[int, np.ndarray]:
    """scipy's samples scaled as the module docstring states: integers to
    [-1, 1), floats as stored, then channels averaged (floats in their own
    dtype, as before)."""
    rate, data = wavfile.read(path)
    if data.dtype in _SCALES:
        offset, scale = _SCALES[data.dtype]
        data = (data.astype(np.float64) - offset) / scale
    if data.ndim == 2:
        data = data.mean(axis=1)
    return rate, data.astype(np.float64)


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def riff(*chunks: bytes, form: bytes = b"WAVE") -> bytes:
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt(tag: int, channels: int, rate: int, width: int, bits: int,
        subformat: int | None = None) -> bytes:
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * channels * width,
                       channels * width, bits)
    if subformat is not None:  # WAVE_FORMAT_EXTENSIBLE
        guid = struct.pack("<IHH8s", subformat, 0, 0x10,
                           bytes.fromhex("800000aa00389b71"))
        body += struct.pack("<HHI", 22, bits, 0) + guid
    return chunk(b"fmt ", body)


@pytest.fixture
def signal():
    rng = np.random.default_rng(5)
    return np.clip(rng.normal(0, 0.4, 301), -1, 1)


class TestWrite:
    @pytest.mark.parametrize("length", [0, 1, 301])
    @pytest.mark.parametrize("rate", [22050, 44100])
    def test_bytes_equal_scipy(self, tmp_path, length, rate):
        x = np.random.default_rng(length).uniform(-1, 1, length)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        write_wav(ours, Waveform(x, rate))
        wavfile.write(theirs, rate, x.astype(np.float32))
        assert ours.read_bytes() == theirs.read_bytes()
        assert len(ours.read_bytes()) == 58 + 4 * length

    def test_riff_size_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(audio, "_RIFF_LIMIT", 50 + 4 * 10)
        path = tmp_path / "big.wav"
        write_wav(path, Waveform(np.zeros(10), 8000))
        with pytest.raises(AudioError, match="RIFF size limit"):
            write_wav(tmp_path / "bigger.wav", Waveform(np.zeros(11), 8000))
        assert not (tmp_path / "bigger.wav").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50),
           st.integers(1, 384000))
    def test_round_trip_is_float32_rounding(self, tmp_path_factory, values, rate):
        path = tmp_path_factory.mktemp("round_trip") / "x.wav"
        x = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            write_wav(path, Waveform(x, rate))
            expected = x.astype(np.float32).astype(np.float64)
        back = read_wav(path)
        assert back.sample_rate == rate
        assert_bits_equal(back.samples, expected)


class TestReadAgainstScipy:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32,
                                       np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_values(self, tmp_path, signal, dtype, channels):
        x = np.stack([np.roll(signal, k) for k in range(channels)], axis=1)
        if dtype == np.uint8:
            data = np.round(x * 127 + 128).astype(dtype)
        elif np.dtype(dtype).kind == "i":
            data = np.round(x * (np.iinfo(dtype).max - 1)).astype(dtype)
        else:
            data = x.astype(dtype)
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, data if channels > 1 else data[:, 0])
        rate, expected = scipy_samples(path)
        wave = read_wav(path)
        assert wave.sample_rate == rate == 16000
        assert_bits_equal(wave.samples, expected)
        assert np.all(np.abs(wave.samples) <= 1.0)

    def test_24_bit_is_left_justified_int32(self, tmp_path):
        values = np.array([0, 1, -1, 2 ** 23 - 1, -2 ** 23, 12345, -54321, 7],
                          dtype=np.int32).reshape(4, 2)
        body = b"".join(int(v).to_bytes(3, "little", signed=True)
                        for v in values.ravel())
        path = tmp_path / "s24.wav"
        path.write_bytes(riff(fmt(1, 2, 8000, 3, 24), chunk(b"data", body)))
        rate, expected = scipy_samples(path)
        assert_bits_equal(read_wav(path).samples, expected)
        assert_bits_equal(read_wav(path).samples,
                          (values * 256 / 2 ** 31).mean(axis=1))

    @pytest.mark.parametrize("tag,dtype", [(1, "<i2"), (1, "<i4"), (3, "<f4"),
                                           (3, "<f8")])
    def test_extensible_takes_the_subformat(self, tmp_path, signal, tag, dtype):
        x = signal if tag == 3 else np.round(signal * 30000)
        data = np.stack([x, -x], axis=1).astype(dtype)
        width = data.itemsize
        plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
        body = chunk(b"data", data.tobytes())
        plain.write_bytes(riff(fmt(tag, 2, 8000, width, 8 * width), body))
        extensible.write_bytes(
            riff(fmt(0xFFFE, 2, 8000, width, 8 * width, subformat=tag), body))
        rate, expected = scipy_samples(extensible)
        assert_bits_equal(read_wav(extensible).samples, expected)
        assert_bits_equal(read_wav(plain).samples, expected)

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_unknown_chunks_and_pad_bytes_skipped(self, tmp_path, signal):
        data = signal.astype("<f4")
        path = tmp_path / "chunks.wav"
        path.write_bytes(riff(
            chunk(b"LIST", b"INFOISFT\x05\0\0\0abcde"),  # odd: pad byte follows
            fmt(3, 1, 22050, 4, 32),
            chunk(b"fact", struct.pack("<I", len(data))),
            chunk(b"odd ", b"xyz"),
            chunk(b"data", data.tobytes())))
        rate, expected = scipy_samples(path)
        wave = read_wav(path)
        assert wave.sample_rate == rate == 22050
        assert_bits_equal(wave.samples, expected)
        assert_bits_equal(wave.samples, data.astype(np.float64))


FLOAT_FMT = fmt(3, 1, 8000, 4, 32)
DATA = chunk(b"data", np.arange(8, dtype="<f4").tobytes())
MALFORMED = {
    "empty": b"",
    "not riff": b"JUNK" + riff(FLOAT_FMT, DATA)[4:],
    "rifx": b"RIFX" + riff(FLOAT_FMT, DATA)[4:],
    "rf64": (b"RF64\xff\xff\xff\xffWAVE" + chunk(b"ds64", bytes(28))
             + FLOAT_FMT + DATA),
    "not wave": riff(FLOAT_FMT, DATA, form=b"AVI "),
    "no fmt chunk": riff(chunk(b"LIST", b"INFO")),
    "data before fmt": riff(DATA, FLOAT_FMT),
    "no data chunk": riff(FLOAT_FMT, chunk(b"LIST", b"INFO")),
    "compressed": riff(fmt(2, 1, 8000, 4, 4), DATA),
    "float16": riff(fmt(3, 1, 8000, 2, 16), DATA),
    "pcm64": riff(fmt(1, 1, 8000, 8, 64), DATA),
    "pcm48": riff(fmt(1, 1, 8000, 6, 48), DATA),
    "zero channels": riff(fmt(1, 0, 8000, 2, 16), DATA),
    "unknown subformat": riff(fmt(0xFFFE, 1, 8000, 4, 32, subformat=2), DATA),
    "short fmt": riff(chunk(b"fmt ", bytes(14)), DATA),
    "truncated riff header": riff(FLOAT_FMT, DATA)[:10],
    "truncated fmt": riff(FLOAT_FMT, DATA)[:24],
    "truncated chunk header": riff(FLOAT_FMT, DATA)[:40],
    "truncated data": riff(FLOAT_FMT, DATA)[:-1],
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_audio_error_names_the_file(self, tmp_path, case):
        path = tmp_path / "broken.wav"
        path.write_bytes(MALFORMED[case])
        with pytest.raises(AudioError, match="broken.wav"):
            read_wav(path)


def test_cli_import_loads_no_scipy():
    script = ("import sys, scoreforge.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
