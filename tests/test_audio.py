"""RIFF/WAVE codec: scipy.io.wavfile is the oracle for bytes and values."""

import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from fuzz import mutations
from scoreforge import audio
from scoreforge.audio import (
    MAX_SAMPLE_RATE,
    MAX_WAV_FRAMES,
    AudioError,
    Buffer,
    Waveform,
    read_wav,
    write_wav,
)

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
        # the RIFF size field states 50 header bytes plus 4 bytes a frame
        assert 50 + 4 * MAX_WAV_FRAMES <= 0xFFFFFFFF < 50 + 4 * (MAX_WAV_FRAMES + 1)
        monkeypatch.setattr(audio, "MAX_WAV_FRAMES", 10)
        path = tmp_path / "big.wav"
        write_wav(path, Waveform(np.zeros(10), 8000))
        with pytest.raises(AudioError, match="RIFF size limit"):
            write_wav(tmp_path / "bigger.wav", Waveform(np.zeros(11), 8000))
        assert not (tmp_path / "bigger.wav").exists()

    def test_sample_rate_limit(self, tmp_path):
        # the fmt chunk's 32-bit byte rate field states 4 bytes a frame
        assert 4 * MAX_SAMPLE_RATE <= 0xFFFFFFFF < 4 * (MAX_SAMPLE_RATE + 1)
        path = tmp_path / "fast.wav"
        write_wav(path, Waveform(np.zeros(1), MAX_SAMPLE_RATE))
        assert read_wav(path).sample_rate == MAX_SAMPLE_RATE
        with pytest.raises(AudioError, match="a WAV header holds"):
            write_wav(tmp_path / "faster.wav",
                      Waveform(np.zeros(1), MAX_SAMPLE_RATE + 1))
        assert not (tmp_path / "faster.wav").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50),
           st.integers(1, 384000))
    def test_round_trip_is_float32_rounding(self, tmp_path_factory, values, rate):
        path = tmp_path_factory.mktemp("round_trip") / "x.wav"
        x = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            written = write_wav(path, Waveform(x, rate))
            expected = x.astype(np.float32).astype(np.float64)
        back = read_wav(path)
        assert back.sample_rate == rate
        assert_bits_equal(back.samples, expected)
        # the samples returned are the samples written
        assert written.dtype == np.dtype("<f4")
        assert_bits_equal(written.astype(np.float64), expected)


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


class TestBuffer:
    def test_views_grow_and_zero(self):
        buffer = Buffer()
        first = buffer.take(5)
        first[:] = 7.0
        assert np.shares_memory(buffer.take(3), first)
        assert np.array_equal(buffer.take(4, zero=True), np.zeros(4))
        assert first[4] == 7.0  # past the n zeroed
        # a longer n reallocates, at twice the length when that is more
        assert len(buffer.take(6)) == 6 and len(buffer.array) == 10
        assert not np.shares_memory(buffer.take(6), first)
        assert len(buffer.take(25)) == 25 and len(buffer.array) == 25

    def test_dtype(self):
        assert Buffer("<f4").take(3).dtype == np.dtype("<f4")
        assert Buffer().take(3).dtype == np.float64

    def test_write_into_a_reused_buffer(self, tmp_path):
        """A longer file after a shorter one, and a shorter after a longer:
        each has the bytes and returns the samples of a write with no
        buffer."""
        out = Buffer("<f4")
        rng = np.random.default_rng(3)
        for i, length in enumerate((40, 301, 7, 301, 0)):
            wave = Waveform(rng.uniform(-1, 1, length), 22050)
            alone, reused = tmp_path / f"alone{i}.wav", tmp_path / f"reused{i}.wav"
            expected = write_wav(alone, wave)
            written = write_wav(reused, wave, out)
            assert reused.read_bytes() == alone.read_bytes()
            assert written.dtype == np.dtype("<f4")
            assert np.array_equal(written, expected)
            assert length == 0 or np.shares_memory(written, out.array)


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_audio_error_names_the_file(self, tmp_path, case):
        path = tmp_path / "broken.wav"
        path.write_bytes(MALFORMED[case])
        with pytest.raises(AudioError, match="broken.wav"):
            read_wav(path)


# small files of every layout read_wav accepts, so most mutations hit a header
FUZZ_SOURCES = [
    riff(FLOAT_FMT, chunk(b"fact", struct.pack("<I", 8)), DATA),
    riff(chunk(b"LIST", b"INFOISFT\x05\0\0\0abcde"), fmt(1, 2, 8000, 2, 16),
         chunk(b"data", np.arange(-8, 8, dtype="<i2").tobytes())),
    riff(fmt(1, 1, 8000, 1, 8), chunk(b"data", bytes(range(0, 250, 25)))),
    riff(fmt(1, 1, 8000, 3, 24), chunk(b"data", bytes(range(12)))),
    riff(fmt(0xFFFE, 1, 8000, 8, 64, subformat=3),
         chunk(b"data", np.linspace(-1, 1, 4).astype("<f8").tobytes())),
]


class TestSignallingNan:
    """A float sample whose bits are a signalling NaN reads as a NaN, with
    no floating-point warning (which the tests raise as an error)."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_reads_as_nan(self, tmp_path, channels):
        data = np.repeat(np.array([0x3F800000, 0x7FA00000], "<u4"), channels)
        path = tmp_path / "snan.wav"
        path.write_bytes(riff(fmt(3, channels, 8000, 4, 32),
                              chunk(b"data", data.tobytes())))
        samples = read_wav(path).samples
        assert samples[0] == 1.0 and np.isnan(samples[1])


class TestMutatedFiles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_read_raises_only_audio_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "mutant.wav"
        path.write_bytes(data.draw(mutations(FUZZ_SOURCES)))
        try:
            wave = read_wav(path)
        except AudioError:
            return
        assert wave.samples.dtype == np.float64 and wave.sample_rate > 0


def test_cli_import_loads_no_scipy():
    script = ("import sys, scoreforge.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
