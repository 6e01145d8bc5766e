"""Frame SDR, silence gating, medians, and report assembly."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from scoreforge.audio import Waveform
from scoreforge.evalkit import (
    FRAME_SECONDS,
    SDR_CAP_DB,
    SILENCE_DBFS,
    SILENT,
    EvalError,
    LengthMismatch,
    NoActivePieces,
    NonPositiveFrame,
    SdrReport,
    corpus_sdr,
    evaluate_piece,
    frame_sdr,
    piece_sdr,
)

SR = 22050


def sine(frequency=441.0, seconds=2.0, amplitude=0.5, sr=SR):
    t = np.arange(int(round(seconds * sr))) / sr
    return Waveform(amplitude * np.sin(2 * np.pi * frequency * t), sr)


class TestFrameSdr:
    def test_identity_estimate_hits_cap(self):
        ref = sine(seconds=3.0)
        frames = frame_sdr(ref, ref)
        assert frames == [SDR_CAP_DB] * 3

    def test_half_amplitude_is_6dB(self):
        ref = sine(seconds=2.0)
        est = Waveform(ref.samples * 0.5, SR)
        expected = 10.0 * math.log10(4.0)
        for value in frame_sdr(ref, est):
            assert value == pytest.approx(expected, abs=1e-9)

    def test_additive_noise_at_minus_20dB_gives_20dB(self):
        ref = sine(441.0, seconds=2.0, amplitude=0.5)
        noise = sine(882.0, seconds=2.0, amplitude=0.05)
        est = Waveform(ref.samples + noise.samples, SR)
        for value in frame_sdr(ref, est):
            assert value == pytest.approx(20.0, abs=1e-3)

    def test_zero_estimate_is_0dB(self):
        ref = sine(seconds=1.0)
        zero = Waveform(np.zeros(len(ref)), SR)
        assert frame_sdr(ref, zero) == [pytest.approx(0.0)]
        assert frame_sdr(ref, zero, projection="scalar") == [pytest.approx(0.0)]

    def test_silent_reference_frames_marked(self):
        quiet = np.zeros(SR)
        loud = sine(seconds=1.0).samples
        ref = Waveform(np.concatenate([quiet, loud]), SR)
        est = Waveform(np.concatenate([loud, loud]), SR)
        frames = frame_sdr(ref, est)
        assert frames[0] is SILENT
        assert frames[1] == SDR_CAP_DB

    def test_silence_threshold_is_rms_based(self):
        # constant level exactly at the threshold must count as active
        level = 10.0 ** (SILENCE_DBFS / 20.0)
        ref = Waveform(np.full(SR, level * 1.01), SR)
        below = Waveform(np.full(SR, level * 0.99), SR)
        est = Waveform(np.zeros(SR), SR)
        assert frame_sdr(ref, est) == [pytest.approx(0.0)]
        assert frame_sdr(below, est) == [SILENT]

    def test_partial_trailing_frame_dropped(self):
        ref = sine(seconds=2.5)
        assert len(frame_sdr(ref, ref)) == 2
        short = sine(seconds=0.75)
        assert frame_sdr(short, short) == []

    def test_custom_frame_length(self):
        ref = sine(seconds=2.0)
        assert len(frame_sdr(ref, ref, frame_len_s=0.5)) == 4

    def test_scalar_mode_invariant_to_gain(self):
        ref = sine(441.0, seconds=2.0)
        est = Waveform(ref.samples + sine(660.0, seconds=2.0,
                                          amplitude=0.1).samples, SR)
        base = frame_sdr(ref, est, projection="scalar")
        for beta in (1e-3, 0.25, 4.0, 1e3):
            scaled = Waveform(est.samples * beta, SR)
            got = frame_sdr(ref, scaled, projection="scalar")
            for a, b in zip(base, got):
                assert abs(a - b) <= 1e-6

    def test_scalar_mode_caps_scaled_copies(self):
        ref = sine(seconds=1.0)
        est = Waveform(ref.samples * 7.3, SR)
        assert frame_sdr(ref, est, projection="scalar") == [SDR_CAP_DB]
        # plain mode, by contrast, punishes the wrong gain
        plain = frame_sdr(ref, est)[0]
        assert plain == pytest.approx(10 * math.log10(1 / 6.3 ** 2), abs=1e-9)

    def test_input_validation(self):
        ref = sine(seconds=1.0)
        with pytest.raises(LengthMismatch):
            frame_sdr(ref, Waveform(ref.samples[:-1], SR))
        with pytest.raises(LengthMismatch):
            frame_sdr(ref, Waveform(ref.samples.copy(), 44100))
        with pytest.raises(NonPositiveFrame):
            frame_sdr(ref, ref, frame_len_s=0.0)
        with pytest.raises(NonPositiveFrame):
            frame_sdr(ref, ref, frame_len_s=1e-6)
        with pytest.raises(EvalError):
            frame_sdr(ref, ref, projection="mad")


def loop_frame_sdr(reference, estimate, projection):
    """The frame-by-frame np.dot formulation frame_sdr replaced."""
    frame = int(round(FRAME_SECONDS * reference.sample_rate))
    threshold = 10.0 ** (SILENCE_DBFS / 20.0)
    out = []
    for start in range(0, len(reference) - frame + 1, frame):
        s = reference.samples[start:start + frame]
        s_hat = estimate.samples[start:start + frame]
        signal_power = float(np.dot(s, s))
        if math.sqrt(signal_power / frame) < threshold:
            out.append(SILENT)
            continue
        if projection == "plain":
            residual = float(np.dot(s - s_hat, s - s_hat))
        else:
            estimate_power = float(np.dot(s_hat, s_hat))
            cross = float(np.dot(s, s_hat))
            residual = max(signal_power - cross * cross / estimate_power, 0.0)
        out.append(SDR_CAP_DB if residual <= 0.0 else
                   min(10.0 * math.log10(signal_power / residual), SDR_CAP_DB))
    return out


def noisy_pair(seconds=6.5, seed=3):
    rng = np.random.default_rng(seed)
    reference = sine(seconds=seconds).samples * np.repeat(
        [1.0, 0.0, 0.3, 1e-5, 1.0, 0.8, 1.0], SR)[:int(seconds * SR)]
    estimate = 0.7 * reference + 0.01 * rng.standard_normal(len(reference))
    return Waveform(reference, SR), Waveform(estimate, SR)


class TestFrameSdrArithmetic:
    @pytest.mark.parametrize("projection", ["plain", "scalar"])
    def test_agrees_with_frame_loop(self, projection):
        reference, estimate = noisy_pair()
        got = frame_sdr(reference, estimate, projection=projection)
        want = loop_frame_sdr(reference, estimate, projection)
        assert [v is SILENT for v in got] == [v is SILENT for v in want]
        assert SILENT in got and len(got) == 6
        for a, b in zip(got, want):
            if a is not SILENT:
                assert abs(a - b) <= 1e-9

    def test_independent_of_blas_threads(self):
        # threaded BLAS dot products split their sums by thread count
        script = (
            "import json, sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "from test_evalkit import noisy_pair\n"
            "from scoreforge.evalkit import frame_sdr\n"
            "ref, est = noisy_pair()\n"
            "print(json.dumps([[v if v is None else v.hex() for v in\n"
            "    frame_sdr(ref, est, projection=p)] for p in ('plain', 'scalar')]))\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script, os.path.dirname(__file__)],
                env=env, capture_output=True, text=True, check=True)
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]


class TestMedians:
    def test_piece_median_lower_middle(self):
        assert piece_sdr([3.0, 1.0, 2.0]) == 2.0
        assert piece_sdr([4.0, 1.0, 2.0, 3.0]) == 2.0  # even count: lower
        assert piece_sdr([5.0]) == 5.0

    def test_piece_median_skips_silent(self):
        assert piece_sdr([SILENT, 7.0, SILENT, 3.0]) == 3.0
        assert piece_sdr([SILENT, SILENT]) is SILENT
        assert piece_sdr([]) is SILENT

    def test_corpus_median(self):
        values = {"violin": [4.0, SILENT, 2.0, 8.0], "cello": [1.0]}
        assert corpus_sdr(values) == {"violin": 4.0, "cello": 1.0}

    def test_corpus_median_requires_active_piece(self):
        with pytest.raises(NoActivePieces) as info:
            corpus_sdr({"tuba": [SILENT, SILENT]})
        assert info.value.stem == "tuba"


class TestReport:
    def build(self):
        report = SdrReport(frame_len_s=1.0, silence_threshold_dbfs=-60.0,
                           projection="plain")
        report.add_piece("p1", {"violin": [5.0, 7.0], "cello": [SILENT, 2.0]})
        report.add_piece("p2", {"violin": [1.0], "cello": [SILENT]})
        report.add_piece("p3", {"harp": [SILENT]})
        report.finalize()
        return report

    def test_medians_cascade(self):
        report = self.build()
        assert report.piece_medians["p1"] == {"violin": 5.0, "cello": 2.0}
        assert report.piece_medians["p2"] == {"violin": 1.0, "cello": SILENT}
        assert report.corpus_medians == {"violin": 1.0, "cello": 2.0}
        assert "harp" not in report.corpus_medians  # silent everywhere

    def test_to_dict_json_ready(self):
        data = json.loads(json.dumps(self.build().to_dict()))
        assert data["parameters"]["projection"] == "plain"
        assert data["pieces"]["p1"]["medians"]["violin"] == 5.0
        assert data["pieces"]["p2"]["medians"]["cello"] is None
        assert data["corpus_medians"] == {"violin": 1.0, "cello": 2.0}


class TestEvaluatePiece:
    def test_intersection_of_stems(self):
        ref = sine(seconds=1.0)
        refs = {"violin": ref, "cello": ref}
        ests = {"violin": ref, "harp": ref}
        out = evaluate_piece(refs, ests)
        assert list(out) == ["violin"]
        assert out["violin"] == [SDR_CAP_DB]

    def test_passes_parameters_through(self):
        ref = sine(seconds=1.0)
        est = Waveform(ref.samples * 2.0, SR)
        out = evaluate_piece({"v": ref}, {"v": est}, frame_len_s=0.25,
                             projection="scalar")
        assert out["v"] == [SDR_CAP_DB] * 4
