"""Render manifests, the built-in test synthesizer, and stem mixing."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from scoreforge import renderkit
from scoreforge.audio import AudioError, Waveform
from scoreforge.expressive import (
    AnnotationParams,
    annotate,
    load_articulation_tables,
)
from scoreforge.gmfix import REGISTRY, track_instruments
from scoreforge.renderkit import (
    ATTACK_SECONDS,
    DEFAULT_SAMPLE_RATE,
    MAX_HARMONICS,
    OSC_CAP,
    RELEASE_SECONDS,
    SYNTH_GAIN,
    WAVETABLE_SIZE,
    SampleRateMismatch,
    UngroupableTrack,
    emit_manifest,
    mix_stems,
)
from scoreforge.renderkit import test_synthesize as synthesize
from scoreforge.smf import (
    ControlChange,
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    ProgramChange,
    SetTempo,
    TempoMap,
    Track,
    TrackName,
    parse_smf,
    track_notes,
)



def fixed_track(instrument, channel, notes, name=None):
    """A track the instrument reader can identify (program + channel)."""
    iid = REGISTRY[instrument]
    channel = 9 if instrument == "untuned_percussion" else channel
    events = [TrackName(0, name or instrument),
              ProgramChange(0, channel, iid.gm_program)]
    for on, off, pitch, velocity in notes:
        events.append(NoteOn(on, channel, pitch, velocity))
        events.append(NoteOff(off, channel, pitch, 0))
    events.sort(key=lambda e: e.tick)
    events.append(EndOfTrack(max(off for _, off, _, _ in notes)))
    return Track(events=events)


def conductor(end, tempos=((0, 500000),)):
    events = [TrackName(0, "conductor")]
    events += [SetTempo(t, us) for t, us in tempos]
    events.append(EndOfTrack(end))
    return Track(events=events)


def reference_note(pitch, velocity, start_s, stop_s, sample_rate, total_s):
    """Independent rendering of one note with the documented formula."""
    n = int(round(total_s * sample_rate))
    out = np.zeros(n)
    start = int(round(start_s * sample_rate))
    stop = min(int(round(stop_s * sample_rate)), n)
    length = stop - start
    frequency = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
    harmonics = min(int(sample_rate / 2.0 / frequency), MAX_HARMONICS)
    if harmonics < 1 or length <= 0:
        return out
    t = np.arange(length, dtype=np.float64) / sample_rate
    wave = np.zeros(length)
    for k in range(1, harmonics + 1):
        wave += np.sin(2.0 * np.pi * k * frequency * t) / k
    attack = max(int(round(ATTACK_SECONDS * sample_rate)), 1)
    release = max(int(round(RELEASE_SECONDS * sample_rate)), 1)
    envelope = np.minimum(
        np.minimum(np.arange(1, length + 1) / attack,
                   np.arange(length, 0, -1) / release), 1.0)
    out[start:stop] = SYNTH_GAIN * (velocity / 127.0) * wave * envelope
    return out


# the synthesizer reads its partials from a wavetable; every rendering keeps
# at least this signal-to-noise ratio against the additive formula
SNR_GATE_DB = 60.0


def assert_snr(rendered, reference, label=None):
    """rendered has at least SNR_GATE_DB SNR against reference: the error's
    energy is at most the reference's times 10^(-SNR_GATE_DB / 10), so a
    silent reference admits only silence."""
    assert rendered.shape == reference.shape, label
    error = np.sum((rendered.astype(np.float64) - reference) ** 2)
    signal = np.sum(np.square(reference, dtype=np.float64))
    assert error <= signal * 10.0 ** (-SNR_GATE_DB / 10.0), \
        (label, 10.0 * np.log10(signal / error))


class TestSynthesizer:
    def test_single_note_matches_reference(self):
        piece = MidiPiece(480, [
            conductor(960),
            fixed_track("violin", 0, [(480, 960, 69, 96)]),
        ])
        rendered = synthesize(piece)
        expected = reference_note(69, 96, 0.5, 1.0, DEFAULT_SAMPLE_RATE, 1.0)
        assert rendered.sample_rate == DEFAULT_SAMPLE_RATE
        assert len(rendered) == 22050
        assert_snr(rendered.samples, expected)
        assert not rendered.samples[:11025].any()   # silent before onset
        assert np.abs(rendered.samples[11500:21500]).max() > 0.01

    def test_velocity_scales_amplitude(self):
        def render(velocity):
            piece = MidiPiece(480, [
                conductor(480),
                fixed_track("viola", 0, [(0, 480, 60, velocity)]),
            ])
            return synthesize(piece).samples
        loud, soft = render(120), render(40)
        assert np.allclose(loud, soft * 3.0, atol=1e-15)

    def test_band_limit_and_harmonic_cap(self):
        # 8.37 kHz fundamental at 22.05 kHz leaves room for exactly one
        # partial; a low C gets capped at MAX_HARMONICS partials
        for pitch in (120, 24):
            piece = MidiPiece(480, [
                conductor(960),
                fixed_track("cello", 0, [(0, 960, pitch, 100)]),
            ])
            rendered = synthesize(piece).samples
            expected = reference_note(pitch, 100, 0.0, 1.0,
                                      DEFAULT_SAMPLE_RATE, 1.0)
            assert_snr(rendered, expected, pitch)

    def test_above_nyquist_is_silent(self):
        piece = MidiPiece(480, [
            conductor(480),
            fixed_track("violin", 0, [(0, 480, 127, 127)]),
        ])
        assert not synthesize(piece).samples.any()

    def test_track_rendering_is_additive(self):
        piece = MidiPiece(480, [
            conductor(1440),
            fixed_track("violin", 0, [(0, 960, 72, 90)]),
            fixed_track("cello", 1, [(480, 1440, 48, 70)]),
        ])
        both = synthesize(piece, [1, 2]).samples
        first = synthesize(piece, [1]).samples
        second = synthesize(piece, [2]).samples
        assert np.array_equal(both, first + second)
        assert np.array_equal(synthesize(piece).samples, both)

    def test_tempo_governs_placement(self):
        piece = MidiPiece(480, [
            conductor(960, tempos=((0, 250000),)),  # 240 BPM
            fixed_track("violin", 0, [(480, 960, 69, 80)]),
        ])
        rendered = synthesize(piece)
        assert len(rendered) == int(round(0.5 * DEFAULT_SAMPLE_RATE))
        onset = int(round(0.25 * DEFAULT_SAMPLE_RATE))
        assert not rendered.samples[:onset].any()
        assert rendered.samples[onset:].any()

    def test_deterministic(self):
        piece = MidiPiece(480, [
            conductor(1920),
            fixed_track("viola", 0, [(0, 800, 64, 75), (960, 1900, 67, 90)]),
        ])
        a = synthesize(piece).samples
        b = synthesize(piece).samples
        assert np.array_equal(a, b)


def reference_piece(piece, track_selection=None,
                    sample_rate=DEFAULT_SAMPLE_RATE):
    """Every note of the selected tracks (all by default) rendered by
    reference_note and summed in the synthesizer's order."""
    tempo_map = TempoMap.from_piece(piece)
    total_s = tempo_map.seconds_at(piece.end_tick())
    out = np.zeros(max(int(round(total_s * sample_rate)), 1))
    indices = (range(len(piece.tracks)) if track_selection is None
               else track_selection)
    for index in indices:
        for note in track_notes(piece.tracks[index]):
            out += reference_note(note.pitch, note.velocity,
                                  tempo_map.seconds_at(note.tick_on),
                                  tempo_map.seconds_at(note.tick_off),
                                  sample_rate, total_s)
    return out


def clear_tables(monkeypatch):
    """No wavetables and no oscillator prefixes from here on, those of the
    process restored after the test."""
    monkeypatch.setattr(renderkit, "_wavetables", {})
    monkeypatch.setattr(renderkit, "_oscillators", {})


@pytest.fixture
def fresh_tables(monkeypatch):
    clear_tables(monkeypatch)


def table_values():
    return sum(wave.size + slope.size
               for wave, slope in renderkit._wavetables.values())


def harmonic_count(pitch, sample_rate=DEFAULT_SAMPLE_RATE):
    frequency = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
    return min(int(sample_rate / 2.0 / frequency), MAX_HARMONICS)


def pitch_args(pitch, sample_rate):
    """(frequency, harmonics) of a pitch, as the synthesizer passes them."""
    frequency = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
    return frequency, harmonic_count(pitch, sample_rate)


def reference_oscillator(length, gain, frequency, harmonics, sample_rate):
    """The oscillator computed for this note alone: the phase is
    arange(length) times the step, and the fraction between entries the
    phase minus it as an intp."""
    wave, slope = renderkit._wavetable(harmonics)
    phase = np.arange(length, dtype=np.float64)
    phase *= frequency * WAVETABLE_SIZE / sample_rate
    index = phase.astype(np.intp)
    phase -= index
    index &= WAVETABLE_SIZE - 1
    return (slope[index] * phase + wave[index]) * gain


# an edge is max(attack, release) samples; notes up to two edges long are
# enveloped whole
EDGE = max(int(round(ATTACK_SECONDS * DEFAULT_SAMPLE_RATE)),
           int(round(RELEASE_SECONDS * DEFAULT_SAMPLE_RATE)))
TABLE_BOUND = MAX_HARMONICS * 2 * WAVETABLE_SIZE  # float64 values, 1 MiB


class TestPartialsTable:
    """The wavetables: one period of the summed partials per harmonic
    count, built on first use."""

    # tpq 441 at 20 ms per quarter makes one tick one sample at 22.05 kHz
    TPQ, TEMPO_US = 441, 20_000

    def one_note(self, pitch, length, onset=100):
        return MidiPiece(self.TPQ, [
            conductor(onset + length + 50, tempos=((0, self.TEMPO_US),)),
            fixed_track("cello", 0, [(onset, onset + length, pitch, 90)]),
        ])

    def expected(self, pitch, length, onset=100):
        sr = DEFAULT_SAMPLE_RATE
        return reference_note(pitch, 90, onset / sr, (onset + length) / sr,
                              sr, (onset + length + 50) / sr)

    LENGTHS = (4_778, 14_335, 14_336, 14_337, 28_679)

    @pytest.mark.parametrize("length", LENGTHS + (
        1, 2 * EDGE, 2 * EDGE + 1, 1_024))
    def test_note_cold_then_warm(self, fresh_tables, length):
        cold = synthesize(self.one_note(45, length)).samples
        assert_snr(cold, self.expected(45, length))
        assert not cold[:100].any() and not cold[100 + length:].any()
        assert np.array_equal(synthesize(self.one_note(45, length)).samples,
                              cold)
        assert list(renderkit._wavetables) == [harmonic_count(45)]

    @pytest.mark.parametrize("order", [LENGTHS, LENGTHS[::-1]])
    def test_lengths_share_one_table(self, fresh_tables, monkeypatch, order):
        pitches = (33, 57, 81, 117)
        shared = {}
        for pitch in pitches:
            for length in order:
                shared[pitch, length] = synthesize(
                    self.one_note(pitch, length)).samples
        # one table per harmonic count, however many notes read it
        assert sorted(renderkit._wavetables) == \
            sorted({harmonic_count(pitch) for pitch in pitches})
        for wave, slope in renderkit._wavetables.values():
            assert wave.shape == slope.shape == (WAVETABLE_SIZE,)
        # a note reads the same bits from tables built for it alone
        for (pitch, length), rendered in shared.items():
            clear_tables(monkeypatch)
            assert np.array_equal(
                synthesize(self.one_note(pitch, length)).samples, rendered)
            assert_snr(rendered, self.expected(pitch, length), (pitch, length))

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_tables_equal_sums_from_zero(self, fresh_tables, order):
        # a table continued from one with fewer harmonics holds the same
        # bits as the sum of all its partials from zero
        counts = list(range(1, MAX_HARMONICS + 1))
        if order == "descending":
            counts.reverse()
        elif order == "shuffled":
            np.random.default_rng(5).shuffle(counts)
        for harmonics in counts:
            renderkit._wavetable(harmonics)
        j = np.arange(WAVETABLE_SIZE)
        for harmonics, (wave, slope) in renderkit._wavetables.items():
            expected = np.zeros(WAVETABLE_SIZE)
            for k in range(1, harmonics + 1):
                expected += np.sin(2.0 * np.pi / WAVETABLE_SIZE
                                   * (k * j % WAVETABLE_SIZE)) / k
            assert np.array_equal(wave, expected), harmonics
            assert np.array_equal(slope, np.roll(expected, -1) - expected)

    @pytest.mark.parametrize("sample_rate", [8_000, 22_050, 48_000])
    def test_oscillator_equals_integer_fraction(self, sample_rate):
        for pitch in range(0, 128, 7):
            frequency = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
            harmonics = min(int(sample_rate / 2.0 / frequency), MAX_HARMONICS)
            if harmonics < 1:
                continue
            for length in (1, 2 * EDGE + 1, 28_679):
                expected = reference_oscillator(length, 0.125, frequency,
                                                harmonics, sample_rate)
                assert np.array_equal(
                    renderkit._oscillate(length, 0.125, frequency, harmonics,
                                         sample_rate), expected), (pitch, length)

    def test_budget_spent(self, fresh_tables):
        # every pitch once: each harmonic count a pitch has gets one table
        # pair, and all of them fit in MAX_HARMONICS pairs
        for pitch in range(128):
            rendered = synthesize(self.one_note(pitch, 600)).samples
            assert_snr(rendered, self.expected(pitch, 600), pitch)
        counts = {harmonic_count(pitch) for pitch in range(128)} - {0}
        assert set(renderkit._wavetables) == counts
        assert table_values() == 2 * WAVETABLE_SIZE * len(counts) \
            <= TABLE_BOUND
        # one oscillator prefix per sounding pitch, 16 MiB for all 128
        sounding = [pitch for pitch in range(128) if harmonic_count(pitch)]
        assert len(renderkit._oscillators) == len(sounding) <= 128
        assert sum(prefix.nbytes for prefix, _ in
                   renderkit._oscillators.values()) \
            == len(sounding) * OSC_CAP * 8 <= 16 * 2**20

    def test_import_builds_no_table(self):
        code = ("import scoreforge.renderkit as r, sys; "
                "sys.exit(len(r._wavetables) + len(r._oscillators))")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_strings_corpus_in_either_order(self, strings_corpus_dir,
                                            monkeypatch):
        pieces = [parse_smf(path.read_bytes())
                  for path in sorted(strings_corpus_dir.glob("*.mid"))]

        def render_all(order):
            clear_tables(monkeypatch)
            return {i: synthesize(pieces[i]).samples for i in order}

        forward = render_all(range(len(pieces)))
        assert table_values() <= TABLE_BOUND
        backward = render_all(reversed(range(len(pieces))))
        for i in range(len(pieces)):
            assert np.array_equal(forward[i], backward[i])
            assert_snr(forward[i], reference_piece(pieces[i]), i)


class TestOscillatorPrefix:
    """Each pitch's unscaled oscillator samples from phase 0, kept up to
    OSC_CAP: a note reads the bits it would compute alone, whether the
    prefix is cold, partly filled or full, and in any render order."""

    LENGTHS = (1, 440, 441, OSC_CAP - 1, OSC_CAP, OSC_CAP + 1,
               2 * OSC_CAP + 7)
    PITCHES = (21, 57, 69, 100)
    GAIN = SYNTH_GAIN * (90 / 127.0)

    def oscillate(self, pitch, length, sample_rate):
        return renderkit._oscillate(length, self.GAIN,
                                    *pitch_args(pitch, sample_rate),
                                    sample_rate)

    def reference(self, pitch, length, sample_rate):
        return reference_oscillator(length, self.GAIN,
                                    *pitch_args(pitch, sample_rate),
                                    sample_rate)

    @pytest.mark.parametrize("sample_rate", [22_050, 44_100])
    def test_cold_equals_warm(self, monkeypatch, sample_rate):
        for pitch in self.PITCHES:
            cold = {}
            for length in self.LENGTHS:
                clear_tables(monkeypatch)
                cold[length] = self.oscillate(pitch, length, sample_rate)
                assert np.array_equal(
                    cold[length], self.reference(pitch, length, sample_rate)), \
                    (pitch, length)
            # ascending, each note extends the prefix the one before filled;
            # descending, each reads a full prefix
            clear_tables(monkeypatch)
            for length in self.LENGTHS + self.LENGTHS[::-1]:
                assert np.array_equal(
                    self.oscillate(pitch, length, sample_rate),
                    cold[length]), (pitch, length)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_render_order_keeps_bits(self, fresh_tables, order):
        notes = [(pitch, length, sample_rate)
                 for sample_rate in (22_050, 44_100)
                 for pitch in self.PITCHES for length in self.LENGTHS]
        if order == "descending":
            notes.reverse()
        elif order == "shuffled":
            np.random.default_rng(11).shuffle(notes)
        for note in notes:
            assert np.array_equal(self.oscillate(*note),
                                  self.reference(*note)), note

    def test_entry_holds_longest_note(self, fresh_tables):
        longest = {}
        rng = np.random.default_rng(3)
        for drawn in [*self.LENGTHS, *rng.integers(1, 3 * OSC_CAP, 20)]:
            for pitch in self.PITCHES:
                for sample_rate in (22_050, 44_100):
                    # each key sees its own lengths
                    length = max(int(drawn) // (pitch % 5 + 1), 1)
                    self.oscillate(pitch, length, sample_rate)
                    key = (*pitch_args(pitch, sample_rate), sample_rate)
                    longest[key] = max(longest.get(key, 0), length)
                    prefix, filled = renderkit._oscillators[key]
                    assert prefix.shape == (OSC_CAP,)
                    assert filled == min(longest[key], OSC_CAP)
                    # the filled samples are the unscaled oscillator
                    assert np.array_equal(
                        prefix[:filled],
                        reference_oscillator(filled, 1.0, *key))
        assert set(renderkit._oscillators) == set(longest)


def reference_envelope(seg, attack, release, ramps):
    """The envelope as the synthesizer applied it before the ramps: the
    whole note when at most two edges long, else each edge computed from
    the note's length."""
    length = len(seg)
    edge = max(attack, release)
    spans = (((0, length),) if length <= 2 * edge
             else ((0, edge), (length - edge, length)))
    for lo, hi in spans:
        seg[lo:hi] *= np.minimum(
            np.minimum(np.arange(lo + 1, hi + 1, dtype=np.float64) / attack,
                       np.arange(length - lo, length - hi, -1,
                                 dtype=np.float64) / release),
            1.0)


class TestEnvelope:
    @pytest.mark.parametrize("sample_rate", [8_000, 22_050, 44_100, 48_000])
    def test_ramps_equal_reference(self, sample_rate):
        attack = max(int(round(ATTACK_SECONDS * sample_rate)), 1)
        release = max(int(round(RELEASE_SECONDS * sample_rate)), 1)
        edge = max(attack, release)
        ramps = renderkit._envelope_ramps(attack, release)
        rng = np.random.default_rng(sample_rate)
        for length in (1, edge, 2 * edge - 1, 2 * edge, 2 * edge + 1, 40_000):
            seg = rng.standard_normal(length)
            expected = seg.copy()
            reference_envelope(expected, attack, release, ramps)
            renderkit._apply_envelope(seg, attack, release, ramps)
            assert np.array_equal(seg, expected), length

    def test_strings_corpus_renders_as_reference(self, strings_corpus_dir,
                                                 monkeypatch):
        pieces = [parse_smf(path.read_bytes())
                  for path in sorted(strings_corpus_dir.glob("*.mid"))]
        stems = [(piece, index) for piece in pieces
                 for index in range(len(piece.tracks))]
        ramped = [synthesize(piece, [index]).samples for piece, index in stems]
        monkeypatch.setattr(renderkit, "_apply_envelope", reference_envelope)
        for samples, (piece, index) in zip(ramped, stems):
            assert np.array_equal(samples, synthesize(piece, [index]).samples)

    @pytest.mark.parametrize("attack, release", [(3, 7), (7, 3), (5, 5)])
    def test_edges_equal_whole_note(self, attack, release):
        # the envelope is 1.0 between the edges, and x * 1.0 == x
        rng = np.random.default_rng(attack)
        for length in (1, 6, 13, 14, 15, 40):
            seg = rng.standard_normal(length)
            whole = seg * np.minimum(
                np.minimum(np.arange(1, length + 1) / attack,
                           np.arange(length, 0, -1) / release), 1.0)
            renderkit._apply_envelope(seg, attack, release,
                                      renderkit._envelope_ramps(attack, release))
            assert np.array_equal(seg, whole)


class TestMixing:
    def test_sum_and_padding(self):
        a = Waveform(np.array([0.5, 0.5, 0.5]), 22050)
        b = Waveform(np.array([0.25, -0.25]), 22050)
        result = mix_stems([a, b])
        assert np.array_equal(result.waveform.samples,
                              np.array([0.75, 0.25, 0.5]))
        assert result.peak == 0.75

    def test_no_normalization(self):
        a = Waveform(np.array([0.9]), 22050)
        b = Waveform(np.array([0.9]), 22050)
        result = mix_stems([a, b])
        assert result.waveform.samples[0] == pytest.approx(1.8)
        assert result.peak == pytest.approx(1.8)

    def test_rejects_mixed_rates_and_empty(self):
        for wrap in (list, iter):
            with pytest.raises(SampleRateMismatch):
                mix_stems(wrap([Waveform(np.zeros(4), 22050),
                                Waveform(np.zeros(4), 44100)]))
            with pytest.raises(AudioError):
                mix_stems(wrap([]))

    def test_generator_equals_list(self):
        rng = np.random.default_rng(7)
        stems = [Waveform(rng.standard_normal(n), 22050) for n in (5, 9, 9, 3)]
        from_list = mix_stems(stems)
        from_generator = mix_stems(stem for stem in stems)
        assert np.array_equal(from_generator.waveform.samples,
                              from_list.waveform.samples)
        assert from_generator.peak == from_list.peak
        assert from_generator.waveform.sample_rate == 22050

    def test_padding_as_stems_grow(self):
        stems = [Waveform(np.array([0.25, -0.25]), 22050),
                 Waveform(np.array([0.5, 0.5, 0.5]), 22050),
                 Waveform(np.array([1.0]), 22050)]
        result = mix_stems(iter(stems))
        assert np.array_equal(result.waveform.samples,
                              np.array([1.75, 0.25, 0.5]))
        assert result.peak == 1.75


class TestStemRules:
    def test_default_merges(self):
        piece = MidiPiece(480, [
            conductor(480),
            fixed_track("violin", 0, [(0, 480, 76, 80)]),
            fixed_track("piccolo", 1, [(0, 480, 90, 60)]),
            fixed_track("english_horn", 2, [(0, 480, 64, 60)]),
            fixed_track("oboe", 3, [(0, 480, 69, 60)]),
        ])
        manifest = emit_manifest(piece, None)
        assert {entry.stem: [tr.instrument for tr in entry.tracks]
                for entry in manifest.stems} == {
            "flute": ["piccolo"], "oboe": ["english_horn", "oboe"],
            "violin": ["violin"]}
        assert manifest.merge_rules == {"piccolo": "flute",
                                        "english_horn": "oboe"}


class TestManifest:
    def build_piece(self):
        return MidiPiece(480, [
            conductor(1920, tempos=((0, 500000), (960, 400000))),
            fixed_track("violin", 0, [(0, 960, 76, 80)], name="Violin I"),
            fixed_track("violin", 1, [(480, 1920, 72, 70)], name="Violin II"),
            fixed_track("piccolo", 2, [(0, 1920, 90, 60)]),
        ])

    def test_grouping_and_paths(self):
        manifest = emit_manifest(self.build_piece(), None, piece_id="demo")
        assert [e.stem for e in manifest.stems] == ["flute", "violin"]
        assert manifest.stems[0].path == "demo/flute.wav"
        violin_entry = manifest.stems[1]
        assert [tr.track_index for tr in violin_entry.tracks] == [1, 2]
        assert manifest.tempo == [(0, 500000), (960, 400000)]
        assert manifest.channel_layout == "mono"

    def test_schedule_from_plan(self):
        tables = load_articulation_tables()
        piece = MidiPiece(480, [
            conductor(64 * 480),
            fixed_track("violin", 0,
                        [(q * 480, q * 480 + 400, 70 + q % 5, 75)
                         for q in range(64)]),
            fixed_track("cello", 1,
                        [(q * 480, q * 480 + 400, 48 + q % 5, 75)
                         for q in range(64)]),
        ])
        annotated, plan = annotate(piece, tables, AnnotationParams(seed=4))
        manifest = emit_manifest(annotated, tables, piece_id="x")
        for entry in manifest.stems:
            for tr in entry.tracks:
                expected = sorted(
                    (iv.start_tick, iv.cc32_value, iv.articulation)
                    for iv in plan.articulations
                    if iv.track_index == tr.track_index)
                assert tr.schedule == expected
                assert all(step[2] for step in tr.schedule)  # names known
        # why the piece's CC#32 events give the plan: one per interval, at
        # its start, with its value, which names one row of the table
        for index, track in enumerate(annotated.tracks):
            intervals = [iv for iv in plan.articulations
                         if iv.track_index == index]
            assert [(ev.tick, ev.value) for ev in track.events
                    if isinstance(ev, ControlChange) and ev.controller == 32] \
                == [(iv.start_tick, iv.cc32_value) for iv in intervals]
            for iv in intervals:
                table = tables[track_instruments(annotated)[index].name]
                assert [row.articulation for row in table.rows
                        if row.cc32 == iv.cc32_value] == [iv.articulation]

    def test_schedule_from_cc32_events(self):
        piece = self.build_piece()
        track = piece.tracks[1]
        events = ([ControlChange(0, 0, 32, 5)] + list(track.events[:-1])
                  + [ControlChange(960, 0, 32, 9), track.events[-1]])
        piece.tracks[1] = Track(events=sorted(events, key=lambda e: e.tick))
        manifest = emit_manifest(piece, None)
        violin_entry = next(e for e in manifest.stems if e.stem == "violin")
        first = next(tr for tr in violin_entry.tracks if tr.track_index == 1)
        assert first.schedule == [(0, 5, ""), (960, 9, "")]
        # with tables, a value is named by its row; one without a row is ""
        tables = load_articulation_tables()
        piece.tracks[1].events[0] = ControlChange(0, 0, 32, 127)
        manifest = emit_manifest(piece, tables)
        violin_entry = next(e for e in manifest.stems if e.stem == "violin")
        first = next(tr for tr in violin_entry.tracks if tr.track_index == 1)
        assert first.schedule == [(0, 127, ""), (960, 9, "Short Col Legno")]

    def test_unidentifiable_track_raises(self):
        bare = Track(events=[NoteOn(0, 0, 60, 75), NoteOff(480, 0, 60, 0),
                             EndOfTrack(480)])
        piece = MidiPiece(480, [conductor(480), bare])
        with pytest.raises(UngroupableTrack):
            emit_manifest(piece, None)

    def test_stems_only_for_tracks_with_a_note_on(self):
        piece = self.build_piece()
        # a track of only note-offs has no note; one note-on left open to
        # the end of the track is one note
        offs = fixed_track("cello", 3, [(0, 480, 48, 75)])
        offs.events = [ev for ev in offs.events if not isinstance(ev, NoteOn)]
        opened = fixed_track("viola", 4, [(0, 480, 60, 75)])
        opened.events = [ev for ev in opened.events
                         if not isinstance(ev, NoteOff)]
        piece.tracks += [offs, opened]
        assert [len(track_notes(t)) for t in piece.tracks[-2:]] == [0, 1]
        manifest = emit_manifest(piece, None)
        assert [e.stem for e in manifest.stems] == ["flute", "viola", "violin"]
        viola = manifest.stems[1]
        assert [tr.track_index for tr in viola.tracks] == [5]

    def test_asdict_json_ready(self):
        manifest = emit_manifest(self.build_piece(), None, piece_id="demo")
        data = json.loads(json.dumps(dataclasses.asdict(manifest)))
        assert data["piece_id"] == "demo"
        assert data["sample_rate"] == DEFAULT_SAMPLE_RATE
        assert data["merge_rules"]["piccolo"] == "flute"
        stems = {entry["stem"] for entry in data["stems"]}
        assert stems == {"flute", "violin"}
        violin = next(e for e in data["stems"] if e["stem"] == "violin")
        assert violin["tracks"][0]["gm_program"] == 40
