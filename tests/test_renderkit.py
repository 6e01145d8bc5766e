"""Render manifests, the built-in test synthesizer, and stem mixing."""

import json

import numpy as np
import pytest

from scoreforge import renderkit
from scoreforge.audio import AudioError, Waveform
from scoreforge.expressive import (
    AnnotationParams,
    annotate,
    load_articulation_tables,
)
from scoreforge.gmfix import REGISTRY
from scoreforge.renderkit import (
    ATTACK_SECONDS,
    DEFAULT_SAMPLE_RATE,
    MAX_HARMONICS,
    PARTIALS_CAP,
    RELEASE_SECONDS,
    SYNTH_GAIN,
    RenderError,
    SampleRateMismatch,
    StemGroupRules,
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
    return Track(events=events, name=name or instrument,
                 channel_hint=channel, program=iid.gm_program)


def conductor(end, tempos=((0, 500000),)):
    events = [TrackName(0, "conductor")]
    events += [SetTempo(t, us) for t, us in tempos]
    events.append(EndOfTrack(end))
    return Track(events=events, name="conductor")


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
        assert np.array_equal(rendered.samples, expected)
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
            assert np.array_equal(rendered, expected)

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


def reference_piece(piece, sample_rate=DEFAULT_SAMPLE_RATE):
    """Every note of every track rendered by reference_note and summed in
    the synthesizer's order."""
    tempo_map = TempoMap.from_piece(piece)
    total_s = tempo_map.seconds_at(piece.end_tick())
    out = np.zeros(max(int(round(total_s * sample_rate)), 1))
    for track in piece.tracks:
        for note in track_notes(track):
            out += reference_note(note.pitch, note.velocity,
                                  tempo_map.seconds_at(note.tick_on),
                                  tempo_map.seconds_at(note.tick_off),
                                  sample_rate, total_s)
    return out


@pytest.fixture
def cold_table(monkeypatch):
    """An empty partials table for the test, restored afterwards."""
    monkeypatch.setattr(renderkit, "_partials", {})


class TestPartialsTable:
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

    LENGTHS = (PARTIALS_CAP // 3, PARTIALS_CAP - 1, PARTIALS_CAP,
               PARTIALS_CAP + 1, 2 * PARTIALS_CAP + 7)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_note_cold_then_warm(self, cold_table, length):
        piece, expected = self.one_note(45, length), self.expected(45, length)
        assert np.array_equal(synthesize(piece).samples, expected)   # cold
        assert np.array_equal(synthesize(piece).samples, expected)   # warm

    @pytest.mark.parametrize("order", [LENGTHS, LENGTHS[::-1]])
    def test_lengths_share_one_table(self, cold_table, order):
        # growing in steps and slicing a longer fill give the same bits
        for pitch in (33, 57, 81):
            for length in order:
                rendered = synthesize(self.one_note(pitch, length)).samples
                assert np.array_equal(rendered, self.expected(pitch, length))
        for table, filled in renderkit._partials.values():
            assert filled == PARTIALS_CAP

    def test_strings_corpus_in_either_order(self, strings_corpus_dir,
                                            monkeypatch):
        pieces = [parse_smf(path.read_bytes())
                  for path in sorted(strings_corpus_dir.glob("*.mid"))]

        def render_all(order):
            monkeypatch.setattr(renderkit, "_partials", {})
            return {i: synthesize(pieces[i]).samples for i in order}

        forward = render_all(range(len(pieces)))
        tables = renderkit._partials
        assert sum(table.nbytes for table, _ in tables.values()) \
            <= 128 * PARTIALS_CAP * 8
        assert all(filled <= PARTIALS_CAP for _, filled in tables.values())
        backward = render_all(reversed(range(len(pieces))))
        for i in range(len(pieces)):
            assert np.array_equal(forward[i], backward[i])
        # rendered last on a warm table, then first on a cold one
        last = len(pieces) - 1
        assert np.array_equal(forward[last], reference_piece(pieces[last]))


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
        rules = StemGroupRules()
        assert rules.stem_for(REGISTRY["violin"]) == "violin"
        assert rules.stem_for(REGISTRY["piccolo"]) == "flute"
        assert rules.stem_for(REGISTRY["english_horn"]) == "oboe"

    def test_custom_merges_validated(self):
        rules = StemGroupRules(merge={"viola": "violin"})
        assert rules.stem_for(REGISTRY["viola"]) == "violin"
        with pytest.raises(RenderError):
            StemGroupRules(merge={"violin": "strings"})


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
        assert [e.stem for e in manifest.entries] == ["flute", "violin"]
        assert manifest.entries[0].path == "demo/flute.wav"
        violin_entry = manifest.entries[1]
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
        manifest = emit_manifest(annotated, plan, piece_id="x")
        for entry in manifest.entries:
            for tr in entry.tracks:
                expected = sorted(
                    (iv.start_tick, iv.cc32_value, iv.articulation)
                    for iv in plan.articulations
                    if iv.track_index == tr.track_index)
                assert tr.schedule == expected
                assert all(step[2] for step in tr.schedule)  # names known

    def test_schedule_from_cc32_events(self):
        piece = self.build_piece()
        track = piece.tracks[1]
        events = ([ControlChange(0, 0, 32, 5)] + list(track.events[:-1])
                  + [ControlChange(960, 0, 32, 9), track.events[-1]])
        piece.tracks[1] = Track(events=sorted(events, key=lambda e: e.tick),
                                name=track.name, channel_hint=track.channel_hint,
                                program=track.program)
        manifest = emit_manifest(piece, None)
        violin_entry = next(e for e in manifest.entries if e.stem == "violin")
        first = next(tr for tr in violin_entry.tracks if tr.track_index == 1)
        assert first.schedule == [(0, 5, ""), (960, 9, "")]

    def test_unidentifiable_track_raises(self):
        bare = Track(events=[NoteOn(0, 0, 60, 75), NoteOff(480, 0, 60, 0),
                             EndOfTrack(480)])
        piece = MidiPiece(480, [conductor(480), bare])
        with pytest.raises(UngroupableTrack):
            emit_manifest(piece, None)

    def test_to_dict_json_ready(self):
        manifest = emit_manifest(self.build_piece(), None, piece_id="demo")
        data = json.loads(json.dumps(manifest.to_dict()))
        assert data["piece_id"] == "demo"
        assert data["sample_rate"] == DEFAULT_SAMPLE_RATE
        assert data["merge_rules"]["piccolo"] == "flute"
        stems = {entry["stem"] for entry in data["stems"]}
        assert stems == {"flute", "violin"}
        violin = next(e for e in data["stems"] if e["stem"] == "violin")
        assert violin["tracks"][0]["gm_program"] == 40
