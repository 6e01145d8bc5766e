"""MIDI file reading, writing, and timing."""

import random
import struct
from fractions import Fraction

import pytest

import corpus
import oracle_smf
from scoreforge.smf import (
    ControlChange,
    EndOfTrack,
    IllegalVlq,
    InvariantViolation,
    MalformedHeader,
    MidiPiece,
    Note,
    NoteOff,
    NoteOn,
    OtherChannel,
    OtherMeta,
    ProgramChange,
    SetTempo,
    TempoMap,
    Track,
    TrackName,
    TruncatedTrack,
    UnsupportedFormat,
    decode_vlq,
    encode_vlq,
    parse_smf,
    track_notes,
    write_smf,
)


def simple_piece(tpq=480) -> MidiPiece:
    track = Track(events=[
        TrackName(0, "Violin I"),
        ProgramChange(0, 0, 40),
        NoteOn(0, 0, 60, 80),
        NoteOff(480, 0, 60, 0),
        NoteOn(480, 0, 64, 90),
        NoteOff(960, 0, 64, 0),
        EndOfTrack(960),
    ])
    return MidiPiece(tpq, [track], format=1)


class TestVlq:
    def test_known_vectors(self):
        vectors = [
            (b"\x00", 0), (b"\x40", 0x40), (b"\x7f", 0x7F),
            (b"\x81\x00", 0x80), (b"\xc0\x00", 0x2000),
            (b"\xff\x7f", 0x3FFF), (b"\x81\x80\x00", 0x4000),
            (b"\xff\xff\xff\x7f", 0x0FFFFFFF),
        ]
        for data, expected in vectors:
            assert decode_vlq(data, 0) == (expected, len(data))
            assert encode_vlq(expected) == data

    def test_redundant_encoding_decodes(self):
        assert decode_vlq(b"\x80\x05", 0) == (5, 2)
        assert decode_vlq(b"\x80\x80\x05", 0) == (5, 3)

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(500):
            value = rng.randrange(0, 0x0FFFFFFF + 1)
            encoded = encode_vlq(value)
            assert decode_vlq(encoded, 0) == (value, len(encoded))

    def test_overlong_rejected(self):
        with pytest.raises(IllegalVlq):
            decode_vlq(b"\xff\xff\xff\xff\x7f", 0)

    def test_truncated_rejected(self):
        with pytest.raises(IllegalVlq):
            decode_vlq(b"\x81", 0)

    def test_out_of_range_encode(self):
        with pytest.raises(InvariantViolation):
            encode_vlq(-1)
        with pytest.raises(InvariantViolation):
            encode_vlq(0x10000000)


def raw_file(division=480, fmt=1, tracks=1, body=b"\x00\xff\x2f\x00"):
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, tracks, division)
    return header + (b"MTrk" + struct.pack(">I", len(body)) + body) * tracks


class TestParse:
    def test_running_status_and_velocity_zero(self):
        body = (b"\x00\x90\x3c\x50"   # note on C4
                b"\x60\x3c\x00"       # running status, velocity 0 -> off
                b"\x00\x3e\x40"       # running status on D4
                b"\x60\x80\x3e\x00"   # explicit off
                b"\x00\xff\x2f\x00")
        piece = parse_smf(raw_file(body=body))
        assert piece.tracks[0].events == [
            NoteOn(0, 0, 0x3C, 0x50),
            NoteOff(0x60, 0, 0x3C, 0),
            NoteOn(0x60, 0, 0x3E, 0x40),
            NoteOff(0xC0, 0, 0x3E, 0),
            EndOfTrack(0xC0),
        ]

    def test_meta_cancels_running_status(self):
        body = (b"\x00\x90\x3c\x50"
                b"\x00\xff\x06\x03abc"
                b"\x00\x3c\x00")
        with pytest.raises(Exception):
            parse_smf(raw_file(body=body))

    def test_smpte_division_rejected(self):
        with pytest.raises(UnsupportedFormat):
            parse_smf(raw_file(division=0xE250))

    def test_format_2_rejected(self):
        with pytest.raises(UnsupportedFormat):
            parse_smf(raw_file(fmt=2))

    def test_missing_header(self):
        with pytest.raises(MalformedHeader):
            parse_smf(b"RIFF" + b"\x00" * 20)
        with pytest.raises(MalformedHeader):
            parse_smf(b"MThd\x00\x00")

    def test_zero_division_rejected(self):
        with pytest.raises(MalformedHeader):
            parse_smf(raw_file(division=0))

    def test_truncated_track(self):
        data = raw_file()
        with pytest.raises(TruncatedTrack):
            parse_smf(data[:-2])

    def test_declared_tracks_missing(self):
        data = raw_file(tracks=3)[: 14 + 12]
        with pytest.raises(TruncatedTrack):
            parse_smf(data)

    def test_alien_chunks_skipped(self):
        header = b"MThd" + struct.pack(">IHHH", 6, 1, 1, 480)
        alien = b"XFKM" + struct.pack(">I", 3) + b"abc"
        track = b"MTrk" + struct.pack(">I", 4) + b"\x00\xff\x2f\x00"
        piece = parse_smf(header + alien + track)
        assert len(piece.tracks) == 1

    def test_missing_end_of_track_closed(self):
        body = b"\x00\x90\x3c\x50\x60\x80\x3c\x00"
        piece = parse_smf(raw_file(body=body))
        assert piece.tracks[0].events[-1] == EndOfTrack(0x60)

    def test_track_name_hint(self):
        body = b"\x00\xff\x03\x05Viola\x00\xff\x2f\x00"
        piece = parse_smf(raw_file(body=body))
        assert piece.tracks[0].name == "Viola"

    def test_sysex_preserved(self):
        body = b"\x00\xf0\x05\x7e\x7f\x09\x01\xf7\x00\xff\x2f\x00"
        piece = parse_smf(raw_file(body=body))
        assert piece.tracks[0].events[0] == OtherChannel(
            0, 0xF0, b"\x7e\x7f\x09\x01\xf7")


class TestWrite:
    def test_write_appends_end_of_track(self):
        piece = MidiPiece(480, [Track(events=[NoteOn(0, 0, 60, 75),
                                              NoteOff(240, 0, 60, 0)])])
        reparsed = parse_smf(write_smf(piece))
        assert reparsed.tracks[0].events[-1] == EndOfTrack(240)

    def test_no_running_status_in_output(self):
        piece = simple_piece()
        data = write_smf(piece)
        # independent reader sees the same events, and every event in the
        # canonical byte stream carries its own status byte
        _, _, tracks = oracle_smf.read_events(data)
        assert tracks[0] == [
            ("name", 0, "Violin I"), ("pc", 0, 0, 40),
            ("on", 0, 0, 60, 80), ("off", 480, 0, 60, 0),
            ("on", 480, 0, 64, 90), ("off", 960, 0, 64, 0), ("eot", 960),
        ]
        # canonical layout: name(12) pc(3) on(4) off(5) on(4) off(5) eot(4)
        body = data[14 + 8:]
        statuses = [body[1], body[13], body[16], body[21], body[25], body[30],
                    body[34]]
        assert statuses == [0xFF, 0xC0, 0x90, 0x80, 0x90, 0x80, 0xFF]

    def test_byte_idempotence_on_corpus(self, raw_corpus_files):
        for path in raw_corpus_files[:12]:
            first = write_smf(parse_smf(path.read_bytes()))
            assert write_smf(parse_smf(first)) == first

    def test_rejects_unsorted_events(self):
        track = Track(events=[NoteOn(100, 0, 60, 75), NoteOff(50, 0, 60, 0)])
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(480, [track]))

    def test_rejects_note_on_velocity_zero(self):
        track = Track(events=[NoteOn(0, 0, 60, 0)])
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(480, [track]))

    def test_rejects_bad_channel_and_range(self):
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(480, [Track(events=[NoteOn(0, 16, 60, 75)])]))
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(480, [Track(events=[ControlChange(0, 0, 200, 1)])]))
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(0, []))

    def test_rejects_format_0_multitrack(self):
        tracks = [Track(events=[EndOfTrack(0)]), Track(events=[EndOfTrack(0)])]
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(480, tracks, format=0))

    def test_rejects_misplaced_end_of_track(self):
        track = Track(events=[EndOfTrack(0), NoteOn(10, 0, 60, 75)])
        with pytest.raises(InvariantViolation):
            write_smf(MidiPiece(480, [track]))

    def test_other_meta_round_trip(self):
        track = Track(events=[
            OtherMeta(0, 0x58, bytes([4, 2, 24, 8])),
            OtherMeta(10, 0x7F, b"\x00" * 130),  # payload needs a 2-byte vlq
            EndOfTrack(10),
        ])
        piece = MidiPiece(480, [track])
        assert parse_smf(write_smf(piece)).tracks[0].events == track.events


class TestTempoMap:
    def test_default_tempo(self):
        tm = TempoMap(480)
        assert tm.tempo_at(0) == 500_000
        assert tm.seconds_at(480) == pytest.approx(0.5)
        assert 60_000_000 / tm.tempo_at(100) == pytest.approx(120.0)

    def test_two_segments(self):
        tm = TempoMap(480, [(0, 1_000_000), (480, 500_000)])
        assert tm.seconds_at(480) == pytest.approx(1.0)
        assert tm.seconds_at(960) == pytest.approx(1.5)
        assert tm.exact_seconds_at(960) == Fraction(3, 2)

    def test_change_mid_piece_default_before(self):
        tm = TempoMap(480, [(480, 250_000)])
        assert tm.seconds_at(480) == pytest.approx(0.5)
        assert tm.seconds_at(960) == pytest.approx(0.75)

    def test_later_event_at_same_tick_wins(self):
        tm = TempoMap(480, [(0, 400_000), (0, 600_000)])
        assert tm.tempo_at(0) == 600_000

    def test_exact_matches_float(self):
        rng = random.Random(3)
        changes = sorted((rng.randrange(0, 10000), rng.randrange(200000, 900000))
                         for _ in range(8))
        tm = TempoMap(480, changes)
        for _ in range(50):
            tick = rng.randrange(0, 12000)
            assert tm.seconds_at(tick) == pytest.approx(
                float(tm.exact_seconds_at(tick)), abs=1e-9)

    def test_tick_to_seconds_uses_piece_events(self):
        piece = simple_piece()
        piece.tracks[0].events.insert(0, SetTempo(0, 1_000_000))
        assert TempoMap.from_piece(piece).seconds_at(480) == pytest.approx(1.0)


class TestTrackNotes:
    def test_fifo_pairing_same_pitch(self):
        track = Track(events=[
            NoteOn(0, 0, 60, 80), NoteOn(10, 0, 60, 90),
            NoteOff(20, 0, 60, 0), NoteOff(40, 0, 60, 0),
        ])
        assert track_notes(track) == [
            Note(0, 20, 0, 60, 80), Note(10, 40, 0, 60, 90),
        ]

    def test_unterminated_closed_at_end(self):
        track = Track(events=[NoteOn(0, 0, 60, 80), EndOfTrack(100)])
        assert track_notes(track) == [Note(0, 100, 0, 60, 80)]

    def test_orphan_off_ignored(self):
        track = Track(events=[NoteOff(50, 0, 60, 0)])
        assert track_notes(track) == []

    def test_channels_independent(self):
        track = Track(events=[
            NoteOn(0, 0, 60, 80), NoteOn(0, 1, 60, 70),
            NoteOff(10, 1, 60, 0), NoteOff(30, 0, 60, 0),
        ])
        notes = track_notes(track)
        assert {(n.channel, n.tick_off) for n in notes} == {(0, 30), (1, 10)}


def test_corpus_semantic_round_trip(raw_corpus_files):
    for path in raw_corpus_files[:15]:
        original = parse_smf(path.read_bytes())
        reparsed = parse_smf(write_smf(original))
        assert reparsed.ticks_per_quarter == original.ticks_per_quarter
        assert reparsed.format == original.format
        assert [t.events for t in reparsed.tracks] == [t.events for t in original.tracks]
