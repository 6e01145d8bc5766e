"""MIDI file reading, writing, and timing."""

import operator
import pickle
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracle_smf
from fuzz import mutations
from scoreforge.expressive import (
    AnnotationParams,
    ExpressiveError,
    MissingTable,
    PieceTooShort,
    annotate,
    load_articulation_tables,
)
from scoreforge.gmfix import (
    REGISTRY,
    InstrumentDictionary,
    PieceRejected,
    admit_piece,
    normalize,
)
from scoreforge.smf import (
    MAX_VLQ_VALUE,
    ControlChange,
    EndOfTrack,
    IllegalData,
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
    SmfError,
    TempoMap,
    Track,
    TrackName,
    TruncatedTrack,
    UnsupportedFormat,
    decode_vlq,
    encode_vlq,
    parse_smf,
    track_name,
    track_notes,
    validate_piece,
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
        assert track_name(piece.tracks[0]) == "Viola"

    def test_sysex_preserved(self):
        body = b"\x00\xf0\x05\x7e\x7f\x09\x01\xf7\x00\xff\x2f\x00"
        piece = parse_smf(raw_file(body=body))
        assert piece.tracks[0].events[0] == OtherChannel(
            0, 0xF0, b"\x7e\x7f\x09\x01\xf7")

    # the track body starts at byte 22 of a one-track file
    @pytest.mark.parametrize("body, message", [
        (b"\x00\x90\x3c\x90", "track 0: data byte 0x90 at byte 25"),
        (b"\x00\x80\x85\x00", "track 0: data byte 0x85 at byte 24"),
        (b"\x00\xb0\x07\xff", "track 0: data byte 0xff at byte 25"),
        (b"\x00\xc0\x80", "track 0: data byte 0x80 at byte 24"),
        (b"\x00\xe0\x00\xc0", "track 0: data byte 0xc0 at byte 25"),
        (b"\x00\xd0\xa0", "track 0: data byte 0xa0 at byte 24"),
        (b"\x00\x90\x3c\x50\x10\x3e\xc8",  # under running status
         "track 0: data byte 0xc8 at byte 28"),
        (b"\x00\xff\x51\x03\x00\x00\x00", "track 0: tempo of 0 at byte 26"),
    ], ids=["velocity", "pitch", "cc value", "program", "pitch bend",
            "channel pressure", "running status", "tempo 0"])
    def test_unwritable_values_rejected(self, body, message):
        with pytest.raises(IllegalData) as info:
            parse_smf(raw_file(body=body + b"\x00\xff\x2f\x00"))
        assert str(info.value) == message
        assert isinstance(info.value, SmfError)

    def test_illegal_data_names_the_track(self):
        data = raw_file(tracks=2)[:-4] + b"\x00\x90\x3c\x90"
        with pytest.raises(IllegalData,
                           match=r"^track 1: data byte 0x90 at byte 37$"):
            parse_smf(data)

    @pytest.mark.parametrize("tracks", [0, 2])
    def test_format_0_needs_one_track(self, tracks):
        with pytest.raises(MalformedHeader,
                           match=f"format 0 declares {tracks} tracks, not 1"):
            parse_smf(raw_file(fmt=0, tracks=tracks))


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
        for path in raw_corpus_files:
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


def piece_of(*events, tpq=480, fmt=1):
    """A one-track piece holding ``events`` as given (no end-of-track added)."""
    return MidiPiece(tpq, [Track(events=list(events))], format=fmt)


# one case per rule of validate_piece, with the exact message
VALIDATION_RULES = {
    "tpq zero": (MidiPiece(0, []), "ticks_per_quarter out of range: 0"),
    "tpq too large": (MidiPiece(0x8000, []),
                      "ticks_per_quarter out of range: 32768"),
    "format": (MidiPiece(480, [], format=2), "format must be 0 or 1, got 2"),
    "format-0 track count": (MidiPiece(480, [Track([EndOfTrack(0)]),
                                              Track([EndOfTrack(0)])], format=0),
                             "format 0 requires exactly one track"),
    "negative tick": (piece_of(NoteOn(-1, 0, 60, 80)),
                      "track 0: negative tick -1"),
    "unsorted": (piece_of(NoteOn(10, 0, 60, 80), NoteOff(5, 0, 60, 0)),
                 "track 0: events not sorted at index 1"),
    "pitch": (piece_of(NoteOff(0, 0, 128, 0)), "track 0: pitch out of range: 128"),
    "velocity": (piece_of(NoteOn(0, 0, 60, 200)),
                 "track 0: velocity out of range: 200"),
    "channel": (piece_of(NoteOff(0, 16, 60, 0)), "track 0: channel out of range: 16"),
    "controller": (piece_of(ControlChange(0, 0, 128, 0)),
                   "track 0: controller out of range: 128"),
    "cc value": (piece_of(ControlChange(0, 0, 7, -1)),
                 "track 0: value out of range: -1"),
    "cc channel": (piece_of(ControlChange(0, 17, 7, 1)),
                   "track 0: channel out of range: 17"),
    "program": (piece_of(ProgramChange(0, 0, 128)),
                "track 0: program out of range: 128"),
    "program channel": (piece_of(ProgramChange(0, -1, 0)),
                        "track 0: channel out of range: -1"),
    "tempo zero": (piece_of(SetTempo(0, 0)), "track 0: tempo out of range: 0"),
    "tempo too large": (piece_of(SetTempo(0, 0x1000000)),
                        "track 0: tempo out of range: 16777216"),
    "note-on velocity 0": (piece_of(NoteOn(0, 0, 60, 0)),
                           "track 0: NoteOn with velocity 0 (use NoteOff)"),
    "misplaced end-of-track": (piece_of(EndOfTrack(0), NoteOn(10, 0, 60, 75)),
                               "track 0: end-of-track not the last event"),
}

# pieces that break two rules at once: the message names the first
VALIDATION_PRECEDENCE = {
    "tpq before format": (MidiPiece(0, [], format=2),
                          "ticks_per_quarter out of range: 0"),
    "negative before unsorted": (
        piece_of(NoteOn(10, 0, 60, 80), NoteOn(-5, 0, 60, 80)),
        "track 0: negative tick -5"),
    "unsorted before range": (
        piece_of(NoteOn(10, 0, 60, 80), NoteOn(5, 0, 200, 80)),
        "track 0: events not sorted at index 1"),
    "pitch before velocity": (piece_of(NoteOn(0, 0, 128, 128)),
                              "track 0: pitch out of range: 128"),
    "velocity before channel": (piece_of(NoteOff(0, 16, 60, 128)),
                                "track 0: velocity out of range: 128"),
    "channel before velocity 0": (piece_of(NoteOn(0, 16, 60, 0)),
                                  "track 0: channel out of range: 16"),
    "negative velocity is a range fault": (
        piece_of(NoteOn(0, 0, 60, -1)), "track 0: velocity out of range: -1"),
    "controller before value": (piece_of(ControlChange(0, 16, 128, 128)),
                                "track 0: controller out of range: 128"),
    "value before channel": (piece_of(ControlChange(0, 16, 7, 128)),
                             "track 0: value out of range: 128"),
    "program before channel": (piece_of(ProgramChange(0, 16, 128)),
                               "track 0: program out of range: 128"),
    "negative tick before misplaced end": (
        piece_of(EndOfTrack(-1), NoteOn(10, 0, 60, 75)),
        "track 0: negative tick -1"),
    "first bad event wins": (
        piece_of(NoteOn(0, 0, 60, 80), ControlChange(5, 0, 7, 300),
                 NoteOn(6, 0, 300, 80)),
        "track 0: value out of range: 300"),
    "first bad track wins": (
        MidiPiece(480, [Track([NoteOn(0, 0, 60, 80), EndOfTrack(5)]),
                        Track([SetTempo(0, 0), EndOfTrack(0)]),
                        Track([NoteOn(0, 99, 60, 80)])]),
        "track 1: tempo out of range: 0"),
}


class TestValidatePiece:
    @pytest.mark.parametrize("piece, message",
                             list(VALIDATION_RULES.values()),
                             ids=list(VALIDATION_RULES))
    def test_rule_message(self, piece, message):
        with pytest.raises(InvariantViolation) as info:
            validate_piece(piece)
        assert str(info.value) == message
        with pytest.raises(InvariantViolation) as info:
            write_smf(piece)
        assert str(info.value) == message

    @pytest.mark.parametrize("piece, message",
                             list(VALIDATION_PRECEDENCE.values()),
                             ids=list(VALIDATION_PRECEDENCE))
    def test_first_error_wins(self, piece, message):
        with pytest.raises(InvariantViolation) as info:
            validate_piece(piece)
        assert str(info.value) == message

    def test_bounds_accepted(self):
        validate_piece(piece_of(
            SetTempo(0, 1), SetTempo(0, 0xFFFFFF), ProgramChange(0, 15, 127),
            ControlChange(0, 0, 0, 0), ControlChange(0, 15, 127, 127),
            NoteOn(0, 0, 0, 1), NoteOn(0, 15, 127, 127), NoteOff(0, 0, 0, 0),
            NoteOff(0, 15, 127, 127), TrackName(0, "x"), OtherMeta(0, 1, b""),
            OtherChannel(0, 0xE0, b"\x00\x40"), EndOfTrack(0), tpq=0x7FFF))
        validate_piece(MidiPiece(1, [Track([])], format=0))


# names the bundled dictionary maps to distinct instruments
ADMITTED_NAMES = ["Violin I", "Viola", "Cello", "Flute", "Oboe", "Tuba", "Harp"]


@st.composite
def valid_pieces(draw):
    """A piece as parse_smf returns it from a well-formed file: a conductor
    track of two tempo events, which may end before the notes do, then
    named tracks of notes at any velocity with programs and controllers
    (the ones normalize strips among them)."""
    tpq = draw(st.sampled_from([96, 120, 480, 960]))
    tracks = [Track([SetTempo(0, draw(st.integers(200_000, 1_500_000))),
                     SetTempo(draw(st.integers(0, 8 * tpq)),
                              draw(st.integers(200_000, 1_500_000)))])]
    names = draw(st.lists(st.sampled_from(ADMITTED_NAMES), min_size=2,
                          max_size=4, unique=True))
    for index, name in enumerate(names):
        channel = draw(st.sampled_from([index, (index + 3) % 9]))
        events = [TrackName(0, name),
                  ProgramChange(0, channel, draw(st.integers(0, 127)))]
        for _ in range(draw(st.integers(1, 12))):
            on = draw(st.integers(0, 16 * tpq))
            pitch = draw(st.integers(0, 127))
            events += [NoteOn(on, channel, pitch, draw(st.integers(1, 127))),
                       NoteOff(on + draw(st.integers(1, 4 * tpq)), channel,
                               pitch, draw(st.integers(0, 127)))]
        for _ in range(draw(st.integers(0, 4))):
            events.append(ControlChange(
                draw(st.integers(0, 16 * tpq)), channel,
                draw(st.sampled_from([1, 7, 11, 32, 64])),
                draw(st.integers(0, 127))))
        events.sort(key=lambda ev: ev.tick)
        tracks.append(Track(events))
    return parse_smf(write_smf(MidiPiece(tpq, tracks)))


class TestTransformsKeepPiecesValid:
    """fix, normalize and annotate each map a valid piece to a valid one."""

    @settings(max_examples=120, deadline=None)
    @given(piece=valid_pieces(), seed=st.integers(0, 2**32))
    def test_chain(self, piece, seed):
        strings = load_articulation_tables()
        every_instrument = {name: strings["violin"] for name in REGISTRY}
        validate_piece(piece)
        try:
            fixed, _ = admit_piece(piece, InstrumentDictionary.default())
        except PieceRejected:
            return  # two tracks on the percussion channel: one instrument
        validate_piece(fixed)
        normalized = normalize(fixed)
        validate_piece(normalized)
        for tables in (every_instrument, strings):
            try:
                final, _ = annotate(normalized, tables, AnnotationParams(seed=seed))
            except (PieceTooShort, MissingTable):
                continue
            validate_piece(final)


class TestEncoderBoundaries:
    @pytest.mark.parametrize("delta", [0, 0x7F, 0x80, 0x3FFF, 0x4000,
                                       0x1FFFFF, 0x200000, MAX_VLQ_VALUE])
    def test_delta_time_round_trip(self, delta):
        events = [NoteOn(5, 3, 60, 80), NoteOff(5 + delta, 3, 60, 64),
                  ControlChange(5 + 2 * delta, 3, 7, 1), EndOfTrack(5 + 2 * delta)]
        data = write_smf(piece_of(*events))
        assert parse_smf(data).tracks[0].events == events
        body = data[14 + 8:]
        vlq = encode_vlq(delta)
        assert body[4:4 + len(vlq) + 3] == vlq + bytes([0x80 | 3, 60, 64])
        assert oracle_smf.read_events(data)[2][0][1] == ("off", 5 + delta, 3, 60, 64)

    @pytest.mark.parametrize("length", [0, 127, 128, 0x3FFF, 0x4000])
    def test_payload_lengths_round_trip(self, length):
        payload = bytes(i % 128 for i in range(length))
        events = [TrackName(0, payload.decode("latin-1")),
                  OtherMeta(0, 0x7F, payload),
                  OtherChannel(1, 0xF0, payload), OtherChannel(2, 0xF7, payload),
                  EndOfTrack(2)]
        data = write_smf(piece_of(*events))
        assert parse_smf(data).tracks[0].events == events
        vlq = encode_vlq(length)  # the track name's length, after 00 ff 03
        assert data[14 + 8 + 3:14 + 8 + 3 + len(vlq)] == vlq

    def test_delta_above_vlq_range(self):
        piece = piece_of(NoteOn(0, 0, 60, 80),
                         NoteOff(MAX_VLQ_VALUE + 1, 0, 60, 0))
        validate_piece(piece)  # ticks have no upper bound; the encoder checks
        with pytest.raises(InvariantViolation) as info:
            write_smf(piece)
        assert str(info.value) == f"VLQ value out of range: {MAX_VLQ_VALUE + 1}"

    def test_channel_messages_inline_and_opaque(self):
        events = [ProgramChange(0, 2, 41), ControlChange(0, 2, 32, 5),
                  NoteOn(0, 2, 61, 1), OtherChannel(0, 0xE2, b"\x00\x40"),
                  OtherChannel(0, 0xD2, b"\x10"), NoteOff(1, 2, 61, 0),
                  OtherChannel(1, 0xF2, b"\x01\x02"), EndOfTrack(1)]
        data = write_smf(piece_of(*events))
        assert data[14 + 8:] == (b"\x00\xc2\x29" b"\x00\xb2\x20\x05"
                                 b"\x00\x92\x3d\x01" b"\x00\xe2\x00\x40"
                                 b"\x00\xd2\x10" b"\x01\x82\x3d\x00"
                                 b"\x00\xf2\x01\x02" b"\x00\xff\x2f\x00")
        assert parse_smf(data).tracks[0].events == events


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


# one record of each type, with distinct field values
RECORDS = [
    NoteOn(1, 2, 3, 4), NoteOff(1, 2, 3, 4), ControlChange(1, 2, 3, 4),
    ProgramChange(1, 2, 3), SetTempo(1, 500000), TrackName(1, "Violin"),
    EndOfTrack(1), OtherMeta(1, 0x7F, b"\x00\x01"),
    OtherChannel(1, 0xE0, b"\x00\x40"), Note(1, 2, 3, 4, 5),
]
each_record = pytest.mark.parametrize("record", RECORDS,
                                      ids=lambda r: type(r).__name__)


class TestRecords:
    """The event records keep the contract of the frozen dataclasses they
    replaced."""

    def test_equality_needs_same_type(self):
        assert NoteOn(0, 0, 60, 1) == NoteOn(0, 0, 60, 1)
        assert NoteOn(0, 0, 60, 1) != NoteOn(0, 0, 60, 2)
        assert NoteOn(0, 0, 60, 1) != NoteOff(0, 0, 60, 1)
        assert not NoteOn(0, 0, 60, 1) == NoteOff(0, 0, 60, 1)
        assert ControlChange(0, 0, 60, 1) != NoteOn(0, 0, 60, 1)

    @each_record
    def test_never_equals_plain_tuple(self, record):
        plain = tuple(record)
        assert record != plain and plain != record
        assert not (record == plain or plain == record)

    @each_record
    def test_hash_consistent_with_eq(self, record):
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1

    @each_record
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            record.tick = 0

    def test_no_ordering(self):
        a, b = NoteOn(0, 0, 60, 1), NoteOn(1, 0, 60, 1)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(a, b)
            with pytest.raises(TypeError):
                op((0,), a)
        with pytest.raises(TypeError):
            sorted([b, a])

    def test_repr_text(self):
        assert [repr(r) for r in RECORDS] == [
            "NoteOn(tick=1, channel=2, pitch=3, velocity=4)",
            "NoteOff(tick=1, channel=2, pitch=3, velocity=4)",
            "ControlChange(tick=1, channel=2, controller=3, value=4)",
            "ProgramChange(tick=1, channel=2, program=3)",
            "SetTempo(tick=1, microseconds_per_quarter=500000)",
            "TrackName(tick=1, text='Violin')",
            "EndOfTrack(tick=1)",
            "OtherMeta(tick=1, meta_type=127, data=b'\\x00\\x01')",
            "OtherChannel(tick=1, status=224, data=b'\\x00@')",
            "Note(tick_on=1, tick_off=2, channel=3, pitch=4, velocity=5)",
        ]

    @each_record
    def test_pickle_round_trip(self, record):
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record) and again == record


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


@pytest.fixture(scope="module")
def raw_corpus_bytes(raw_corpus_files):
    return [path.read_bytes() for path in raw_corpus_files]


class TestMutatedFiles:
    """A piece that parses is a piece that writes: a mutated raw file either
    raises SmfError at parse or parses to a valid piece whose canonical bytes
    are a fixed point, and the chain steps raise only their declared
    errors on it."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_parse_write_and_chain(self, raw_corpus_bytes, data):
        blob = data.draw(mutations(raw_corpus_bytes))
        try:
            piece = parse_smf(blob)
        except SmfError:
            return
        validate_piece(piece)
        once = write_smf(piece)
        assert write_smf(parse_smf(once)) == once
        try:
            fixed, _ = admit_piece(piece, InstrumentDictionary.default())
        except PieceRejected:
            return
        normalized = normalize(fixed)
        strings = load_articulation_tables()
        every_instrument = {name: strings["violin"] for name in REGISTRY}
        try:
            annotate(normalized, every_instrument, AnnotationParams(seed=1))
        except ExpressiveError:
            pass


def test_corpus_semantic_round_trip(raw_corpus_files):
    for path in raw_corpus_files[:15]:
        original = parse_smf(path.read_bytes())
        reparsed = parse_smf(write_smf(original))
        assert reparsed.ticks_per_quarter == original.ticks_per_quarter
        assert reparsed.format == original.format
        assert [t.events for t in reparsed.tracks] == [t.events for t in original.tracks]
