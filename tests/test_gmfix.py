"""Instrument mapping, normalization, filtering, and deduplication."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from scoreforge.gmfix import (
    EXCLUDED,
    NORMALIZED_TEMPO_US,
    NORMALIZED_VELOCITY,
    REGISTRY,
    InstrumentDictionary,
    UnknownInstrument,
    dedupe,
    filter_corpus,
    fix_piece,
    identify_track,
    normalize,
    normalize_name,
    note_fingerprint,
    track_instruments,
)
from scoreforge.smf import (
    ControlChange,
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    OtherChannel,
    ProgramChange,
    SetTempo,
    Track,
    TrackName,
    parse_smf,
    track_notes,
    write_smf,
)


@pytest.fixture(scope="module")
def dictionary():
    return InstrumentDictionary.default()


def named_track(name, channel=0, pitch=60, program=None, extra=()):
    events = [TrackName(0, name)]
    if program is not None:
        events.append(ProgramChange(0, channel, program))
    events += [NoteOn(0, channel, pitch, 80), NoteOff(480, channel, pitch, 0)]
    events += list(extra)
    events.sort(key=lambda e: e.tick)
    track = Track(events=events, name=name, channel_hint=channel, program=program)
    return track


class TestNames:
    def test_normalization_folds_case_space_diacritics(self):
        assert normalize_name("  Violín   I ") == "violin i"
        assert normalize_name("FLÖTE") == "flote"
        assert normalize_name("Violoncello") == "violoncello"

    def test_lookup_variants(self, dictionary):
        for raw, expected in [
            ("Violin I", "violin"), ("2nd Violins", "violin"),
            ("Geigen", "violin"), ("Celli", "cello"),
            ("Double Bass", "contrabass"), ("Cor Anglais", "english_horn"),
            ("Horn in F", "french_horn"), ("Pauken", "timpani"),
        ]:
            assert dictionary.lookup(raw) is REGISTRY[expected], raw

    def test_excluded_and_unknown(self, dictionary):
        assert dictionary.lookup("Piano") is EXCLUDED
        assert dictionary.lookup("Soprano") is EXCLUDED
        assert dictionary.lookup("Theremin Solo") is None

    def test_registry_families(self):
        assert REGISTRY["violin"].gm_program == 40
        assert REGISTRY["french_horn"].gm_program == 60
        assert REGISTRY["flute"].family == "woodwinds"
        assert REGISTRY["trombone"].family == "brass"
        assert REGISTRY["harp"].family == "percussion"
        assert REGISTRY["timpani"].family == "percussion"


class TestMapInstrument:
    def test_by_name(self, dictionary):
        assert dictionary.lookup("Viola") is REGISTRY["viola"]
        assert dictionary.lookup("  VIOLE ") is REGISTRY["viola"]

    def test_unmapped_cases(self, dictionary):
        assert dictionary.lookup("") is None
        assert dictionary.lookup("Theremin Solo") is None
        assert dictionary.lookup("Piano") is EXCLUDED

    def test_channel_10_wins_over_name(self, dictionary):
        track = named_track("Viola", channel=9)
        assert identify_track(track, dictionary) is REGISTRY["untuned_percussion"]

    def test_marker_programs_mean_percussion(self, dictionary):
        for program in (112, 114):
            track = named_track("Something Odd", program=program)
            assert identify_track(track, dictionary) is REGISTRY["untuned_percussion"]

    def test_program_alone_is_not_trusted(self, dictionary):
        track = named_track("Mystery", program=40)
        assert identify_track(track, dictionary) is None


class TestFixPiece:
    def test_programs_and_channels_rewritten(self, dictionary):
        piece = MidiPiece(480, [named_track("Violin I", channel=3, program=17)])
        fixed, instruments = fix_piece(piece, dictionary)
        assert [i.name for i in instruments] == ["violin"]
        events = fixed.tracks[0].events
        programs = [e for e in events if isinstance(e, ProgramChange)]
        assert programs == [ProgramChange(0, 3, 40)]
        assert all(e.channel == 3 for e in events if isinstance(e, (NoteOn, NoteOff)))

    def test_target_set_restricts(self, dictionary):
        piece = MidiPiece(480, [named_track("Tuba")])
        strings = {REGISTRY[n] for n in ("violin", "viola", "cello", "contrabass")}
        with pytest.raises(UnknownInstrument):
            fix_piece(piece, dictionary, strings)

    def test_percussion_moved_to_channel_10(self, dictionary):
        piece = MidiPiece(480, [named_track("Percussion", channel=3)])
        fixed, instruments = fix_piece(piece, dictionary)
        assert instruments[0].name == "untuned_percussion"
        ons = [e for e in fixed.tracks[0].events if isinstance(e, NoteOn)]
        assert all(e.channel == 9 for e in ons)

    def test_unknown_name_rejects_piece(self, dictionary):
        piece = MidiPiece(480, [named_track("Theremin Solo")])
        with pytest.raises(UnknownInstrument):
            fix_piece(piece, dictionary)

    def test_excluded_name_rejects_piece(self, dictionary):
        piece = MidiPiece(480, [named_track("Piano")])
        with pytest.raises(UnknownInstrument):
            fix_piece(piece, dictionary)

    def test_note_free_track_passes_through(self, dictionary):
        conductor = Track(events=[TrackName(0, "conductor"),
                                  SetTempo(0, 600000), EndOfTrack(0)],
                          name="conductor")
        piece = MidiPiece(480, [conductor, named_track("Tuba")])
        fixed, instruments = fix_piece(piece, dictionary)
        assert fixed.tracks[0].events == conductor.events
        assert [i.name for i in instruments] == ["tuba"]

    def test_instruments_read_back(self, dictionary):
        piece = MidiPiece(480, [named_track("Oboe"), named_track("Harp", channel=1)])
        fixed, _ = fix_piece(piece, dictionary)
        names = [i.name if i else None for i in track_instruments(fixed)]
        assert names == ["oboe", "harp"]

    def test_fix_output_writable(self, dictionary, raw_corpus_files):
        fixed_any = False
        for path in raw_corpus_files[:10]:
            piece = parse_smf(path.read_bytes())
            try:
                fixed, _ = fix_piece(piece, dictionary)
            except UnknownInstrument:
                continue
            write_smf(fixed)
            fixed_any = True
        assert fixed_any


# channel voice messages the reader keeps untyped, with their data lengths
UNTYPED_VOICE = {0xA0: 2, 0xD0: 1, 0xE0: 2}


@st.composite
def mixed_channel_tracks(draw):
    """A note-bearing track whose events are spread over several channels:
    notes, controllers, programs, pitch bend, aftertouch, sysex."""
    name = draw(st.sampled_from(
        ["Violin I", "Cello", "Tuba", "Oboe", "Harp", "Percussion"]))
    channels = st.integers(0, 15)
    events = [TrackName(0, name)]
    for _ in range(draw(st.integers(1, 4))):
        on = draw(st.integers(0, 1900))
        channel, pitch = draw(channels), draw(st.integers(30, 90))
        events += [NoteOn(on, channel, pitch, 80),
                   NoteOff(on + draw(st.integers(1, 480)), channel, pitch, 0)]
    for _ in range(draw(st.integers(0, 5))):
        tick, channel = draw(st.integers(0, 2400)), draw(channels)
        kind = draw(st.sampled_from(["cc", "program", "sysex", *UNTYPED_VOICE]))
        if kind == "cc":
            events.append(ControlChange(tick, channel, 7, 100))
        elif kind == "program":
            events.append(ProgramChange(tick, channel, draw(st.integers(0, 127))))
        elif kind == "sysex":
            events.append(OtherChannel(tick, 0xF0, b"\x7e\x01\xf7"))
        else:
            events.append(OtherChannel(tick, kind | channel,
                                       bytes([0x40] * UNTYPED_VOICE[kind])))
    events.sort(key=lambda e: e.tick)
    events.append(EndOfTrack(events[-1].tick))
    return Track(events=events, name=name)


def channel_of(event):
    if isinstance(event, OtherChannel):
        return event.status & 0x0F if 0x80 <= event.status < 0xF0 else None
    return getattr(event, "channel", None)


class TestChannelProperty:
    @settings(max_examples=150, deadline=None)
    @given(tracks=st.lists(mixed_channel_tracks(), min_size=1, max_size=3))
    def test_channel_messages_move_with_notes(self, dictionary, tracks):
        fixed, _ = fix_piece(MidiPiece(480, tracks), dictionary)
        for track in parse_smf(write_smf(fixed)).tracks:
            assert track_notes(track)
            channels = {channel_of(ev) for ev in track.events} - {None}
            assert channels == {track.channel_hint}

    def test_raw_corpus_has_no_stray_channel_events(self, dictionary,
                                                    tmp_path):
        strays = 0
        for path in corpus.make_raw_corpus(tmp_path, 400):
            try:
                fixed, _ = fix_piece(parse_smf(path.read_bytes()), dictionary)
            except UnknownInstrument:
                continue
            for track in fixed.tracks:
                if track_notes(track):
                    strays += sum(channel_of(ev) not in (None, track.channel_hint)
                                  for ev in track.events)
        assert strays == 0


class TestNormalize:
    def build(self):
        track0 = Track(events=[
            SetTempo(0, 430000), TrackName(0, "conductor"),
            SetTempo(960, 610000), EndOfTrack(960),
        ])
        track1 = Track(events=[
            TrackName(0, "Viola"),
            ControlChange(0, 0, 1, 90), ControlChange(0, 0, 7, 100),
            ControlChange(0, 0, 11, 70), ControlChange(0, 0, 32, 5),
            NoteOn(0, 0, 60, 33), NoteOff(480, 0, 60, 0),
            NoteOn(480, 0, 62, 127), NoteOff(960, 0, 62, 0),
            EndOfTrack(960),
        ])
        return MidiPiece(480, [track0, track1])

    def test_velocity_flattened(self):
        fixed = normalize(self.build())
        velocities = [e.velocity for t in fixed.tracks for e in t.events
                      if isinstance(e, NoteOn)]
        assert velocities == [NORMALIZED_VELOCITY] * 2

    def test_single_tempo_at_zero(self):
        fixed = normalize(self.build())
        tempos = [(ti, e) for ti, t in enumerate(fixed.tracks)
                  for e in t.events if isinstance(e, SetTempo)]
        assert tempos == [(0, SetTempo(0, NORMALIZED_TEMPO_US))]

    def test_expressive_controllers_stripped_others_kept(self):
        fixed = normalize(self.build())
        controllers = [e.controller for t in fixed.tracks for e in t.events
                       if isinstance(e, ControlChange)]
        assert controllers == [7]

    def test_idempotent(self):
        once = normalize(self.build())
        twice = normalize(once)
        assert write_smf(once) == write_smf(twice)

    def test_notes_untouched(self):
        piece = self.build()
        fixed = normalize(piece)
        def spine(p):
            return [(e.tick, e.pitch) for t in p.tracks for e in t.events
                    if isinstance(e, (NoteOn, NoteOff))]
        assert spine(fixed) == spine(piece)


class TestFingerprint:
    def base_piece(self, dictionary):
        piece = MidiPiece(480, [named_track("Violin I"),
                                named_track("Cello", channel=1, pitch=48)])
        fixed, _ = fix_piece(piece, dictionary)
        return fixed

    def test_invariant_to_track_order_and_tempo(self, dictionary):
        a = self.base_piece(dictionary)
        b = MidiPiece(480, list(reversed(a.tracks)))
        assert note_fingerprint(a) == note_fingerprint(b)
        c = normalize(a)
        assert note_fingerprint(a) == note_fingerprint(c)

    def test_sensitive_to_note_changes(self, dictionary):
        a = self.base_piece(dictionary)
        moved = MidiPiece(480, [a.tracks[0], Track(events=[
            ev if not (isinstance(ev, NoteOn) and ev.pitch == 48)
            else NoteOn(ev.tick, ev.channel, 50, ev.velocity)
            for ev in a.tracks[1].events
        ])])
        assert note_fingerprint(a) != note_fingerprint(moved)

    def test_duplicate_editions_collide(self, dictionary):
        data = corpus.build_raw_file(seed=123)
        dup = corpus.rewrite_as_duplicate(data, seed=321)
        a, _ = fix_piece(parse_smf(data), dictionary)
        b, _ = fix_piece(parse_smf(dup), dictionary)
        assert note_fingerprint(a) == note_fingerprint(b)


class TestCorpusOps:
    def test_filter_rules(self, dictionary):
        pieces = {
            "good": MidiPiece(480, [named_track("Flute 1"),
                                    named_track("Viola", channel=1)]),
            "mono": MidiPiece(480, [named_track("Violin I"),
                                    named_track("Violin II", channel=1)]),
            "bad": MidiPiece(480, [named_track("Viola"),
                                   named_track("Theremin Solo", channel=1)]),
            "vocal": MidiPiece(480, [named_track("Viola"),
                                     named_track("Soprano", channel=1)]),
            "empty": MidiPiece(480, [Track(events=[EndOfTrack(0)])]),
        }
        kept, rejected = filter_corpus(pieces, dictionary)
        assert list(kept) == ["good"]
        reasons = {r.piece_id: r.reason for r in rejected}
        assert set(reasons) == {"mono", "bad", "vocal", "empty"}
        assert "monotimbral" in reasons["mono"]

    def test_filter_respects_targets(self, dictionary):
        pieces = {"p": MidiPiece(480, [named_track("Flute 1"),
                                       named_track("Viola", channel=1)])}
        strings = {REGISTRY[n] for n in ("violin", "viola", "cello", "contrabass")}
        kept, rejected = filter_corpus(pieces, dictionary, strings)
        assert not kept
        assert rejected[0].piece_id == "p"

    def test_dedupe_first_wins(self, dictionary):
        base = MidiPiece(480, [named_track("Oboe")])
        fixed, _ = fix_piece(base, dictionary)
        other = MidiPiece(480, [named_track("Oboe", pitch=61)])
        other_fixed, _ = fix_piece(other, dictionary)
        kept, pairs = dedupe({"a": note_fingerprint(fixed),
                              "b": note_fingerprint(other_fixed),
                              "c": note_fingerprint(fixed)})
        assert kept == ["a", "b"]
        assert [(p.kept_id, p.dropped_id) for p in pairs] == [("a", "c")]
