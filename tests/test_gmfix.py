"""Instrument mapping, normalization, filtering, and deduplication."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from scoreforge.expressive import load_articulation_tables
from scoreforge.gmfix import (
    DATA,
    EXCLUDED,
    MAX_SPAN_QUARTERS,
    NORMALIZED_TEMPO_US,
    NORMALIZED_VELOCITY,
    REGISTRY,
    Deduper,
    GmFixError,
    InstrumentDictionary,
    PieceRejected,
    UnknownInstrument,
    admit_piece,
    fix_piece,
    identify_track,
    normalize,
    normalize_name,
    note_fingerprint,
    read_table,
    track_instruments,
)
from scoreforge.smf import (
    MAX_VLQ_VALUE,
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
    return events


def span_piece(tpq, end):
    """A flute and viola piece whose last note-off is at tick ``end``."""
    return MidiPiece(tpq, [named_track("Flute 1"), named_track(
        "Viola", channel=1, extra=[NoteOn(end - 1, 1, 62, 80),
                                   NoteOff(end, 1, 62, 0)])])


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
        assert dictionary.lookup("Piano") == EXCLUDED
        assert dictionary.lookup("Soprano") == EXCLUDED
        assert dictionary.lookup("Theremin Solo") is None

    @pytest.mark.parametrize("rows, message", [
        ("Violin I,violin\nviolin  i,viola\n",
         "name 'violin i' maps to both violin and viola"),
        ("Piano,excluded\nPIANO,harp\n",
         "name 'piano' maps to both excluded and harp"),
    ])
    def test_conflicting_rows_rejected(self, tmp_path, rows, message):
        # the last row used to win silently
        path = tmp_path / "names.csv"
        path.write_text("name,instrument\n" + rows)
        with pytest.raises(GmFixError) as info:
            InstrumentDictionary.from_csv(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    def test_unknown_instrument_names_its_line(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("name,instrument\nViolin I,violin\n\nFiddle,fiddle\n")
        with pytest.raises(GmFixError) as info:
            InstrumentDictionary.from_csv(path)
        assert str(info.value) == (
            f"{path}: line 4: unknown instrument 'fiddle' for name 'Fiddle'")

    def test_repeated_row_with_one_instrument_allowed(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("name,instrument\nViolin I,violin\nVIOLIN  I,violin\n"
                        "Viola,viola\n")
        names = InstrumentDictionary.from_csv(path)
        assert len(names) == 2
        assert names.lookup("Violin I") is REGISTRY["violin"]

    def test_registry_families(self):
        assert REGISTRY["violin"].gm_program == 40
        assert REGISTRY["french_horn"].gm_program == 60


# each bundled table and the loader that reads one like it
TABLE_LOADERS = {"instrument_names.csv": InstrumentDictionary.from_csv,
                 "articulations_strings.csv": load_articulation_tables}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to four edits, each a truncation, a dropped or
    duplicated comma-separated field, or one byte set to any value."""
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["truncate", "drop", "duplicate", "byte"]))
        if edit == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif edit == "byte":
            if data:
                at = draw(st.integers(0, len(data) - 1))
                data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        else:
            lines = data.split(b"\n")
            line = draw(st.integers(0, len(lines) - 1))
            fields = lines[line].split(b",")
            field = draw(st.integers(0, len(fields) - 1))
            if edit == "drop":
                del fields[field]
            else:
                fields.insert(field, fields[field])
            lines[line] = b",".join(fields)
            data = b"\n".join(lines)
    return data


class TestTables:
    def test_rows_keyed_by_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('b,a\n\n2,"x,y"\n\n')
        assert read_table(path, ("a",)) == [(3, {"b": "2", "a": "x,y"})]

    @pytest.mark.parametrize("name", sorted(TABLE_LOADERS))
    def test_byte_order_mark_skipped(self, tmp_path, name):
        """A table saved as spreadsheet "CSV UTF-8", with a byte-order mark,
        reads as the same table without one."""
        data = (DATA / name).read_bytes()
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + data)
        columns = tuple(data.split(b"\n", 1)[0].decode().split(","))
        assert read_table(path, columns) == read_table(DATA / name, columns)
        assert len(TABLE_LOADERS[name](path)) > 0

    # the CLI tests cover each defect in each table; these are the cases
    # they do not: an empty file, a line count past a blank line, and a
    # line the csv module itself rejects
    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing column a, b"),
        ("a,b\n1,2\n\n1,2,3\n", "line 4: expected 2 fields, got 3"),
        ("a,b\n1," + "2" * 200_000 + "\n",
         "line 2: field larger than field limit (131072)"),
    ])
    def test_malformed_table_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_table(path, ("a", "b"))
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(TABLE_LOADERS)), data=st.data())
    def test_mutated_table_loads_or_raises_a_declared_error(
            self, tmp_path_factory, name, data):
        """A malformed table is an OSError, a ValueError or a GmFixError,
        the classes the CLI reports as a config error."""
        path = tmp_path_factory.mktemp("table") / name
        path.write_bytes(data.draw(mutated((DATA / name).read_bytes())))
        try:
            TABLE_LOADERS[name](path)
        except (OSError, ValueError, GmFixError):
            pass


class TestMapInstrument:
    def test_by_name(self, dictionary):
        assert dictionary.lookup("Viola") is REGISTRY["viola"]
        assert dictionary.lookup("  VIOLE ") is REGISTRY["viola"]

    def test_unmapped_cases(self, dictionary):
        assert dictionary.lookup("") is None
        assert dictionary.lookup("Theremin Solo") is None
        assert dictionary.lookup("Piano") == EXCLUDED

    def test_channel_10_wins_over_name(self, dictionary):
        track = named_track("Viola", channel=9)
        assert identify_track(track, dictionary) is REGISTRY["untuned_percussion"]
        # the first channel message decides, an untyped one (pitch bend)
        # included; a system message (0xF9) has no channel
        for first, expected in [(OtherChannel(0, 0xE9, b"\x00\x40"),
                                 REGISTRY["untuned_percussion"]),
                                (OtherChannel(0, 0xF9, b""), REGISTRY["viola"])]:
            track = Track([TrackName(0, "Viola"), first, NoteOn(0, 0, 60, 80),
                           NoteOff(480, 0, 60, 0), EndOfTrack(480)])
            assert identify_track(track, dictionary) is expected

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
        events = fixed.tracks[0]
        programs = [e for e in events if isinstance(e, ProgramChange)]
        assert programs == [ProgramChange(0, 3, 40)]
        assert all(e.channel == 3 for e in events if isinstance(e, (NoteOn, NoteOff)))

    def test_percussion_moved_to_channel_10(self, dictionary):
        piece = MidiPiece(480, [named_track("Percussion", channel=3)])
        fixed, instruments = fix_piece(piece, dictionary)
        assert instruments[0].name == "untuned_percussion"
        ons = [e for e in fixed.tracks[0] if isinstance(e, NoteOn)]
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
        conductor = [TrackName(0, "conductor"),
                     SetTempo(0, 600000), EndOfTrack(0)]
        piece = MidiPiece(480, [conductor, named_track("Tuba")])
        fixed, instruments = fix_piece(piece, dictionary)
        assert fixed.tracks[0] == conductor
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
    return events


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
            channels = {channel_of(ev) for ev in track} - {None}
            assert len(channels) == 1

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
                    channels = {channel_of(ev) for ev in track} - {None}
                    strays += len(channels) != 1
        assert strays == 0


class TestIdentifiedFromEvents:
    """A track's instrument is read from its events alone, so it is the
    same before and after a write and parse."""

    @settings(max_examples=150, deadline=None)
    @given(track=mixed_channel_tracks())
    @example(track=Track([TrackName(0, "Violin I"), NoteOn(0, 0, 60, 80),
                          NoteOff(480, 0, 60, 0), EndOfTrack(480)]))
    def test_round_trip_keeps_the_instrument(self, dictionary, track):
        piece = MidiPiece(480, [track])
        again = parse_smf(write_smf(piece))
        assert identify_track(track, dictionary) \
            == identify_track(again.tracks[0], dictionary)
        assert fix_piece(piece, dictionary)[1] \
            == fix_piece(again, dictionary)[1]


class TestNormalize:
    def build(self):
        track0 = [
            SetTempo(0, 430000), TrackName(0, "conductor"),
            SetTempo(960, 610000), EndOfTrack(960),
        ]
        track1 = [
            TrackName(0, "Viola"),
            ControlChange(0, 0, 1, 90), ControlChange(0, 0, 7, 100),
            ControlChange(0, 0, 11, 70), ControlChange(0, 0, 32, 5),
            NoteOn(0, 0, 60, 33), NoteOff(480, 0, 60, 0),
            NoteOn(480, 0, 62, 127), NoteOff(960, 0, 62, 0),
            EndOfTrack(960),
        ]
        return MidiPiece(480, [track0, track1])

    def test_velocity_flattened(self):
        fixed = normalize(self.build())
        velocities = [e.velocity for t in fixed.tracks for e in t
                      if isinstance(e, NoteOn)]
        assert velocities == [NORMALIZED_VELOCITY] * 2

    def test_single_tempo_at_zero(self):
        fixed = normalize(self.build())
        tempos = [(ti, e) for ti, t in enumerate(fixed.tracks)
                  for e in t if isinstance(e, SetTempo)]
        assert tempos == [(0, SetTempo(0, NORMALIZED_TEMPO_US))]

    def test_expressive_controllers_stripped_others_kept(self):
        fixed = normalize(self.build())
        controllers = [e.controller for t in fixed.tracks for e in t
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
            return [(e.tick, e.pitch) for t in p.tracks for e in t
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
        moved = MidiPiece(480, [a.tracks[0], [
            ev if not (isinstance(ev, NoteOn) and ev.pitch == 48)
            else NoteOn(ev.tick, ev.channel, 50, ev.velocity)
            for ev in a.tracks[1]
        ]])
        assert note_fingerprint(a) != note_fingerprint(moved)

    def test_duplicate_editions_collide(self, dictionary):
        data = corpus.build_raw_file(seed=123)
        dup = corpus.rewrite_as_duplicate(data, seed=321)
        a, _ = fix_piece(parse_smf(data), dictionary)
        b, _ = fix_piece(parse_smf(dup), dictionary)
        assert note_fingerprint(a) == note_fingerprint(b)


def reference_fingerprint(piece):
    """note_fingerprint's formula spelled out: rows from track_notes's
    tuples, then one sha256 update per sorted row."""
    rows = []
    for track, iid in zip(piece.tracks, track_instruments(piece)):
        if iid is None and not any(isinstance(ev, NoteOn) for ev in track):
            continue
        label = "?" if iid is None else iid.name
        rows += [(on, off - on, pitch, label)
                 for on, off, _, pitch, _ in track_notes(track)]
    digest = hashlib.sha256()
    for row in sorted(rows):
        digest.update(repr(row).encode("ascii"))
    return digest.hexdigest()


class TestFingerprintGolden:
    def test_raw_corpus(self, raw_corpus_files, dictionary):
        fixed_count = 0
        for path in raw_corpus_files:
            piece = parse_smf(path.read_bytes())
            # unfixed, most note-bearing tracks are labelled "?"
            assert note_fingerprint(piece) == reference_fingerprint(piece), path
            try:
                fixed, _ = fix_piece(piece, dictionary)
            except UnknownInstrument:
                continue
            fixed_count += 1
            assert note_fingerprint(fixed) == reference_fingerprint(fixed), path
        assert fixed_count > 0

    def test_unterminated_note_and_unknown_instrument(self, dictionary):
        violin, cello = named_track("Violin I"), named_track("Cello", channel=1)
        fixed, _ = fix_piece(MidiPiece(480, [violin, cello]), dictionary)
        # a note-on with no note-off, closed at the track's end tick, and a
        # track whose program maps to no instrument
        fixed.tracks[0][-1:-1] = [NoteOn(240, 0, 64, 80),
                                  NoteOn(240, 0, 64, 70)]
        unknown = [ProgramChange(0, 2, 0), NoteOn(10, 2, 50, 60),
                   NoteOff(90, 2, 50, 0), NoteOn(100, 2, 52, 60),
                   EndOfTrack(700)]
        piece = MidiPiece(480, [*fixed.tracks, unknown])
        assert track_instruments(piece)[2] is None
        assert [off for _, off, _, pitch, _ in track_notes(piece.tracks[0])
                if pitch == 64] == [480, 480]
        assert note_fingerprint(piece) == reference_fingerprint(piece)
        assert note_fingerprint(piece) != note_fingerprint(fixed)


def admit_all(pieces, dictionary):
    """admit_piece over a corpus: (kept ids, piece id -> rejection reason)."""
    kept, reasons = [], {}
    for piece_id, piece in pieces.items():
        try:
            admit_piece(piece, dictionary)
            kept.append(piece_id)
        except PieceRejected as exc:
            reasons[piece_id] = str(exc)
    return kept, reasons


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
            "empty": MidiPiece(480, [[EndOfTrack(0)]]),
        }
        kept, reasons = admit_all(pieces, dictionary)
        assert list(kept) == ["good"]
        assert set(reasons) == {"mono", "bad", "vocal", "empty"}
        assert "monotimbral" in reasons["mono"]

    def test_span_past_one_delta_time_rejected(self, dictionary):
        """A piece longer than one delta time can hold is rejected, so a
        step that strips events can never merge a delta past the VLQ range;
        one exactly that long is kept. At the most ticks per quarter this
        bound is tighter than the one on quarter notes."""
        assert MAX_SPAN_QUARTERS * 0x7FFF > MAX_VLQ_VALUE
        kept, reasons = admit_all(
            {"edge": span_piece(0x7FFF, MAX_VLQ_VALUE),
             "long": span_piece(0x7FFF, MAX_VLQ_VALUE + 1)}, dictionary)
        assert kept == ["edge"]
        assert reasons == {"long": f"spans {MAX_VLQ_VALUE + 1} ticks, more "
                                   f"than one delta time holds ({MAX_VLQ_VALUE})"}

    def test_span_past_the_quarter_bound_rejected(self, dictionary):
        """A piece of more than MAX_SPAN_QUARTERS quarter notes is rejected,
        so no step does work in proportion to a span that a few bytes of
        delta time can make; one exactly that long is kept."""
        end = MAX_SPAN_QUARTERS * 480
        kept, reasons = admit_all({"edge": span_piece(480, end),
                                   "long": span_piece(480, end + 1)},
                                  dictionary)
        assert kept == ["edge"]
        assert reasons == {"long": f"spans {(end + 1) / 480:.2f} quarter "
                                   f"notes, more than {MAX_SPAN_QUARTERS}"}

    def test_dedupe_first_wins(self, dictionary):
        base = MidiPiece(480, [named_track("Oboe")])
        fixed, _ = fix_piece(base, dictionary)
        other = MidiPiece(480, [named_track("Oboe", pitch=61)])
        other_fixed, _ = fix_piece(other, dictionary)
        deduper = Deduper()
        kept = [piece_id for piece_id, fixed_piece
                in [("a", fixed), ("b", other_fixed), ("c", fixed)]
                if deduper.admit(piece_id, note_fingerprint(fixed_piece))]
        assert kept == ["a", "b"]
        assert [(p.kept_id, p.dropped_id) for p in deduper.duplicates] == [
            ("a", "c")]
