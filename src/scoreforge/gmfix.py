"""Instrument identification and corpus cleanup for orchestral MIDI.

Raw score collections name tracks inconsistently ("Violin I", "Vl. 2",
"Geigen") and carry arbitrary programs, velocities and tempos. This module
maps track names onto a fixed orchestral instrument set via a lookup
dictionary, rewrites program/channel data to match, normalizes velocity and
tempo to a flat baseline, drops pieces containing unmappable tracks, and
removes duplicate pieces by note-content fingerprint.
"""

from __future__ import annotations

import csv
import hashlib
import unicodedata
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .audio import DEFAULT_SAMPLE_RATE, MAX_WAV_FRAMES
from .smf import (
    MAX_VLQ_VALUE,
    ControlChange,
    MidiPiece,
    NoteOn,
    OtherChannel,
    ProgramChange,
    SetTempo,
    Track,
    has_notes,
    track_name,
    track_notes,
)

NORMALIZED_VELOCITY = 75
NORMALIZED_TEMPO_US = 500_000  # 120 BPM
PERCUSSION_CHANNEL = 9
STRIPPED_CONTROLLERS = frozenset({1, 11, 32})
DATA = resources.files("scoreforge").joinpath("data")  # the bundled tables
# the most quarter notes a piece may span: what one WAV file holds at the
# default sample rate and 40 BPM (1.5 s a quarter), the slowest tempo
# annotate draws by default; 32,463 quarters, about 4.5 h at 120 BPM
MAX_SPAN_QUARTERS = MAX_WAV_FRAMES * 40 // (DEFAULT_SAMPLE_RATE * 60)

class GmFixError(Exception):
    pass


class PieceRejected(GmFixError):
    """A piece the corpus rules keep out; the message is the reason."""


class UnknownInstrument(PieceRejected):
    pass


@dataclass(frozen=True, slots=True)
class InstrumentId:
    name: str
    gm_program: int  # 0-based


# what the dictionary maps a name recognized as deliberately out of scope
# (vocals, keyboards) to: the piece is rejected, but distinctly from unknown
# names; the literal its CSV uses, so it compares equal in any process
EXCLUDED = "excluded"

REGISTRY: dict[str, InstrumentId] = {
    iid.name: iid
    for iid in (
        InstrumentId("violin", 40),
        InstrumentId("viola", 41),
        InstrumentId("cello", 42),
        InstrumentId("contrabass", 43),
        InstrumentId("flute", 73),
        InstrumentId("piccolo", 72),
        InstrumentId("clarinet", 71),
        InstrumentId("oboe", 68),
        InstrumentId("english_horn", 69),
        InstrumentId("bassoon", 70),
        InstrumentId("french_horn", 60),
        InstrumentId("trumpet", 56),
        InstrumentId("trombone", 57),
        InstrumentId("tuba", 58),
        InstrumentId("harp", 46),
        InstrumentId("timpani", 47),
        InstrumentId("untuned_percussion", 112),
    )
}

# GM programs that mark a track as untuned percussion even off channel 10
# (tinkle bell, steel drums).
UNTUNED_PROGRAMS = frozenset({112, 114})

_PROGRAM_TO_INSTRUMENT = {
    iid.gm_program: iid
    for iid in REGISTRY.values()
    if iid.name != "untuned_percussion"
}


def read_table(source: Path | resources.abc.Traversable,
               columns: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """The rows of the UTF-8 CSV table ``source``, a file path or a bundled
    resource, each as its line number and its fields keyed by the header's
    column names; a leading byte-order mark and blank lines are skipped. A
    header without one of ``columns``, a row whose field count is not the
    header's, and a NUL byte are each a ValueError that names the line, as
    is a line the csv module rejects."""
    with source.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if missing := [name for name in columns if name not in header]:
                raise ValueError(f"line 1: missing column {', '.join(missing)}")
            rows = []
            for fields in filter(None, reader):
                if len(fields) != len(header):
                    raise ValueError(f"line {reader.line_num}: expected "
                                     f"{len(header)} fields, got {len(fields)}")
                # Python 3.10's csv rejects NUL itself, later releases keep it
                if any("\0" in field for field in fields):
                    raise ValueError(f"line {reader.line_num}: line contains NUL")
                rows.append((reader.line_num, dict(zip(header, fields))))
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows


def normalize_name(raw: str) -> str:
    """Fold case, strip diacritics, collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", raw)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    return " ".join(stripped.casefold().split())


class InstrumentDictionary:
    """Track-name lookup table loaded from CSV (columns: name, instrument).

    ``instrument`` is a registry name, or the literal ``excluded`` for names
    that are recognized but out of scope.
    """

    def __init__(self, entries: dict[str, InstrumentId | str]):
        self._entries = entries

    @classmethod
    def from_csv(cls, path: str | Path) -> "InstrumentDictionary":
        return cls._from_table(Path(path), str(path))

    @classmethod
    def default(cls) -> "InstrumentDictionary":
        return cls._from_table(DATA / "instrument_names.csv", "builtin")

    @classmethod
    def _from_table(cls, table, source: str) -> "InstrumentDictionary":
        """Rows may repeat a name (after normalize_name) only with the same
        instrument; a name mapped to two is a GmFixError that names the
        second row's line, as is an unknown instrument."""
        entries: dict[str, InstrumentId | str] = {}
        for line, row in read_table(table, ("name", "instrument")):
            key = normalize_name(row["name"])
            target = row["instrument"].strip()
            value = EXCLUDED if target == EXCLUDED else REGISTRY.get(target)
            if value is None:
                raise GmFixError(f"{source}: line {line}: unknown instrument "
                                 f"{target!r} for name {row['name']!r}")
            first = entries.setdefault(key, value)
            if first != value:
                was = first if first == EXCLUDED else first.name
                raise GmFixError(f"{source}: line {line}: name {key!r} maps "
                                 f"to both {was} and {target}")
        return cls(entries)

    def lookup(self, raw_name: str) -> InstrumentId | str | None:
        return self._entries.get(normalize_name(raw_name))

    def __len__(self) -> int:
        return len(self._entries)


def identify_track(track: Track,
                   dictionary: InstrumentDictionary) -> InstrumentId | str | None:
    """Identify a track's instrument.

    Tracks whose first channel message, of any kind, is on channel 10, and
    tracks whose first program is an untuned-percussion program, are untuned
    percussion regardless of name. Otherwise the track name decides;
    programs are too unreliable in raw corpora to fall back on, so an
    unrecognized name returns None.
    """
    channel = program = None
    for ev in track:
        if channel is None:
            if type(ev) is OtherChannel:
                if ev.status < 0xF0:  # pitch bend, aftertouch; not sysex
                    channel = ev.status & 0x0F
            else:
                channel = getattr(ev, "channel", None)
        if program is None and type(ev) is ProgramChange:
            program = ev.program
        if channel is not None and (program is not None
                                    or channel == PERCUSSION_CHANNEL):
            break
    if channel == PERCUSSION_CHANNEL or program in UNTUNED_PROGRAMS:
        return REGISTRY["untuned_percussion"]
    return dictionary.lookup(track_name(track))


def fix_piece(piece: MidiPiece, dictionary: InstrumentDictionary,
              ) -> tuple[MidiPiece, list[InstrumentId]]:
    """Rewrite programs/channels so every note-bearing track matches its
    identified instrument. Returns (fixed piece, per-track instruments).

    Raises UnknownInstrument if any note-bearing track is unmappable or
    excluded. Note-free tracks (conductor tracks) pass through untouched.
    """
    fixed_tracks: list[Track] = []
    instruments: list[InstrumentId] = []
    for index, track in enumerate(piece.tracks):
        if not has_notes(track):
            fixed_tracks.append(track)
            continue
        iid = identify_track(track, dictionary)
        if iid is None:
            raise UnknownInstrument(
                f"track {index} ({track_name(track)!r}): no instrument mapping")
        if iid == EXCLUDED:
            raise UnknownInstrument(
                f"track {index} ({track_name(track)!r}): instrument out of scope")
        fixed_tracks.append(_retarget_track(track, iid))
        instruments.append(iid)
    return replace(piece, tracks=fixed_tracks), instruments


def _retarget_track(track: Track, iid: InstrumentId) -> Track:
    """Move every channel message to one channel: the percussion channel for
    untuned percussion, else the first channel the track uses (channel 0 in
    place of the percussion channel, or when it uses none). Untyped channel
    voice messages (pitch bend, aftertouch) move with the notes."""
    if iid.name == "untuned_percussion":
        target = PERCUSSION_CHANNEL
    else:
        first = next((ev.channel for ev in track if hasattr(ev, "channel")), 0)
        target = first if first != PERCUSSION_CHANNEL else 0
    events = []
    for ev in track:
        channel = getattr(ev, "channel", None)
        if channel is None:
            if (isinstance(ev, OtherChannel) and 0x80 <= ev.status < 0xF0
                    and ev.status & 0x0F != target):
                ev = OtherChannel(ev.tick, (ev.status & 0xF0) | target, ev.data)
        elif isinstance(ev, ProgramChange):
            continue  # re-emitted once at tick 0 below
        elif channel != target:
            if isinstance(ev, ControlChange):
                ev = ControlChange(ev.tick, target, ev.controller, ev.value)
            else:  # NoteOn or NoteOff
                ev = type(ev)(ev.tick, target, ev.pitch, ev.velocity)
        events.append(ev)
    events.insert(0, ProgramChange(0, target, iid.gm_program))
    return events


def track_instruments(piece: MidiPiece) -> list[InstrumentId | None]:
    """Per-track instruments of a piece already passed through fix_piece,
    read back from channel and program data (None for note-free tracks)."""
    out: list[InstrumentId | None] = []
    for track in piece.tracks:
        if not has_notes(track):
            out.append(None)
            continue
        program = None
        channel = None
        for ev in track:
            if isinstance(ev, ProgramChange) and program is None:
                program = ev.program
            if isinstance(ev, NoteOn) and channel is None:
                channel = ev.channel
            if program is not None and channel is not None:
                break
        if channel == PERCUSSION_CHANNEL:
            out.append(REGISTRY["untuned_percussion"])
        elif program in _PROGRAM_TO_INSTRUMENT:
            out.append(_PROGRAM_TO_INSTRUMENT[program])
        else:
            out.append(None)
    return out


def normalize(piece: MidiPiece) -> MidiPiece:
    """Flatten expressive state: every note-on at velocity 75, one 120 BPM
    tempo at tick 0, and no modulation/expression/articulation controllers.

    Idempotent: normalize(normalize(p)) == normalize(p). The piece must be
    valid, as every piece ``parse_smf`` returns is; ``write_smf`` checks.
    """
    new_tracks: list[Track] = []
    for index, track in enumerate(piece.tracks):
        events = []
        for ev in track:
            cls = type(ev)
            if cls is NoteOn:
                if ev.velocity != NORMALIZED_VELOCITY:
                    ev = NoteOn(ev.tick, ev.channel, ev.pitch, NORMALIZED_VELOCITY)
            elif cls is SetTempo or (cls is ControlChange
                                     and ev.controller in STRIPPED_CONTROLLERS):
                continue
            events.append(ev)
        if index == 0:
            events.insert(0, SetTempo(0, NORMALIZED_TEMPO_US))
        new_tracks.append(events)
    return replace(piece, tracks=new_tracks)


def note_fingerprint(piece: MidiPiece) -> str:
    """Content hash over the multiset of (onset, duration, pitch, instrument).

    Invariant to track order, track names, channels, velocities, tempo and
    any non-note events, so the same score fixed from two different source
    files collides.
    """
    instruments = track_instruments(piece)
    rows: list[tuple[int, int, int, str]] = []
    for track, iid in zip(piece.tracks, instruments):
        if iid is None:
            if not has_notes(track):
                continue
            label = "?"
        else:
            label = iid.name
        rows += [(on, off - on, pitch, label)
                 for on, off, _, pitch, _ in track_notes(track)]
    rows.sort()
    # each row as its repr, from one template; one update over the
    # concatenation hashes the same as one per row
    text = "".join(map("(%d, %d, %d, %r)".__mod__, rows))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def admit_piece(piece: MidiPiece, dictionary: InstrumentDictionary,
                ) -> tuple[MidiPiece, list[InstrumentId]]:
    """fix_piece, then the corpus rules: the piece must have note-bearing
    tracks of at least two distinct instruments, and span no more ticks
    than one delta time holds, nor more than MAX_SPAN_QUARTERS quarters.

    Monotimbral pieces are useless for separation training, so they are
    rejected alongside pieces with unmappable or out-of-scope tracks; the
    tick bound keeps any delta time that a later step merges encodable, and
    the quarter bound keeps the cost of annotating and rendering a piece in
    proportion to music, not to a few bytes of delta time. Raises
    PieceRejected (UnknownInstrument for track-level causes) with the
    reason.
    """
    fixed, instruments = fix_piece(piece, dictionary)
    if not instruments:
        raise PieceRejected("no note-bearing tracks")
    if len(set(instruments)) < 2:
        raise PieceRejected(f"monotimbral: only {instruments[0].name}")
    end, tpq = fixed.end_tick(), fixed.ticks_per_quarter
    if end > MAX_VLQ_VALUE:
        raise PieceRejected(f"spans {end} ticks, more than one delta time "
                            f"holds ({MAX_VLQ_VALUE})")
    if end > MAX_SPAN_QUARTERS * tpq:
        raise PieceRejected(f"spans {end / tpq:.2f} quarter notes, more than "
                            f"{MAX_SPAN_QUARTERS}")
    return fixed, instruments


@dataclass(frozen=True, slots=True)
class DuplicatePair:
    kept_id: str
    dropped_id: str
    fingerprint: str


class Deduper:
    """Drops pieces whose note_fingerprint was already seen, one piece at a
    time: the first piece offered wins, and ``duplicates`` lists the pairs."""

    def __init__(self) -> None:
        self._kept: dict[str, str] = {}  # fingerprint -> the piece kept
        self.duplicates: list[DuplicatePair] = []

    def admit(self, piece_id: str, fingerprint: str) -> bool:
        """Whether the piece is kept: no piece before it had its fingerprint."""
        kept_id = self._kept.setdefault(fingerprint, piece_id)
        if kept_id != piece_id:
            self.duplicates.append(DuplicatePair(kept_id, piece_id, fingerprint))
        return kept_id == piece_id
