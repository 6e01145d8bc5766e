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
from operator import attrgetter
from pathlib import Path

from .smf import (
    ControlChange,
    MidiPiece,
    NoteOn,
    OtherChannel,
    ProgramChange,
    SetTempo,
    Track,
    has_notes,
    note_pairs,
    track_name,
)

NORMALIZED_VELOCITY = 75
NORMALIZED_TEMPO_US = 500_000  # 120 BPM
PERCUSSION_CHANNEL = 9
STRIPPED_CONTROLLERS = frozenset({1, 11, 32})

FAMILY_STRINGS = "strings"
FAMILY_WOODWINDS = "woodwinds"
FAMILY_BRASS = "brass"
FAMILY_PERCUSSION = "percussion"


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
    family: str


class _Excluded:
    """Sentinel for names recognized as deliberately out of scope (vocals,
    keyboards): the piece is rejected, but distinctly from unknown names."""

    def __repr__(self) -> str:
        return "EXCLUDED"


EXCLUDED = _Excluded()

REGISTRY: dict[str, InstrumentId] = {
    iid.name: iid
    for iid in (
        InstrumentId("violin", 40, FAMILY_STRINGS),
        InstrumentId("viola", 41, FAMILY_STRINGS),
        InstrumentId("cello", 42, FAMILY_STRINGS),
        InstrumentId("contrabass", 43, FAMILY_STRINGS),
        InstrumentId("flute", 73, FAMILY_WOODWINDS),
        InstrumentId("piccolo", 72, FAMILY_WOODWINDS),
        InstrumentId("clarinet", 71, FAMILY_WOODWINDS),
        InstrumentId("oboe", 68, FAMILY_WOODWINDS),
        InstrumentId("english_horn", 69, FAMILY_WOODWINDS),
        InstrumentId("bassoon", 70, FAMILY_WOODWINDS),
        InstrumentId("french_horn", 60, FAMILY_BRASS),
        InstrumentId("trumpet", 56, FAMILY_BRASS),
        InstrumentId("trombone", 57, FAMILY_BRASS),
        InstrumentId("tuba", 58, FAMILY_BRASS),
        InstrumentId("harp", 46, FAMILY_PERCUSSION),
        InstrumentId("timpani", 47, FAMILY_PERCUSSION),
        InstrumentId("untuned_percussion", 112, FAMILY_PERCUSSION),
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

    def __init__(self, entries: dict[str, InstrumentId | _Excluded]):
        self._entries = entries

    @classmethod
    def from_csv(cls, path: str | Path) -> "InstrumentDictionary":
        with open(path, newline="", encoding="utf-8") as fh:
            return cls._from_rows(csv.DictReader(fh), str(path))

    @classmethod
    def default(cls) -> "InstrumentDictionary":
        ref = resources.files("scoreforge").joinpath("data/instrument_names.csv")
        with ref.open("r", encoding="utf-8", newline="") as fh:
            return cls._from_rows(csv.DictReader(fh), "builtin")

    @classmethod
    def _from_rows(cls, rows, source: str) -> "InstrumentDictionary":
        """Rows may repeat a name (after normalize_name) only with the same
        instrument; a name mapped to two is a GmFixError."""
        entries: dict[str, InstrumentId | _Excluded] = {}
        for row in rows:
            key = normalize_name(row["name"])
            target = row["instrument"].strip()
            value = EXCLUDED if target == "excluded" else REGISTRY.get(target)
            if value is None:
                raise GmFixError(
                    f"{source}: unknown instrument {target!r} for name {row['name']!r}")
            first = entries.setdefault(key, value)
            if first is not value:
                was = "excluded" if first is EXCLUDED else first.name
                raise GmFixError(
                    f"{source}: name {key!r} maps to both {was} and {target}")
        return cls(entries)

    def lookup(self, raw_name: str) -> InstrumentId | _Excluded | None:
        return self._entries.get(normalize_name(raw_name))

    def __len__(self) -> int:
        return len(self._entries)


def identify_track(track: Track,
                   dictionary: InstrumentDictionary) -> InstrumentId | _Excluded | None:
    """Identify a track's instrument.

    Tracks whose first channel message, of any kind, is on channel 10, and
    tracks whose first program is an untuned-percussion program, are untuned
    percussion regardless of name. Otherwise the track name decides;
    programs are too unreliable in raw corpora to fall back on, so an
    unrecognized name returns None.
    """
    channel = program = None
    for ev in track.events:
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
        if iid is EXCLUDED:
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
        first = next((ev.channel for ev in track.events
                      if hasattr(ev, "channel")), 0)
        target = first if first != PERCUSSION_CHANNEL else 0
    events = []
    for ev in track.events:
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
    events.sort(key=attrgetter("tick"))
    return replace(track, events=events)


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
        for ev in track.events:
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
        for ev in track.events:
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
        new_tracks.append(replace(track, events=events))
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
                 for on, off, _, pitch, _ in note_pairs(track)]
    rows.sort()
    # each row as its repr, from one template; one update over the
    # concatenation hashes the same as one per row
    text = "".join(map("(%d, %d, %d, %r)".__mod__, rows))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def admit_piece(piece: MidiPiece, dictionary: InstrumentDictionary,
                ) -> tuple[MidiPiece, list[InstrumentId]]:
    """fix_piece, then the corpus rules: the piece must have note-bearing
    tracks of at least two distinct instruments.

    Monotimbral pieces are useless for separation training, so they are
    rejected alongside pieces with unmappable or out-of-scope tracks. Raises
    PieceRejected (UnknownInstrument for track-level causes) with the reason.
    """
    fixed, instruments = fix_piece(piece, dictionary)
    if not instruments:
        raise PieceRejected("no note-bearing tracks")
    if len(set(instruments)) < 2:
        raise PieceRejected(f"monotimbral: only {instruments[0].name}")
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
