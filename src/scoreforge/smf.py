"""Standard MIDI File (format 0/1) reading and writing, plus tick/seconds conversion.

The in-memory representation uses absolute ticks throughout: parsing
accumulates delta times, writing re-derives them. The writer always emits a
canonical byte form (no running status, minimal-length VLQs, explicit
end-of-track), so ``write(parse(write(p)))`` is byte-identical to
``write(p)``.

Events and paired notes are immutable records: tuples with named fields, so
they are cheap to build, but compared like dataclasses. A record equals only
a record of the same type with equal fields, never a plain tuple; it hashes
like its fields; its fields cannot be assigned; and records have no order.

SMPTE time divisions and SMF format 2 are rejected.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import deque, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Union

DEFAULT_TEMPO_US = 500_000  # 120 BPM; SMF default before the first tempo event
MAX_VLQ_VALUE = 0x0FFFFFFF
MAX_TEMPO_US = 0xFFFFFF


class SmfError(Exception):
    """Base class for MIDI file errors."""


class MalformedHeader(SmfError):
    pass


class TruncatedTrack(SmfError):
    pass


class IllegalVlq(SmfError):
    pass


class UnsupportedFormat(SmfError):
    pass


class InvariantViolation(SmfError):
    pass


class IllegalData(SmfError):
    """A value no writable piece holds: a channel data byte of 0x80 or more,
    or a tempo of 0."""


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

class _Record(tuple):
    """Base of the event records: an immutable tuple with dataclass-style
    comparison. A record equals only a record of its own type with equal
    fields (never a plain tuple), hashes like its fields, and has no order."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} records have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class NoteOn(_Record, namedtuple("NoteOn", "tick channel pitch velocity")):
    __slots__ = ()


class NoteOff(_Record, namedtuple("NoteOff", "tick channel pitch velocity")):
    __slots__ = ()


class ControlChange(_Record, namedtuple("ControlChange",
                                        "tick channel controller value")):
    __slots__ = ()


class ProgramChange(_Record, namedtuple("ProgramChange", "tick channel program")):
    __slots__ = ()


class SetTempo(_Record, namedtuple("SetTempo", "tick microseconds_per_quarter")):
    __slots__ = ()


class TrackName(_Record, namedtuple("TrackName", "tick text")):
    __slots__ = ()


class EndOfTrack(_Record, namedtuple("EndOfTrack", "tick")):
    __slots__ = ()


class OtherMeta(_Record, namedtuple("OtherMeta", "tick meta_type data")):
    """Any meta event we do not interpret, preserved verbatim."""

    __slots__ = ()


class OtherChannel(_Record, namedtuple("OtherChannel", "tick status data")):
    """Channel/system message we do not interpret (pitch bend, sysex, ...).

    ``status`` is the full status byte including the channel nibble; ``data``
    holds the raw payload (for sysex, the bytes after the VLQ length).
    """

    __slots__ = ()


Event = Union[
    NoteOn, NoteOff, ControlChange, ProgramChange,
    SetTempo, TrackName, EndOfTrack, OtherMeta, OtherChannel,
]


@dataclass
class Track:
    """One MTrk chunk: its events and nothing else. What a track is named,
    and what it plays, is read from them (``track_name``, ``has_notes``)."""

    events: list[Event] = field(default_factory=list)

    def end_tick(self) -> int:
        return max((ev.tick for ev in self.events), default=0)


def track_name(track: Track) -> str:
    """The text of the track's first non-empty TrackName, else ""."""
    return next((ev.text for ev in track.events
                 if type(ev) is TrackName and ev.text), "")


def has_notes(track: Track) -> bool:
    """Whether the track has a note-on: ``track_notes`` gives a note for
    each, so this is its truth value."""
    return any(type(ev) is NoteOn for ev in track.events)


@dataclass
class MidiPiece:
    ticks_per_quarter: int
    tracks: list[Track]
    format: int = 1

    def end_tick(self) -> int:
        return max((t.end_tick() for t in self.tracks), default=0)


class Note(_Record, namedtuple("Note", "tick_on tick_off channel pitch velocity")):
    """A paired note-on/note-off within one track."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Variable-length quantities
# ---------------------------------------------------------------------------

def decode_vlq(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a variable-length quantity; returns (value, next_offset)."""
    value = 0
    for _ in range(4):
        if offset >= len(data):
            raise IllegalVlq("VLQ runs past end of data")
        byte = data[offset]
        offset += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, offset
    raise IllegalVlq("VLQ has no terminating byte within 4 bytes")


def encode_vlq(value: int) -> bytes:
    """Encode a non-negative integer as a minimal-length VLQ."""
    if value < 0 or value > MAX_VLQ_VALUE:
        raise InvariantViolation(f"VLQ value out of range: {value}")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.reverse()
    return bytes(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SYSTEM_COMMON_SIZES = {0xF1: 1, 0xF2: 2, 0xF3: 1, 0xF6: 0}


def parse_smf(data: bytes) -> MidiPiece:
    """Parse SMF bytes into a MidiPiece with absolute-tick events.

    Note-on events with velocity 0 are normalized to NoteOff. Unknown meta
    and sysex payloads are preserved verbatim. Chunks other than MTrk are
    skipped. What ``validate_piece`` would reject is an SmfError here: a
    channel data byte of 0x80 or more, a tempo of 0 and a format-0 file
    declaring other than one track. So every parsed piece can be written.
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedHeader("missing MThd chunk")
    (header_len,) = struct.unpack(">I", data[4:8])
    if header_len < 6 or 8 + header_len > len(data):
        raise MalformedHeader(f"bad header length {header_len}")
    fmt, n_tracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise UnsupportedFormat(f"SMF format {fmt} not supported")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE time divisions not supported")
    if division == 0:
        raise MalformedHeader("zero ticks per quarter note")
    if fmt == 0 and n_tracks != 1:
        raise MalformedHeader(f"format 0 declares {n_tracks} tracks, not 1")

    offset = 8 + header_len
    tracks: list[Track] = []
    while len(tracks) < n_tracks:
        if offset + 8 > len(data):
            raise TruncatedTrack(
                f"expected {n_tracks} tracks, found {len(tracks)}")
        chunk_id = data[offset:offset + 4]
        (length,) = struct.unpack(">I", data[offset + 4:offset + 8])
        offset += 8
        if offset + length > len(data):
            raise TruncatedTrack(
                f"chunk length {length} exceeds remaining {len(data) - offset} bytes")
        chunk = data[offset:offset + length]
        offset += length
        if chunk_id != b"MTrk":
            continue  # alien chunk, skipped as the SMF standard allows
        tracks.append(_parse_track(chunk, len(tracks), offset - length))
    return MidiPiece(ticks_per_quarter=division, tracks=tracks, format=fmt)


def _parse_track(chunk: bytes, index: int, base: int) -> Track:
    """Track ``index`` of its file, from the MTrk body ``chunk`` that starts
    at byte ``base`` of the file (for the byte offsets errors name)."""
    events: list[Event] = []
    append = events.append
    new = tuple.__new__  # notes and controllers skip the records' __new__
    end = len(chunk)
    tick = 0
    pos = 0
    running: int | None = None
    saw_eot = False

    while pos < end:
        byte = chunk[pos]
        if byte < 0x80:  # one- and two-byte delta times inline
            tick += byte
            pos += 1
        elif pos + 1 < end and chunk[pos + 1] < 0x80:
            tick += (byte & 0x7F) << 7 | chunk[pos + 1]
            pos += 2
        else:
            delta, pos = decode_vlq(chunk, pos)
            tick += delta
        if pos >= end:
            raise TruncatedTrack("event status missing at end of track")
        status = chunk[pos]
        if status < 0x80:
            if running is None:
                raise SmfError("data byte without running status")
            status = running
        else:
            pos += 1

        if status < 0xF0:  # channel message
            running = status
            kind = status & 0xF0
            channel = status & 0x0F
            if kind != 0xC0 and kind != 0xD0:  # two data bytes
                if pos + 2 > end:
                    raise TruncatedTrack("channel message truncated")
                d0 = chunk[pos]
                d1 = chunk[pos + 1]
                if (d0 | d1) & 0x80:
                    raise _data_byte_error(chunk, pos, index, base)
                if kind == 0x90:
                    if d1 == 0:
                        append(new(NoteOff, (tick, channel, d0, 0)))
                    else:
                        append(new(NoteOn, (tick, channel, d0, d1)))
                elif kind == 0x80:
                    append(new(NoteOff, (tick, channel, d0, d1)))
                elif kind == 0xB0:
                    append(new(ControlChange, (tick, channel, d0, d1)))
                else:
                    append(OtherChannel(tick, status, bytes(chunk[pos:pos + 2])))
                pos += 2
            else:
                if pos >= end:
                    raise TruncatedTrack("channel message truncated")
                d0 = chunk[pos]
                if d0 & 0x80:
                    raise _data_byte_error(chunk, pos, index, base)
                if kind == 0xC0:
                    append(ProgramChange(tick, channel, d0))
                else:
                    append(OtherChannel(tick, status, bytes(chunk[pos:pos + 1])))
                pos += 1
        elif status == 0xFF:
            running = None
            if pos >= end:
                raise TruncatedTrack("meta event truncated")
            meta_type = chunk[pos]
            pos += 1
            length, pos = decode_vlq(chunk, pos)
            if pos + length > end:
                raise TruncatedTrack("meta payload truncated")
            payload = chunk[pos:pos + length]
            pos += length
            if meta_type == 0x2F:
                append(EndOfTrack(tick))
                saw_eot = True
                break
            if meta_type == 0x51 and length == 3:
                tempo = int.from_bytes(payload, "big")
                if not tempo:
                    raise IllegalData(f"track {index}: tempo of 0 at byte "
                                      f"{base + pos - length}")
                append(SetTempo(tick, tempo))
            elif meta_type == 0x03:
                append(TrackName(tick, payload.decode("latin-1")))
            else:
                append(OtherMeta(tick, meta_type, payload))
        elif status in (0xF0, 0xF7):
            running = None
            length, pos = decode_vlq(chunk, pos)
            if pos + length > end:
                raise TruncatedTrack("sysex payload truncated")
            append(OtherChannel(tick, status, chunk[pos:pos + length]))
            pos += length
        else:
            running = None
            size = _SYSTEM_COMMON_SIZES.get(status, 0)
            if pos + size > end:
                raise TruncatedTrack("system message truncated")
            append(OtherChannel(tick, status, chunk[pos:pos + size]))
            pos += size

    track = Track(events)
    if not saw_eot:
        events.append(EndOfTrack(track.end_tick()))
    return track


def _data_byte_error(chunk: bytes, pos: int, index: int, base: int) -> IllegalData:
    """The error for the first data byte of 0x80 or more from ``pos``."""
    while chunk[pos] < 0x80:
        pos += 1
    return IllegalData(f"track {index}: data byte {chunk[pos]:#04x} "
                       f"at byte {base + pos}")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def write_smf(piece: MidiPiece) -> bytes:
    """Serialize a MidiPiece to canonical SMF bytes.

    Canonical means: no running status, minimal VLQ delta times, an explicit
    end-of-track on every track (appended at the maximal tick if missing).
    The encoder checks each event as it writes it; when a check or the
    encoder fails, the piece goes through ``validate_piece``, so an invalid
    piece raises the InvariantViolation naming its first fault.
    """
    tpq, fmt, tracks = piece.ticks_per_quarter, piece.format, piece.tracks
    if not (0 < tpq <= 0x7FFF and fmt in (0, 1)
            and (fmt == 1 or len(tracks) == 1)):
        validate_piece(piece)
    out = bytearray(b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), tpq))
    try:
        for track in tracks:
            body = _encode_track(track)
            out += b"MTrk" + struct.pack(">I", len(body)) + body
    except (InvariantViolation, ValueError, OverflowError):
        validate_piece(piece)
        raise  # valid, but not encodable (a delta time beyond the VLQ range)
    return bytes(out)


def validate_piece(piece: MidiPiece) -> None:
    """Raise InvariantViolation unless the piece is serializable: sorted
    ticks, 7-bit data ranges, valid channels, end-of-track only last.

    The message names the piece's first fault; each event's ranges are
    checked by ``_check_event``. ``write_smf`` calls this only once its own
    checks have found a fault, so it is off the path of a valid piece."""
    if piece.ticks_per_quarter <= 0 or piece.ticks_per_quarter > 0x7FFF:
        raise InvariantViolation(
            f"ticks_per_quarter out of range: {piece.ticks_per_quarter}")
    if piece.format not in (0, 1):
        raise InvariantViolation(f"format must be 0 or 1, got {piece.format}")
    if piece.format == 0 and len(piece.tracks) != 1:
        raise InvariantViolation("format 0 requires exactly one track")
    for ti, track in enumerate(piece.tracks):
        last_tick = 0
        last_index = len(track.events) - 1
        for i, ev in enumerate(track.events):
            tick = ev.tick
            if tick < 0:
                raise InvariantViolation(f"track {ti}: negative tick {tick}")
            if tick < last_tick:
                raise InvariantViolation(
                    f"track {ti}: events not sorted at index {i}")
            last_tick = tick
            _check_event(ti, ev)
            if isinstance(ev, EndOfTrack) and i != last_index:
                raise InvariantViolation(
                    f"track {ti}: end-of-track not the last event")


def _check_event(ti: int, ev: Event) -> None:
    """Raise InvariantViolation for the first range rule ``ev`` breaks."""
    if isinstance(ev, (NoteOn, NoteOff)):
        checks = [("pitch", ev.pitch, 127), ("velocity", ev.velocity, 127),
                  ("channel", ev.channel, 15)]
    elif isinstance(ev, ControlChange):
        checks = [("controller", ev.controller, 127), ("value", ev.value, 127),
                  ("channel", ev.channel, 15)]
    elif isinstance(ev, ProgramChange):
        checks = [("program", ev.program, 127), ("channel", ev.channel, 15)]
    elif isinstance(ev, SetTempo):
        if not 1 <= ev.microseconds_per_quarter <= MAX_TEMPO_US:
            raise InvariantViolation(
                f"track {ti}: tempo out of range: {ev.microseconds_per_quarter}")
        return
    else:
        return
    for what, value, top in checks:
        if not 0 <= value <= top:
            raise InvariantViolation(f"track {ti}: {what} out of range: {value}")
    if isinstance(ev, NoteOn) and ev.velocity == 0:
        raise InvariantViolation(
            f"track {ti}: NoteOn with velocity 0 (use NoteOff)")


_INLINE_STATUS = {NoteOn: 0x90, NoteOff: 0x80, ControlChange: 0xB0}


def _encode_track(track: Track) -> bytes:
    """The MTrk body of a track. Notes, controllers and delta times below
    2**14 are written inline. Each event is checked as it is encoded, and a
    fault raises InvariantViolation: a negative delta time (an unsorted or
    negative tick), a note or controller outside its range (one mask test),
    a rarer event that ``_check_event`` rejects, an end-of-track before the
    last event."""
    events = track.events
    if not events or not isinstance(events[-1], EndOfTrack):
        events = events + [EndOfTrack(track.end_tick())]
    out: list[int] = []
    append = out.append
    extend = out.extend
    last_tick = 0
    ends = 0
    for ev in events:
        cls = type(ev)
        if cls is NoteOn or cls is NoteOff or cls is ControlChange:
            tick, channel, d0, d1 = ev
            # data bytes in 0..127 and channels in 0..15 (channel << 3 stays
            # below 0x80) leave no bit of -0x80 set; negatives set them all
            if (d0 | d1 | channel << 3) & -0x80 or (cls is NoteOn and not d1):
                raise InvariantViolation(f"unwritable event {ev!r}")
            event = (_INLINE_STATUS[cls] | channel, d0, d1)
        else:
            tick = ev.tick
            _check_event(0, ev)  # write_smf names the track if this raises
            ends += isinstance(ev, EndOfTrack)
            event = _encode_event(ev)
        delta = tick - last_tick
        last_tick = tick
        if 0 <= delta < 0x80:
            append(delta)
        elif 0x80 <= delta < 0x4000:
            extend((0x80 | delta >> 7, delta & 0x7F))
        else:
            extend(encode_vlq(delta))
        extend(event)
    if ends != 1:
        raise InvariantViolation("end-of-track not the last event")
    return bytes(out)


def _encode_event(ev: Event) -> bytes:
    """The bytes of an event that ``_encode_track`` does not write inline:
    every type but notes and controllers."""
    if isinstance(ev, ProgramChange):
        return bytes([0xC0 | ev.channel, ev.program])
    if isinstance(ev, SetTempo):
        return b"\xff\x51\x03" + ev.microseconds_per_quarter.to_bytes(3, "big")
    if isinstance(ev, TrackName):
        payload = ev.text.encode("latin-1")
        return b"\xff\x03" + encode_vlq(len(payload)) + payload
    if isinstance(ev, EndOfTrack):
        return b"\xff\x2f\x00"
    if isinstance(ev, OtherMeta):
        return bytes([0xFF, ev.meta_type]) + encode_vlq(len(ev.data)) + ev.data
    if isinstance(ev, OtherChannel):
        if ev.status in (0xF0, 0xF7):
            return bytes([ev.status]) + encode_vlq(len(ev.data)) + ev.data
        return bytes([ev.status]) + ev.data
    raise InvariantViolation(f"unknown event type: {type(ev).__name__}")


# ---------------------------------------------------------------------------
# Tempo map
# ---------------------------------------------------------------------------

class TempoMap:
    """Piecewise-constant tempo over ticks, built from SetTempo events.

    Before the first tempo event the SMF default of 500000 us/quarter (120
    BPM) applies. ``seconds_at`` is a fast float path; ``exact_seconds_at``
    returns an exact rational, used where sums must agree regardless of
    grouping.
    """

    def __init__(self, ticks_per_quarter: int,
                 changes: list[tuple[int, int]] | None = None):
        if ticks_per_quarter <= 0:
            raise InvariantViolation("ticks_per_quarter must be positive")
        self.ticks_per_quarter = ticks_per_quarter
        points: dict[int, int] = {}
        for tick, us in sorted(changes or [], key=lambda c: c[0]):
            points[tick] = us  # later events at the same tick win
        if 0 not in points:
            points = {0: DEFAULT_TEMPO_US, **points}
        self._ticks = sorted(points)
        self._tempos = [points[t] for t in self._ticks]
        # cumulative elapsed time at each segment start, as an integer count
        # of microseconds x ticks_per_quarter (so n / tpq is microseconds)
        self._cum: list[int] = [0]
        for i in range(1, len(self._ticks)):
            dt = self._ticks[i] - self._ticks[i - 1]
            self._cum.append(self._cum[-1] + dt * self._tempos[i - 1])

    @classmethod
    def from_piece(cls, piece: MidiPiece) -> "TempoMap":
        changes = [
            (ev.tick, ev.microseconds_per_quarter)
            for track in piece.tracks
            for ev in track.events
            if isinstance(ev, SetTempo)
        ]
        return cls(piece.ticks_per_quarter, changes)

    def _segment(self, tick: int) -> int:
        return bisect_right(self._ticks, tick) - 1

    def tempo_at(self, tick: int) -> int:
        """Microseconds per quarter note in effect at ``tick``."""
        return self._tempos[self._segment(max(tick, 0))]

    def seconds_at(self, tick: int) -> float:
        if tick <= 0:
            return 0.0
        i = self._segment(tick)
        tpq = self.ticks_per_quarter
        # rendered audio depends on the rounding of this exact expression;
        # int / int is correctly rounded, i.e. float(Fraction(n, tpq))
        us = self._cum[i] / tpq + (tick - self._ticks[i]) * self._tempos[i] / tpq
        return us / 1e6

    def exact_seconds_at(self, tick: int) -> Fraction:
        if tick <= 0:
            return Fraction(0)
        i = self._segment(tick)
        return Fraction(self._cum[i] + (tick - self._ticks[i]) * self._tempos[i],
                        self.ticks_per_quarter * 1_000_000)

    def changes(self) -> list[tuple[int, int]]:
        return list(zip(self._ticks, self._tempos))


# ---------------------------------------------------------------------------
# Note pairing
# ---------------------------------------------------------------------------

def note_pairs(track: Track) -> list[tuple[int, int, int, int, int]]:
    """``(tick_on, tick_off, channel, pitch, velocity)`` for every note of
    ``track``, unsorted: note-ons pair with note-offs FIFO per
    (channel, pitch), and notes still open at the end are closed at the
    track's end so malformed corpus files still yield usable intervals."""
    pairs = []
    open_notes: dict[tuple[int, int], deque[tuple[int, int]]] = {}
    for ev in track.events:
        cls = type(ev)
        if cls is NoteOn:
            tick, channel, pitch, velocity = ev
            queue = open_notes.get((channel, pitch))
            if queue is None:
                queue = open_notes[channel, pitch] = deque()
            queue.append((tick, velocity))
        elif cls is NoteOff:
            tick, channel, pitch, _ = ev
            queue = open_notes.get((channel, pitch))
            if queue:
                on_tick, velocity = queue.popleft()
                pairs.append((on_tick, tick, channel, pitch, velocity))
    if any(open_notes.values()):
        close = track.end_tick()
        for (channel, pitch), queue in open_notes.items():
            for on_tick, velocity in queue:
                pairs.append((on_tick, max(close, on_tick), channel, pitch, velocity))
    return pairs


def track_notes(track: Track) -> list[Note]:
    """The notes of ``track`` (see ``note_pairs``), ordered by onset, pitch
    and release."""
    new = tuple.__new__
    notes = [new(Note, pair) for pair in note_pairs(track)]
    notes.sort(key=attrgetter("tick_on", "pitch", "tick_off"))
    return notes
