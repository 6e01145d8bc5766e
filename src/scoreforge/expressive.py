"""Random but musically plausible tempo, dynamics and articulation annotation.

A normalized score (flat velocity 75, single 120 BPM tempo) is divided into
random beat-aligned intervals three ways, independently:

* tempo: each interval gets a BPM from a clamped normal distribution;
* dynamics: each interval gets a dynamic mark and a target velocity from
  that mark's range, with a per-piece share of gradual (ramped) transitions;
* articulations: per track, each interval gets an articulation drawn from
  the instrument's weight table and announced by a CC#32 message.

Finally, note velocities under long articulations are mirrored onto CC#1
(the modulation wheel), which is how sustained sampler patches expect their
level to be driven.

All sampling flows through one seeded generator per piece, so identical
(piece, params, seed) inputs reproduce identical plans and output bytes.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .gmfix import DATA, read_table, track_instruments
from .smf import (
    ControlChange,
    EndOfTrack,
    MidiPiece,
    NoteOn,
    SetTempo,
    TempoMap,
    Track,
    has_notes,
    track_name,
    track_notes,
)

# one interval per this many quarter notes, on average, at the upper bound
INTERVAL_QUARTERS = 8

DYNAMIC_MARKS = ("ppp", "pp", "p", "mp", "mf", "f", "ff", "fff")

# half-open [lo, hi); the last range reaches 127 inclusive
VELOCITY_RANGES: dict[str, tuple[int, int]] = {
    "ppp": (1, 16),
    "pp": (16, 32),
    "p": (32, 48),
    "mp": (48, 64),
    "mf": (64, 80),
    "f": (80, 96),
    "ff": (96, 112),
    "fff": (112, 128),
}

LENGTH_LONG = "long"
LENGTH_SHORT = "short"


class ExpressiveError(Exception):
    pass


class PieceTooShort(ExpressiveError):
    pass


class NonTilingIntervals(ExpressiveError):
    pass


class MissingTable(ExpressiveError):
    def __init__(self, instrument: str):
        super().__init__(f"no articulation table for instrument {instrument!r}")
        self.instrument = instrument


@dataclass(frozen=True, slots=True)
class AnnotationParams:
    tempo_mean: float = 120.0
    tempo_std: float = 30.0
    tempo_clamp: tuple[float, float] = (40.0, 208.0)
    min_tempo_intervals: int = 3
    gradual_fraction_range: tuple[float, float] = (0.2, 0.6)
    transition_duration_range: tuple[float, float] = (0.5, 4.0)  # seconds

    def __post_init__(self):
        if self.tempo_mean <= 0:
            raise ValueError("tempo_mean must be positive")
        if self.tempo_std < 0:
            raise ValueError("tempo_std must be non-negative")
        if self.tempo_clamp[0] <= 0 or self.tempo_clamp[0] > self.tempo_clamp[1]:
            raise ValueError(f"bad tempo_clamp {self.tempo_clamp}")
        if self.min_tempo_intervals < 3:
            raise ValueError("min_tempo_intervals must be at least 3")
        g_lo, g_hi = self.gradual_fraction_range
        if not 0.0 <= g_lo <= g_hi <= 1.0:
            raise ValueError(f"bad gradual_fraction_range {self.gradual_fraction_range}")
        d_lo, d_hi = self.transition_duration_range
        if not 0.0 <= d_lo <= d_hi:
            raise ValueError(f"bad transition_duration_range {self.transition_duration_range}")


@dataclass(frozen=True, slots=True)
class TempoInterval:
    start_tick: int
    end_tick: int
    bpm: float


@dataclass(frozen=True, slots=True)
class DynamicInterval:
    start_tick: int
    end_tick: int
    mark: str
    target_velocity: int
    transition_ticks: int | None = None  # None = abrupt entry


@dataclass(frozen=True, slots=True)
class ArticulationInterval:
    track_index: int
    start_tick: int
    end_tick: int
    cc32_value: int
    articulation: str


@dataclass(frozen=True, slots=True)
class AnnotationPlan:
    tempo: tuple[TempoInterval, ...]
    dynamics: tuple[DynamicInterval, ...]
    articulations: tuple[ArticulationInterval, ...]
    params: AnnotationParams


# ---------------------------------------------------------------------------
# Articulation tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ArticulationRow:
    articulation: str
    cc32: int
    weight: float
    length_class: str


class ArticulationTable:
    """Per-instrument articulation distribution keyed to CC#32 values.

    Raw weights are kept for inspection; sampling always uses probabilities
    renormalized to sum 1 (published tables carry rounding residue). Each
    row's values are checked where they are read, in load_articulation_tables.
    """

    def __init__(self, instrument: str, rows: Sequence[ArticulationRow]):
        if not rows:
            raise ValueError(f"{instrument}: empty articulation table")
        total = sum(row.weight for row in rows)
        if total <= 0:
            raise ValueError(f"{instrument}: no positive weights")
        self.rows = tuple(rows)
        self.probabilities = np.array([row.weight / total for row in rows])
        self._by_cc32 = {row.cc32: row for row in rows}

    def sample(self, rng: np.random.Generator, count: int) -> list[ArticulationRow]:
        indices = rng.choice(len(self.rows), size=count, p=self.probabilities)
        return [self.rows[i] for i in indices]

    def length_class(self, cc32_value: int) -> str | None:
        row = self._by_cc32.get(cc32_value)
        return row.length_class if row else None


def load_articulation_tables(path: str | Path | None = None,
                             ) -> dict[str, ArticulationTable]:
    """Load tables from CSV (columns: instrument, articulation, cc32, weight,
    length_class); defaults to the bundled string-section tables. A bad
    value in a row is a ValueError that names its line."""
    source = DATA / "articulations_strings.csv" if path is None else Path(path)
    grouped: dict[str, dict[int, ArticulationRow]] = {}  # rows by cc32
    for line, row in read_table(source, ("instrument", "articulation", "cc32",
                                         "weight", "length_class")):
        instrument = row["instrument"].strip()
        rows = grouped.setdefault(instrument, {})
        try:
            new = ArticulationRow(row["articulation"].strip(), int(row["cc32"]),
                                  float(row["weight"]), row["length_class"].strip())
            if not 1 <= new.cc32 <= 127:
                raise ValueError(f"cc32 out of range: {new.cc32}")
            if new.cc32 in rows:
                raise ValueError(f"duplicate cc32 value {new.cc32}")
            if not 0 <= new.weight < math.inf:
                raise ValueError(f"bad weight for {new.articulation}: {new.weight}")
            if new.length_class not in (LENGTH_LONG, LENGTH_SHORT):
                raise ValueError(f"bad length class {new.length_class!r}")
        except ValueError as exc:
            raise ValueError(f"line {line}: {instrument}: {exc}") from None
        rows[new.cc32] = new
    return {name: ArticulationTable(name, list(rows.values()))
            for name, rows in grouped.items()}


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def piece_seed(master_seed: int, piece_id: str) -> int:
    """Stable 64-bit per-piece seed, independent of corpus iteration order."""
    digest = hashlib.sha256(f"{master_seed}:{piece_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Interval planning
# ---------------------------------------------------------------------------

def _draw_bounds(start: int, end: int, tpq: int, min_intervals: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """Divide [start, end) into a random number of beat-aligned intervals.

    The count is uniform on [min_intervals, max(min_intervals, quarters/8)],
    shrunk to what the available grid allows (short spans degrade to fewer
    intervals rather than failing).
    """
    span_quarters = (end - start) // tpq
    max_n = max(min_intervals, span_quarters // INTERVAL_QUARTERS)
    # the cuts: quarter-grid ticks strictly inside (start, end), by index
    first = (start // tpq + 1) * tpq
    grid = len(range(first, end, tpq))
    max_n = min(max_n, grid + 1)
    min_n = min(min_intervals, max_n)
    n = int(rng.integers(min_n, max_n + 1))
    if n > 1:
        chosen = rng.choice(grid, size=n - 1, replace=False)
        cuts = sorted(first + tpq * int(i) for i in chosen)
    else:
        cuts = []
    bounds = [start] + cuts + [end]
    return list(zip(bounds[:-1], bounds[1:]))


def _require_span(piece: MidiPiece, params: AnnotationParams) -> int:
    end = piece.end_tick()
    if end < params.min_tempo_intervals * piece.ticks_per_quarter:
        raise PieceTooShort(
            f"piece spans {end / piece.ticks_per_quarter:.2f} quarter notes, "
            f"need at least {params.min_tempo_intervals}")
    return end


def plan_tempo_intervals(piece: MidiPiece, params: AnnotationParams,
                         rng: np.random.Generator) -> list[TempoInterval]:
    """Tile the piece with intervals of constant BPM drawn from a clamped
    Normal(tempo_mean, tempo_std)."""
    end = _require_span(piece, params)
    bounds = _draw_bounds(0, end, piece.ticks_per_quarter,
                          params.min_tempo_intervals, rng)
    lo, hi = params.tempo_clamp
    bpms = np.clip(rng.normal(params.tempo_mean, params.tempo_std, len(bounds)),
                   lo, hi)
    return [TempoInterval(s, e, float(b)) for (s, e), b in zip(bounds, bpms)]


def _check_tiling(intervals: Sequence, start: int, end: int) -> None:
    if not intervals:
        raise NonTilingIntervals("no intervals")
    if intervals[0].start_tick != start or intervals[-1].end_tick != end:
        raise NonTilingIntervals(
            f"intervals cover [{intervals[0].start_tick}, {intervals[-1].end_tick}), "
            f"expected [{start}, {end})")
    for prev, cur in zip(intervals, intervals[1:]):
        if cur.start_tick != prev.end_tick:
            raise NonTilingIntervals(
                f"gap or overlap at tick {prev.end_tick} -> {cur.start_tick}")
    for iv in intervals:
        if iv.start_tick >= iv.end_tick:
            raise NonTilingIntervals(f"empty interval at tick {iv.start_tick}")


def apply_tempo(piece: MidiPiece,
                intervals: Sequence[TempoInterval]) -> MidiPiece:
    """Replace all tempo events with one SetTempo per interval start.

    Note ticks are untouched; only the tick→seconds mapping changes.
    """
    _check_tiling(intervals, 0, piece.end_tick())
    tempo_events = [
        SetTempo(iv.start_tick, round(60_000_000 / iv.bpm)) for iv in intervals
    ]
    # tiled intervals span ticks, so the piece has a track 0
    tracks = [[ev for ev in track if not isinstance(ev, SetTempo)]
              for track in piece.tracks]
    tracks[0] = _merge_before_noteons(tracks[0], tempo_events)
    return replace(piece, tracks=tracks)


def plan_dynamic_intervals(piece: MidiPiece, params: AnnotationParams,
                           rng: np.random.Generator) -> list[DynamicInterval]:
    """Tile the piece with dynamic intervals.

    Interval bounds are drawn by the same procedure as tempo (independent
    draw, so the counts usually differ). Each interval gets a uniformly
    chosen mark and a velocity uniform in the mark's range. A per-piece
    gradual share g is drawn once; each non-initial boundary becomes a
    gradual transition with probability g, its duration drawn uniformly in
    seconds, converted to ticks at the local tempo, and clipped to half the
    shorter adjacent interval.
    """
    end = _require_span(piece, params)
    tpq = piece.ticks_per_quarter
    bounds = _draw_bounds(0, end, tpq, params.min_tempo_intervals, rng)
    chosen: list[tuple[str, int]] = []
    for _ in bounds:
        mark = DYNAMIC_MARKS[int(rng.integers(0, len(DYNAMIC_MARKS)))]
        lo, hi = VELOCITY_RANGES[mark]
        chosen.append((mark, int(rng.integers(lo, hi))))
    g = float(rng.uniform(*params.gradual_fraction_range))
    tempo_map = TempoMap.from_piece(piece)
    intervals: list[DynamicInterval] = []
    for i, ((start, stop), (mark, velocity)) in enumerate(zip(bounds, chosen)):
        transition: int | None = None
        if i > 0 and rng.random() < g:
            seconds = float(rng.uniform(*params.transition_duration_range))
            us_per_quarter = tempo_map.tempo_at(start)
            ticks = round(seconds * 1e6 * tpq / us_per_quarter)
            prev_len = bounds[i - 1][1] - bounds[i - 1][0]
            cur_len = stop - start
            transition = min(ticks, min(prev_len, cur_len) // 2)
        intervals.append(DynamicInterval(start, stop, mark, velocity, transition))
    return intervals


def apply_dynamics(piece: MidiPiece,
                   intervals: Sequence[DynamicInterval]) -> MidiPiece:
    """Set every note-on's velocity from its interval's target, ramping
    linearly across gradual transition windows."""
    _check_tiling(intervals, 0, piece.end_tick())

    starts = [iv.start_tick for iv in intervals]

    def velocity_at(tick: int) -> int:
        i = min(bisect_right(starts, tick) - 1, len(intervals) - 1)
        i = max(i, 0)
        iv = intervals[i]
        if i > 0 and iv.transition_ticks:
            dur = iv.transition_ticks
            if tick < iv.start_tick + dur:
                prev = intervals[i - 1].target_velocity
                ratio = (tick - iv.start_tick) / dur
                value = prev + (iv.target_velocity - prev) * ratio
                return max(1, min(127, int(round(value))))
        return iv.target_velocity

    return replace(piece, tracks=[
        [NoteOn(ev.tick, ev.channel, ev.pitch, velocity_at(ev.tick))
         if isinstance(ev, NoteOn) else ev for ev in track]
        for track in piece.tracks])


def _active_span(track: Track) -> tuple[int, int] | None:
    pairs = track_notes(track)
    if not pairs:
        return None
    return (min(p[0] for p in pairs), max(p[1] for p in pairs))


def track_tables(piece: MidiPiece,
                 tables: Mapping[str, ArticulationTable],
                 ) -> list[ArticulationTable | None]:
    """Each track's articulation table, None for a track without notes.

    A track is looked up by its instrument's registry name, else its track
    name, else ``track N``. Raises MissingTable naming the first note-bearing
    track, in track order, that has no table.
    """
    out: list[ArticulationTable | None] = []
    for index, (track, iid) in enumerate(zip(piece.tracks,
                                             track_instruments(piece))):
        if iid is None and not has_notes(track):
            out.append(None)
            continue
        name = iid.name if iid is not None else (track_name(track)
                                                  or f"track {index}")
        table = tables.get(name)
        if table is None:
            raise MissingTable(name)
        out.append(table)
    return out


def plan_articulations(piece: MidiPiece,
                       tables: Sequence[ArticulationTable | None],
                       params: AnnotationParams,
                       rng: np.random.Generator) -> list[ArticulationInterval]:
    """Per track with a table in ``tables`` (one per track, as
    ``track_tables`` returns them), tile the active span with intervals and
    draw each interval's articulation from that table.

    Tracks too short for the minimum interval count get as many intervals
    as their beat grid allows, down to one.
    """
    out: list[ArticulationInterval] = []
    for index, (track, table) in enumerate(zip(piece.tracks, tables)):
        if table is None:
            continue
        span = _active_span(track)
        bounds = _draw_bounds(span[0], span[1], piece.ticks_per_quarter,
                              params.min_tempo_intervals, rng)
        for (start, stop), row in zip(bounds, table.sample(rng, len(bounds))):
            out.append(ArticulationInterval(index, start, stop, row.cc32,
                                            row.articulation))
    return out


def apply_articulations(piece: MidiPiece,
                        intervals: Sequence[ArticulationInterval]) -> MidiPiece:
    """Insert a CC#32 event at each interval start, before same-tick note-ons."""
    by_track: dict[int, list[ArticulationInterval]] = {}
    for iv in intervals:
        by_track.setdefault(iv.track_index, []).append(iv)

    new_tracks = list(piece.tracks)
    for index, track_intervals in by_track.items():
        track = piece.tracks[index]
        span = _active_span(track)
        if span is None:
            raise NonTilingIntervals(f"track {index} has no notes to annotate")
        track_intervals = sorted(track_intervals, key=lambda iv: iv.start_tick)
        _check_tiling(track_intervals, span[0], span[1])
        # a track with a span has a note-on; the inserts take its channel
        channel = next(ev.channel for ev in track if isinstance(ev, NoteOn))
        inserts = [
            ControlChange(iv.start_tick, channel, 32, iv.cc32_value)
            for iv in track_intervals
        ]
        new_tracks[index] = _merge_before_noteons(track, inserts)
    return replace(piece, tracks=new_tracks)


def _merge_before_noteons(events: list, inserts: list) -> list:
    """Merge tick-sorted inserts into a track's tick-sorted events, which
    keep their own order: each insert goes before the first same-tick
    note-on (or before later-tick events). The end-of-track stays last,
    moved to the last insert's tick when the inserts reach past it (a
    conductor track that ends early)."""
    end = events[-1] if events and isinstance(events[-1], EndOfTrack) else None
    out: list = []
    i = 0
    for ev in events if end is None else events[:-1]:
        while i < len(inserts) and (
                ev.tick > inserts[i].tick
                or (ev.tick == inserts[i].tick and isinstance(ev, NoteOn))):
            out.append(inserts[i])
            i += 1
        out.append(ev)
    out += inserts[i:]
    if end is not None:
        out.append(EndOfTrack(max(end.tick, out[-1].tick)) if out else end)
    return out


def mirror_velocity_to_cc1(piece: MidiPiece,
                           tables: Sequence[ArticulationTable | None],
                           ) -> MidiPiece:
    """Emit CC#1 (modulation wheel) = note velocity before every note-on that
    falls in a long-articulation region; short regions get none.

    Regions are read back from the CC#32 events already present, through
    ``tables`` (one per track, as ``track_tables`` returns them), so this
    works on any piece that has been through apply_articulations. Tracks
    whose table is None are left untouched.
    """
    new_tracks: list[Track] = []
    for track, table in zip(piece.tracks, tables):
        if table is None:
            new_tracks.append(track)
            continue
        events: list = []
        current_class: str | None = None
        for ev in track:
            if isinstance(ev, ControlChange) and ev.controller == 32:
                current_class = table.length_class(ev.value)
            elif isinstance(ev, NoteOn) and current_class == LENGTH_LONG:
                events.append(ControlChange(ev.tick, ev.channel, 1, ev.velocity))
            events.append(ev)
        new_tracks.append(events)
    return replace(piece, tracks=new_tracks)


# ---------------------------------------------------------------------------
# Full annotation
# ---------------------------------------------------------------------------

def annotate(piece: MidiPiece,
             tables: Mapping[str, ArticulationTable],
             params: AnnotationParams,
             seed: int) -> tuple[MidiPiece, AnnotationPlan]:
    """Run the full chain (tempo, then dynamics, then articulations, then
    CC#1 mirroring) on a normalized piece, drawing from one generator seeded
    with ``seed``, and return the annotated piece and the plan that
    produced it.

    The checks come first and in this order: the span (PieceTooShort), then
    table coverage of every note-bearing track (MissingTable), so a piece
    that fails either draws nothing and plans nothing. The result is not
    validated here; ``write_smf`` validates every piece it writes.
    """
    _require_span(piece, params)
    per_track = track_tables(piece, tables)
    rng = np.random.default_rng(seed)
    tempo = plan_tempo_intervals(piece, params, rng)
    with_tempo = apply_tempo(piece, tempo)
    dynamics = plan_dynamic_intervals(with_tempo, params, rng)
    with_dynamics = apply_dynamics(with_tempo, dynamics)
    articulations = plan_articulations(with_dynamics, per_track, params, rng)
    with_articulations = apply_articulations(with_dynamics, articulations)
    final = mirror_velocity_to_cc1(with_articulations, per_track)
    plan = AnnotationPlan(tuple(tempo), tuple(dynamics), tuple(articulations),
                          params)
    return final, plan


# ---------------------------------------------------------------------------
# JSON form of the records (plan sidecars, the CLI's config)
# ---------------------------------------------------------------------------

def from_dict(cls: type, data: Mapping, where: str = ""):
    """Build dataclass ``cls`` from its JSON form (``asdict`` after a JSON
    round trip): lists become tuples, objects nested dataclasses. Raises
    TypeError on an unknown key or a value of the wrong JSON type; a bool is
    no int, and an int where a float is declared is kept as given. Raises
    ValueError on a non-finite float (``json`` reads NaN and Infinity, and
    1e400 as inf). Messages name the field by its path from ``where``
    (default: the class name)."""
    where = where or cls.__name__
    if not isinstance(data, Mapping):
        raise TypeError(f"{where}: expected an object, got {data!r}")
    hints = _field_types(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise TypeError(f"{where}: unknown keys {unknown}")
    return cls(**{key: _decode(hints[key], value, f"{where}.{key}")
                  for key, value in data.items()})


_field_types = cache(get_type_hints)  # a dataclass's annotations are its fields


def _decode(tp, value, where: str):
    args = get_args(tp)
    if is_dataclass(tp):
        return from_dict(tp, value, where)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{where}: expected a list, got {value!r}")
        types = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if len(types) != len(value):
            raise TypeError(f"{where}: expected {len(types)} items, got {value!r}")
        return tuple(_decode(t, v, where) for t, v in zip(types, value))
    if args:  # X | None
        return None if value is None else _decode(args[0], value, where)
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if tp is float else tp):
        raise TypeError(f"{where}: expected {tp.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return value
