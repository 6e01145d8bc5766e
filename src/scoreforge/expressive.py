"""Random but musically plausible tempo, dynamics and articulation annotation.

A normalized score (flat velocity 75, single 120 BPM tempo) is divided into
random beat-aligned intervals three ways, independently:

* tempo: each interval gets a BPM from a clamped normal distribution;
* dynamics: each interval gets a dynamic mark and a target velocity from
  that mark's range, with a per-piece share of gradual (ramped) transitions;
* articulations: per track, each interval gets an articulation drawn from
  the instrument's weight table and announced by a CC#32 message.

``apply_plan`` writes the three plans into the piece in one pass per track.
There note velocities under long articulations are also mirrored onto CC#1
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


def plan_dynamic_intervals(piece: MidiPiece, tempo_map: TempoMap,
                           params: AnnotationParams,
                           rng: np.random.Generator) -> list[DynamicInterval]:
    """Tile the piece with dynamic intervals.

    Interval bounds are drawn by the same procedure as tempo (independent
    draw, so the counts usually differ). Each interval gets a uniformly
    chosen mark and a velocity uniform in the mark's range. A per-piece
    gradual share g is drawn once; each non-initial boundary becomes a
    gradual transition with probability g, its duration drawn uniformly in
    seconds, converted to ticks at the local tempo of ``tempo_map``, and
    clipped to half the shorter adjacent interval.
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
    as their beat grid allows, down to one. A track whose notes all start
    and end at one tick has no span to tile: PieceTooShort.
    """
    out: list[ArticulationInterval] = []
    for index, (track, table) in enumerate(zip(piece.tracks, tables)):
        if table is None:
            continue
        pairs = track_notes(track)  # a track with a table has notes
        first, last = min(p[0] for p in pairs), max(p[1] for p in pairs)
        if first == last:  # no interval could be non-empty
            raise PieceTooShort(f"track {index}: every note starts and ends "
                                f"at tick {first}")
        bounds = _draw_bounds(first, last, piece.ticks_per_quarter,
                              params.min_tempo_intervals, rng)
        for (start, stop), row in zip(bounds, table.sample(rng, len(bounds))):
            out.append(ArticulationInterval(index, start, stop, row.cc32,
                                            row.articulation))
    return out


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


def _tempo_events(tempo: Sequence[TempoInterval]) -> list[SetTempo]:
    return [SetTempo(iv.start_tick, round(60_000_000 / iv.bpm)) for iv in tempo]


def apply_plan(piece: MidiPiece, plan: AnnotationPlan,
               per_track: Sequence[ArticulationTable | None]) -> MidiPiece:
    """Write ``plan`` into ``piece`` in one pass per track. Track 0's tempo
    events give way to one SetTempo per tempo interval start, and each track
    with a table in ``per_track`` (one per track, as ``track_tables``
    returns them) gets a CC#32 at each of its articulation intervals'
    starts: both go in before same-tick note-ons, a tempo first. Every
    note-on takes its dynamic interval's velocity, ramped linearly across a
    gradual transition window, and one under a long articulation gets a
    CC#1 (modulation wheel) of that velocity just before it. A track whose
    table is None gets no CC#32 and no CC#1."""
    starts = [iv.start_tick for iv in plan.dynamics]

    def velocity_at(tick: int) -> int:
        i = max(bisect_right(starts, tick) - 1, 0)
        iv = plan.dynamics[i]
        if i > 0 and iv.transition_ticks:
            dur = iv.transition_ticks
            if tick < iv.start_tick + dur:
                prev = plan.dynamics[i - 1].target_velocity
                ratio = (tick - iv.start_tick) / dur
                value = prev + (iv.target_velocity - prev) * ratio
                return max(1, min(127, int(round(value))))
        return iv.target_velocity

    tracks = []
    for index, (track, table) in enumerate(zip(piece.tracks, per_track)):
        inserts: list = _tempo_events(plan.tempo) if index == 0 else []
        if table is not None:
            # a track with a table has a note-on; the inserts take its channel
            channel = next(ev.channel for ev in track if isinstance(ev, NoteOn))
            inserts += [ControlChange(iv.start_tick, channel, 32, iv.cc32_value)
                        for iv in plan.articulations if iv.track_index == index]
        inserts.sort(key=lambda ev: ev.tick)  # stable: a tempo stays first
        events: list = []
        length_class = None  # announced by the last CC#32 read
        for ev in _merge_before_noteons(
                [ev for ev in track if not isinstance(ev, SetTempo)], inserts):
            if isinstance(ev, ControlChange) and ev.controller == 32 and table:
                length_class = table.length_class(ev.value)
            elif isinstance(ev, NoteOn):
                ev = NoteOn(ev.tick, ev.channel, ev.pitch, velocity_at(ev.tick))
                if length_class == LENGTH_LONG:
                    events.append(ControlChange(ev.tick, ev.channel, 1,
                                                ev.velocity))
            events.append(ev)
        tracks.append(events)
    return replace(piece, tracks=tracks)


# ---------------------------------------------------------------------------
# Full annotation
# ---------------------------------------------------------------------------

def annotate(piece: MidiPiece,
             tables: Mapping[str, ArticulationTable],
             params: AnnotationParams,
             seed: int) -> tuple[MidiPiece, AnnotationPlan]:
    """Plan tempo, then dynamics, then articulations on a normalized piece,
    drawing from one generator seeded with ``seed``, write the plan in with
    ``apply_plan``, and return the annotated piece and the plan.

    The checks come first and in this order: the span (PieceTooShort), then
    table coverage of every note-bearing track (MissingTable), so a piece
    that fails either draws nothing and plans nothing. The result is not
    validated here; ``write_smf`` validates every piece it writes.
    """
    _require_span(piece, params)
    per_track = track_tables(piece, tables)
    rng = np.random.default_rng(seed)
    tempo = plan_tempo_intervals(piece, params, rng)
    # the tempo map of the piece with the tempo plan written in
    tempo_map = TempoMap(piece.ticks_per_quarter, _tempo_events(tempo))
    dynamics = plan_dynamic_intervals(piece, tempo_map, params, rng)
    articulations = plan_articulations(piece, per_track, params, rng)
    plan = AnnotationPlan(tuple(tempo), tuple(dynamics), tuple(articulations),
                          params)
    return apply_plan(piece, plan, per_track), plan


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
