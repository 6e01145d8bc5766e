"""Corpus analytics and stratified train/eval/test partitioning.

Activity and polyphony statistics are measured on an exact sweep line over
note-interval boundaries: intervals live in integer ticks and are converted
to seconds as exact rationals under the tempo map, so identities such as

    sum over levels of level * time(level) == sum of per-instrument activity

hold exactly, not merely to rounding. ``activity_time`` and
``polyphony_histogram`` return these rationals (``Fraction`` seconds); a
caller that writes JSON converts them with ``float``.

Splitting uses iterative stratification over instrument-presence labels:
the rarest label is processed first, and each of its examples goes to the
split that most needs that label.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .gmfix import InstrumentId, track_instruments
from .smf import MidiPiece, TempoMap, track_notes

SPLIT_NAMES = ("train", "eval", "test")
DEFAULT_RATIOS = (0.7, 0.1, 0.2)


class DatasetError(Exception):
    pass


class EmptyCorpus(DatasetError):
    pass


class InvalidRatios(DatasetError):
    pass


# ---------------------------------------------------------------------------
# Activity and polyphony
# ---------------------------------------------------------------------------

def _instrument_intervals(piece: MidiPiece,
                          instrument_of_track: Sequence[InstrumentId | None] | None,
                          ) -> dict[InstrumentId, list[tuple[int, int]]]:
    """Merged (union) sounding intervals in ticks, per instrument."""
    if instrument_of_track is None:
        instrument_of_track = track_instruments(piece)
    raw: dict[InstrumentId, list[tuple[int, int]]] = {}
    for track, iid in zip(piece.tracks, instrument_of_track):
        if iid is None:
            continue
        for note in track_notes(track):
            if note.tick_off > note.tick_on:
                raw.setdefault(iid, []).append((note.tick_on, note.tick_off))
    merged: dict[InstrumentId, list[tuple[int, int]]] = {}
    for iid, intervals in raw.items():
        intervals.sort()
        out: list[tuple[int, int]] = []
        for start, stop in intervals:
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], stop))
            else:
                out.append((start, stop))
        merged[iid] = out
    return merged


def activity_time(piece: MidiPiece,
                  instrument_of_track: Sequence[InstrumentId | None] | None = None,
                  ) -> dict[InstrumentId, Fraction]:
    """Seconds each instrument actually sounds (union of its note intervals,
    overlaps counted once), as exact rationals."""
    tempo_map = TempoMap.from_piece(piece)
    merged = _instrument_intervals(piece, instrument_of_track)
    return {
        iid: sum(
            (tempo_map.exact_seconds_at(stop) - tempo_map.exact_seconds_at(start)
             for start, stop in intervals),
            Fraction(0))
        for iid, intervals in merged.items()
    }


def polyphony_histogram(piece: MidiPiece,
                        instrument_of_track: Sequence[InstrumentId | None] | None = None,
                        ) -> dict[int, Fraction]:
    """Seconds spent at each polyphony level >= 1, where the level counts
    distinct instruments with at least one sounding note."""
    tempo_map = TempoMap.from_piece(piece)
    merged = _instrument_intervals(piece, instrument_of_track)
    deltas: dict[int, int] = {}
    for intervals in merged.values():
        # intervals are already per-instrument unions, so each contributes
        # at most one simultaneous voice
        for start, stop in intervals:
            deltas[start] = deltas.get(start, 0) + 1
            deltas[stop] = deltas.get(stop, 0) - 1
    histogram: dict[int, Fraction] = {}
    level = 0
    previous_tick: int | None = None
    for tick in sorted(deltas):
        if level >= 1 and previous_tick is not None:
            span = (tempo_map.exact_seconds_at(tick)
                    - tempo_map.exact_seconds_at(previous_tick))
            histogram[level] = histogram.get(level, Fraction(0)) + span
        level += deltas[tick]
        previous_tick = tick
    return histogram


# ---------------------------------------------------------------------------
# Stratified splitting
# ---------------------------------------------------------------------------

@dataclass
class SplitAssignment:
    assignment: dict[str, str]  # piece_id -> split name
    ratios: tuple[float, ...]
    balance_report: dict[str, dict[str, float]]  # label -> split -> proportion

    def split(self, name: str) -> list[str]:
        return sorted(pid for pid, s in self.assignment.items() if s == name)


def as_fractions(ratios: Sequence[float]) -> list[Fraction]:
    """The split ratios as exact fractions; raises InvalidRatios unless
    there are three finite, non-negative ratios summing to 1."""
    if len(ratios) != len(SPLIT_NAMES):
        raise InvalidRatios(
            f"expected {len(SPLIT_NAMES)} ratios, got {len(ratios)}")
    try:
        fracs = [Fraction(r).limit_denominator(1_000_000) for r in ratios]
    except (ValueError, OverflowError) as exc:
        raise InvalidRatios(f"bad ratio in {ratios}: {exc}") from exc
    if any(f < 0 for f in fracs):
        raise InvalidRatios(f"negative ratio in {ratios}")
    if sum(fracs) != 1:
        raise InvalidRatios(f"ratios {ratios} do not sum to 1")
    return fracs


def stratified_split(label_sets: Mapping[str, set],
                     ratios: Sequence[float] = DEFAULT_RATIOS,
                     rng: np.random.Generator | None = None) -> SplitAssignment:
    """Partition pieces into train/eval/test, balancing label proportions.

    Iterative stratification: repeatedly take the label with the fewest
    unassigned examples; send each of those examples to the split with the
    largest remaining desired count for that label, breaking ties by largest
    overall remaining desired count, then uniformly at random.

    Labels may be any hashable values (instrument ids, names). Deterministic
    given the same inputs and rng seed.
    """
    if not label_sets:
        raise EmptyCorpus("no pieces to split")
    for piece_id, labels in label_sets.items():
        if not labels:
            raise DatasetError(f"piece {piece_id!r} has no labels")
    fracs = as_fractions(ratios)
    if rng is None:
        rng = np.random.default_rng(0)

    def label_key(label) -> str:
        return label.name if isinstance(label, InstrumentId) else str(label)

    unassigned = set(label_sets)
    total = len(label_sets)
    # desired counts, exact: per split overall and per (label, split)
    remaining_total = [f * total for f in fracs]
    label_examples: dict[str, set[str]] = {}
    for piece_id, labels in label_sets.items():
        for label in labels:
            label_examples.setdefault(label_key(label), set()).add(piece_id)
    remaining_label = {
        key: [f * len(examples) for f in fracs]
        for key, examples in label_examples.items()
    }

    assignment: dict[str, str] = {}
    while unassigned:
        pending = {
            key: [pid for pid in examples if pid in unassigned]
            for key, examples in label_examples.items()
        }
        pending = {key: pids for key, pids in pending.items() if pids}
        key = min(pending, key=lambda k: (len(pending[k]), k))
        batch = sorted(pending[key])
        # visit in random order: id-sorted order clusters related pieces
        # (same source, same ensemble) and skews the per-split mix
        for piece_id in (batch[i] for i in rng.permutation(len(batch))):
            desired = remaining_label[key]
            best = max(desired)
            tied = [i for i, d in enumerate(desired) if d == best]
            if len(tied) > 1:
                best_total = max(remaining_total[i] for i in tied)
                tied = [i for i in tied if remaining_total[i] == best_total]
            if len(tied) > 1:
                choice = tied[int(rng.integers(0, len(tied)))]
            else:
                choice = tied[0]
            split_name = SPLIT_NAMES[choice]
            assignment[piece_id] = split_name
            unassigned.discard(piece_id)
            remaining_total[choice] -= 1
            for label in label_sets[piece_id]:
                remaining_label[label_key(label)][choice] -= 1

    report: dict[str, dict[str, float]] = {}
    for key, examples in sorted(label_examples.items()):
        counts = {name: 0 for name in SPLIT_NAMES}
        for piece_id in examples:
            counts[assignment[piece_id]] += 1
        report[key] = {name: counts[name] / len(examples) for name in SPLIT_NAMES}
    return SplitAssignment(assignment=assignment, ratios=tuple(ratios),
                           balance_report=report)


def piece_labels(piece: MidiPiece) -> set[InstrumentId]:
    """Instrument-presence label set of a fixed piece."""
    return {iid for iid in track_instruments(piece) if iid is not None}
