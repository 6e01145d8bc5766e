"""Exact activity/polyphony statistics and stratified splitting."""

from fractions import Fraction

import numpy as np
import pytest

from scoreforge.datasetkit import (
    DEFAULT_RATIOS,
    SPLIT_NAMES,
    DatasetError,
    EmptyCorpus,
    InvalidRatios,
    activity_time,
    instrument_intervals,
    piece_labels,
    polyphony_histogram,
    stratified_split,
)
from scoreforge.gmfix import REGISTRY
from scoreforge.smf import (
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    ProgramChange,
    SetTempo,
    TrackName,
)

VIOLIN = REGISTRY["violin"]
CELLO = REGISTRY["cello"]
VIOLA = REGISTRY["viola"]


def note_track(channel, spans, pitch=60, instrument=None):
    """Track with notes at the given (on_tick, off_tick) spans, and the
    instrument's program when one is given."""
    events = ([ProgramChange(0, channel, instrument.gm_program)]
              if instrument else [])
    for i, (on, off) in enumerate(spans):
        p = pitch + (i % 3)
        events.append(NoteOn(on, channel, p, 75))
        events.append(NoteOff(off, channel, p, 0))
    events.sort(key=lambda e: e.tick)
    events.append(EndOfTrack(max((off for _, off in spans), default=0)))
    return events


def piece_with(spans_by_track, tempos=((0, 500000),), tpq=480,
               instruments=None):
    """A conductor track, then one note track per list of spans, each with
    the program of its entry in ``instruments`` (none by default)."""
    conductor_events = [TrackName(0, "conductor")]
    conductor_events += [SetTempo(t, us) for t, us in tempos]
    end = max(off for spans in spans_by_track for _, off in spans)
    conductor_events.append(EndOfTrack(end))
    tracks = [conductor_events]
    for channel, (spans, instrument) in enumerate(zip(
            spans_by_track, instruments or [None] * len(spans_by_track))):
        tracks.append(note_track(channel, spans, instrument=instrument))
    return MidiPiece(tpq, tracks)


def seconds(totals, unit):
    """Totals in a tempo map's unit, as exact seconds."""
    return {key: Fraction(total, unit) for key, total in totals.items()}


def activity_seconds(piece):
    intervals, unit = instrument_intervals(piece)
    return seconds(activity_time(intervals), unit)


class TestActivity:
    def test_union_counts_overlaps_once(self):
        # violin [0,480) and [240,720) merge to 1.5 quarters = 0.75 s
        piece = piece_with([[(0, 480), (240, 720)], [(960, 1440)]],
                           instruments=[VIOLIN, CELLO])
        intervals, unit = instrument_intervals(piece)
        exact = activity_time(intervals)
        assert seconds(exact, unit) == {VIOLIN: Fraction(3, 4),
                                        CELLO: Fraction(1, 2)}
        assert all(type(s) is int for s in exact.values())

    def test_tempo_change_inside_note(self):
        piece = piece_with([[(0, 960)]], tempos=((0, 500000), (480, 1000000)),
                           instruments=[VIOLIN])
        exact = activity_seconds(piece)
        assert exact[VIOLIN] == Fraction(3, 2)  # 0.5 s + 1.0 s

    def test_same_instrument_on_two_tracks_merges(self):
        piece = piece_with([[(0, 480)], [(240, 960)]],
                           instruments=[VIOLIN, VIOLIN])
        exact = activity_seconds(piece)
        assert exact == {VIOLIN: Fraction(1, 1)}

    def test_zero_length_notes_ignored(self):
        piece = piece_with([[(0, 480), (480, 480)]], instruments=[VIOLIN])
        exact = activity_seconds(piece)
        assert exact[VIOLIN] == Fraction(1, 2)

    def test_reads_instruments_from_fixed_piece(self):
        from scoreforge.gmfix import InstrumentDictionary, fix_piece
        track = [TrackName(0, "Viola"), NoteOn(0, 2, 60, 75),
                 NoteOff(480, 2, 60, 0), EndOfTrack(480)]
        fixed, _ = fix_piece(MidiPiece(480, [track]),
                             InstrumentDictionary.default())
        assert activity_seconds(fixed) == {VIOLA: 0.5}

    def test_intervals_are_merged_in_exact_seconds(self):
        piece = piece_with([[(0, 480), (240, 720), (960, 1440)]],
                           tempos=((0, 500000), (600, 1000000)),
                           instruments=[VIOLIN])
        intervals, unit = instrument_intervals(piece)
        assert unit == 480 * 1_000_000
        assert {iid: [(Fraction(start, unit), Fraction(stop, unit))
                      for start, stop in spans]
                for iid, spans in intervals.items()} == {
            # 0.5 s a quarter up to tick 600 (0.625 s), then 1 s a quarter
            VIOLIN: [(Fraction(0), Fraction(7, 8)),
                     (Fraction(11, 8), Fraction(19, 8))]}
        assert all(type(t) is int for span in intervals[VIOLIN] for t in span)


class TestPolyphony:
    def test_levels_partition_time(self):
        piece = piece_with([[(0, 960)], [(480, 1440)]],
                           instruments=[VIOLIN, CELLO])
        intervals, unit = instrument_intervals(piece)
        histogram = polyphony_histogram(intervals)
        assert seconds(histogram, unit) == {1: Fraction(1), 2: Fraction(1, 2)}
        assert all(type(s) is int for s in histogram.values())

    def test_gap_between_notes_not_counted(self):
        piece = piece_with([[(0, 480), (960, 1440)]], instruments=[VIOLIN])
        intervals, unit = instrument_intervals(piece)
        histogram = polyphony_histogram(intervals)
        assert seconds(histogram, unit) == {1: Fraction(1)}

    def test_identity_levels_vs_activity(self):
        # sum(level * time(level)) == sum of per-instrument activity, exactly
        piece = piece_with(
            [[(0, 960), (1200, 1680)], [(480, 1440)], [(240, 720), (1440, 1920)]],
            tempos=((0, 500000), (700, 437500), (1500, 923077)),
            instruments=[VIOLIN, CELLO, VIOLA])
        intervals, unit = instrument_intervals(piece)
        histogram = polyphony_histogram(intervals)
        activity = activity_time(intervals)
        lhs = sum((level * span for level, span in histogram.items()),
                  Fraction(0))
        rhs = sum(activity.values(), Fraction(0))
        assert lhs == rhs
        # the awkward tempo makes exact time matter
        assert Fraction(lhs, unit).denominator > 1

    def test_empty_piece(self):
        piece = piece_with([[(0, 480)]])  # no program: no instrument
        intervals, _ = instrument_intervals(piece)
        assert polyphony_histogram(intervals) == {}
        assert activity_time(intervals) == {}


class TestStratifiedSplit:
    def test_single_label_ten_pieces_is_7_1_2(self):
        labels = {f"p{i:02d}": {VIOLIN} for i in range(10)}
        result = stratified_split(labels)
        sizes = {name: len(result.split(name)) for name in SPLIT_NAMES}
        assert sizes == {"train": 7, "eval": 1, "test": 2}
        assert set(result.assignment) == set(labels)

    def test_split_listing_sorted(self):
        labels = {f"p{i}": {VIOLIN} for i in range(10)}
        result = stratified_split(labels)
        for name in SPLIT_NAMES:
            ids = result.split(name)
            assert ids == sorted(ids)

    def test_balance_report_proportions(self):
        labels = {f"p{i:02d}": {VIOLIN} if i < 10 else {VIOLIN, CELLO}
                  for i in range(20)}
        result = stratified_split(labels)
        report = result.balance_report
        assert set(report) == {"violin", "cello"}
        for split_props in report.values():
            assert sum(split_props.values()) == pytest.approx(1.0)
        assert report["violin"]["train"] == pytest.approx(0.7, abs=0.1)

    def test_multi_label_counts_near_ideal(self):
        rng = np.random.default_rng(123)
        instruments = [VIOLIN, VIOLA, CELLO, REGISTRY["contrabass"]]
        labels = {}
        for i in range(40):
            k = int(rng.integers(2, 5))
            chosen = rng.choice(len(instruments), size=k, replace=False)
            labels[f"piece_{i:03d}"] = {instruments[j] for j in chosen}
        result = stratified_split(labels, rng=np.random.default_rng(5))
        for key, examples in _examples_by_label(labels).items():
            counts = {name: 0 for name in SPLIT_NAMES}
            for pid in examples:
                counts[result.assignment[pid]] += 1
            for name, frac in zip(SPLIT_NAMES, DEFAULT_RATIOS):
                ideal = frac * len(examples)
                assert abs(counts[name] - ideal) <= 2, (key, name, counts)

    def test_deterministic_given_seed(self):
        labels = {f"p{i}": {VIOLIN} for i in range(9)}
        a = stratified_split(labels, (0.4, 0.4, 0.2), np.random.default_rng(3))
        b = stratified_split(labels, (0.4, 0.4, 0.2), np.random.default_rng(3))
        assert a.assignment == b.assignment

    def test_string_labels_accepted(self):
        labels = {"a": {"x"}, "b": {"x", "y"}, "c": {"y"}, "d": {"x"},
                  "e": {"y"}, "f": {"x"}, "g": {"x", "y"}, "h": {"y"},
                  "i": {"x"}, "j": {"x"}}
        result = stratified_split(labels)
        assert set(result.balance_report) == {"x", "y"}

    def test_invalid_inputs(self):
        with pytest.raises(EmptyCorpus):
            stratified_split({})
        with pytest.raises(DatasetError):
            stratified_split({"p": set()})
        good = {f"p{i}": {"x"} for i in range(5)}
        with pytest.raises(InvalidRatios):
            stratified_split(good, (0.5, 0.5))
        with pytest.raises(InvalidRatios):
            stratified_split(good, (0.8, 0.3, -0.1))
        with pytest.raises(InvalidRatios):
            stratified_split(good, (0.5, 0.3, 0.3))


def _examples_by_label(label_sets):
    out = {}
    for pid, labels in label_sets.items():
        for label in labels:
            out.setdefault(label.name, set()).add(pid)
    return out


class TestPieceLabels:
    def test_labels_from_fixed_piece(self):
        from scoreforge.gmfix import InstrumentDictionary, fix_piece
        tracks = [
            [TrackName(0, "conductor"), SetTempo(0, 500000),
             EndOfTrack(480)],
            [TrackName(0, "Violin I"), NoteOn(0, 0, 70, 75),
             NoteOff(480, 0, 70, 0), EndOfTrack(480)],
            [TrackName(0, "Celli"), NoteOn(0, 1, 50, 75),
             NoteOff(480, 1, 50, 0), EndOfTrack(480)],
        ]
        fixed, _ = fix_piece(MidiPiece(480, tracks),
                             InstrumentDictionary.default())
        assert piece_labels(fixed) == {VIOLIN, CELLO}
