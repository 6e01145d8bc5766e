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
    SetTempo,
    Track,
    TrackName,
)

VIOLIN = REGISTRY["violin"]
CELLO = REGISTRY["cello"]
VIOLA = REGISTRY["viola"]


def note_track(channel, spans, pitch=60):
    """Track with notes at the given (on_tick, off_tick) spans."""
    events = []
    for i, (on, off) in enumerate(spans):
        p = pitch + (i % 3)
        events.append(NoteOn(on, channel, p, 75))
        events.append(NoteOff(off, channel, p, 0))
    events.sort(key=lambda e: e.tick)
    events.append(EndOfTrack(max((off for _, off in spans), default=0)))
    return Track(events=events)


def piece_with(spans_by_track, tempos=((0, 500000),), tpq=480):
    conductor_events = [TrackName(0, "conductor")]
    conductor_events += [SetTempo(t, us) for t, us in tempos]
    end = max(off for spans in spans_by_track for _, off in spans)
    conductor_events.append(EndOfTrack(end))
    tracks = [Track(events=conductor_events)]
    for channel, spans in enumerate(spans_by_track):
        tracks.append(note_track(channel, spans))
    return MidiPiece(tpq, tracks)


class TestActivity:
    def test_union_counts_overlaps_once(self):
        # violin [0,480) and [240,720) merge to 1.5 quarters = 0.75 s
        piece = piece_with([[(0, 480), (240, 720)], [(960, 1440)]])
        mapping = [None, VIOLIN, CELLO]
        exact = activity_time(piece, mapping)
        assert exact == {VIOLIN: Fraction(3, 4), CELLO: Fraction(1, 2)}
        assert all(type(s) is Fraction for s in exact.values())

    def test_tempo_change_inside_note(self):
        piece = piece_with([[(0, 960)]], tempos=((0, 500000), (480, 1000000)))
        exact = activity_time(piece, [None, VIOLIN])
        assert exact[VIOLIN] == Fraction(3, 2)  # 0.5 s + 1.0 s

    def test_same_instrument_on_two_tracks_merges(self):
        piece = piece_with([[(0, 480)], [(240, 960)]])
        exact = activity_time(piece, [None, VIOLIN, VIOLIN])
        assert exact == {VIOLIN: Fraction(1, 1)}

    def test_zero_length_notes_ignored(self):
        piece = piece_with([[(0, 480), (480, 480)]])
        exact = activity_time(piece, [None, VIOLIN])
        assert exact[VIOLIN] == Fraction(1, 2)

    def test_reads_instruments_from_fixed_piece(self):
        from scoreforge.gmfix import InstrumentDictionary, fix_piece
        from scoreforge.smf import ProgramChange
        track = Track(events=[TrackName(0, "Viola"), NoteOn(0, 2, 60, 75),
                              NoteOff(480, 2, 60, 0), EndOfTrack(480)])
        fixed, _ = fix_piece(MidiPiece(480, [track]),
                             InstrumentDictionary.default())
        assert activity_time(fixed) == {VIOLA: 0.5}


class TestPolyphony:
    def test_levels_partition_time(self):
        piece = piece_with([[(0, 960)], [(480, 1440)]])
        histogram = polyphony_histogram(piece, [None, VIOLIN, CELLO])
        assert histogram == {1: Fraction(1), 2: Fraction(1, 2)}
        assert all(type(s) is Fraction for s in histogram.values())

    def test_gap_between_notes_not_counted(self):
        piece = piece_with([[(0, 480), (960, 1440)]])
        histogram = polyphony_histogram(piece, [None, VIOLIN])
        assert histogram == {1: Fraction(1)}

    def test_identity_levels_vs_activity(self):
        # sum(level * time(level)) == sum of per-instrument activity, exactly
        piece = piece_with(
            [[(0, 960), (1200, 1680)], [(480, 1440)], [(240, 720), (1440, 1920)]],
            tempos=((0, 500000), (700, 437500), (1500, 923077)))
        mapping = [None, VIOLIN, CELLO, VIOLA]
        histogram = polyphony_histogram(piece, mapping)
        activity = activity_time(piece, mapping)
        lhs = sum((level * span for level, span in histogram.items()),
                  Fraction(0))
        rhs = sum(activity.values(), Fraction(0))
        assert lhs == rhs
        assert lhs.denominator > 1  # the awkward tempo makes rationals matter

    def test_empty_piece(self):
        piece = piece_with([[(0, 480)]])
        assert polyphony_histogram(piece, [None, None]) == {}
        assert activity_time(piece, [None, None]) == {}


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
            Track(events=[TrackName(0, "conductor"), SetTempo(0, 500000),
                          EndOfTrack(480)]),
            Track(events=[TrackName(0, "Violin I"), NoteOn(0, 0, 70, 75),
                          NoteOff(480, 0, 70, 0), EndOfTrack(480)]),
            Track(events=[TrackName(0, "Celli"), NoteOn(0, 1, 50, 75),
                          NoteOff(480, 1, 50, 0), EndOfTrack(480)]),
        ]
        fixed, _ = fix_piece(MidiPiece(480, tracks),
                             InstrumentDictionary.default())
        assert piece_labels(fixed) == {VIOLIN, CELLO}
