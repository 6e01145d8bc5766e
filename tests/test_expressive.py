"""Annotation planning and application: tempo, dynamics, articulations."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from scoreforge.expressive import (
    DYNAMIC_MARKS,
    INTERVAL_QUARTERS,
    LENGTH_LONG,
    LENGTH_SHORT,
    VELOCITY_RANGES,
    AnnotationParams,
    AnnotationPlan,
    ArticulationInterval,
    DynamicInterval,
    MissingTable,
    NonTilingIntervals,
    PieceTooShort,
    TempoInterval,
    annotate,
    apply_articulations,
    apply_dynamics,
    apply_tempo,
    from_dict,
    load_articulation_tables,
    mirror_velocity_to_cc1,
    piece_seed,
    plan_articulations,
    plan_dynamic_intervals,
    plan_tempo_intervals,
    plan_to_dict,
    velocity_to_mark,
)
from scoreforge.gmfix import REGISTRY, normalize
from scoreforge.smf import (
    ControlChange,
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    ProgramChange,
    SetTempo,
    TempoMap,
    Track,
    TrackName,
    track_notes,
    write_smf,
)

STRINGS = ("violin", "viola", "cello", "contrabass")


@pytest.fixture(scope="module")
def tables():
    return load_articulation_tables()


def make_piece(quarters=96, tpq=480, instruments=("violin", "cello"),
               start_quarters=None):
    """A fixed, normalized-style piece: steady quarter notes per track."""
    end = quarters * tpq
    conductor = Track(events=[TrackName(0, "conductor"), SetTempo(0, 500000),
                              EndOfTrack(end)])
    tracks = [conductor]
    starts = start_quarters or [0] * len(instruments)
    for i, (name, first) in enumerate(zip(instruments, starts)):
        program = REGISTRY[name].gm_program
        events = [TrackName(0, name), ProgramChange(0, i, program)]
        for q in range(first, quarters):
            pitch = 55 + (q % 13)
            events.append(NoteOn(q * tpq, i, pitch, 75))
            events.append(NoteOff(q * tpq + tpq - 60, i, pitch, 0))
        events.append(EndOfTrack(end))
        tracks.append(Track(events=events))
    return MidiPiece(tpq, tracks)


class TestVelocityMarks:
    def test_boundaries(self):
        for velocity, mark in [(1, "ppp"), (15, "ppp"), (16, "pp"), (31, "pp"),
                               (32, "p"), (47, "p"), (48, "mp"), (63, "mp"),
                               (64, "mf"), (79, "mf"), (80, "f"), (95, "f"),
                               (96, "ff"), (111, "ff"), (112, "fff"),
                               (127, "fff")]:
            assert velocity_to_mark(velocity) == mark

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            velocity_to_mark(0)
        with pytest.raises(ValueError):
            velocity_to_mark(128)

    def test_ranges_tile_midi_velocities(self):
        ranges = [VELOCITY_RANGES[m] for m in DYNAMIC_MARKS]
        assert ranges[0][0] == 1
        assert ranges[-1][1] == 128
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo


class TestArticulationTables:
    def test_bundled_cover_strings(self, tables):
        assert set(tables) == set(STRINGS)
        for name in STRINGS:
            table = tables[name]
            assert len(table.rows) == 20
            assert sorted(row.cc32 for row in table.rows) == list(range(1, 21))
            assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_length_classes_follow_names(self, tables):
        for table in tables.values():
            for row in table.rows:
                expected = (LENGTH_SHORT if row.articulation.startswith("Short")
                            else LENGTH_LONG)
                assert row.length_class == expected, row

    def test_raw_weights_keep_rounding_residue(self, tables):
        totals = {name: sum(r.weight for r in t.rows)
                  for name, t in tables.items()}
        assert totals["violin"] == pytest.approx(99.99, abs=1e-9)
        assert totals["cello"] == pytest.approx(100.02, abs=1e-9)

    def test_sampling_prefers_heaviest_row(self, tables):
        table = tables["violin"]
        rng = np.random.default_rng(7)
        drawn = table.sample_many(rng, 4000)
        counts = {}
        for row in drawn:
            counts[row.articulation] = counts.get(row.articulation, 0) + 1
        assert max(counts, key=counts.get) == "Legato"
        assert counts["Legato"] / 4000 == pytest.approx(0.6, abs=0.05)

    def test_custom_csv(self, tmp_path):
        path = tmp_path / "tables.csv"
        path.write_text(
            "instrument,articulation,cc32,weight,length_class\n"
            "flute,Sustain,1,70,long\n"
            "flute,Short Staccato,2,30,short\n")
        loaded = load_articulation_tables(path)
        assert set(loaded) == {"flute"}
        assert loaded["flute"].probabilities.tolist() == [0.7, 0.3]
        assert loaded["flute"].length_class(2) == LENGTH_SHORT
        assert loaded["flute"].length_class(99) is None

    def test_invalid_tables_rejected(self, tmp_path):
        header = "instrument,articulation,cc32,weight,length_class\n"
        for body in [
            "x,A,1,50,long\nx,B,1,50,short\n",      # duplicate cc32
            "x,A,0,100,long\n",                     # cc32 out of range
            "x,A,1,-1,long\n",                      # negative weight
            "x,A,1,100,medium\n",                   # unknown length class
            "x,A,1,0,long\nx,B,2,0,short\n",        # all weights zero
        ]:
            path = tmp_path / "bad.csv"
            path.write_text(header + body)
            with pytest.raises(ValueError):
                load_articulation_tables(path)


class TestSeeding:
    def test_piece_seed_stable_and_distinct(self):
        assert piece_seed(0, "raw_001") == piece_seed(0, "raw_001")
        assert piece_seed(0, "raw_001") != piece_seed(0, "raw_002")
        assert piece_seed(0, "raw_001") != piece_seed(1, "raw_001")
        assert 0 <= piece_seed(12345, "x") < 2 ** 64


class TestTempoPlanning:
    def test_tiles_quarter_grid(self):
        piece = make_piece(quarters=96)
        params = AnnotationParams(seed=5)
        intervals = plan_tempo_intervals(piece, params, np.random.default_rng(5))
        assert intervals[0].start_tick == 0
        assert intervals[-1].end_tick == piece.end_tick()
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur.start_tick == prev.end_tick
            assert cur.start_tick % piece.ticks_per_quarter == 0

    def test_count_respects_span_law(self):
        piece = make_piece(quarters=96)  # upper bound 96/8 = 12
        params = AnnotationParams()
        counts = {len(plan_tempo_intervals(piece, params, np.random.default_rng(s)))
                  for s in range(300)}
        assert min(counts) == params.min_tempo_intervals
        assert max(counts) == 96 // INTERVAL_QUARTERS
        assert counts == set(range(3, 13))

    def test_bpm_clamped(self):
        piece = make_piece(quarters=64)
        params = AnnotationParams(tempo_std=500.0)
        bpms = [iv.bpm for s in range(40)
                for iv in plan_tempo_intervals(piece, params, np.random.default_rng(s))]
        lo, hi = params.tempo_clamp
        assert all(lo <= b <= hi for b in bpms)
        assert lo in bpms and hi in bpms  # wide std pins draws to the bounds

    def test_minimum_span(self):
        params = AnnotationParams()
        ok = make_piece(quarters=3)
        assert len(plan_tempo_intervals(ok, params, np.random.default_rng(0))) == 3
        with pytest.raises(PieceTooShort):
            plan_tempo_intervals(make_piece(quarters=2), params, np.random.default_rng(0))

    def test_deterministic(self):
        piece = make_piece()
        params = AnnotationParams()
        a = plan_tempo_intervals(piece, params, np.random.default_rng(9))
        b = plan_tempo_intervals(piece, params, np.random.default_rng(9))
        assert a == b

    def test_apply_rewrites_tempo_events(self):
        piece = make_piece(quarters=32)
        intervals = [TempoInterval(0, 8 * 480, 100.0),
                     TempoInterval(8 * 480, 32 * 480, 160.0)]
        out = apply_tempo(piece, intervals)
        tempos = [(ev.tick, ev.microseconds_per_quarter)
                  for ev in out.tracks[0].events if isinstance(ev, SetTempo)]
        assert tempos == [(0, 600000), (8 * 480, 375000)]
        for track in out.tracks[1:]:
            assert not any(isinstance(ev, SetTempo) for ev in track.events)
        assert 60_000_000 / TempoMap.from_piece(out).tempo_at(9 * 480) == \
            pytest.approx(160.0)
        write_smf(out)  # ordering invariants hold

    def test_apply_rejects_gaps(self):
        piece = make_piece(quarters=32)
        with pytest.raises(NonTilingIntervals):
            apply_tempo(piece, [TempoInterval(0, 480, 100.0),
                                TempoInterval(960, 32 * 480, 100.0)])
        with pytest.raises(NonTilingIntervals):
            apply_tempo(piece, [TempoInterval(0, 480, 100.0)])


class TestDynamics:
    def test_marks_and_velocities_in_range(self):
        piece = make_piece(quarters=80)
        params = AnnotationParams()
        for seed in range(30):
            for iv in plan_dynamic_intervals(piece, params, np.random.default_rng(seed)):
                lo, hi = VELOCITY_RANGES[iv.mark]
                assert lo <= iv.target_velocity < hi
                assert velocity_to_mark(iv.target_velocity) == iv.mark

    def test_gradual_share_extremes(self):
        piece = make_piece(quarters=80)
        always = AnnotationParams(gradual_fraction_range=(1.0, 1.0))
        never = AnnotationParams(gradual_fraction_range=(0.0, 0.0))
        for seed in range(10):
            plan = plan_dynamic_intervals(piece, always, np.random.default_rng(seed))
            assert plan[0].transition_ticks is None  # nothing to ramp from
            assert all(iv.transition_ticks is not None for iv in plan[1:])
            plan = plan_dynamic_intervals(piece, never, np.random.default_rng(seed))
            assert all(iv.transition_ticks is None for iv in plan)

    def test_transition_ticks_at_known_tempo(self):
        piece = make_piece(quarters=96)  # single 500000 tempo event
        seconds = 1.5
        params = AnnotationParams(gradual_fraction_range=(1.0, 1.0),
                                  transition_duration_range=(seconds, seconds))
        tpq = piece.ticks_per_quarter
        unclipped = round(seconds * 1e6 * tpq / 500000)
        for seed in range(20):
            plan = plan_dynamic_intervals(piece, params, np.random.default_rng(seed))
            for prev, cur in zip(plan, plan[1:]):
                cap = min(prev.end_tick - prev.start_tick,
                          cur.end_tick - cur.start_tick) // 2
                assert cur.transition_ticks == min(unclipped, cap)

    def test_apply_abrupt(self):
        piece = make_piece(quarters=16, instruments=("violin",))
        tpq = piece.ticks_per_quarter
        intervals = [DynamicInterval(0, 8 * tpq, "pp", 20),
                     DynamicInterval(8 * tpq, 16 * tpq, "ff", 100)]
        out = apply_dynamics(piece, intervals)
        for ev in out.tracks[1].events:
            if isinstance(ev, NoteOn):
                assert ev.velocity == (20 if ev.tick < 8 * tpq else 100)

    def test_apply_ramp(self):
        tpq = 480
        piece = make_piece(quarters=20, tpq=tpq, instruments=("violin",))
        intervals = [DynamicInterval(0, 10 * tpq, "pp", 20),
                     DynamicInterval(10 * tpq, 20 * tpq, "ff", 100,
                                     transition_ticks=4 * tpq)]
        out = apply_dynamics(piece, intervals)
        by_tick = {ev.tick: ev.velocity for ev in out.tracks[1].events
                   if isinstance(ev, NoteOn)}
        assert by_tick[9 * tpq] == 20
        assert by_tick[10 * tpq] == 20            # ramp starts at previous level
        assert by_tick[11 * tpq] == 40            # quarter of the way
        assert by_tick[12 * tpq] == 60
        assert by_tick[13 * tpq] == 80
        assert by_tick[14 * tpq] == 100           # window over
        assert by_tick[19 * tpq] == 100

    def test_apply_requires_tiling(self):
        piece = make_piece(quarters=8)
        with pytest.raises(NonTilingIntervals):
            apply_dynamics(piece, [DynamicInterval(0, 480, "mf", 70)])


class TestArticulations:
    def test_plan_tiles_active_spans(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"),
                           start_quarters=[0, 8])
        params = AnnotationParams()
        plan = plan_articulations(piece, tables, params, np.random.default_rng(3))
        by_track = {}
        for iv in plan:
            by_track.setdefault(iv.track_index, []).append(iv)
        assert set(by_track) == {1, 2}
        cello_first = min(iv.start_tick for iv in by_track[2])
        assert cello_first == 8 * piece.ticks_per_quarter
        for index, ivs in by_track.items():
            ivs.sort(key=lambda iv: iv.start_tick)
            for prev, cur in zip(ivs, ivs[1:]):
                assert cur.start_tick == prev.end_tick
            codes = {iv.cc32_value for iv in ivs}
            assert codes <= set(range(1, 21))

    def test_missing_table(self, tables):
        piece = make_piece(instruments=("violin", "flute"))
        with pytest.raises(MissingTable) as info:
            plan_articulations(piece, tables, AnnotationParams(), np.random.default_rng(0))
        assert info.value.instrument == "flute"

    def test_short_track_degrades_instead_of_failing(self, tables):
        piece = make_piece(quarters=2, instruments=("viola",))
        plan = plan_articulations(piece, tables, AnnotationParams(), np.random.default_rng(1))
        assert 1 <= len(plan) <= 2

    def test_apply_inserts_cc32_before_same_tick_noteons(self, tables):
        piece = make_piece(quarters=48, instruments=("violin", "viola"))
        params = AnnotationParams()
        plan = plan_articulations(piece, tables, params, np.random.default_rng(11))
        out = apply_articulations(piece, plan)
        for index in (1, 2):
            events = out.tracks[index].events
            expected = sorted((iv.start_tick, iv.cc32_value) for iv in plan
                              if iv.track_index == index)
            got = [(ev.tick, ev.value) for ev in events
                   if isinstance(ev, ControlChange) and ev.controller == 32]
            assert got == expected
            for pos, ev in enumerate(events):
                if isinstance(ev, ControlChange) and ev.controller == 32:
                    same_tick_ons = [e for e in events[:pos]
                                     if isinstance(e, NoteOn) and e.tick == ev.tick]
                    assert not same_tick_ons
        write_smf(out)

    def test_mirror_cc1_under_long_articulations(self, tables):
        piece = make_piece(quarters=32, instruments=("contrabass",))
        tpq = piece.ticks_per_quarter
        table = tables["contrabass"]
        long_code = next(r.cc32 for r in table.rows
                         if r.length_class == LENGTH_LONG)
        short_code = next(r.cc32 for r in table.rows
                          if r.length_class == LENGTH_SHORT)
        end = max(n.tick_off for n in track_notes(piece.tracks[1]))
        plan = [
            ArticulationInterval(1, 0, 16 * tpq, long_code, "Long"),
            ArticulationInterval(1, 16 * tpq, end, short_code, "Short"),
        ]
        out = mirror_velocity_to_cc1(apply_articulations(piece, plan), tables)
        events = out.tracks[1].events
        for pos, ev in enumerate(events):
            if not isinstance(ev, NoteOn):
                continue
            mirrored = [e for e in events[:pos]
                        if isinstance(e, ControlChange) and e.controller == 1
                        and e.tick == ev.tick]
            if ev.tick < 16 * tpq:
                assert [m.value for m in mirrored] == [ev.velocity]
            else:
                assert not mirrored

    def test_mirror_skips_tracks_without_table(self, tables):
        piece = make_piece(quarters=16, instruments=("flute",))
        out = mirror_velocity_to_cc1(piece, tables)
        assert out.tracks[1].events == piece.tracks[1].events


class TestAnnotateChain:
    def test_deterministic_bytes(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "viola", "cello"))
        params = AnnotationParams(seed=piece_seed(42, "p1"))
        out1, plan1 = annotate(piece, tables, params)
        out2, plan2 = annotate(piece, tables, params)
        assert write_smf(out1) == write_smf(out2)
        assert plan1 == plan2

    def test_seed_changes_output(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"))
        out1, _ = annotate(piece, tables, AnnotationParams(seed=1))
        out2, _ = annotate(piece, tables, AnnotationParams(seed=2))
        assert write_smf(out1) != write_smf(out2)

    def test_annotation_inventory(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"))
        out, plan = annotate(piece, tables, AnnotationParams(seed=3))
        tempos = [ev for ev in out.tracks[0].events if isinstance(ev, SetTempo)]
        assert len(tempos) == len(plan.tempo)
        assert [t.tick for t in tempos] == [iv.start_tick for iv in plan.tempo]
        cc32 = [ev for t in out.tracks[1:] for ev in t.events
                if isinstance(ev, ControlChange) and ev.controller == 32]
        assert len(cc32) == len(plan.articulations)
        velocities = {ev.velocity for t in out.tracks for ev in t.events
                      if isinstance(ev, NoteOn)}
        assert len(velocities) > 1  # flat 75 baseline must be gone

    def test_plan_json_round_trip(self, tables):
        piece = make_piece(quarters=48, instruments=("violin", "contrabass"))
        _, plan = annotate(piece, tables, AnnotationParams(seed=17))
        data = json.loads(json.dumps(plan_to_dict(plan)))
        assert from_dict(AnnotationPlan, {k: v for k, v in data.items()
                                          if k != "seed"}) == plan

    def test_params_round_trip_and_validation(self):
        params = AnnotationParams(tempo_mean=90.0, seed=5)
        assert from_dict(AnnotationParams, asdict(params)) == params
        for bad in [dict(tempo_mean=-1.0), dict(tempo_std=-0.5),
                    dict(tempo_clamp=(0.0, 100.0)),
                    dict(tempo_clamp=(200.0, 100.0)),
                    dict(min_tempo_intervals=2),
                    dict(gradual_fraction_range=(0.8, 0.2)),
                    dict(transition_duration_range=(-1.0, 2.0))]:
            with pytest.raises(ValueError):
                AnnotationParams(**bad)

    def test_works_on_normalized_corpus_piece(self, tables, strings_corpus_dir):
        from scoreforge.gmfix import InstrumentDictionary, fix_piece
        from scoreforge.smf import parse_smf
        path = sorted(strings_corpus_dir.glob("*.mid"))[0]
        fixed, _ = fix_piece(parse_smf(path.read_bytes()),
                             InstrumentDictionary.default())
        piece = normalize(fixed)
        out, plan = annotate(piece, tables, AnnotationParams(seed=8))
        assert plan.tempo and plan.dynamics and plan.articulations
        write_smf(out)


class TestAnnotateFailureOrder:
    """annotate checks the span, then table coverage, before any draw."""

    @pytest.fixture
    def no_planning(self, monkeypatch):
        import scoreforge.expressive as expressive

        def planned(*args, **kwargs):
            raise AssertionError("planned before the checks")

        for name in ("plan_tempo_intervals", "plan_dynamic_intervals",
                     "apply_tempo", "apply_dynamics"):
            monkeypatch.setattr(expressive, name, planned)

    def test_too_short_wins_over_uncovered(self, tables, no_planning):
        piece = make_piece(quarters=2, instruments=("flute", "violin"))
        with pytest.raises(PieceTooShort):
            annotate(piece, tables, AnnotationParams())

    @pytest.mark.parametrize("instruments, uncovered", [
        (("violin", "flute", "oboe"), "flute"),
        (("oboe", "flute"), "oboe"),
        (("cello", "viola", "harp"), "harp"),
    ])
    def test_first_uncovered_track_named(self, tables, no_planning,
                                         instruments, uncovered):
        piece = make_piece(quarters=16, instruments=instruments)
        # a note-free track needs no table, whatever its name
        piece.tracks.insert(1, Track([TrackName(0, "Flute 2"), EndOfTrack(0)]))
        with pytest.raises(MissingTable) as info:
            annotate(piece, tables, AnnotationParams(seed=4))
        assert info.value.instrument == uncovered
        assert str(info.value) == (
            f"no articulation table for instrument {uncovered!r}")

    @pytest.mark.parametrize("name, reported", [("Synth Lead", "Synth Lead"),
                                                ("", "track 2")])
    def test_unmappable_track_named_by_track(self, tables, no_planning,
                                             name, reported):
        piece = make_piece(quarters=16, instruments=("violin", "cello"))
        track = piece.tracks[2]
        # program 0 (piano) maps to no instrument, so the track's name is used
        track.events = [TrackName(0, name) if isinstance(ev, TrackName) else
                        ProgramChange(0, ev.channel, 0)
                        if isinstance(ev, ProgramChange) else ev
                        for ev in track.events]
        with pytest.raises(MissingTable) as info:
            annotate(piece, tables, AnnotationParams())
        assert info.value.instrument == reported

    def test_plan_articulations_names_the_same_track(self, tables):
        piece = make_piece(quarters=16, instruments=("violin", "oboe", "flute"))
        with pytest.raises(MissingTable) as info:
            plan_articulations(piece, tables, AnnotationParams(),
                               np.random.default_rng(0))
        assert info.value.instrument == "oboe"

    def test_conductor_ending_early_stays_writable(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"))
        conductor = piece.tracks[0]
        conductor.events = [ev if not isinstance(ev, EndOfTrack) else EndOfTrack(0)
                            for ev in conductor.events]
        out, plan = annotate(piece, tables, AnnotationParams(seed=5))
        events = out.tracks[0].events
        assert events[-1] == EndOfTrack(plan.tempo[-1].start_tick)
        assert [ev.tick for ev in events if isinstance(ev, SetTempo)] == [
            iv.start_tick for iv in plan.tempo]
        write_smf(out)


class TestFromDict:
    """The JSON codec the plan sidecars and the CLI config share."""

    def test_lists_become_tuples_and_objects_dataclasses(self):
        data = {"tempo": [{"start_tick": 0, "end_tick": 960, "bpm": 90.5}],
                "dynamics": [{"start_tick": 0, "end_tick": 960, "mark": "p",
                              "target_velocity": 40, "transition_ticks": None}],
                "articulations": [],
                "params": {"tempo_clamp": [50.0, 150.0]}}
        plan = from_dict(AnnotationPlan, data)
        assert plan.tempo == (TempoInterval(0, 960, 90.5),)
        assert plan.dynamics == (DynamicInterval(0, 960, "p", 40, None),)
        assert plan.articulations == ()
        assert plan.params == AnnotationParams(tempo_clamp=(50.0, 150.0))

    def test_int_for_float_kept_as_given(self):
        params = from_dict(AnnotationParams, {"tempo_mean": 100,
                                              "tempo_clamp": [40, 200.0]})
        assert type(params.tempo_mean) is int
        assert [type(x) for x in params.tempo_clamp] == [int, float]
        assert json.dumps(asdict(params)["tempo_clamp"]) == "[40, 200.0]"

    @pytest.mark.parametrize("data", [
        {"tempo_mean": "fast"},
        {"tempo_mean": True},            # a bool is no number here
        {"min_tempo_intervals": 3.0},    # nor is a float an int
        {"min_tempo_intervals": False},
        {"seed": None},
        {"tempo_clamp": 40.0},
        {"tempo_clamp": [40.0]},
        {"tempo_clamp": [40.0, 100.0, 200.0]},
        {"tempo_clamp": [40.0, "200"]},
        {"tempo_sd": 30.0},              # unknown key
    ])
    def test_wrong_json_type_is_type_error(self, data):
        with pytest.raises(TypeError):
            from_dict(AnnotationParams, data)

    def test_nested_errors_name_the_field(self):
        with pytest.raises(TypeError, match=r"DynamicInterval\.transition_ticks"):
            from_dict(DynamicInterval, {"start_tick": 0, "end_tick": 1, "mark": "p",
                                        "target_velocity": 40,
                                        "transition_ticks": "1"})
        with pytest.raises(TypeError, match="expected an object"):
            from_dict(AnnotationPlan, {"tempo": [5], "dynamics": [],
                                       "articulations": [], "params": {}})

    def test_plan_sidecar_is_asdict_plus_seed(self, tables):
        piece = make_piece(quarters=48, instruments=("violin", "cello"))
        _, plan = annotate(piece, tables, AnnotationParams(seed=17))
        data = plan_to_dict(plan)
        assert data == {"seed": 17, **asdict(plan)}
        data = {**data, "seed": 99}  # the top-level seed is not read
        assert from_dict(AnnotationPlan, {k: v for k, v in data.items()
                                          if k != "seed"}) == plan
