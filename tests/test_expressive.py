"""Annotation planning and application: tempo, dynamics, articulations."""

import json
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzz import mutations
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
    ExpressiveError,
    MissingTable,
    PieceTooShort,
    TempoInterval,
    _draw_bounds,
    annotate,
    apply_plan,
    from_dict,
    load_articulation_tables,
    piece_seed,
    plan_articulations,
    plan_dynamic_intervals,
    plan_tempo_intervals,
    track_tables,
)
from scoreforge.gmfix import (
    MAX_SPAN_QUARTERS,
    NORMALIZED_VELOCITY,
    REGISTRY,
    InstrumentDictionary,
    PieceRejected,
    admit_piece,
    normalize,
)
from scoreforge.smf import (
    ControlChange,
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    ProgramChange,
    SetTempo,
    SmfError,
    TempoMap,
    Track,
    TrackName,
    parse_smf,
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
    conductor = [TrackName(0, "conductor"), SetTempo(0, 500000),
                 EndOfTrack(end)]
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
        tracks.append(events)
    return MidiPiece(tpq, tracks)


def plan_with(piece, tempo=(), dynamics=(), articulations=()):
    """A plan for ``apply_plan`` that leaves alone what it is not given:
    one 120 BPM tempo interval and one dynamic interval at the normalized
    velocity over the piece, and no articulations."""
    end = piece.end_tick()
    return AnnotationPlan(
        tuple(tempo) or (TempoInterval(0, end, 120.0),),
        tuple(dynamics) or (DynamicInterval(0, end, "mf", NORMALIZED_VELOCITY),),
        tuple(articulations), AnnotationParams())


class TestVelocityMarks:
    def test_boundaries(self):
        for velocity, mark in [(1, "ppp"), (15, "ppp"), (16, "pp"), (31, "pp"),
                               (32, "p"), (47, "p"), (48, "mp"), (63, "mp"),
                               (64, "mf"), (79, "mf"), (80, "f"), (95, "f"),
                               (96, "ff"), (111, "ff"), (112, "fff"),
                               (127, "fff")]:
            lo, hi = VELOCITY_RANGES[mark]
            assert lo <= velocity < hi

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
        drawn = table.sample(rng, 4000)
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
            "x,A,1,nan,long\nx,B,2,1,long\n",       # weight not a number
            "x,A,1,inf,long\nx,B,2,1,long\n",       # infinite weight
            "x,A,1,100,medium\n",                   # unknown length class
            "x,A,1,0,long\nx,B,2,0,short\n",        # all weights zero
        ]:
            path = tmp_path / "bad.csv"
            path.write_text(header + body)
            with pytest.raises(ValueError):
                load_articulation_tables(path)

    @pytest.mark.parametrize("rows, message", [
        ("x,B,60.00,1,long\n",
         "line 3: x: invalid literal for int() with base 10: '60.00'"),
        ("x,B,2,heavy,long\n",
         "line 3: x: could not convert string to float: 'heavy'"),
        ("x,A,200,1,long\n", "line 3: x: cc32 out of range: 200"),
        ("x,B,2,-1,long\n", "line 3: x: bad weight for B: -1.0"),
        ("x,B,2,1,medium\n", "line 3: x: bad length class 'medium'"),
        ("y,B,1,1,long\n\nx,C,1,1,short\n",
         "line 5: x: duplicate cc32 value 1"),
        # a check over a whole table names the instrument only
        ("y,B,1,0,long\n", "y: no positive weights"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("instrument,articulation,cc32,weight,length_class\n"
                        "x,A,1,1,long\n" + rows)
        with pytest.raises(ValueError) as info:
            load_articulation_tables(path)
        assert str(info.value) == message


class TestSeeding:
    def test_piece_seed_stable_and_distinct(self):
        assert piece_seed(0, "raw_001") == piece_seed(0, "raw_001")
        assert piece_seed(0, "raw_001") != piece_seed(0, "raw_002")
        assert piece_seed(0, "raw_001") != piece_seed(1, "raw_001")
        assert 0 <= piece_seed(12345, "x") < 2 ** 64


def grid_bounds(start, end, tpq, min_intervals, rng):
    """``_draw_bounds`` as it was, drawing the cuts from an array of every
    quarter tick strictly inside (start, end)."""
    max_n = max(min_intervals, (end - start) // tpq // INTERVAL_QUARTERS)
    grid = np.arange((start // tpq + 1) * tpq, end, tpq, dtype=np.int64)
    max_n = min(max_n, len(grid) + 1)
    n = int(rng.integers(min(min_intervals, max_n), max_n + 1))
    cuts = sorted(int(c) for c in rng.choice(grid, size=n - 1, replace=False)
                  ) if n > 1 else []
    bounds = [start] + cuts + [end]
    return list(zip(bounds[:-1], bounds[1:]))


class TestDrawBounds:
    def test_equals_the_grid_draw(self):
        """Drawing the cut indices draws the same cuts as a choice over the
        grid, and leaves the generator in the same state."""
        cases = np.random.default_rng(0)
        for _ in range(400):
            tpq = int(cases.integers(1, 1000))
            start = int(cases.integers(0, 10 * tpq))
            end = start + int(cases.integers(1, [60, 5_000, 3_000_000][_ % 3]))
            low = int(cases.integers(1, 6))
            seed = int(cases.integers(0, 2 ** 32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _draw_bounds(start, end, tpq, low, ours) \
                == grid_bounds(start, end, tpq, low, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestTempoPlanning:
    def test_tiles_quarter_grid(self):
        piece = make_piece(quarters=96)
        params = AnnotationParams()
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
        out = apply_plan(piece, plan_with(piece, tempo=intervals),
                         [None] * len(piece.tracks))
        tempos = [(ev.tick, ev.microseconds_per_quarter)
                  for ev in out.tracks[0] if isinstance(ev, SetTempo)]
        assert tempos == [(0, 600000), (8 * 480, 375000)]
        for track in out.tracks[1:]:
            assert not any(isinstance(ev, SetTempo) for ev in track)
        assert 60_000_000 / TempoMap.from_piece(out).tempo_at(9 * 480) == \
            pytest.approx(160.0)
        write_smf(out)  # ordering invariants hold


class TestDynamics:
    def test_marks_and_velocities_in_range(self):
        piece = make_piece(quarters=80)
        params = AnnotationParams()
        for seed in range(30):
            for iv in plan_dynamic_intervals(piece, TempoMap.from_piece(piece),
                                             params, np.random.default_rng(seed)):
                lo, hi = VELOCITY_RANGES[iv.mark]
                assert lo <= iv.target_velocity < hi

    def test_gradual_share_extremes(self):
        piece = make_piece(quarters=80)
        always = AnnotationParams(gradual_fraction_range=(1.0, 1.0))
        never = AnnotationParams(gradual_fraction_range=(0.0, 0.0))
        tempo_map = TempoMap.from_piece(piece)
        for seed in range(10):
            plan = plan_dynamic_intervals(piece, tempo_map, always,
                                          np.random.default_rng(seed))
            assert plan[0].transition_ticks is None  # nothing to ramp from
            assert all(iv.transition_ticks is not None for iv in plan[1:])
            plan = plan_dynamic_intervals(piece, tempo_map, never,
                                          np.random.default_rng(seed))
            assert all(iv.transition_ticks is None for iv in plan)

    def test_transition_ticks_at_known_tempo(self):
        piece = make_piece(quarters=96)  # single 500000 tempo event
        seconds = 1.5
        params = AnnotationParams(gradual_fraction_range=(1.0, 1.0),
                                  transition_duration_range=(seconds, seconds))
        tpq = piece.ticks_per_quarter
        unclipped = round(seconds * 1e6 * tpq / 500000)
        for seed in range(20):
            plan = plan_dynamic_intervals(piece, TempoMap.from_piece(piece),
                                          params, np.random.default_rng(seed))
            for prev, cur in zip(plan, plan[1:]):
                cap = min(prev.end_tick - prev.start_tick,
                          cur.end_tick - cur.start_tick) // 2
                assert cur.transition_ticks == min(unclipped, cap)

    def test_apply_abrupt(self):
        piece = make_piece(quarters=16, instruments=("violin",))
        tpq = piece.ticks_per_quarter
        intervals = [DynamicInterval(0, 8 * tpq, "pp", 20),
                     DynamicInterval(8 * tpq, 16 * tpq, "ff", 100)]
        out = apply_plan(piece, plan_with(piece, dynamics=intervals),
                         [None, None])
        for ev in out.tracks[1]:
            if isinstance(ev, NoteOn):
                assert ev.velocity == (20 if ev.tick < 8 * tpq else 100)

    def test_apply_ramp(self):
        tpq = 480
        piece = make_piece(quarters=20, tpq=tpq, instruments=("violin",))
        intervals = [DynamicInterval(0, 10 * tpq, "pp", 20),
                     DynamicInterval(10 * tpq, 20 * tpq, "ff", 100,
                                     transition_ticks=4 * tpq)]
        out = apply_plan(piece, plan_with(piece, dynamics=intervals),
                         [None, None])
        by_tick = {ev.tick: ev.velocity for ev in out.tracks[1]
                   if isinstance(ev, NoteOn)}
        assert by_tick[9 * tpq] == 20
        assert by_tick[10 * tpq] == 20            # ramp starts at previous level
        assert by_tick[11 * tpq] == 40            # quarter of the way
        assert by_tick[12 * tpq] == 60
        assert by_tick[13 * tpq] == 80
        assert by_tick[14 * tpq] == 100           # window over
        assert by_tick[19 * tpq] == 100


class TestArticulations:
    def test_plan_tiles_active_spans(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"),
                           start_quarters=[0, 8])
        params = AnnotationParams()
        plan = plan_articulations(piece, track_tables(piece, tables), params,
                                  np.random.default_rng(3))
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
            track_tables(piece, tables)
        assert info.value.instrument == "flute"

    def test_short_track_degrades_instead_of_failing(self, tables):
        piece = make_piece(quarters=2, instruments=("viola",))
        plan = plan_articulations(piece, track_tables(piece, tables),
                                  AnnotationParams(), np.random.default_rng(1))
        assert 1 <= len(plan) <= 2

    def test_apply_inserts_cc32_before_same_tick_noteons(self, tables):
        piece = make_piece(quarters=48, instruments=("violin", "viola"))
        params = AnnotationParams()
        per_track = track_tables(piece, tables)
        plan = plan_articulations(piece, per_track, params,
                                  np.random.default_rng(11))
        out = apply_plan(piece, plan_with(piece, articulations=plan), per_track)
        for index in (1, 2):
            events = out.tracks[index]
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
        end = max(off for _, off, *_ in track_notes(piece.tracks[1]))
        plan = [
            ArticulationInterval(1, 0, 16 * tpq, long_code, "Long"),
            ArticulationInterval(1, 16 * tpq, end, short_code, "Short"),
        ]
        out = apply_plan(piece, plan_with(piece, articulations=plan),
                         track_tables(piece, tables))
        events = out.tracks[1]
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

    def test_track_without_a_span_is_too_short(self, tables):
        """A track whose notes all start and end at one tick has no span
        for its articulation intervals to tile."""
        piece = make_piece(quarters=8, instruments=("violin",))
        program = REGISTRY["cello"].gm_program
        piece.tracks.append([TrackName(0, "cello"), ProgramChange(0, 1, program),
                             NoteOn(960, 1, 50, 75), NoteOff(960, 1, 50, 0),
                             EndOfTrack(8 * 480)])
        with pytest.raises(PieceTooShort, match="^track 2: every note starts "
                                                "and ends at tick 960$"):
            annotate(piece, tables, AnnotationParams(), 0)

    def test_mirror_skips_tracks_without_table(self, tables):
        piece = make_piece(quarters=16, instruments=("flute",))
        # an articulation the track could take if it had a table
        long_code = next(r.cc32 for r in tables["violin"].rows
                         if r.length_class == LENGTH_LONG)
        articulations = [ArticulationInterval(1, 0, piece.end_tick(),
                                              long_code, "Long")]
        out = apply_plan(piece, plan_with(piece, articulations=articulations),
                         [None, None])
        assert out.tracks[1] == piece.tracks[1]


class TestAnnotateChain:
    def test_deterministic_bytes(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "viola", "cello"))
        seed = piece_seed(42, "p1")
        out1, plan1 = annotate(piece, tables, AnnotationParams(), seed)
        out2, plan2 = annotate(piece, tables, AnnotationParams(), seed)
        assert write_smf(out1) == write_smf(out2)
        assert plan1 == plan2

    def test_seed_changes_output(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"))
        out1, _ = annotate(piece, tables, AnnotationParams(), 1)
        out2, _ = annotate(piece, tables, AnnotationParams(), 2)
        assert write_smf(out1) != write_smf(out2)

    def test_annotation_inventory(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"))
        out, plan = annotate(piece, tables, AnnotationParams(), 3)
        tempos = [ev for ev in out.tracks[0] if isinstance(ev, SetTempo)]
        assert len(tempos) == len(plan.tempo)
        assert [t.tick for t in tempos] == [iv.start_tick for iv in plan.tempo]
        cc32 = [ev for t in out.tracks[1:] for ev in t
                if isinstance(ev, ControlChange) and ev.controller == 32]
        assert len(cc32) == len(plan.articulations)
        velocities = {ev.velocity for t in out.tracks for ev in t
                      if isinstance(ev, NoteOn)}
        assert len(velocities) > 1  # flat 75 baseline must be gone

    def test_plan_json_round_trip(self, tables):
        piece = make_piece(quarters=48, instruments=("violin", "contrabass"))
        _, plan = annotate(piece, tables, AnnotationParams(), 17)
        data = json.loads(json.dumps(asdict(plan)))
        assert from_dict(AnnotationPlan, data) == plan

    def test_params_round_trip_and_validation(self):
        params = AnnotationParams(tempo_mean=90.0)
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
        out, plan = annotate(piece, tables, AnnotationParams(), 8)
        assert plan.tempo and plan.dynamics and plan.articulations
        write_smf(out)

    def test_track_matched_by_name_gets_cc1(self, tables):
        """A track whose program maps to no instrument takes its table by
        its name, for CC#1 as for CC#32: it gets its twin's events."""
        by_program = make_piece(quarters=64, instruments=("violin", "cello"))
        by_name = make_piece(quarters=64, instruments=("violin", "cello"))
        # program 0 (piano) maps to no instrument; the track is named "cello"
        by_name.tracks[2][:] = [
            ProgramChange(0, ev.channel, 0) if isinstance(ev, ProgramChange)
            else ev for ev in by_name.tracks[2]]

        def controllers(piece, number):
            out, _ = annotate(piece, tables, AnnotationParams(), 9)
            return [ev for ev in out.tracks[2]
                    if isinstance(ev, ControlChange) and ev.controller == number]

        assert controllers(by_name, 32) == controllers(by_program, 32)
        assert controllers(by_name, 1) == controllers(by_program, 1) != []


def grace_note_piece():
    """Two tracks, violin first: track 0 carries the tempo and a zero-length
    grace note of pitch 80 at tick 2400, which shares its tick with a
    quarter note; a later note of pitch 80 sounds over [4800, 5200)."""
    tpq = 480
    piece = make_piece(quarters=16, tpq=tpq, instruments=("violin", "cello"))
    _, violin, cello = piece.tracks
    extra = [NoteOn(2400, 0, 80, 75), NoteOff(2400, 0, 80, 0),
             NoteOn(4800, 0, 80, 75), NoteOff(5200, 0, 80, 0)]
    events = sorted(violin[:2] + [SetTempo(0, 500000)]
                    + violin[2:] + extra, key=lambda ev: ev.tick)
    return MidiPiece(tpq, [events, cello])


def notes_without_velocity(piece):
    return [sorted(note[:4] for note in track_notes(track))
            for track in piece.tracks]


def without_inserts(events):
    """The events annotate neither adds nor replaces, velocities zeroed:
    it rewrites every SetTempo and adds CC#32 and CC#1."""
    return [ev._replace(velocity=0) if isinstance(ev, NoteOn) else ev
            for ev in events
            if not isinstance(ev, SetTempo)
            and not (isinstance(ev, ControlChange) and ev.controller in (1, 32))]


@st.composite
def note_track_pieces(draw):
    """Normalized string pieces, notes in track 0: each track has a note of
    positive length, and zero-length notes and controllers that may share
    a tick with a note-on, in any order within a tick."""
    tpq = 96
    end = draw(st.integers(3, 12)) * tpq
    names = draw(st.lists(st.sampled_from(STRINGS), min_size=1, max_size=3))
    tracks = []
    for channel, name in enumerate(names):
        tick = st.integers(0, end - 1)
        pitch = st.integers(40, 90)
        body = [NoteOn(0, channel, 60, 75), NoteOff(tpq, channel, 60, 0)]
        for on, length, p in draw(st.lists(
                st.tuples(tick, st.sampled_from([0, 0, 1, tpq]), pitch),
                max_size=8)):
            off = min(on + length, end)
            body += [NoteOn(on, channel, p, 75), NoteOff(off, channel, p, 0)]
        for at, controller in draw(st.lists(
                st.tuples(tick, st.sampled_from([7, 10, 64])), max_size=4)):
            body.append(ControlChange(at, channel, controller, 64))
        # a random order within each tick
        keys = draw(st.lists(st.integers(0, 3), min_size=len(body),
                             max_size=len(body)))
        order = sorted(range(len(body)), key=lambda i: (body[i].tick, keys[i], i))
        body = [body[i] for i in order]
        program = REGISTRY[name].gm_program
        tracks.append([TrackName(0, name),
                       ProgramChange(0, channel, program)]
                      + body + [EndOfTrack(end)])
    return normalize(MidiPiece(tpq, tracks))


@pytest.fixture(scope="module")
def normalized_strings(strings_corpus_bytes):
    return [normalize(admit_piece(parse_smf(blob),
                                  InstrumentDictionary.default())[0])
            for blob in strings_corpus_bytes]


def assert_tiles(intervals, start, end):
    """``intervals`` cover [start, end), each non-empty and each starting
    where the one before ended."""
    ticks = [start] + [iv.end_tick for iv in intervals]
    assert [iv.start_tick for iv in intervals] == ticks[:-1]
    assert ticks[-1] == end
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


class TestPlanTiles:
    """The plan annotate returns tiles its spans, which apply_plan relies
    on: tempo and dynamics each tile the piece, and each track with a table
    has articulation intervals that tile its note span."""

    def check(self, tables, piece, seed):
        _, plan = annotate(piece, tables, AnnotationParams(), seed)
        assert_tiles(plan.tempo, 0, piece.end_tick())
        assert_tiles(plan.dynamics, 0, piece.end_tick())
        for index, (track, table) in enumerate(
                zip(piece.tracks, track_tables(piece, tables))):
            drawn = [iv for iv in plan.articulations if iv.track_index == index]
            if table is None:
                assert drawn == []
                continue
            notes = track_notes(track)
            assert_tiles(drawn, min(n[0] for n in notes),
                         max(n[1] for n in notes))

    @settings(max_examples=150, deadline=None)
    @given(piece=note_track_pieces(), seed=st.integers(0, 2**64 - 1))
    def test_note_track_pieces(self, tables, piece, seed):
        self.check(tables, piece, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_strings_corpus(self, tables, normalized_strings, data):
        self.check(tables, data.draw(st.sampled_from(normalized_strings)),
                   data.draw(st.integers(0, 2**64 - 1)))


class TestEventOrderKept:
    """annotate adds tempo, CC#32 and CC#1 events and changes note-on
    velocities; it never moves a track's own events."""

    def test_apply_tempo_keeps_a_grace_note(self):
        piece = grace_note_piece()
        assert (2400, 2400, 0, 80) in notes_without_velocity(piece)[0]
        tempo = [TempoInterval(0, 2400, 100.0),
                 TempoInterval(2400, 16 * 480, 160.0)]
        out = apply_plan(piece, plan_with(piece, tempo=tempo), [None, None])
        assert notes_without_velocity(out) == notes_without_velocity(piece)
        write_smf(out)

    def test_inserts_at_a_shared_tick(self, tables):
        """Where a tempo interval and a long articulation interval start at
        a note-on of track 0, the events at that tick read: the track's own
        non-note event, the tempo, the CC#32, the CC#1, the note-on."""
        tpq = 480
        _, violin, cello = make_piece(quarters=16, tpq=tpq).tracks
        tick = 8 * tpq
        note_on = next(ev for ev in violin
                       if isinstance(ev, NoteOn) and ev.tick == tick)
        violin.insert(violin.index(note_on), ControlChange(tick, 0, 7, 100))
        piece = MidiPiece(tpq, [violin, cello])
        rows = tables["violin"].rows
        long_code = next(r.cc32 for r in rows if r.length_class == LENGTH_LONG)
        short_code = next(r.cc32 for r in rows if r.length_class == LENGTH_SHORT)
        last = max(off for _, off, *_ in track_notes(violin))
        plan = plan_with(
            piece,
            tempo=[TempoInterval(0, tick, 100.0),
                   TempoInterval(tick, piece.end_tick(), 160.0)],
            articulations=[ArticulationInterval(0, 0, tick, short_code, "Short"),
                           ArticulationInterval(0, tick, last, long_code, "Long")])
        out = apply_plan(piece, plan, track_tables(piece, tables))
        assert [ev for ev in out.tracks[0] if ev.tick == tick] == [
            ControlChange(tick, 0, 7, 100),
            SetTempo(tick, 375000),
            ControlChange(tick, 0, 32, long_code),
            ControlChange(tick, 0, 1, NORMALIZED_VELOCITY),
            note_on,
        ]
        write_smf(out)

    def test_annotate_keeps_a_grace_note(self, tables):
        piece = grace_note_piece()
        out, _ = annotate(piece, tables, AnnotationParams(), 4)
        assert notes_without_velocity(out) == notes_without_velocity(piece)
        write_smf(out)

    @settings(max_examples=150, deadline=None)
    @given(piece=note_track_pieces(), seed=st.integers(0, 2**32))
    @example(piece=normalize(grace_note_piece()), seed=4)
    def test_annotate_only_adds_and_revalues(self, tables, piece, seed):
        out, _ = annotate(piece, tables, AnnotationParams(), seed)
        assert [without_inserts(t) for t in out.tracks] == \
            [without_inserts(t) for t in piece.tracks]
        write_smf(out)


# The most intervals one draw makes: _draw_bounds makes at most
# max(min_intervals, quarters // INTERVAL_QUARTERS), and admit_piece bounds
# a piece's quarters by MAX_SPAN_QUARTERS.
MAX_DRAWN_INTERVALS = max(AnnotationParams().min_tempo_intervals,
                          MAX_SPAN_QUARTERS // INTERVAL_QUARTERS)
# What annotate adds to a written normalized piece. An inserted event
# costs its own bytes plus at most a 4-byte delta time: 10 for a tempo, 7
# for a CC#32. annotate replaces the one tempo with at most
# MAX_DRAWN_INTERVALS and adds at most MAX_DRAWN_INTERVALS CC#32 to each
# note-bearing track, which takes at least 19 bytes (chunk header, program
# change, note-on, end-of-track). It adds at most one CC#1 per note-on, just
# before it at its tick: 4 bytes more per note-on, which takes at least 4.
# It changes no event's size.
ANNOTATED_BYTES_PER_BYTE = 2 + Fraction(7 * MAX_DRAWN_INTERVALS, 19)
ANNOTATED_BYTES_MORE = 10 * MAX_DRAWN_INTERVALS


class TestAnnotatedSize:
    """No small input makes a large output: annotate's written bytes are
    at most ANNOTATED_BYTES_PER_BYTE times the normalized piece's, plus
    ANNOTATED_BYTES_MORE, whatever its delta times say."""

    def test_bound(self):
        assert MAX_DRAWN_INTERVALS == 4057
        assert (ANNOTATED_BYTES_PER_BYTE, ANNOTATED_BYTES_MORE) \
            == (Fraction(28437, 19), 40570)  # about 1496.7, and 40 KB

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_longest_admitted_span(self, tables, seed):
        """The span that draws the most intervals: one note a track across
        MAX_SPAN_QUARTERS quarter notes."""
        tpq = 96
        end = MAX_SPAN_QUARTERS * tpq
        piece = MidiPiece(tpq, [[EndOfTrack(end)]] + [
            [TrackName(0, name), NoteOn(0, channel, 60, 75),
             NoteOff(end, channel, 60, 0), EndOfTrack(end)]
            for channel, name in enumerate(["Violin I", "Cello"])])
        fixed, _ = admit_piece(piece, InstrumentDictionary.default())
        normalized = normalize(fixed)
        annotated, plan = annotate(normalized, tables, AnnotationParams(),
                                   seed)
        assert 3 <= len(plan.tempo) <= MAX_DRAWN_INTERVALS
        size = len(write_smf(normalized))
        assert len(write_smf(annotated)) \
            <= ANNOTATED_BYTES_PER_BYTE * size + ANNOTATED_BYTES_MORE

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_strings_files(self, tables, strings_corpus_bytes, data):
        blob = data.draw(mutations(strings_corpus_bytes, midi=True))
        try:
            fixed, _ = admit_piece(parse_smf(blob),
                                   InstrumentDictionary.default())
        except (SmfError, PieceRejected):
            return
        normalized = normalize(fixed)
        try:
            annotated, plan = annotate(normalized, tables, AnnotationParams(),
                                       1)
        except ExpressiveError:
            return
        # the count the bound rests on: no draw makes more intervals
        draws = Counter(iv.track_index for iv in plan.articulations)
        assert max(len(plan.tempo), len(plan.dynamics), *draws.values()) \
            <= MAX_DRAWN_INTERVALS
        size = len(write_smf(normalized))
        assert len(write_smf(annotated)) \
            <= ANNOTATED_BYTES_PER_BYTE * size + ANNOTATED_BYTES_MORE


class TestAnnotateFailureOrder:
    """annotate checks the span, then table coverage, before any draw."""

    @pytest.fixture
    def no_planning(self, monkeypatch):
        import scoreforge.expressive as expressive

        def planned(*args, **kwargs):
            raise AssertionError("planned before the checks")

        for name in ("plan_tempo_intervals", "plan_dynamic_intervals",
                     "apply_plan"):
            monkeypatch.setattr(expressive, name, planned)

    def test_too_short_wins_over_uncovered(self, tables, no_planning):
        piece = make_piece(quarters=2, instruments=("flute", "violin"))
        with pytest.raises(PieceTooShort):
            annotate(piece, tables, AnnotationParams(), 0)

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
            annotate(piece, tables, AnnotationParams(), 4)
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
        track[:] = [TrackName(0, name) if isinstance(ev, TrackName) else
                    ProgramChange(0, ev.channel, 0)
                    if isinstance(ev, ProgramChange) else ev
                    for ev in track]
        with pytest.raises(MissingTable) as info:
            annotate(piece, tables, AnnotationParams(), 0)
        assert info.value.instrument == reported

    def test_plan_articulations_names_the_same_track(self, tables):
        piece = make_piece(quarters=16, instruments=("violin", "oboe", "flute"))
        with pytest.raises(MissingTable) as info:
            track_tables(piece, tables)
        assert info.value.instrument == "oboe"

    def test_conductor_ending_early_stays_writable(self, tables):
        piece = make_piece(quarters=64, instruments=("violin", "cello"))
        conductor = piece.tracks[0]
        conductor[:] = [ev if not isinstance(ev, EndOfTrack) else EndOfTrack(0)
                        for ev in conductor]
        out, plan = annotate(piece, tables, AnnotationParams(), 5)
        events = out.tracks[0]
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
        {"min_tempo_intervals": None},
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
        _, plan = annotate(piece, tables, AnnotationParams(), 17)
        data = asdict(plan)  # the sidecar's top-level seed is its one seed
        assert "seed" not in data and "seed" not in data["params"]
        assert from_dict(AnnotationPlan, data) == plan
