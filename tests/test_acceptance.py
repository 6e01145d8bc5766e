"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS/FAIL line (run with `pytest -s` to see them all)
and enforces a wall-clock budget alongside its numeric tolerances.
"""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import cycle

import numpy as np
import pytest
from scipy import stats

from scoreforge.audio import Waveform, read_wav
from scoreforge.cli import run_command
from scoreforge.datasetkit import (
    activity_time,
    instrument_intervals,
    polyphony_histogram,
    stratified_split,
)
from scoreforge.evalkit import SdrParameters, frame_sdr
from scoreforge.expressive import (
    DYNAMIC_MARKS,
    VELOCITY_RANGES,
    AnnotationParams,
    load_articulation_tables,
    plan_tempo_intervals,
)
from scoreforge.gmfix import REGISTRY, normalize
from scoreforge.smf import (
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    ProgramChange,
    SetTempo,
    TrackName,
    parse_smf,
    write_smf,
)


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{label}: took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"PASS {label} ({elapsed:.2f}s)")


# Published dynamics table, restated independently of the package constants.
DYNAMICS_TABLE = [
    ("ppp", 1, 16), ("pp", 16, 32), ("p", 32, 48), ("mp", 48, 64),
    ("mf", 64, 80), ("f", 80, 96), ("ff", 96, 112), ("fff", 112, 128),
]


def test_velocity_mark_table():
    with criterion("dynamic-mark mapping matches the published table", 1.0):
        assert [(mark, *VELOCITY_RANGES[mark])
                for mark in DYNAMIC_MARKS] == DYNAMICS_TABLE


def test_articulation_draw_frequencies():
    with criterion("articulation frequencies track table weights", 10.0):
        tables = load_articulation_tables()
        assert set(tables) == {"violin", "viola", "cello", "contrabass"}
        legato = next(r for r in tables["violin"].rows
                      if r.articulation == "Legato")
        assert legato.weight == pytest.approx(60.00)
        rng = np.random.default_rng(2024)
        n = 100_000
        for name in sorted(tables):
            table = tables[name]
            counts = Counter(row.cc32 for row in table.sample(rng, n))
            observed = np.array([counts.get(r.cc32, 0) for r in table.rows])
            for row, prob, got in zip(table.rows, table.probabilities, observed):
                assert abs(got / n - prob) <= 0.005, (name, row.articulation)
            result = stats.chisquare(observed, f_exp=table.probabilities * n)
            assert result.pvalue >= 0.01, (name, result.pvalue)


def test_normalization_contract(raw_corpus_files):
    with criterion("normalization: velocity 75, one 120 BPM tempo, idempotent",
                   1.0 * len(raw_corpus_files)):
        for path in raw_corpus_files:
            piece = normalize(parse_smf(path.read_bytes()))
            velocities = {ev.velocity for t in piece.tracks for ev in t
                          if isinstance(ev, NoteOn)}
            assert velocities <= {75}, path.name
            tempos = [ev for t in piece.tracks for ev in t
                      if isinstance(ev, SetTempo)]
            assert tempos == [SetTempo(0, 500000)], path.name
            once = write_smf(piece)
            twice = write_smf(normalize(parse_smf(once)))
            assert once == twice, path.name


def _steady_piece(quarters: int, tpq: int = 480) -> MidiPiece:
    conductor = [TrackName(0, "conductor"),
                 EndOfTrack(quarters * tpq)]
    events = [TrackName(0, "Violin"), ProgramChange(0, 0, 40)]
    for q in range(quarters):
        events.append(NoteOn(q * tpq, 0, 60 + q % 12, 75))
        events.append(NoteOff(q * tpq + tpq - 60, 0, 60 + q % 12, 0))
    events.append(EndOfTrack(quarters * tpq))
    return MidiPiece(ticks_per_quarter=tpq, tracks=[conductor, events],
                     format=1)


def test_tempo_interval_statistics():
    with criterion("interval tempi: mean 120 +/- 1.5, clamped-normal oracle", 10.0):
        piece = _steady_piece(quarters=800)
        params = AnnotationParams()
        bpms: list[float] = []
        seed = 0
        while len(bpms) < 10_000:
            rng = np.random.default_rng(seed)
            intervals = plan_tempo_intervals(piece, params, rng)
            assert len(intervals) >= 3
            bpms.extend(iv.bpm for iv in intervals)
            seed += 1
        sample = np.array(bpms)
        assert abs(sample.mean() - 120.0) <= 1.5
        oracle_rng = np.random.default_rng(987654321)
        oracle = np.clip(oracle_rng.normal(120.0, 30.0, 2_000_000), 40.0, 208.0)
        assert abs(sample.mean() - oracle.mean()) <= 0.02 * oracle.mean()
        assert abs(sample.std() - oracle.std()) <= 0.02 * oracle.std()


def test_midi_round_trip(raw_corpus_files):
    with criterion("file round-trip: semantics preserved, bytes idempotent", 30.0):
        assert len(raw_corpus_files) >= 50
        for path in raw_corpus_files:
            piece = parse_smf(path.read_bytes())
            first = write_smf(piece)
            reparsed = parse_smf(first)
            assert reparsed == piece, path.name
            assert write_smf(reparsed) == first, path.name


def test_sdr_closed_form():
    with criterion("frame SDR matches closed-form values on sines", 5.0):
        sr = 22050
        t = np.arange(3 * sr) / sr
        ref = Waveform(0.5 * np.sin(2 * np.pi * 441.0 * t), sr)
        noise = 0.05 * np.sin(2 * np.pi * 882.0 * t)

        def estimate(samples):
            return Waveform(samples, sr)

        assert frame_sdr(ref, estimate(ref.samples.copy())) == [100.0] * 3
        for value in frame_sdr(ref, estimate(0.5 * ref.samples)):
            assert value == pytest.approx(10 * math.log10(4), abs=0.01)
        for value in frame_sdr(ref, estimate(ref.samples + noise)):
            assert value == pytest.approx(20.0, abs=0.5)

        scalar = SdrParameters(projection="scalar")
        base = frame_sdr(ref, estimate(ref.samples + noise), scalar)
        for beta in (1e-3, 0.25, 4.0, 1e3):
            scaled = frame_sdr(ref, estimate(beta * (ref.samples + noise)),
                               scalar)
            drift = max(abs(a - b) for a, b in zip(base, scaled))
            assert drift <= 1e-6


def test_mixture_additivity_end_to_end(strings_corpus_dir, tmp_path):
    with criterion("stems sum bit-exactly to mixture; self-eval is finite", 60.0):
        stages = tmp_path / "stages"
        fixed, norm, ann = (stages / n for n in ("fixed", "norm", "ann"))
        audio, report_dir = stages / "audio", stages / "eval"
        assert run_command(["fix", str(strings_corpus_dir), "--out", str(fixed),
                            "--strict"]) == 0
        assert run_command(["normalize", str(fixed), "--out", str(norm),
                            "--strict"]) == 0
        assert run_command(["annotate", str(norm), "--out", str(ann),
                            "--seed", "11", "--strict"]) == 0
        assert run_command(["synth-test", str(ann), "--out", str(audio),
                            "--strict"]) == 0
        piece_dirs = sorted(p for p in audio.iterdir() if p.is_dir())
        assert len(piece_dirs) == 10
        for piece_dir in piece_dirs:
            stems = [read_wav(p).samples for p in sorted(piece_dir.glob("*.wav"))
                     if p.stem != "mixture"]
            assert len(stems) >= 2
            mixture = read_wav(piece_dir / "mixture.wav").samples
            total = np.zeros_like(mixture)
            for stem in stems:
                total[:len(stem)] += stem
            assert np.array_equal(total.astype(np.float32),
                                  mixture.astype(np.float32)), piece_dir.name

        assert run_command(["eval", str(audio), "--out", str(report_dir),
                            "--strict"]) == 0
        report = json.loads((report_dir / "eval_report.json").read_text())
        medians = report["corpus_medians"]
        assert medians and set(medians) <= {"violin", "viola", "cello",
                                            "contrabass"}
        assert all(isinstance(v, float) and math.isfinite(v)
                   for v in medians.values())


SPLIT_RATIOS = (Fraction(7, 10), Fraction(1, 10), Fraction(2, 10))
SPLIT_ORDER = ("train", "eval", "test")


def _split_deviation(label_sets, assignment) -> Fraction:
    labels = sorted({label for labels in label_sets.values() for label in labels})
    worst = Fraction(0)
    for label in labels:
        members = [p for p, labels_ in label_sets.items() if label in labels_]
        for name, ratio in zip(SPLIT_ORDER, SPLIT_RATIOS):
            got = Fraction(sum(1 for p in members if assignment[p] == name),
                           len(members))
            worst = max(worst, abs(got - ratio))
    return worst


def _monte_carlo_best(label_sets, trials: int = 10_000) -> Fraction:
    """Smallest max proportion deviation over random fixed-size partitions."""
    pieces = sorted(label_sets)
    labels = sorted({label for labels in label_sets.values() for label in labels})
    n = len(pieces)
    sizes = (round(0.7 * n), round(0.1 * n), n - round(0.7 * n) - round(0.1 * n))
    membership = np.array([[label in label_sets[p] for label in labels]
                           for p in pieces], dtype=np.int64)
    totals = membership.sum(axis=0)
    split_of_position = np.repeat(np.arange(3), sizes)
    rng = np.random.default_rng(424242)
    keys = rng.random((trials, n))
    ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
    split = split_of_position[ranks]
    onehot = (split[..., None] == np.arange(3)).astype(np.int64)
    counts = np.einsum("tns,nl->tsl", onehot, membership)
    ratios = np.array([0.7, 0.1, 0.2])
    rough = np.abs(counts / totals[None, None, :] - ratios[:, None]).max(axis=(1, 2))
    best = Fraction(1)
    for t in np.argsort(rough)[:50]:  # exact re-check of the front-runners
        worst = max(abs(Fraction(int(counts[t, s, l]), int(totals[l]))
                        - SPLIT_RATIOS[s])
                    for s in range(3) for l in range(len(labels)))
        best = min(best, worst)
    return best


def test_stratified_split_vs_monte_carlo():
    with criterion("split balance beats 10k random partitions; 7/1/2 splits",
                   30.0):
        label_sets = {}
        for i in range(10):
            label_sets[f"tutti_{i:02d}"] = {"violin", "viola", "cello",
                                            "contrabass"}
        for i in range(10):
            label_sets[f"duo_{i:02d}"] = {"violin", "cello"}
        for i in range(10):
            label_sets[f"solo_{i:02d}"] = {"violin"}
        result = stratified_split(label_sets, (0.7, 0.1, 0.2),
                                  np.random.default_rng(42))
        achieved = _split_deviation(label_sets, result.assignment)
        assert achieved <= _monte_carlo_best(label_sets)

        single = {f"p{i}": {"violin"} for i in range(10)}
        sizes = {name: len(stratified_split(single, rng=np.random.default_rng(1)
                                            ).split(name))
                 for name in SPLIT_ORDER}
        assert sizes == {"train": 7, "eval": 1, "test": 2}


def test_polyphony_activity_identity(raw_corpus_files):
    with criterion("polyphony and activity totals agree exactly", 10.0):
        # a program names every instrument but untuned percussion
        programs = [iid.gm_program for iid in sorted(
            REGISTRY.values(), key=lambda i: i.name)
            if iid.name != "untuned_percussion"]
        for path in raw_corpus_files:
            piece = parse_smf(path.read_bytes())
            # each track takes the next program in turn, which is what
            # instrument_intervals reads its instrument from
            piece = replace(piece, tracks=[
                [ProgramChange(0, 0, program)] + [
                    ev for ev in track if not isinstance(ev, ProgramChange)]
                for track, program in zip(piece.tracks, cycle(programs))])
            intervals, _ = instrument_intervals(piece)
            activity = activity_time(intervals)
            histogram = polyphony_histogram(intervals)
            weighted = sum((level * seconds for level, seconds
                            in histogram.items()), Fraction(0))
            assert weighted == sum(activity.values(), Fraction(0)), path.name


def test_pipeline_reproducibility(strings_corpus_dir, tmp_path):
    with criterion("pipeline is byte-identical across reruns and job counts",
                   300.0):
        trees = {}
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / name
            assert run_command(["pipeline", str(strings_corpus_dir), "--out",
                                str(out), "--seed", "5", "--jobs", jobs]) == 0
            trees[name] = {p.relative_to(out): p.read_bytes()
                           for p in sorted(out.rglob("*")) if p.is_file()}
        assert trees["a"] == trees["b"]
        assert trees["a"] == trees["c"]
