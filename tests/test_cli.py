"""Command-line stages: exit codes, reports, determinism, failure isolation."""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scoreforge.smf
from scoreforge.cli import ConfigError, PipelineConfig, run_command
from scoreforge.expressive import (
    DYNAMIC_MARKS,
    AnnotationParams,
    AnnotationPlan,
    ArticulationInterval,
    DynamicInterval,
    TempoInterval,
    annotate,
    from_dict,
    load_articulation_tables,
    plan_from_dict,
    plan_to_dict,
)
from scoreforge.gmfix import (
    NORMALIZED_VELOCITY,
    REGISTRY,
    InstrumentDictionary,
    UnknownInstrument,
    fix_piece,
    normalize,
)
from scoreforge.smf import NoteOn, SetTempo, parse_smf, write_smf


STAGE_DIRS = {"fix": "10_fixed", "normalize": "20_normalized",
              "annotate": "30_annotated", "stats": "40_stats",
              "split": "50_split", "manifest": "60_manifests"}


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline_out(strings_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    rc = run_command(["pipeline", str(strings_corpus_dir), "--out", str(out),
                      "--seed", "7", "--jobs", "2"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fixed_raw(raw_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fixed_raw")
    rc = run_command(["fix", str(raw_corpus_dir), "--out", str(out)])
    assert rc == 0
    return out


README = Path(__file__).resolve().parent.parent / "README.md"

# ints stand where floats are declared too: the codec keeps them as given
positive = st.integers(1, 10**6) | st.floats(1e-6, 1e6)
non_negative = st.integers(0, 10**6) | st.floats(0.0, 1e6)
number = st.integers(-10**6, 10**6) | st.floats(allow_nan=False,
                                                 allow_infinity=False)
ticks = st.integers(0, 2**31)


def ordered_pair(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted).map(tuple)


annotation_params = st.builds(
    AnnotationParams, tempo_mean=positive, tempo_std=non_negative,
    tempo_clamp=ordered_pair(positive), min_tempo_intervals=st.integers(3, 10**6),
    gradual_fraction_range=ordered_pair(st.sampled_from([0, 1]) | st.floats(0, 1)),
    transition_duration_range=ordered_pair(non_negative),
    seed=st.integers(0, 2**64 - 1))
annotation_plans = st.builds(
    AnnotationPlan,
    tempo=st.lists(st.builds(TempoInterval, ticks, ticks, positive)).map(tuple),
    dynamics=st.lists(st.builds(
        DynamicInterval, ticks, ticks, st.sampled_from(DYNAMIC_MARKS),
        st.integers(1, 127), st.none() | ticks)).map(tuple),
    articulations=st.lists(st.builds(
        ArticulationInterval, st.integers(0, 64), ticks, ticks,
        st.integers(1, 127), st.text())).map(tuple),
    params=annotation_params)
pipeline_configs = st.builds(
    PipelineConfig, master_seed=st.integers(0, 2**64), corpus_dir=st.text(),
    output_dir=st.text(), dictionary=st.none() | st.text(),
    articulation_tables=st.none() | st.text(), annotation=annotation_params,
    split_ratios=st.lists(number).map(tuple), annotate_mode=st.text(),
    sample_rate=st.integers(), frame_len_s=number,
    silence_threshold_dbfs=number, projection=st.text())

# a value of the wrong JSON type for every PipelineConfig field
WRONG_TYPED = {
    "master_seed": "abc", "corpus_dir": 3, "output_dir": None,
    "dictionary": 1.5, "articulation_tables": ["tables.csv"],
    "annotation": "fast", "split_ratios": "0.7,0.1,0.2",
    "annotate_mode": None, "sample_rate": "x", "frame_len_s": "1",
    "silence_threshold_dbfs": True, "projection": 0,
}


def json_round_trip(record):
    return json.loads(json.dumps(asdict(record)))


class TestConfig:
    @given(annotation_params)
    def test_params_json_round_trip(self, params):
        assert from_dict(AnnotationParams, json_round_trip(params)) == params

    @given(annotation_plans)
    def test_plan_json_round_trip(self, plan):
        assert from_dict(AnnotationPlan, json_round_trip(plan)) == plan
        assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan

    @given(pipeline_configs)
    def test_config_json_round_trip(self, config):
        assert from_dict(PipelineConfig, json_round_trip(config)) == config

    @pytest.mark.parametrize("key", sorted(WRONG_TYPED))
    def test_wrong_typed_field_is_config_error(self, key):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({key: WRONG_TYPED[key]})

    def test_every_field_has_a_wrong_typed_case(self):
        assert set(WRONG_TYPED) == {f.name for f in fields(PipelineConfig)}

    @pytest.mark.parametrize("raw", [
        {"master_seed": True}, {"master_seed": 1.0}, {"master_seed": -1},
        {"sample_rate": 0}, {"sample_rate": 22050.0}, {"frame_len_s": 0},
        {"frame_len_s": -1.0}, {"split_ratios": [0.5, 0.5]},
        {"split_ratios": [0.7, 0.1, "0.2"]}, {"split_ratios": [0.5, 0.5, 0.5]},
        {"split_ratios": [float("inf"), 0, 0]}, {"split_ratios": [float("nan"), 0, 1]},
        {"annotation": {"tempo_mean": "fast"}}, {"annotation": {"tempo_clamp": [40.0]}},
        {"annotation": {"seed": None}}, {"annotation": [120.0]},
    ])
    def test_bad_values_are_config_errors(self, raw):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)

    def test_ints_for_floats_written_as_given(self, strings_corpus_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"frame_len_s": 1, "split_ratios": [1, 0, 0],
                                      "annotation": {"tempo_mean": 100}}))
        out = tmp_path / "out"
        assert run_command(["stats", str(strings_corpus_dir), "--out", str(out),
                            "--config", str(config)]) == 0
        written = json.loads((out / "provenance.json").read_text())["config"]
        assert written["frame_len_s"] == 1 and type(written["frame_len_s"]) is int
        assert written["split_ratios"] == [1, 0, 0]
        assert type(written["annotation"]["tempo_mean"]) is int

    def test_readme_shows_the_defaults(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == json_round_trip(PipelineConfig())

    def test_defaults_and_round_trip(self):
        config = PipelineConfig()
        again = PipelineConfig.from_dict(asdict(config))
        assert again == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"master_sede": 3})

    def test_nested_annotation_params(self):
        config = PipelineConfig.from_dict(
            {"annotation": {"tempo_mean": 90.0, "seed": 4}})
        assert config.annotation.tempo_mean == 90.0
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"annotation": {"tempo_mean": -5.0}})

    def test_mode_fields_validated(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"annotate_mode": "fancy"})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"projection": "vector"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 99}))
        assert PipelineConfig.from_file(path).master_seed == 99
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(bad)


class TestConfigErrorsExitBeforeOutput:
    """A bad config value or config file exits 2 before any stage runs, so
    no output directory is created."""

    def run(self, tmp_path, argv, config=None):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"master_seed": "abc"}, {"sample_rate": "x"},
        {"split_ratios": [0.5, 0.5]}, {"annotation": {"tempo_clamp": [40.0]}},
    ])
    def test_pipeline_config(self, strings_corpus_dir, tmp_path, config):
        self.run(tmp_path, ["pipeline", str(strings_corpus_dir)], config)

    def test_config_not_an_object(self, strings_corpus_dir, tmp_path):
        self.run(tmp_path, ["pipeline", str(strings_corpus_dir)], [1, 2])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_dictionary(self, strings_corpus_dir, tmp_path, jobs):
        self.run(tmp_path, ["fix", str(strings_corpus_dir), "--jobs", jobs,
                            "--dictionary", str(tmp_path / "missing.csv")])

    def test_bad_dictionary_row(self, strings_corpus_dir, tmp_path):
        names = tmp_path / "names.csv"
        names.write_text("name,instrument\nViolin I,fiddle\n")
        self.run(tmp_path, ["pipeline", str(strings_corpus_dir)],
                 {"dictionary": str(names)})

    def test_tables_out_of_range(self, pipeline_out, tmp_path):
        tables = tmp_path / "tables.csv"
        tables.write_text("instrument,articulation,cc32,weight,length_class\n"
                          "violin,legato,200,1.0,long\n")
        normalized = str(pipeline_out / "20_normalized")
        self.run(tmp_path, ["annotate", normalized, "--tables", str(tables)])
        # plain mode reads no tables
        assert run_command(["annotate", normalized, "--mode", "plain",
                            "--tables", str(tables),
                            "--out", str(tmp_path / "plain")]) == 0

    @pytest.mark.parametrize("ratios", ["0.7,0.1,x", "inf,0,0", "0.5,0.5"])
    def test_split_ratios_flag(self, pipeline_out, tmp_path, ratios):
        self.run(tmp_path, ["split", str(pipeline_out / "30_annotated"),
                            "--ratios", ratios])

    def test_sample_rate_zero(self, pipeline_out, tmp_path):
        self.run(tmp_path, ["synth-test", str(pipeline_out / "30_annotated"),
                            "--sample-rate", "0"])

    @pytest.mark.parametrize("command", ["synth-test", "eval"])
    @pytest.mark.parametrize("make_input", [False, True])
    def test_audio_commands_on_missing_or_empty_input(self, tmp_path, command,
                                                      make_input):
        source = tmp_path / "input"
        if make_input:
            source.mkdir()
        self.run(tmp_path, [command, str(source)])

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_manifest_plans_not_a_directory(self, pipeline_out, tmp_path, capsys,
                                            kind):
        plans = tmp_path / "plans"
        if kind == "file":
            plans.write_text("")
        self.run(tmp_path, ["manifest", str(pipeline_out / "30_annotated"),
                            "--plans", str(plans)])
        assert f"--plans is not a directory: {plans}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_eval_estimates_not_a_directory(self, audio_tree, tmp_path, capsys,
                                            kind):
        estimates = tmp_path / "estimates"
        if kind == "file":
            estimates.write_text("")
        self.run(tmp_path, ["eval", str(audio_tree), "--estimates",
                            str(estimates)])
        assert f"--estimates is not a directory: {estimates}" in \
            capsys.readouterr().err


class TestFixCommand:
    def test_report_and_outputs(self, fixed_raw, raw_corpus_files):
        report = json.loads((fixed_raw / "fix_report.json").read_text())
        kept = set(report["kept"])
        rejected = set(report["rejected"])
        dropped = {d["dropped"] for d in report["duplicates"]}
        assert kept | rejected | dropped == {p.stem for p in raw_corpus_files}
        assert not kept & rejected
        pairs = {(d["kept"], d["dropped"]) for d in report["duplicates"]}
        assert pairs == {(f"raw_{i:03d}", f"raw_{i:03d}_dup") for i in (7, 21, 33)}
        assert {p.stem for p in fixed_raw.glob("*.mid")} == kept
        for instruments in report["kept"].values():
            assert len(instruments) >= 2  # monotimbral pieces filtered out

    def test_rejections_explained(self, fixed_raw):
        report = json.loads((fixed_raw / "fix_report.json").read_text())
        reasons = " ".join(report["rejected"].values())
        assert "no instrument mapping" in reasons
        assert "monotimbral" in reasons
        for index in (4, 13, 22, 31, 40, 49):  # the planted unknown names
            assert f"raw_{index:03d}" in report["rejected"]

    def test_provenance_written(self, fixed_raw):
        data = json.loads((fixed_raw / "provenance.json").read_text())
        assert data["tool"] == "scoreforge"
        assert data["stage"] == "fix"
        assert "master_seed" in data["config"]

    def test_strict_exit_code(self, raw_corpus_dir, tmp_path):
        rc = run_command(["fix", str(raw_corpus_dir), "--out",
                          str(tmp_path / "out"), "--strict"])
        assert rc == 1

    def test_missing_input_dir(self, tmp_path):
        rc = run_command(["fix", str(tmp_path / "nowhere"), "--out",
                          str(tmp_path / "out")])
        assert rc == 2

    def test_empty_input_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run_command(["fix", str(empty), "--out", str(tmp_path / "out")])
        assert rc == 2


class TestNormalizeCommand:
    def test_flattens_everything(self, fixed_raw, tmp_path):
        out = tmp_path / "norm"
        assert run_command(["normalize", str(fixed_raw), "--out", str(out)]) == 0
        files = sorted(out.glob("*.mid"))
        assert len(files) == len(list(fixed_raw.glob("*.mid")))
        piece = parse_smf(files[0].read_bytes())
        tempos = [(i, ev) for i, t in enumerate(piece.tracks)
                  for ev in t.events if isinstance(ev, SetTempo)]
        assert tempos == [(0, SetTempo(0, 500000))]
        velocities = {ev.velocity for t in piece.tracks for ev in t.events
                      if isinstance(ev, NoteOn)}
        assert velocities <= {NORMALIZED_VELOCITY}


class TestAnnotateCommand:
    def test_plain_mode_keeps_bytes(self, pipeline_out, tmp_path):
        normalized = pipeline_out / "20_normalized"
        out = tmp_path / "plain"
        rc = run_command(["annotate", str(normalized), "--out", str(out),
                          "--mode", "plain"])
        assert rc == 0
        for path in normalized.glob("*.mid"):
            assert (out / path.name).read_bytes() == path.read_bytes()
            plan = json.loads((out / f"{path.stem}.plan.json").read_text())
            assert plan["mode"] == "plain"

    def test_proposed_mode_deterministic(self, pipeline_out, tmp_path):
        normalized = pipeline_out / "20_normalized"
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        for out, seed in ((out1, "5"), (out2, "5"), (out3, "6")):
            rc = run_command(["annotate", str(normalized), "--out", str(out),
                              "--seed", seed])
            assert rc == 0
        names = sorted(p.name for p in out1.glob("*.mid"))
        assert names
        same = [(out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names]
        assert all(same)
        differ = [(out1 / n).read_bytes() != (out3 / n).read_bytes() for n in names]
        assert any(differ)

    def test_plan_sidecars(self, pipeline_out):
        annotated = pipeline_out / "30_annotated"
        midis = sorted(annotated.glob("*.mid"))
        assert midis
        for path in midis:
            plan = json.loads((annotated / f"{path.stem}.plan.json").read_text())
            assert plan["mode"] == "proposed"
            assert plan["plan"]["tempo"]
            assert plan["plan"]["articulations"]

    def test_missing_tables_isolated_per_piece(self, fixed_raw, tmp_path):
        # raw corpus includes winds; only string tracks have bundled tables
        norm = tmp_path / "norm"
        assert run_command(["normalize", str(fixed_raw), "--out", str(norm)]) == 0
        out = tmp_path / "ann"
        rc = run_command(["annotate", str(norm), "--out", str(out)])
        assert rc == 0  # failures skipped, not fatal
        rc = run_command(["annotate", str(norm), "--out", str(tmp_path / "s"),
                          "--strict"])
        assert rc == 1


class TestStatsCommand:
    def test_totals_are_sums(self, pipeline_out):
        stats = json.loads((pipeline_out / "40_stats" / "stats.json").read_text())
        assert stats["pieces"]
        for name, total in stats["corpus"]["activity_seconds"].items():
            summed = sum(p["activity_seconds"].get(name, 0.0)
                         for p in stats["pieces"].values())
            assert total == pytest.approx(summed, rel=1e-12)
        for piece in stats["pieces"].values():
            assert piece["activity_seconds"]
            assert all(s >= 0 for s in piece["polyphony_seconds"].values())


class TestSplitCommand:
    def test_partition(self, pipeline_out):
        split = json.loads((pipeline_out / "50_split" / "split.json").read_text())
        splits = split["splits"]
        all_ids = sorted(split["assignment"])
        listed = sorted(pid for ids in splits.values() for pid in ids)
        assert listed == all_ids
        assert len(all_ids) == 10
        assert split["ratios"] == [0.7, 0.1, 0.2]
        assert all(split["balance_report"].values())

    def test_custom_ratios(self, pipeline_out, tmp_path):
        annotated = pipeline_out / "30_annotated"
        out = tmp_path / "split"
        rc = run_command(["split", str(annotated), "--out", str(out),
                          "--ratios", "0.5,0.25,0.25"])
        assert rc == 0
        split = json.loads((out / "split.json").read_text())
        assert split["ratios"] == [0.5, 0.25, 0.25]

    def test_unreadable_file_skipped(self, pipeline_out, tmp_path, capsys):
        annotated = tmp_path / "annotated"
        shutil.copytree(pipeline_out / "30_annotated", annotated)
        (annotated / "x.mid").mkdir()
        out = tmp_path / "split"
        assert run_command(["split", str(annotated), "--out", str(out),
                            "--seed", "7"]) == 0
        assert "skip x: " in capsys.readouterr().err
        assert (out / "split.json").read_bytes() == \
            (pipeline_out / "50_split" / "split.json").read_bytes()
        assert run_command(["split", str(annotated), "--out", str(tmp_path / "s"),
                            "--strict"]) == 1

    def test_bad_ratios_exit_2(self, pipeline_out, tmp_path):
        annotated = pipeline_out / "30_annotated"
        rc = run_command(["split", str(annotated), "--out", str(tmp_path / "x"),
                          "--ratios", "0.5,0.5,0.5"])
        assert rc == 2


class TestManifestCommand:
    def test_manifests_with_plans(self, pipeline_out):
        man_dir = pipeline_out / "60_manifests"
        annotated = pipeline_out / "30_annotated"
        midis = sorted(annotated.glob("*.mid"))
        manifests = sorted(man_dir.glob("*.manifest.json"))
        assert [m.name for m in manifests] == [
            f"{p.stem}.manifest.json" for p in midis]
        data = json.loads(manifests[0].read_text())
        assert data["sample_rate"] == 22050
        stems = {entry["stem"] for entry in data["stems"]}
        assert stems <= {"violin", "viola", "cello", "contrabass"}
        assert len(stems) >= 2
        for entry in data["stems"]:
            for track in entry["tracks"]:
                assert track["schedule"], "plan schedules must be present"
                assert all(step[2] for step in track["schedule"])


@pytest.fixture(scope="module")
def audio_tree(pipeline_out, tmp_path_factory):
    subset = tmp_path_factory.mktemp("subset")
    midis = sorted((pipeline_out / "30_annotated").glob("*.mid"))[:2]
    for path in midis:
        (subset / path.name).write_bytes(path.read_bytes())
    audio = tmp_path_factory.mktemp("audio")
    rc = run_command(["synth-test", str(subset), "--out", str(audio)])
    assert rc == 0
    return audio


class TestSynthAndEval:
    def test_stems_and_mixture_written(self, audio_tree):
        piece_dirs = sorted(p for p in audio_tree.iterdir() if p.is_dir())
        assert len(piece_dirs) == 2
        for piece_dir in piece_dirs:
            wavs = {p.stem for p in piece_dir.glob("*.wav")}
            assert "mixture" in wavs
            assert len(wavs) >= 3  # at least two stems plus the mixture
        report = json.loads((audio_tree / "synth_report.json").read_text())
        assert set(report["pieces"]) == {p.name for p in piece_dirs}

    def test_mixture_is_exact_stem_sum(self, audio_tree):
        from scoreforge.audio import read_wav
        piece_dir = sorted(p for p in audio_tree.iterdir() if p.is_dir())[0]
        stems = [read_wav(p).samples for p in sorted(piece_dir.glob("*.wav"))
                 if p.stem != "mixture"]
        mixture = read_wav(piece_dir / "mixture.wav").samples
        total = np.zeros_like(mixture)
        for stem in stems:
            total[:len(stem)] += stem
        assert np.array_equal(total.astype(np.float32),
                              mixture.astype(np.float32))

    def test_eval_self_estimates_hit_cap(self, audio_tree, tmp_path):
        out = tmp_path / "eval_perfect"
        rc = run_command(["eval", str(audio_tree), "--out", str(out),
                          "--estimates", str(audio_tree)])
        assert rc == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["corpus_medians"]
        assert all(v == 100.0 for v in report["corpus_medians"].values())

    def test_eval_mixture_fallback(self, audio_tree, tmp_path):
        out = tmp_path / "eval_mix"
        rc = run_command(["eval", str(audio_tree), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "eval_report.json").read_text())
        for value in report["corpus_medians"].values():
            assert value < 30.0  # the raw mixture is a poor estimate

    def test_eval_missing_estimate_fails_piece(self, audio_tree, tmp_path,
                                               capsys):
        estimates = tmp_path / "estimates"
        shutil.copytree(audio_tree, estimates)
        piece_dir = sorted(p for p in estimates.iterdir() if p.is_dir())[0]
        stem = sorted(p for p in piece_dir.glob("*.wav")
                      if p.stem != "mixture")[0]
        stem.unlink()
        argv = ["eval", str(audio_tree), "--estimates", str(estimates)]
        assert run_command([*argv, "--out", str(tmp_path / "e")]) == 0
        assert f"{piece_dir.name}: no estimate for stems: {stem.stem}" in \
            capsys.readouterr().err
        report = json.loads((tmp_path / "e" / "eval_report.json").read_text())
        assert piece_dir.name not in report["pieces"]
        assert report["pieces"]  # the other piece is still scored
        assert run_command([*argv, "--out", str(tmp_path / "s"), "--strict"]) == 1

    def test_eval_empty_tree(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run_command(["eval", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestPipeline:
    def test_all_stages_present(self, pipeline_out):
        names = {p.name for p in pipeline_out.iterdir() if p.is_dir()}
        assert names == {"10_fixed", "20_normalized", "30_annotated",
                         "40_stats", "50_split", "60_manifests"}
        for name in names:
            prov = json.loads((pipeline_out / name / "provenance.json").read_text())
            assert prov["config"]["master_seed"] == 7

    def test_rerun_identical(self, strings_corpus_dir, pipeline_out,
                             tmp_path_factory):
        again = tmp_path_factory.mktemp("again")
        rc = run_command(["pipeline", str(strings_corpus_dir), "--out",
                          str(again), "--seed", "7", "--jobs", "1"])
        assert rc == 0
        first = tree_bytes(pipeline_out)
        second = tree_bytes(again)
        assert set(first) == set(second)
        assert all(first[k] == second[k] for k in first)

    def test_json_outputs_are_canonical(self, pipeline_out):
        for path in pipeline_out.rglob("*.json"):
            text = path.read_text()
            assert text.endswith("\n")
            data = json.loads(text)
            assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_missing_corpus_dir(self, tmp_path):
        rc = run_command(["pipeline", str(tmp_path / "nope"), "--out",
                          str(tmp_path / "out")])
        assert rc == 2

    def test_paths_from_config(self, strings_corpus_dir, tmp_path):
        config = tmp_path / "config.json"
        out = tmp_path / "run"
        config.write_text(json.dumps({"corpus_dir": str(strings_corpus_dir),
                                      "output_dir": str(out)}))
        assert run_command(["pipeline", "--config", str(config)]) == 0
        assert (out / "60_manifests" / "provenance.json").exists()
        # neither a positional path nor corpus_dir is a config error
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert run_command(["pipeline", "--config", str(empty)]) == 2


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "scoreforge.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("fix", "normalize", "annotate", "stats", "split",
                     "manifest", "synth-test", "eval", "pipeline"):
            assert name in proc.stdout

    def test_console_script(self):
        import shutil
        exe = shutil.which("scoreforge")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0


class TestOneChain:
    """Every MIDI subcommand is a range of one per-piece chain, so pipeline
    parses each file once and matches the subcommands run by hand."""

    @pytest.mark.parametrize("corpus", ["raw", "strings"])
    def test_pipeline_parses_each_file_once(self, corpus, raw_corpus_dir,
                                            strings_corpus_dir, tmp_path,
                                            monkeypatch):
        in_dir = raw_corpus_dir if corpus == "raw" else strings_corpus_dir
        original = scoreforge.smf.parse_smf
        parsed = []

        def counting(data):
            parsed.append(data)
            return original(data)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("scoreforge") and \
                    getattr(module, "parse_smf", None) is original:
                monkeypatch.setattr(module, "parse_smf", counting)
        run_command(["pipeline", str(in_dir), "--out", str(tmp_path / "run"),
                     "--jobs", "1"])
        inputs = sorted(p.read_bytes() for p in in_dir.glob("*.mid"))
        assert sorted(parsed) == inputs

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("corpus", ["raw", "strings"])
    def test_pipeline_equals_chained_subcommands(self, corpus, jobs,
                                                 raw_corpus_dir,
                                                 strings_corpus_dir, tmp_path):
        # the raw corpus has rejections, duplicates and MissingTable drops;
        # annotate keeps none of it, so its pipeline ends at 30_annotated
        in_dir = raw_corpus_dir if corpus == "raw" else strings_corpus_dir
        steps = list(STAGE_DIRS)[:3] if corpus == "raw" else list(STAGE_DIRS)
        run_command(["pipeline", str(in_dir), "--out", str(tmp_path / "run"),
                     "--jobs", jobs])
        staged = tmp_path / "staged"
        source = in_dir
        for step in steps:
            out = staged / STAGE_DIRS[step]
            run_command([step, str(source), "--out", str(out), "--jobs", jobs])
            if step in ("fix", "normalize", "annotate"):
                source = out
        assert tree_bytes(tmp_path / "run") == tree_bytes(staged)

    def test_pipeline_stops_when_annotate_keeps_nothing(self, raw_corpus_dir,
                                                        tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_command(["pipeline", str(raw_corpus_dir), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.endswith("no pieces left after annotate\n")
        fixed = {p.stem for p in (out / "10_fixed").glob("*.mid")}
        assert fixed
        for piece_id in fixed:
            assert f"skip {piece_id}: MissingTable" in err
        assert sorted(p.name for p in out.iterdir()) == [
            "10_fixed", "20_normalized", "30_annotated"]
        assert not list((out / "30_annotated").glob("*.mid"))

    def test_standalone_command_on_empty_input_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        for command in ("normalize", "annotate", "stats", "split", "manifest"):
            assert run_command([command, str(empty), "--out",
                                str(tmp_path / command)]) == 2

    def test_in_memory_steps_equal_round_trip(self, raw_corpus_files):
        """The chain hands each step's piece to the next without re-parsing,
        which is only sound when it equals the written bytes parsed back."""
        dictionary = InstrumentDictionary.default()
        strings = load_articulation_tables()
        tables = {name: strings["violin"] for name in REGISTRY}
        annotated = 0
        for path in raw_corpus_files:
            try:
                fixed, _ = fix_piece(parse_smf(path.read_bytes()), dictionary)
            except UnknownInstrument:
                continue
            normalized = normalize(fixed)
            final, _ = annotate(normalized, tables,
                                replace(AnnotationParams(), seed=annotated))
            for piece in (fixed, normalized, final):
                assert parse_smf(write_smf(piece)) == piece, path.name
            annotated += 1
        assert annotated >= 30
