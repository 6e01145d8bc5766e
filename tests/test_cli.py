"""Command-line stages: exit codes, reports, determinism, failure isolation."""

import argparse
import hashlib
import json
import multiprocessing
import operator
import pickle
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import scoreforge.cli
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
    piece_seed,
)
from scoreforge.gmfix import (
    EXCLUDED,
    MAX_SPAN_QUARTERS,
    NORMALIZED_VELOCITY,
    REGISTRY,
    InstrumentDictionary,
    UnknownInstrument,
    fix_piece,
    normalize,
)
from scoreforge.audio import MAX_SAMPLE_RATE, Waveform, read_wav, write_wav
from scoreforge.evalkit import FRAME_SECONDS
from scoreforge.renderkit import emit_manifest
from scoreforge.smf import (
    MAX_VLQ_VALUE,
    ControlChange,
    EndOfTrack,
    MidiPiece,
    NoteOff,
    NoteOn,
    OtherMeta,
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
from test_renderkit import assert_snr, conductor, fixed_track, reference_piece


STAGE_DIRS = {"fix": "10_fixed", "normalize": "20_normalized",
              "annotate": "30_annotated", "stats": "40_stats",
              "split": "50_split", "manifest": "60_manifests"}


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_digest(root: Path) -> str:
    """sha256 over one "<relative path> <sha256 of the file>" line per file."""
    digest = hashlib.sha256()
    for path, data in tree_bytes(root).items():
        digest.update(f"{path} {hashlib.sha256(data).hexdigest()}\n".encode())
    return digest.hexdigest()


# `pipeline` over the raw fixture: rejections, duplicates and MissingTable
# drops, ending with "no pieces left after annotate". Changing these bytes
# is an output change, to be made on purpose and named.
RAW_PIPELINE_DIGESTS = {
    "10_fixed": "49675fc50655985048766874b09794ef16eec6a8d232c0ed993bbe6c1354ea8b",
    "20_normalized":
        "3f4754c445be04686da5f3459e61e064a1eecb508b621a7a55b2c70b88d2901c",
    "30_annotated":
        "7f2455bc330277593a473f5cadc988110c907267f530b3a35a6f1888b3d3633e",
}
RAW_PIPELINE_STDERR = \
    "bfde27cee6ee3590c6411b9f0ece478de2eb947d5bf15690780cb1fa23d72e1e"
# `pipeline` over the strings fixture (the `pipeline_out` run) and `eval`
# of the `audio_tree` synthesized from it: the reducers' JSON, shaped by
# the stats, split, manifest and report records. Changing these bytes is an
# output change, to be made on purpose and named.
STRINGS_PIPELINE_DIGESTS = {
    "40_stats": "7ecb2502d50b1379d5b2cf9402e121b3de29517d6434a5ea33587b6081a1245b",
    "50_split": "ceb1628bfd5101324c8a9a2374384e26cfbc4edbe3d7cac3679f598d435fb700",
    "60_manifests":
        "9129b336912c211b60c082c0a555ec2523bc5d317f57afddd8186f34f73d32a1",
}
EVAL_REPORT_DIGEST = \
    "7dd441e6733d407eff218aa1a9cc3f584da2643931266581e064f3fc20512296"
# every WAV and synth_report.json of that `audio_tree`: the synthesizer's
# output bytes. Changing them is an output change, to be made on purpose and
# named.
SYNTH_TREE_DIGEST = \
    "33d7e40c2d63c17eae4b8e2f40dc3e75f9df2d48c739ab990ef1a0b01e8f5c8c"


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
    transition_duration_range=ordered_pair(non_negative))
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
        {"annotation": {"min_tempo_intervals": None}}, {"annotation": [120.0]},
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

    def test_readme_shows_the_flags(self):
        """README's command block has a line per subcommand showing exactly
        its parser's flags, besides the common ones."""
        common = {"-h", "--help", "--out", "--config", "--seed", "--jobs",
                  "--strict"}
        text = README.read_text(encoding="utf-8")
        section = text.split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        shown = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) - common
                 for line in block.splitlines()}
        commands = next(action.choices
                        for action in scoreforge.cli._build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert shown == {name: {flag for action in parser._actions
                                for flag in action.option_strings} - common
                         for name, parser in commands.items()}

    def test_defaults_and_round_trip(self):
        config = PipelineConfig()
        again = PipelineConfig.from_dict(asdict(config))
        assert again == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"master_sede": 3})

    def test_nested_annotation_params(self):
        config = PipelineConfig.from_dict({"annotation": {"tempo_mean": 90.0}})
        assert config.annotation.tempo_mean == 90.0
        with pytest.raises(ConfigError, match="seed"):  # seeds come from master_seed
            PipelineConfig.from_dict({"annotation": {"seed": 4}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"annotation": {"tempo_mean": -5.0}})

    def test_mode_fields_validated(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"annotate_mode": "fancy"})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"projection": "vector"})

    @pytest.mark.parametrize("raw", [
        {"frame_len_s": float("inf")}, {"silence_threshold_dbfs": float("nan")},
        {"annotation": {"tempo_std": float("nan")}},
        {"annotation": {"tempo_clamp": [40.0, float("inf")]}},
        {"split_ratios": [0.7, 0.1, float("-inf")]},
    ])
    def test_non_finite_floats_are_config_errors(self, raw):
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("text", ['{"frame_len_s": Infinity}',
                                      '{"frame_len_s": 1e400}',
                                      '{"annotation": {"tempo_std": NaN}}'])
    def test_non_finite_json_tokens_rejected(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig.from_file(path)

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
        self.run(tmp_path, ["fix", str(strings_corpus_dir), "--jobs", jobs],
                 {"dictionary": str(tmp_path / "missing.csv")})

    def test_bad_dictionary_row(self, strings_corpus_dir, tmp_path):
        names = tmp_path / "names.csv"
        names.write_text("name,instrument\nViolin I,fiddle\n")
        self.run(tmp_path, ["pipeline", str(strings_corpus_dir)],
                 {"dictionary": str(names)})

    @pytest.mark.parametrize("key", ["dictionary", "articulation_tables"])
    @pytest.mark.parametrize("defect", ["short row", "long row", "missing column",
                                        "NUL", "undecodable"])
    def test_malformed_table(self, strings_corpus_dir, tmp_path, capsys,
                             key, defect):
        """Each defect in either table is a config error that names the
        line it is on, where the text decodes."""
        header, row = {
            "dictionary": ("name,instrument", "Violin I,violin"),
            "articulation_tables": ("instrument,articulation,cc32,weight,"
                                    "length_class", "violin,legato,1,1.0,long"),
        }[key]
        columns = header.split(",")
        good = f"{header}\n{row}\n".encode()
        data, message = {
            "short row": (good + row.rsplit(",", 1)[0].encode() + b"\n",
                          f"ValueError: line 3: expected {len(columns)} fields, "
                          f"got {len(columns) - 1}"),
            "long row": (good + row.encode() + b",x\n",
                         f"ValueError: line 3: expected {len(columns)} fields, "
                         f"got {len(columns) + 1}"),
            "missing column": (good.replace(columns[-1].encode(), b"other", 1),
                               f"ValueError: line 1: missing column {columns[-1]}"),
            "NUL": (good + b"\0" + row.encode() + b"\n",
                    "ValueError: line 3: line contains NUL"),
            "undecodable": (good + b"\xff" + row.encode() + b"\n",
                            "UnicodeDecodeError: 'utf-8' codec can't decode byte "
                            f"0xff in position {len(good)}: invalid start byte"),
        }[defect]
        table = tmp_path / "table.csv"
        table.write_bytes(data)
        self.run(tmp_path, ["pipeline", str(strings_corpus_dir)], {key: str(table)})
        assert capsys.readouterr().err == (
            f"config error: cannot load {table}: {message}\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_conflicting_dictionary_rows(self, raw_corpus_dir, tmp_path,
                                         capsys, jobs):
        names = tmp_path / "names.csv"
        names.write_text("name,instrument\nViolin I,violin\nviolin  i,viola\n")
        self.run(tmp_path, ["fix", str(raw_corpus_dir), "--jobs", jobs],
                 {"dictionary": str(names)})
        assert capsys.readouterr().err == (
            f"config error: cannot load {names}: GmFixError: {names}: line 3: "
            "name 'violin i' maps to both violin and viola\n")

    def test_tables_out_of_range(self, pipeline_out, tmp_path):
        tables = tmp_path / "tables.csv"
        tables.write_text("instrument,articulation,cc32,weight,length_class\n"
                          "violin,legato,200,1.0,long\n")
        normalized = str(pipeline_out / "20_normalized")
        self.run(tmp_path, ["annotate", normalized],
                 {"articulation_tables": str(tables)})
        # plain mode reads no tables
        config = tmp_path / "tables.json"
        config.write_text(json.dumps({"articulation_tables": str(tables),
                                      "annotate_mode": "plain"}))
        assert run_command(["annotate", normalized, "--config", str(config),
                            "--out", str(tmp_path / "plain")]) == 0

    def test_manifest_loads_the_tables(self, pipeline_out, tmp_path):
        """manifest names the articulations from the tables annotate uses,
        so in proposed mode it loads them first, and in plain mode not."""
        tables = tmp_path / "tables.csv"
        tables.write_text("instrument,articulation,cc32,weight,length_class\n"
                          "violin,legato,200,1.0,long\n")
        annotated = str(pipeline_out / "30_annotated")
        self.run(tmp_path, ["manifest", annotated],
                 {"articulation_tables": str(tables)})
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"articulation_tables": str(tables),
                                     "annotate_mode": "plain"}))
        assert run_command(["manifest", annotated, "--config", str(plain),
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

    # each of these failed every piece, or scored pieces with no silent
    # frame, and still exited 0 before non-finite floats were rejected
    def test_eval_infinite_frame_length(self, audio_tree, tmp_path):
        self.run(tmp_path, ["eval", str(audio_tree)],
                 {"frame_len_s": float("inf")})

    def test_eval_nan_silence_threshold(self, audio_tree, tmp_path):
        self.run(tmp_path, ["eval", str(audio_tree)],
                 {"silence_threshold_dbfs": float("nan")})

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_sample_rate_past_the_wav_header(self, tmp_path, capsys, jobs,
                                             given):
        """A rate whose byte rate, 4 bytes a frame, is past 32 bits: once
        a traceback from write_wav on a piece of zero-length notes."""
        source = tmp_path / "input"
        source.mkdir()
        (source / "grace.mid").write_bytes(zero_length_notes_piece())
        rate = MAX_SAMPLE_RATE + 1
        argv = ["synth-test", str(source), "--jobs", jobs]
        if given == "flag":
            self.run(tmp_path, [*argv, "--sample-rate", str(rate)])
        else:
            self.run(tmp_path, argv, {"sample_rate": rate})
        assert capsys.readouterr().err == (
            f"config error: sample_rate must be at most {MAX_SAMPLE_RATE}\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_eval_silence_threshold_past_float_range(self, audio_tree,
                                                     tmp_path, capsys, jobs):
        """Once an OverflowError traceback from frame_sdr."""
        self.run(tmp_path, ["eval", str(audio_tree), "--jobs", jobs],
                 {"silence_threshold_dbfs": 10000})
        assert capsys.readouterr().err == (
            "config error: silence_threshold_dbfs is past float range as an "
            "amplitude\n")

    def test_annotate_nan_tempo_std(self, pipeline_out, tmp_path):
        self.run(tmp_path, ["annotate", str(pipeline_out / "20_normalized")],
                 {"annotation": {"tempo_std": float("nan")}})

    @pytest.mark.parametrize("command", [*STAGE_DIRS, "pipeline", "synth-test"])
    def test_inputs_sharing_a_piece_id(self, strings_corpus_dir, tmp_path,
                                       capsys, command):
        # x.mid and x.MIDI would both be piece x, one output overwriting the
        # other's
        source = tmp_path / "input"
        source.mkdir()
        first, second = sorted(strings_corpus_dir.glob("*.mid"))[:2]
        shutil.copy(first, source / "x.mid")
        shutil.copy(second, source / "x.MIDI")
        shutil.copy(second, source / "y.mid")
        self.run(tmp_path, [command, str(source)])
        assert "share a piece id: x.MIDI, x.mid" in capsys.readouterr().err

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_span_past_one_delta_time_rejected(self, six_strings, tmp_path,
                                               capsys, jobs):
        """A piece too long for later steps to write is a fix rejection,
        with its reason, not a normalize failure."""
        (six_strings / "m-vlq.mid").write_bytes(vlq_piece())
        out = tmp_path / "run"
        assert run_command(["pipeline", str(six_strings), "--out", str(out),
                            "--jobs", jobs]) == 0
        reason = (f"spans {2 * MAX_VLQ_VALUE} ticks, more than one delta "
                  f"time holds ({MAX_VLQ_VALUE})")
        report = json.loads((out / "10_fixed" / "fix_report.json").read_text())
        assert report["rejected"] == {"m-vlq": reason}
        assert capsys.readouterr().err == f"skip m-vlq: {reason}\n"
        assert not list(out.rglob("m-vlq*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_span_past_the_quarter_bound_rejected(self, six_strings,
                                                  tmp_path, capsys, jobs):
        """A few hundred bytes can span millions of quarter notes: such a
        piece is a fix rejection, with its reason, before any step does
        work in proportion to its span."""
        data = long_span_piece()
        assert len(data) == 314
        (six_strings / "m-long.mid").write_bytes(data)
        out = tmp_path / "run"
        start = time.perf_counter()
        assert run_command(["pipeline", str(six_strings), "--out", str(out),
                            "--jobs", jobs]) == 0
        assert time.perf_counter() - start < 1.0
        reason = f"spans 2796202.50 quarter notes, more than {MAX_SPAN_QUARTERS}"
        report = json.loads((out / "10_fixed" / "fix_report.json").read_text())
        assert report["rejected"] == {"m-long": reason}
        assert capsys.readouterr().err == f"skip m-long: {reason}\n"
        assert not list(out.rglob("m-long*"))

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
                  for ev in t if isinstance(ev, SetTempo)]
        assert tempos == [(0, SetTempo(0, 500000))]
        velocities = {ev.velocity for t in piece.tracks for ev in t
                      if isinstance(ev, NoteOn)}
        assert velocities <= {NORMALIZED_VELOCITY}


class TestAnnotateCommand:
    def test_plain_mode_keeps_bytes(self, pipeline_out, tmp_path):
        normalized = pipeline_out / "20_normalized"
        out = tmp_path / "plain"
        config = tmp_path / "plain.json"
        config.write_text(json.dumps({"annotate_mode": "plain"}))
        rc = run_command(["annotate", str(normalized), "--out", str(out),
                          "--config", str(config)])
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

    def test_plan_sidecar_states_its_seed_once(self, pipeline_out):
        """A proposed-mode sidecar is mode, seed and the plan's asdict; the
        plan is the one annotate draws from that seed, which is the piece's
        seed under the master seed."""
        tables = load_articulation_tables()
        for path in sorted((pipeline_out / "30_annotated").glob("*.mid")):
            sidecar = json.loads(path.with_suffix(".plan.json").read_text())
            assert set(sidecar) == {"mode", "seed", "plan"}
            assert sidecar["seed"] == piece_seed(7, path.stem)
            assert "seed" not in sidecar["plan"]
            assert "seed" not in sidecar["plan"]["params"]
            normalized = parse_smf(
                (pipeline_out / "20_normalized" / path.name).read_bytes())
            final, plan = annotate(normalized, tables, AnnotationParams(),
                                   sidecar["seed"])
            assert from_dict(AnnotationPlan, sidecar["plan"]) == plan
            assert write_smf(final) == path.read_bytes()

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

    def test_standalone_manifest_reads_no_sidecar(self, pipeline_out,
                                                  tmp_path):
        """The schedules are the MIDI's own CC#32 events, named from the
        tables, so the annotated MIDI alone gives the pipeline's manifests."""
        midi_only = tmp_path / "midi_only"
        midi_only.mkdir()
        for path in (pipeline_out / "30_annotated").glob("*.mid"):
            shutil.copy(path, midi_only / path.name)
        out = tmp_path / "manifests"
        assert run_command(["manifest", str(midi_only), "--out", str(out),
                            "--seed", "7"]) == 0
        assert tree_bytes(out) == tree_bytes(pipeline_out / "60_manifests")


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
    def test_one_tempo_map_per_piece(self, six_strings, tmp_path,
                                     monkeypatch):
        """Every stem of a piece is timed by one map, the manifest's: a
        piece makes one ``TempoMap.from_piece`` call, not one per stem."""
        fixed = tmp_path / "fixed"
        assert run_command(["fix", str(six_strings), "--out", str(fixed)]) == 0
        from_piece = TempoMap.from_piece.__func__
        calls = []

        def counted(cls, piece):
            calls.append(piece)
            return from_piece(cls, piece)

        monkeypatch.setattr(TempoMap, "from_piece", classmethod(counted))
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(fixed), "--out",
                            str(audio)]) == 0
        stems = list(audio.glob("*/*.wav"))
        assert len(stems) > 2 * 6  # each piece has a mixture and 2+ stems
        assert len(calls) == 6

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_eval_frame_past_float_range_is_a_skip(self, audio_tree, tmp_path,
                                                   capsys, jobs):
        """A frame length whose sample count at the file's rate is past
        float range: once an OverflowError traceback from frame_sdr."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"frame_len_s": 1e305}))
        out = tmp_path / "eval"
        assert run_command(["eval", str(audio_tree), "--out", str(out),
                            "--config", str(config), "--jobs", jobs]) == 0
        pieces = sorted(p.name for p in audio_tree.iterdir() if p.is_dir())
        assert capsys.readouterr().err.splitlines() == [
            f"skip {piece}: EvalError: a frame of 1e+305 s at 22050 Hz is "
            "past float range" for piece in pieces]
        assert json.loads((out / "eval_report.json").read_text())["pieces"] == {}

    def test_eval_report_bytes_pinned(self, audio_tree, tmp_path):
        out = tmp_path / "eval"
        assert run_command(["eval", str(audio_tree), "--out", str(out)]) == 0
        data = (out / "eval_report.json").read_bytes()
        assert b"null" in data  # a silent frame is pinned too
        assert hashlib.sha256(data).hexdigest() == EVAL_REPORT_DIGEST

    def test_eval_skips_a_nan_stem(self, audio_tree, tmp_path, capsys):
        """A NaN sample in a stem makes its piece a skip, so the report
        holds no NaN token and stays JSON."""
        tree = tmp_path / "tree"
        shutil.copytree(audio_tree, tree)
        piece_dir = sorted(p for p in tree.iterdir() if p.is_dir())[0]
        stem = next(p for p in sorted(piece_dir.glob("*.wav"))
                    if p.stem != "mixture")
        wave = read_wav(stem)
        frame = round(FRAME_SECONDS * wave.sample_rate)
        scored = len(wave) // frame * frame  # the samples eval reads
        samples = wave.samples.copy()
        samples[np.argmax(np.abs(samples[:scored]))] = np.nan
        write_wav(stem, Waveform(samples, wave.sample_rate))
        out = tmp_path / "eval"
        assert run_command(["eval", str(tree), "--out", str(out)]) == 0
        assert f"skip {piece_dir.name}: EvalError: " in capsys.readouterr().err

        def no_constants(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads((out / "eval_report.json").read_text(),
                            parse_constant=no_constants)
        assert piece_dir.name not in report["pieces"]
        assert report["pieces"]

    def test_synth_tree_bytes_pinned(self, audio_tree, tmp_path):
        # provenance.json is left out: it records the version and the
        # configuration, not what was synthesized
        pinned = tmp_path / "pinned"
        shutil.copytree(audio_tree, pinned,
                        ignore=shutil.ignore_patterns("provenance.json"))
        assert len(list(pinned.rglob("*.wav"))) >= 6
        assert (pinned / "synth_report.json").is_file()
        assert tree_digest(pinned) == SYNTH_TREE_DIGEST

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

    def test_failed_piece_leaves_no_directory(self, strings_corpus_dir,
                                              tmp_path, capsys):
        source = tmp_path / "in"
        source.mkdir()
        good = sorted(strings_corpus_dir.glob("*.mid"))[0]
        (source / good.name).write_bytes(good.read_bytes())
        conductor_only = MidiPiece(480, [[
            TrackName(0, "conductor"), SetTempo(0, 500000), EndOfTrack(480)]])
        (source / "silent.mid").write_bytes(write_smf(conductor_only))
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(source), "--out", str(audio)]) == 0
        assert capsys.readouterr().err.splitlines() == \
            ["skip silent: AudioError: no stems to mix"]
        assert not (audio / "silent").exists()
        assert run_command(["eval", str(audio), "--out",
                            str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
        assert set(report["pieces"]) == {good.stem}

    @staticmethod
    def synth_twice(pipeline_out, tmp_path, second_b):
        """synth-test over two annotated pieces, a and b, into one --out,
        then again after b.mid is replaced by second_b(b); returns the audio
        tree and b."""
        source = tmp_path / "in"
        source.mkdir()
        a, b = sorted((pipeline_out / "30_annotated").glob("*.mid"))[:2]
        (source / "a.mid").write_bytes(a.read_bytes())
        (source / "b.mid").write_bytes(b.read_bytes())
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(source), "--out", str(audio)]) == 0
        piece = parse_smf(b.read_bytes())
        (source / "b.mid").write_bytes(second_b(piece))
        run_command(["synth-test", str(source), "--out", str(audio)])
        return audio, piece

    def test_rerun_failed_piece_leaves_no_stale_wavs(self, pipeline_out,
                                                     tmp_path, capsys):
        conductor_only = write_smf(MidiPiece(480, [[
            TrackName(0, "conductor"), SetTempo(0, 500000), EndOfTrack(480)]]))
        audio, _ = self.synth_twice(pipeline_out, tmp_path,
                                    lambda piece: conductor_only)
        assert capsys.readouterr().err.splitlines() == \
            ["skip b: AudioError: no stems to mix"]
        assert not (audio / "b").exists()
        assert run_command(["eval", str(audio), "--out",
                            str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
        assert set(report["pieces"]) == {"a"}

    def test_eval_skips_pieces_no_longer_rendered(self, pipeline_out,
                                                  tmp_path, capsys):
        source = tmp_path / "in"
        source.mkdir()
        for name, path in zip("ab", sorted(
                (pipeline_out / "30_annotated").glob("*.mid"))):
            (source / f"{name}.mid").write_bytes(path.read_bytes())
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(source), "--out", str(audio)]) == 0
        (source / "b.mid").unlink()
        assert run_command(["synth-test", str(source), "--out", str(audio)]) == 0
        assert (audio / "b" / "mixture.wav").exists()  # stale, not rendered
        assert run_command(["eval", str(audio), "--out",
                            str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
        assert set(report["pieces"]) == {"a"}
        # a listed piece whose directory is gone is a per-piece failure
        shutil.rmtree(audio / "a")
        capsys.readouterr()
        assert run_command(["eval", str(audio), "--out", str(tmp_path / "e2"),
                            "--strict"]) == 1
        assert capsys.readouterr().err == "skip a: no piece directory\n"
        # an unreadable report is a usage error
        (audio / "synth_report.json").write_text("[]")
        assert run_command(["eval", str(audio), "--out",
                            str(tmp_path / "e3")]) == 2
        # a tree with no synth_report.json is scored directory by directory
        (audio / "synth_report.json").unlink()
        assert run_command(["eval", str(audio), "--out",
                            str(tmp_path / "e4")]) == 0
        report = json.loads((tmp_path / "e4" / "eval_report.json").read_text())
        assert set(report["pieces"]) == {"b"}

    @pytest.mark.parametrize("pieces", [[1], "ab", {"../outside": {}},
                                        {"..": {}}, {"a/b": {}}],
                             ids=["list", "string", "outside", "parent",
                                  "nested"])
    def test_eval_rejects_a_malformed_report(self, tmp_path, capsys, pieces):
        """A report's pieces must be an object keyed by piece ids, each one
        path component, as synth-test writes it; else eval scores nothing."""
        audio = tmp_path / "audio"
        for piece_dir in (audio / "a" / "b", tmp_path / "outside"):
            piece_dir.mkdir(parents=True)
        report = audio / "synth_report.json"
        report.write_text(json.dumps({"pieces": pieces}))
        out = tmp_path / "eval"
        assert run_command(["eval", str(audio), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read {report}: ")
        assert not out.exists()

    def test_rerun_drops_a_lost_stem(self, pipeline_out, tmp_path):
        def without_last_stem(piece):
            lost = emit_manifest(piece, None).stems[-1]
            dropped = {tr.track_index for tr in lost.tracks}
            return write_smf(MidiPiece(piece.ticks_per_quarter, [
                track for index, track in enumerate(piece.tracks)
                if index not in dropped]))

        audio, b = self.synth_twice(pipeline_out, tmp_path,
                                    without_last_stem)
        kept = [entry.stem for entry in emit_manifest(b, None).stems][:-1]
        assert kept
        report = json.loads((audio / "synth_report.json").read_text())
        assert report["pieces"]["b"]["stems"] == kept
        assert sorted(wav.stem for wav in (audio / "b").glob("*.wav")) == \
            sorted([*kept, "mixture"])


@pytest.fixture(scope="module")
def reference_stems(pipeline_out):
    """(piece id, stem) -> each stem of the annotated strings fixture rendered
    by the test reference, at the float32 precision synth-test stores."""
    stems = {}
    for path in sorted((pipeline_out / "30_annotated").glob("*.mid")):
        piece = parse_smf(path.read_bytes())
        for entry in emit_manifest(piece, None).stems:
            tracks = [tr.track_index for tr in entry.tracks]
            stems[path.stem, entry.stem] = \
                reference_piece(piece, tracks).astype(np.float32)
    return stems


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_synth_stems_equal_reference(pipeline_out, reference_stems, tmp_path,
                                     jobs):
    # whatever the wavetables hold from earlier renders in this process
    audio = tmp_path / "audio"
    assert run_command(["synth-test", str(pipeline_out / "30_annotated"),
                        "--out", str(audio), "--jobs", jobs]) == 0
    written = {(wav.parent.name, wav.stem): read_wav(wav).samples
               for wav in sorted(audio.glob("*/*.wav"))
               if wav.stem != "mixture"}
    assert written.keys() == reference_stems.keys()
    for key, samples in written.items():
        assert_snr(samples, reference_stems[key], key)


class TestRenderBuffers:
    """synth-test renders every piece of a process into the same reused
    buffers, so a piece's bytes must not depend on what was rendered, or
    failed to render, before it; a defect ends the command."""

    def test_long_short_long_around_a_failed_render(self, pipeline_out,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        def seconds(path):
            piece = parse_smf(path.read_bytes())
            return TempoMap.from_piece(piece).seconds_at(piece.end_tick())

        by_length = sorted((pipeline_out / "30_annotated").glob("*.mid"),
                           key=seconds)
        # the failing piece is the longest, so the short one after it reads
        # buffers it filled further than the short one needs
        pieces = {"a_long": by_length[-2], "b_fails": by_length[-1],
                  "c_short": by_length[0], "d_long": by_length[-3]}
        assert seconds(pieces["c_short"]) < seconds(pieces["d_long"])
        source = tmp_path / "in"
        source.mkdir()
        for name, path in pieces.items():
            shutil.copy(path, source / f"{name}.mid")
        write_wav = scoreforge.cli.write_wav
        writes = []

        def fail_second_stem(path, *args):
            if path.parent.name == "b_fails":
                writes.append(path)
                if len(writes) == 2:
                    raise OSError("disk full")
            return write_wav(path, *args)

        monkeypatch.setattr(scoreforge.cli, "write_wav", fail_second_stem)
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(source), "--out", str(audio),
                            "--jobs", "1"]) == 0
        assert capsys.readouterr().err == "skip b_fails: OSError: disk full\n"
        assert not (audio / "b_fails").exists()
        report = json.loads((audio / "synth_report.json").read_text())
        assert sorted(report["pieces"]) == ["a_long", "c_short", "d_long"]
        for name in report["pieces"]:
            alone = tmp_path / name
            alone.mkdir()
            shutil.copy(source / f"{name}.mid", alone)
            assert run_command(["synth-test", str(alone), "--out",
                                str(alone / "audio")]) == 0
            assert tree_bytes(audio / name) == \
                tree_bytes(alone / "audio" / name), name
            alone_report = json.loads(
                (alone / "audio" / "synth_report.json").read_text())
            assert report["pieces"][name] == alone_report["pieces"][name]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_defect_is_not_a_skip(self, pipeline_out, tmp_path,
                                    monkeypatch, jobs):
        def defect(*args, **kwargs):
            raise ZeroDivisionError("a defect in the render path")

        monkeypatch.setattr(scoreforge.cli, "test_synthesize", defect)
        # forked workers run the patched module
        pool_starting_by("fork", monkeypatch)
        with pytest.raises(ZeroDivisionError):
            run_command(["synth-test", str(pipeline_out / "30_annotated"),
                         "--out", str(tmp_path / "audio"), "--jobs", jobs])

    def test_a_piece_too_long_for_memory_is_a_skip(self, pipeline_out,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        def too_long(*args, **kwargs):
            raise MemoryError("Unable to allocate 44.8 GiB")

        monkeypatch.setattr(scoreforge.cli, "test_synthesize", too_long)
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(pipeline_out / "30_annotated"),
                            "--out", str(audio), "--strict"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 10
        assert all(line.endswith(": MemoryError: Unable to allocate 44.8 GiB")
                   for line in lines)
        assert not [p for p in audio.iterdir() if p.is_dir()]

    def test_a_piece_longer_than_a_wav_file_is_a_skip(self, pipeline_out,
                                                      tmp_path, capsys):
        source = tmp_path / "in"
        source.mkdir()
        for path in sorted((pipeline_out / "30_annotated").glob("*.mid"))[:2]:
            shutil.copy(path, source)
        alone = tmp_path / "alone"
        assert run_command(["synth-test", str(source), "--out",
                            str(alone)]) == 0
        # one note-off 0x0FFFFFFF ticks in, as a corrupt delta time makes it:
        # about 6.2e9 samples at 120 BPM
        long_piece = MidiPiece(480, [
            conductor(0),
            fixed_track("violin", 0, [(0, MAX_VLQ_VALUE, 69, 80)]),
        ])
        (source / "long.mid").write_bytes(write_smf(long_piece))
        capsys.readouterr()
        audio = tmp_path / "audio"
        assert run_command(["synth-test", str(source), "--out",
                            str(audio)]) == 0
        assert re.fullmatch(r"skip long: RenderError: \d+ samples exceed the "
                            r"\d+ frames a WAV file holds\n",
                            capsys.readouterr().err)
        assert not (audio / "long").exists()
        assert tree_bytes(audio) == tree_bytes(alone)


class TestStepDefects:
    """Each per-piece step reports only the errors its method raises as a
    piece's skip; a defect in the package, such as a ZeroDivisionError,
    ends the command at any --jobs, and no process outlives it."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, function, tree", [
        ("annotate", "annotate", "20_normalized"),
        ("manifest", "emit_manifest", "30_annotated"),
        ("eval", "evaluate_piece", None),
    ])
    def test_a_defect_is_not_a_skip(self, pipeline_out, audio_tree, tmp_path,
                                    monkeypatch, command, function, tree,
                                    jobs):
        def defect(*args, **kwargs):
            raise ZeroDivisionError(f"a defect in {function}")

        monkeypatch.setattr(scoreforge.cli, function, defect)
        # forked workers run the patched module
        pool_starting_by("fork", monkeypatch)
        source = audio_tree if tree is None else pipeline_out / tree
        with pytest.raises(ZeroDivisionError, match=function):
            run_command([command, str(source), "--out", str(tmp_path / "out"),
                         "--jobs", jobs])
        assert multiprocessing.active_children() == []


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

    def test_reducer_bytes_pinned(self, pipeline_out):
        assert {name: tree_digest(pipeline_out / name)
                for name in STRINGS_PIPELINE_DIGESTS} \
            == STRINGS_PIPELINE_DIGESTS

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_annotate_keeps_a_grace_note(self, tmp_path, jobs):
        """A zero-length note in track 0 keeps its note-off through
        annotate: the tempo events go in without moving it."""
        source = tmp_path / "in"
        source.mkdir()
        (source / "grace.mid").write_bytes(two_part_piece("Violin I", "Viola", [
            NoteOn(2400, 0, 80, 80), NoteOff(2400, 0, 80, 0),
            NoteOn(4800, 0, 80, 80), NoteOff(5200, 0, 80, 0)]))
        out = tmp_path / "out"
        assert run_command(["pipeline", str(source), "--out", str(out),
                            "--jobs", jobs]) == 0

        def notes(step):
            piece = parse_smf((out / step / "grace.mid").read_bytes())
            return sorted(note[:4] for note in track_notes(piece.tracks[0]))

        assert (2400, 2400, 0, 80) in notes("20_normalized")
        assert notes("30_annotated") == notes("20_normalized")

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

    def test_import_loads_no_test_dependency(self):
        """The `test` extra (pytest, hypothesis, scipy), which CI installs,
        is no runtime dependency: importing the CLI loads none of it."""
        code = ("import sys, scoreforge.cli; print(sorted("
                "{name.split('.')[0] for name in sys.modules}"
                " & {'scipy', 'hypothesis', 'pytest', '_pytest'}))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raw_pipeline_bytes_pinned(self, raw_corpus_dir, tmp_path, capsys,
                                       jobs):
        """Every file pipeline writes over the raw fixture, and its stderr,
        are pinned by digest: a speedup of the chain must not move a byte."""
        out = tmp_path / "run"
        assert run_command(["pipeline", str(raw_corpus_dir), "--out", str(out),
                            "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert {stage.name: tree_digest(stage) for stage in out.iterdir()} \
            == RAW_PIPELINE_DIGESTS
        assert err.count("\n") == 56
        assert hashlib.sha256(err.encode()).hexdigest() == RAW_PIPELINE_STDERR

    def test_chunked_pool_output_identical(self, tmp_path, monkeypatch,
                                           capsys):
        """Large inputs go to the workers in chunks of several pieces; the
        trees and the reports stay those of --jobs 1."""
        chunksizes = []

        class Recording(scoreforge.cli.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunksizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize,
                                   **kwargs)

        monkeypatch.setattr(scoreforge.cli, "ProcessPoolExecutor", Recording)
        in_dir = tmp_path / "raw"
        corpus.make_raw_corpus(in_dir, count=64)
        trees, errs = {}, {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert run_command(["pipeline", str(in_dir), "--out", str(out),
                                "--jobs", jobs]) == 1
            trees[jobs], errs[jobs] = tree_bytes(out), capsys.readouterr().err
        assert chunksizes == [2]
        assert Path("10_fixed/fix_report.json") in trees["1"]
        assert trees["1"] == trees["2"]
        assert errs["1"] == errs["2"]

    def test_jobs_above_the_input_count(self, strings_corpus_dir, tmp_path,
                                        monkeypatch):
        """The pool forks all its workers at once, so --jobs 64 over 3 files
        asks it for no more workers than files; the tree is --jobs 1's."""
        asked = []

        class Recording(scoreforge.cli.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(scoreforge.cli, "ProcessPoolExecutor", Recording)
        in_dir = tmp_path / "three"
        in_dir.mkdir()
        for path in sorted(strings_corpus_dir.glob("*.mid"))[:3]:
            shutil.copy(path, in_dir / path.name)
        trees = {}
        for jobs in ("1", "64"):
            assert run_command(["pipeline", str(in_dir), "--out",
                                str(tmp_path / jobs), "--jobs", jobs]) == 0
            trees[jobs] = tree_bytes(tmp_path / jobs)
        assert asked and max(asked) <= 3
        assert trees["1"] == trees["64"]

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
            final, _ = annotate(normalized, tables, AnnotationParams(),
                                annotated)
            for piece in (fixed, normalized, final):
                assert parse_smf(write_smf(piece)) == piece, path.name
            annotated += 1
        assert annotated >= 30


def two_part_piece(first: str, second: str, first_events=()) -> bytes:
    """A piece of two named one-note parts on channels 0 and 1; the first
    part gets ``first_events`` too."""
    tracks = []
    for channel, (name, extra) in enumerate([(first, list(first_events)),
                                             (second, [])]):
        events = [TrackName(0, name), NoteOn(0, channel, 60, 80),
                  NoteOff(16 * 480, channel, 60, 0), *extra]
        events.sort(key=lambda ev: ev.tick)
        tracks.append(Track(events))
    return write_smf(MidiPiece(480, tracks))


def rejected_piece() -> bytes:
    return corpus.build_raw_file(seed=1004, force_unknown=True)


def vlq_piece() -> bytes:
    """A piece that spans more ticks than one delta time holds, so fix
    rejects it: stripping its CC#1 would leave a delta past the VLQ range."""
    return two_part_piece("Violin I", "Viola", [
        ControlChange(MAX_VLQ_VALUE, 0, 1, 64),
        NoteOff(2 * MAX_VLQ_VALUE, 0, 61, 0)])


def zero_length_notes_piece() -> bytes:
    """A violin and a cello track, each one note that starts and ends at
    tick 0: a piece of one sample at any rate."""
    return write_smf(MidiPiece(480, [[EndOfTrack(0)]] + [
        [ProgramChange(0, channel, REGISTRY[name].gm_program),
         NoteOn(0, channel, 60, 75), NoteOff(0, channel, 60, 0), EndOfTrack(0)]
        for channel, name in enumerate(["violin", "cello"])]))


def long_span_piece() -> bytes:
    """A 314-byte strings piece (conductor, Double Bass, Violin I, Violin
    II) at 96 ticks per quarter whose conductor ends with an empty text
    event after one delta time of 0x0FFFFFF0 ticks: a span one delta time
    holds, of 2,796,202.5 quarter notes."""
    tracks = [[TrackName(0, "conductor"), OtherMeta(0x0FFFFFF0, 0x01, b"")]]
    for channel, (name, pitch) in enumerate(
            [("Double Bass", 40), ("Violin I", 76), ("Violin II", 69)]):
        events = [TrackName(0, name)]
        for quarter in range(8):
            events += [NoteOn(96 * quarter, channel, pitch + quarter % 3, 80),
                       NoteOff(96 * quarter + 96, channel,
                               pitch + quarter % 3, 0)]
        tracks.append(events)
    return write_smf(MidiPiece(96, tracks))


NORMALIZE_FAILS = OtherMeta(0, 0x01, b"normalize fails")  # a text event


def normalize_fails_piece() -> bytes:
    """A piece that passes fix and fails normalize under
    ``make_normalize_fail``."""
    return two_part_piece("Violin I", "Viola", [NORMALIZE_FAILS])


def failing_normalize(piece):
    if NORMALIZE_FAILS in piece.tracks[0]:
        raise SmfError("normalize failed")
    return normalize(piece)


def make_normalize_fail(monkeypatch) -> None:
    """Make the chain's normalize fail on ``normalize_fails_piece()``, in
    this process and in pool workers, which fork from it to see the patch."""
    pool_starting_by("fork", monkeypatch)
    monkeypatch.setattr(scoreforge.cli, "normalize", failing_normalize)


class TestStreamedWrites:
    """At --jobs N the parent writes each piece's files as the pool
    delivers it, in piece-id order; the output and stderr are those of
    --jobs 1."""

    @pytest.fixture(scope="class")
    def mixed_corpus(self, tmp_path_factory):
        source = tmp_path_factory.mktemp("mixed")
        strings = [corpus.build_string_piece(seed=4000 + i) for i in range(3)]
        files = {
            "0-flute": two_part_piece("Flute", "Violin I"),  # annotate fails
            "a": strings[0],
            "a-b": strings[0],  # a duplicate; before a by path, after by id
            "b": strings[1],
            "c": strings[2],
            "m-normalize": normalize_fails_piece(),  # normalize fails
            "unknown": rejected_piece(),  # fix fails
            "z-garbage": b"not a MIDI file",
        }
        for piece_id, data in files.items():
            (source / f"{piece_id}.mid").write_bytes(data)
        return source

    def run_jobs(self, source, tmp_path, capsys, expected_rc):
        trees, errs = {}, {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert run_command(["pipeline", str(source), "--out", str(out),
                                "--jobs", jobs]) == expected_rc
            trees[jobs], errs[jobs] = tree_bytes(out), capsys.readouterr().err
        assert trees["1"] == trees["2"]
        assert errs["1"] == errs["2"]
        return tmp_path / "jobs1", errs["1"]

    def test_mixed_corpus(self, mixed_corpus, tmp_path, capsys, monkeypatch):
        make_normalize_fail(monkeypatch)
        out, err = self.run_jobs(mixed_corpus, tmp_path, capsys, 0)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            STAGE_DIRS.values())
        report = json.loads((out / "10_fixed" / "fix_report.json").read_text())
        assert sorted(report["kept"]) == ["0-flute", "a", "b", "c",
                                          "m-normalize"]
        assert sorted(report["rejected"]) == ["unknown", "z-garbage"]
        assert [(d["kept"], d["dropped"]) for d in report["duplicates"]] == [
            ("a", "a-b")]
        written = {"10_fixed": ["0-flute", "a", "b", "c", "m-normalize"],
                   "20_normalized": ["0-flute", "a", "b", "c"],
                   "30_annotated": ["a", "b", "c"]}
        for directory, ids in written.items():
            assert sorted(p.stem for p in (out / directory).glob("*.mid")) \
                == ids
        assert sorted(p.name for p in (out / "60_manifests").iterdir()) == [
            "a.manifest.json", "b.manifest.json", "c.manifest.json",
            "provenance.json"]
        # failures are reported step by step, each step's in piece-id order
        assert [line.split(":")[0] for line in err.splitlines()] == [
            "skip unknown", "skip z-garbage", "skip m-normalize",
            "skip 0-flute"]
        assert "skip m-normalize: normalize failed" in err
        assert "skip 0-flute: MissingTable" in err

    @pytest.mark.parametrize("kept, last_step", [
        (["0-flute"], "annotate"), ([], "fix")])
    def test_chain_keeps_nothing(self, mixed_corpus, tmp_path, capsys, kept,
                                 last_step):
        source = tmp_path / "source"
        source.mkdir()
        for piece_id in [*kept, "unknown", "z-garbage"]:
            shutil.copy(mixed_corpus / f"{piece_id}.mid", source)
        out, err = self.run_jobs(source, tmp_path, capsys, 1)
        steps = list(STAGE_DIRS)[:list(STAGE_DIRS).index(last_step) + 1]
        assert sorted(p.name for p in out.iterdir()) == [
            STAGE_DIRS[step] for step in steps]
        assert err.endswith(f"no pieces left after {last_step}\n")


@pytest.fixture
def six_strings(strings_corpus_dir, tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    for path in sorted(strings_corpus_dir.glob("*.mid"))[:6]:
        shutil.copy(path, source)
    return source


class TestStaleFiles:
    """A run into an existing output directory leaves no file of a piece
    that no longer reaches the step: the tree is that of a fresh run."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rerun_drops_stale_chain_files(self, six_strings, tmp_path,
                                           capsys, monkeypatch, jobs):
        make_normalize_fail(monkeypatch)
        out = tmp_path / "run"
        assert run_command(["pipeline", str(six_strings), "--out", str(out),
                            "--jobs", jobs]) == 0
        ids = sorted(p.stem for p in six_strings.glob("*.mid"))
        assert all((out / "60_manifests" / f"{i}.manifest.json").exists()
                   for i in ids)
        (six_strings / f"{ids[0]}.mid").write_bytes(rejected_piece())
        shutil.copy(six_strings / f"{ids[1]}.mid",
                    six_strings / f"{ids[2]}.mid")  # deduped after ids[1]
        (six_strings / f"{ids[3]}.mid").write_bytes(normalize_fails_piece())
        fresh = tmp_path / "fresh"
        for target in (out, fresh):
            assert run_command(["pipeline", str(six_strings), "--out",
                                str(target), "--jobs", jobs]) == 0
        assert tree_bytes(out) == tree_bytes(fresh)
        assert (out / "10_fixed" / f"{ids[3]}.mid").exists()
        assert not (out / "20_normalized" / f"{ids[3]}.mid").exists()
        assert not (out / "30_annotated" / f"{ids[0]}.plan.json").exists()
        err = capsys.readouterr().err
        assert err.count(f"skip {ids[3]}: normalize failed") == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rerun_that_stops_drops_later_stages(self, six_strings, tmp_path,
                                                 capsys, jobs):
        for path in sorted(six_strings.glob("*.mid"))[4:]:
            path.unlink()
        out = tmp_path / "run"
        assert run_command(["pipeline", str(six_strings), "--out", str(out),
                            "--jobs", jobs]) == 0
        for path in six_strings.glob("*.mid"):  # annotate rejects them all
            path.write_bytes(two_part_piece("Flute", "Violin I"))
        fresh = tmp_path / "fresh"
        for target in (out, fresh):
            assert run_command(["pipeline", str(six_strings), "--out",
                                str(target), "--jobs", jobs]) == 1
            assert capsys.readouterr().err.endswith(
                "no pieces left after annotate\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "10_fixed", "20_normalized", "30_annotated"]
        assert tree_bytes(out) == tree_bytes(fresh)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_rerun_leaves_a_fresh_runs_tree(self, six_strings,
                                                   tmp_path, jobs):
        """A re-run whose write fails leaves what a fresh run failing at the
        same write leaves, and nothing of the earlier run."""
        third = sorted(six_strings.glob("*.mid"))[2].name
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_command(["pipeline", str(six_strings), "--out", str(out),
                            "--jobs", jobs]) == 0
        (out / "20_normalized" / third).unlink()
        for target in (out, fresh):
            (target / "20_normalized" / third).mkdir(parents=True)
            assert run_command(["pipeline", str(six_strings), "--out",
                                str(target), "--jobs", jobs]) == 1
        assert tree_bytes(out) == tree_bytes(fresh)
        assert sorted(p.relative_to(out) for p in out.rglob("*")) \
            == sorted(p.relative_to(fresh) for p in fresh.rglob("*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_output_into_the_input_keeps_the_inputs(self, six_strings,
                                                    jobs):
        ids = sorted(p.stem for p in six_strings.glob("*.mid"))
        (six_strings / f"{ids[0]}.mid").write_bytes(rejected_piece())
        shutil.copy(six_strings / f"{ids[1]}.mid",
                    six_strings / f"{ids[2]}.mid")
        kept = {i: (six_strings / f"{i}.mid").read_bytes() for i in ids[:3]}
        assert run_command(["fix", str(six_strings), "--out",
                            str(six_strings), "--jobs", jobs]) == 0
        report = json.loads((six_strings / "fix_report.json").read_text())
        assert list(report["rejected"]) == [ids[0]]
        assert report["duplicates"][0]["dropped"] == ids[2]
        assert sorted(p.stem for p in six_strings.glob("*.mid")) == ids
        for piece_id in (ids[0], ids[2]):
            assert (six_strings / f"{piece_id}.mid").read_bytes() \
                == kept[piece_id]


class TestConfigFilesReread:
    """A command reads its config files as they are when it starts, also
    after an earlier command in this process read the same paths."""

    @staticmethod
    def run(source: Path, out: Path, tables: Path, names: Path):
        config = out.with_suffix(".json")
        config.write_text(json.dumps({"articulation_tables": str(tables),
                                      "dictionary": str(names)}))
        rc = run_command(["pipeline", str(source), "--out", str(out),
                          "--config", str(config)])
        # provenance.json records the paths, which differ by design
        return rc, {path: data for path, data in tree_bytes(out).items()
                    if path.name != "provenance.json"}

    def test_rewritten_files_are_read_again(self, six_strings, tmp_path):
        data = Path(scoreforge.cli.__file__).parent / "data"
        tables, names = tmp_path / "t.csv", tmp_path / "d.csv"
        shutil.copy(data / "articulations_strings.csv", tables)
        shutil.copy(data / "instrument_names.csv", names)

        def rename_articulations(text: str) -> str:
            header, *rows = text.splitlines()
            return "\n".join([header] + [row.replace(",", ",X ", 1)
                                         for row in rows]) + "\n"

        def violas_as_violins(text: str) -> str:
            return re.sub(r",viola$", ",violin", text, flags=re.M)

        previous = self.run(six_strings, tmp_path / "run0", tables, names)
        for step, (path, rewrite) in enumerate(
                [(tables, rename_articulations), (names, violas_as_violins)], 1):
            path.write_text(rewrite(path.read_text()))
            again = self.run(six_strings, tmp_path / f"run{step}", tables, names)
            # the same contents at paths no command has read yet
            new = tmp_path / f"new{step}"
            new.mkdir()
            fresh = self.run(six_strings, new / "run", shutil.copy(tables, new),
                             shutil.copy(names, new))
            assert again == fresh
            assert again != previous
            previous = again


def pool_starting_by(method: str, monkeypatch) -> None:
    """Make the CLI's process pools and its --jobs 1 writer start their
    processes by ``method``."""
    monkeypatch.setattr(scoreforge.cli, "_CONTEXT",
                        multiprocessing.get_context(method))


START_METHODS = ("fork", "forkserver", "spawn")


class PickleCount(int):
    """An int that counts its pickles in this process; unpickles as an int."""
    count = 0

    def __reduce__(self):
        type(self).count += 1
        return int, (int(self),)


class TestStartMethods:
    """The parent loads the config files once and hands them to each
    worker, so a pool gives the same tree and the same skip lines however
    it starts its workers."""

    def test_config_files_are_loaded_once(self, six_strings, tmp_path,
                                          monkeypatch):
        """The dictionary is deleted once the parent has loaded it, before
        any worker starts; no worker reads it again."""
        names, config = tmp_path / "names.csv", tmp_path / "config.json"
        config.write_text(json.dumps({"dictionary": str(names)}))
        clear = scoreforge.cli._clear_outputs

        def clear_then_delete(*args):
            clear(*args)
            names.unlink()

        monkeypatch.setattr(scoreforge.cli, "_clear_outputs", clear_then_delete)
        data = Path(scoreforge.cli.__file__).parent / "data"
        trees = {}
        for method in START_METHODS:
            pool_starting_by(method, monkeypatch)
            shutil.copy(data / "instrument_names.csv", names)
            out = tmp_path / method
            assert run_command(["fix", str(six_strings), "--out", str(out),
                                "--jobs", "2", "--config", str(config)]) == 0
            trees[method] = tree_bytes(out)
        report = json.loads(trees["fork"][Path("fix_report.json")])
        assert len(report["kept"]) == 6
        assert trees["forkserver"] == trees["fork"]
        assert trees["spawn"] == trees["fork"]

    def test_excluded_sentinel_crosses_processes(self, six_strings, tmp_path,
                                                 monkeypatch, capsys):
        assert pickle.loads(pickle.dumps(EXCLUDED)) == EXCLUDED
        source = tmp_path / "piano"
        source.mkdir()
        (source / "piano.mid").write_bytes(two_part_piece("Piano", "Violin I"))
        shutil.copy(sorted(six_strings.glob("*.mid"))[0], source)
        for method in START_METHODS:
            pool_starting_by(method, monkeypatch)
            assert run_command(["fix", str(source), "--out",
                                str(tmp_path / method), "--jobs", "2"]) == 0
            assert capsys.readouterr().err == (
                "skip piano: track 0 ('Piano'): instrument out of scope\n")

    @pytest.mark.parametrize("method", START_METHODS)
    def test_fn_is_sent_once_per_worker(self, monkeypatch, method):
        """A pool gets its function when each worker starts (never, under
        fork), not with each of its 32 chunks of items."""
        pool_starting_by(method, monkeypatch)
        monkeypatch.setattr(PickleCount, "count", 0)
        fn = partial(operator.add, PickleCount(5))
        results = scoreforge.cli._map_jobs(fn, list(range(64)), 2)
        assert list(results) == [5 + i for i in range(64)]
        assert PickleCount.count <= (0 if method == "fork" else 2)

    def test_pipeline_and_synth_trees(self, six_strings, tmp_path,
                                      monkeypatch):
        """pipeline --jobs 2, then synth-test --jobs 2 over its annotated
        output, give the trees of --jobs 1 however the workers start: each
        worker gets the chain's config files once, and renders into
        buffers of its own that start empty."""
        def trees(name, jobs):
            run, audio = tmp_path / name / "run", tmp_path / name / "audio"
            assert run_command(["pipeline", str(six_strings), "--out",
                                str(run), "--jobs", jobs]) == 0
            assert run_command(["synth-test", str(run / "30_annotated"),
                                "--out", str(audio), "--jobs", jobs]) == 0
            return tree_bytes(run), tree_bytes(audio)

        serial = trees("serial", "1")
        assert len(serial[1]) > 6 * 3  # every piece rendered
        for method in START_METHODS:
            pool_starting_by(method, monkeypatch)
            assert trees(method, "2") == serial, method

    def test_writer_trees(self, six_strings, tmp_path, monkeypatch):
        """pipeline --jobs 1 gives the --jobs 2 tree however its writer
        process starts."""
        pool = tmp_path / "pool"
        assert run_command(["pipeline", str(six_strings), "--out", str(pool),
                            "--jobs", "2"]) == 0
        for method in START_METHODS:
            pool_starting_by(method, monkeypatch)
            out = tmp_path / method
            assert run_command(["pipeline", str(six_strings), "--out",
                                str(out), "--jobs", "1"]) == 0
            assert tree_bytes(out) == tree_bytes(pool), method


class TestChainWriter:
    """At --jobs 1 a command that starts with a chain step computes the
    chain in the parent, and a writer process, started with the command,
    creates every file of the pieces; what it leaves, whatever happens, is
    what --jobs N leaves, and it never outlives the command."""

    def test_jobs_1_streams(self):
        calls = []
        results = scoreforge.cli._map_jobs(calls.append, [1, 2, 3], 1)
        next(results)
        assert calls == [1]

    @pytest.fixture
    def writers(self, monkeypatch):
        """The writer processes started: pool workers start from the same
        context, so a writer is told from them by its target."""
        started = []
        process = scoreforge.cli._CONTEXT.Process
        start = process.start

        def recording_start(self):
            is_writer = self._target is scoreforge.cli._write_loop
            start(self)  # which drops the target
            if is_writer:
                started.append(self)

        monkeypatch.setattr(process, "start", recording_start)
        return started

    @pytest.mark.parametrize("case, rc, starts_writer", [
        ("whole chain", 0, True),
        ("no pieces left after fix", 1, True),
        ("no pieces left after annotate", 1, True),
        ("no usable pieces", 2, True),
        ("write fails", 1, True),
        ("map raises", None, True),
        ("--jobs 2", 0, False),
    ])
    def test_no_writer_outlives_the_command(self, six_strings, tmp_path,
                                            monkeypatch, capsys, writers,
                                            case, rc, starts_writer):
        out = tmp_path / "run"
        if case.startswith("no pieces left"):
            for path in six_strings.iterdir():
                path.write_bytes(rejected_piece() if case.endswith("fix")
                                 else two_part_piece("Flute", "Violin I"))
        elif case == "no usable pieces":
            monkeypatch.setattr(scoreforge.cli, "piece_labels",
                                lambda piece: set())
        elif case == "write fails":
            first = sorted(six_strings.glob("*.mid"))[0].name
            (out / "20_normalized" / first).mkdir(parents=True)
        elif case == "map raises":
            calls = []

            def normalize_twice(piece):
                calls.append(piece)
                if len(calls) == 2:
                    raise RuntimeError("normalize broke")
                return normalize(piece)

            monkeypatch.setattr(scoreforge.cli, "normalize", normalize_twice)
        argv = ["pipeline", str(six_strings), "--out", str(out)]
        if case == "--jobs 2":
            argv += ["--jobs", "2"]
        if rc is None:
            with pytest.raises(RuntimeError, match="normalize broke"):
                run_command(argv)
        else:
            assert run_command(argv) == rc
        err = capsys.readouterr().err
        if case.startswith("no"):
            assert case in err
        assert len(writers) == starts_writer
        assert all(writer.exitcode == 0 for writer in writers)
        assert multiprocessing.active_children() == []

    def test_failed_write(self, six_strings, tmp_path, capsys):
        """A chain write that fails stops the command with exit code 1
        before any report: the files of the pieces before it in id order
        are written, manifests included, nothing after it, at any --jobs."""
        ids = sorted(p.stem for p in six_strings.glob("*.mid"))
        clean = tmp_path / "clean"
        assert run_command(["pipeline", str(six_strings), "--out",
                            str(clean)]) == 0
        capsys.readouterr()
        expected = {Path("10_fixed", f"{ids[2]}.mid")} | {
            Path(directory, f"{piece_id}{suffix}") for piece_id in ids[:2]
            for directory, suffix in [
                ("10_fixed", ".mid"), ("20_normalized", ".mid"),
                ("30_annotated", ".mid"), ("30_annotated", ".plan.json"),
                ("60_manifests", ".manifest.json")]}
        trees = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            blocked = out / "20_normalized" / f"{ids[2]}.mid"
            blocked.mkdir(parents=True)
            assert run_command(["pipeline", str(six_strings), "--out",
                                str(out), "--jobs", jobs]) == 1
            assert capsys.readouterr().err \
                == f"error: [Errno 21] Is a directory: '{blocked}'\n"
            trees[jobs] = tree_bytes(out)
            assert sorted(p.name for p in out.iterdir()) == [
                "10_fixed", "20_normalized", "30_annotated", "60_manifests"]
        assert trees["1"] == trees["2"]
        assert set(trees["1"]) == expected
        clean_files = tree_bytes(clean)
        assert all(data == clean_files[path]
                   for path, data in trees["1"].items())

    def test_failed_write_is_raised_by_a_later_write(self, tmp_path):
        """The writer's error comes back while the caller still sends, not
        only at the end, and nothing after the failed file is written."""
        blocked = tmp_path / "a" / "blocked.mid"
        blocked.mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            with scoreforge.cli._chain_writer(1, ("fix",)) as write:
                write(tmp_path / "a" / "first.mid", b"1")
                write(blocked, b"2")
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    write(tmp_path / "b" / "later.mid", b"3")
                    time.sleep(0.01)
                pytest.fail("no write raised the writer's error")
        assert (tmp_path / "a" / "first.mid").read_bytes() == b"1"
        assert not (tmp_path / "b").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_parent_writes_only_the_corpus_files(self, six_strings, tmp_path,
                                                 monkeypatch, writers, jobs):
        """pipeline --jobs 1 sends every file of the pieces, manifests
        included, to its writer process, and writes only the corpus files
        itself; at --jobs 2 no writer starts and the parent writes all."""
        written = []
        write_bytes = Path.write_bytes

        def recording(path, data):  # a forked writer records in its copy
            written.append(path)
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", recording)
        out = tmp_path / "run"
        assert run_command(["pipeline", str(six_strings), "--out", str(out),
                            "--jobs", jobs]) == 0
        tree = set(tree_bytes(out))
        assert len([p for p in tree if p.suffixes == [".manifest", ".json"]]) \
            == 6
        corpus_files = {p for p in tree if p.name in (
            "fix_report.json", "stats.json", "split.json", "provenance.json")}
        assert {p.relative_to(out) for p in written} \
            == (corpus_files if jobs == "1" else tree)
        assert len(writers) == int(jobs == "1")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_writer_only_for_chain_commands_at_jobs_1(
            self, pipeline_out, six_strings, tmp_path, writers, jobs):
        """A writer process starts for fix, normalize and annotate at
        --jobs 1, and for no other command or --jobs."""
        annotated = pipeline_out / "30_annotated"
        inputs = {"fix": six_strings, "normalize": pipeline_out / "10_fixed",
                  "annotate": pipeline_out / "20_normalized",
                  "stats": annotated, "split": annotated,
                  "manifest": annotated}
        started = {}
        for command, source in inputs.items():
            before = len(writers)
            assert run_command([command, str(source), "--out",
                                str(tmp_path / command), "--jobs", jobs]) == 0
            started[command] = len(writers) - before
        chain = int(jobs == "1")
        assert started == {"fix": chain, "normalize": chain,
                           "annotate": chain, "stats": 0, "split": 0,
                           "manifest": 0}
