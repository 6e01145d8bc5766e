"""scoreforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark builds a seeded corpus
with the builders in `tests/corpus.py`, then drives `scoreforge.cli` one
command at a time (closed loop), each command in a fresh interpreter, at
`--jobs 1` and `--jobs 2`, in rounds until S seconds have passed. It checks
every output tree and prints a report; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

Workloads:

  repair-raw   `pipeline` over the 403-file messy raw corpus
  render-eval  `synth-test`, then `eval`, over 16 annotated string pieces;
               the `pipeline` that prepares them is not timed

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json. With
`--trace 1` a round also runs each command traced (spans written to
`.perfbench/results/`) and, for `pipeline`, each stage as its own
subcommand; the metrics are the per-layer ones. The exit code is 1 when an
output check fails, 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PIPELINE_STAGES = (("fix", "10_fixed", None),
                   ("normalize", "20_normalized", "10_fixed"),
                   ("annotate", "30_annotated", "20_normalized"),
                   ("stats", "40_stats", "30_annotated"),
                   ("split", "50_split", "30_annotated"),
                   ("manifest", "60_manifests", "30_annotated"))
LAYERS = ("smf", "gmfix", "expressive", "datasetkit", "renderkit", "audio",
          "evalkit")


@dataclass(frozen=True)
class Workload:
    builder: str  # corpus builder in tests/corpus.py
    pieces: int
    renders: bool  # synth-test + eval over the corpus after `pipeline`


WORKLOADS = {
    "repair-raw": Workload("make_raw_corpus", 400, renders=False),
    "render-eval": Workload("make_string_corpus", 16, renders=True),
}

END_TO_END = {
    "setup_s": "s",
    "pieces_per_s": "pieces/s",
    "pieces_per_s_jobs2": "pieces/s",
    "peak_rss_mb": "MB",
}

# name -> unit; every name is emitted on every workload, 0 where the layer
# or command is not reached
PER_LAYER = {
    "smf.self_s": "s",
    "smf.parse_smf.calls": "count",
    "smf.parse_smf.self_s": "s",
    "smf.parse_smf.bytes": "bytes",
    "smf.write_smf.calls": "count",
    "smf.write_smf.self_s": "s",
    "smf.write_smf.bytes": "bytes",
    "smf.track_notes.calls": "count",
    "smf.track_notes.self_s": "s",
    "smf.TempoMap.from_piece.calls": "count",
    "smf.parses_per_piece": "ratio",
    "gmfix.self_s": "s",
    "gmfix.fix_piece.calls": "count",
    "gmfix.fix_piece.self_s": "s",
    "gmfix.fix_piece.failed": "count",
    "gmfix.normalize.calls": "count",
    "gmfix.normalize.self_s": "s",
    "gmfix.note_fingerprint.calls": "count",
    "gmfix.note_fingerprint.self_s": "s",
    "gmfix.track_instruments.calls": "count",
    "expressive.self_s": "s",
    "expressive.annotate.calls": "count",
    "expressive.annotate.self_s": "s",
    "expressive.annotate.failed": "count",
    "expressive.annotate.ok_frac": "ratio",
    "datasetkit.self_s": "s",
    "datasetkit.activity_time.self_s": "s",
    "datasetkit.polyphony_histogram.self_s": "s",
    "datasetkit.stratified_split.self_s": "s",
    "datasetkit.piece_labels.calls": "count",
    "renderkit.self_s": "s",
    "renderkit.emit_manifest.calls": "count",
    "renderkit.emit_manifest.self_s": "s",
    "renderkit.test_synthesize.calls": "count",
    "renderkit.test_synthesize.self_s": "s",
    "renderkit.test_synthesize.samples": "samples",
    "renderkit.test_synthesize.calls_per_piece": "ratio",
    "renderkit.mix_stems.self_s": "s",
    "audio.self_s": "s",
    "audio.write_wav.calls": "count",
    "audio.write_wav.self_s": "s",
    "audio.write_wav.bytes": "bytes",
    "audio.read_wav.calls": "count",
    "audio.read_wav.self_s": "s",
    "audio.read_wav.bytes": "bytes",
    "evalkit.self_s": "s",
    "evalkit.evaluate_piece.calls": "count",
    "evalkit.evaluate_piece.self_s": "s",
    "evalkit.frames_scored": "frames",
    "cli.fix.wall_s": "s",
    "cli.normalize.wall_s": "s",
    "cli.annotate.wall_s": "s",
    "cli.stats.wall_s": "s",
    "cli.split.wall_s": "s",
    "cli.manifest.wall_s": "s",
    "cli.synth-test.wall_s": "s",
    "cli.eval.wall_s": "s",
    "cli.eval.jobs2_wall_s": "s",
    "cli.overhead_s": "s",
    "trace_overhead_frac": "ratio",
    "pipeline_pieces_per_s": "pieces/s",
    "pipeline_pieces_per_s_jobs2": "pieces/s",
    "synth_audio_s_per_s": "audio-s/s",
    "synth_audio_s_per_s_jobs2": "audio-s/s",
    "eval_audio_s_per_s": "audio-s/s",
    "pieces_failed_frac": "ratio",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _corpus_module():
    """tests/corpus.py, imported from the checkout, not copied."""
    if not (ROOT / "tests" / "corpus.py").is_file() or \
            not (ROOT / "src" / "scoreforge" / "cli.py").is_file():
        raise BenchError(f"{ROOT} is not a scoreforge checkout "
                         "(needs src/scoreforge and tests/corpus.py)")
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    import corpus

    return corpus


def seeded_name(seed: int, stem: str) -> str:
    """The seed's name for a piece. The program derives every per-piece seed
    (annotation draws) from the name, and the split from the names; the
    corpus order stays that of the builder."""
    return f"{stem}_{hashlib.sha256(f'{seed}:{stem}'.encode()).hexdigest()[:8]}"


def make_inputs(workload: str, seed: int, work: Path,
                pieces: int | None = None) -> Path:
    """Build the workload's input directory under `work`. For render-eval
    this includes the untimed `pipeline` that annotates the corpus."""
    spec = WORKLOADS[workload]
    corpus = _corpus_module()
    corpus_dir = work / "corpus"
    shutil.rmtree(corpus_dir, ignore_errors=True)
    for path in getattr(corpus, spec.builder)(corpus_dir, pieces or spec.pieces):
        path.rename(corpus_dir / f"{seeded_name(seed, path.stem)}.mid")
    if not spec.renders:
        return corpus_dir
    prepared = work / "prepared"
    shutil.rmtree(prepared, ignore_errors=True)
    result = _child(["run", "--", "pipeline", str(corpus_dir),
                     "--out", str(prepared)])
    if result["rc"] != 0:
        raise BenchError(f"preparing render-eval input failed: {result}")
    return prepared / "30_annotated"


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child(args: list[str]) -> dict:
    """Run perfbench/child.py in a fresh interpreter; its own process group,
    so a timeout also stops its pool workers."""
    proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {args}")
    if proc.returncode != 0 or not out.strip():
        return {"rc": proc.returncode or 1, "wall_s": 0.0, "rss_kb": 0,
                "stderr": err[-500:]}
    result = json.loads(out.strip().splitlines()[-1])
    if result["rc"] != 0:
        result["stderr"] = err[-500:]
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def tree_digest(directory: Path) -> tuple[str, dict[str, str]]:
    """sha256 of every file under `directory`, and one over all of them."""
    files = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        files[path.relative_to(directory).as_posix()] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    overall = hashlib.sha256(json.dumps(files, sort_keys=True).encode())
    return overall.hexdigest(), files


def check_mixtures(audio_dir: Path) -> tuple[list[str], float, float]:
    """Every mixture.wav must equal the float32 sum of its stems exactly.
    Returns the offending pieces, mixture seconds and reference seconds."""
    import numpy as np
    from scipy.io import wavfile

    bad, mixture_s, reference_s = [], 0.0, 0.0
    for piece in sorted(p for p in audio_dir.iterdir() if p.is_dir()):
        rate, mixture = wavfile.read(piece / "mixture.wav")
        stems = [wavfile.read(p)[1] for p in sorted(piece.glob("*.wav"))
                 if p.stem != "mixture"]
        total = np.zeros(max(len(s) for s in stems), dtype=np.float64)
        for stem in stems:
            total[:len(stem)] += stem
            reference_s += len(stem) / rate
        mixture_s += len(mixture) / rate
        if mixture.dtype != np.float32 or not np.array_equal(
                total.astype(np.float32), mixture):
            bad.append(piece.name)
    return bad, mixture_s, reference_s


def failed_fraction(inputs: Path, outputs: set[str],
                    duplicates: set[str]) -> tuple[int, int]:
    """Input pieces absent from the final outputs, duplicates excepted."""
    ids = {p.stem for p in inputs.glob("*.mid")}
    return len(ids - outputs - duplicates), len(ids)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def span_stats(*span_files: list[dict]) -> dict[str, dict[str, float]]:
    """Per traced function: calls, self time, failed calls, counted amount.
    Self time is a span's duration minus the time its child spans cover."""
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "failed": 0, "amount": 0})
    for spans in span_files:
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(spans, covered):
            entry = stats[span["name"]]
            entry["calls"] += 1
            entry["self_s"] += span["end"] - span["start"] - inner
            entry["failed"] += int(span["failed"])
            entry["amount"] += span["amount"]
    return stats


def layer_metrics(stats: dict, pieces: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced round."""
    def get(name: str, field: str) -> float:
        return stats[name][field] if name in stats else 0

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if head in LAYERS and field == "self_s":
            values[metric] = sum(entry["self_s"] for name, entry in stats.items()
                                 if name.split(".")[0] == head)
        elif field in ("calls", "self_s", "failed"):
            values[metric] = get(head, field)
        elif field in ("bytes", "samples"):
            values[metric] = get(head, "amount")
    annotate_calls = get("expressive.annotate", "calls")
    values.update({
        "smf.parses_per_piece": get("smf.parse_smf", "calls") / pieces,
        "expressive.annotate.ok_frac":
            (annotate_calls - get("expressive.annotate", "failed"))
            / annotate_calls if annotate_calls else 0.0,
        "renderkit.test_synthesize.calls_per_piece":
            get("renderkit.test_synthesize", "calls") / pieces,
        "evalkit.frames_scored": get("evalkit.evaluate_piece", "amount"),
        "cli.overhead_s": get("cli.run_command", "self_s"),
    })
    return values


# ---------------------------------------------------------------------------
# The benchmark run
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered),
           "samples": values}
    if len(ordered) > 10:
        out["tail_pct"] = 100.0 * (len(ordered) - 10) / len(ordered)
        out["tail"] = ordered[len(ordered) - 11]
    return out


class Run:
    def __init__(self, workload: str, inputs: Path, work: Path,
                 results: Path, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.inputs = inputs
        self.work = work
        self.results = results
        self.trace = trace
        self.pieces = len(list(inputs.glob("*.mid")))
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.rss_kb: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.files: dict[str, dict[str, str]] = {}
        self.rounds: list[dict[str, float]] = []
        self.facts: dict[str, float] = {}

    # -- commands --------------------------------------------------------

    def command(self, key: str, argv: list[str], out: Path,
                spans: Path | None = None) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        options = (["--spans", str(spans), "--workload", self.workload]
                   if spans else [])
        result = _child(["run", *options, "--", *argv, "--out", str(out)])
        self.attempted += 1
        if result["rc"] != 0:
            self.failed += 1
            self.problems.append(f"{key} exited {result['rc']}: "
                                 f"{result.get('stderr', '')}")
        self.walls[key].append(result["wall_s"])
        self.rss_kb[key].append(result["rss_kb"])
        return result

    def expect_same(self, kind: str, out: Path) -> None:
        """Every output tree of one command kind must match the first."""
        digest, files = tree_digest(out)
        if kind not in self.digests:
            self.digests[kind], self.files[kind] = digest, files
        elif digest != self.digests[kind]:
            differing = sorted(k for k in set(files) | set(self.files[kind])
                               if files.get(k) != self.files[kind].get(k))
            self.problems.append(f"{kind} output {out.name} differs from the "
                                 f"first run in {differing[:5]}")

    def traced(self, kind: str, argv: list[str], out: Path) -> list | None:
        """Run a command traced at --jobs 1; its spans, or None if it failed."""
        spans = self.results / f"{kind}-spans-{len(self.rounds)}.json"
        if self.command(f"{kind}@traced", [*argv, "--jobs", "1"], out,
                        spans)["rc"]:
            return None
        self.expect_same(kind, out)
        return json.loads(spans.read_text())["spans"]

    # -- rounds ----------------------------------------------------------

    def pipeline_round(self) -> dict:
        jobs1, jobs2 = self.work / "jobs1", self.work / "jobs2"
        argv = ["pipeline", str(self.inputs)]
        if self.command("pipeline@1", [*argv, "--jobs", "1"], jobs1)["rc"]:
            return {}
        if not self.facts:
            fix_report = json.loads(
                (jobs1 / "10_fixed" / "fix_report.json").read_text())
            made = {p.name.removesuffix(".manifest.json")
                    for p in (jobs1 / "60_manifests").glob("*.manifest.json")}
            dropped = {d["dropped"] for d in fix_report["duplicates"]}
            self.facts["failed"], self.facts["inputs"] = failed_fraction(
                self.inputs, made, dropped)
        self.expect_same("pipeline", jobs1)
        self.command("pipeline@2", [*argv, "--jobs", "2"], jobs2)
        self.expect_same("pipeline", jobs2)
        if not self.trace:
            return {}
        spans = self.traced("pipeline", argv, self.work / "traced")
        if spans is None:
            return {}
        staged = self.work / "stages"
        shutil.rmtree(staged, ignore_errors=True)
        for stage, name, source in PIPELINE_STAGES:
            stage_in = self.inputs if source is None else staged / source
            self.command(stage, [stage, str(stage_in)], staged / name)
        self.expect_same("pipeline", staged)
        return layer_metrics(span_stats(spans), self.pieces)

    def render_round(self) -> dict:
        audio1, audio2 = self.work / "audio1", self.work / "audio2"
        argv = ["synth-test", str(self.inputs)]
        if self.command("synth-test@1", [*argv, "--jobs", "1"], audio1)["rc"]:
            return {}
        if not self.facts:
            bad, mixture_s, reference_s = check_mixtures(audio1)
            if bad:
                self.problems.append(f"mixture != sum of stems in {bad[:5]}")
            self.facts.update(mixture_s=mixture_s, reference_s=reference_s)
        self.expect_same("synth-test", audio1)
        self.command("synth-test@2", [*argv, "--jobs", "2"], audio2)
        self.expect_same("synth-test", audio2)
        report = self.work / "eval1"
        if self.command("eval@1", ["eval", str(audio1), "--jobs", "1"],
                        report)["rc"]:
            return {}
        if "failed" not in self.facts:
            scored = json.loads((report / "eval_report.json").read_text())
            self.facts["failed"], self.facts["inputs"] = failed_fraction(
                self.inputs, set(scored["pieces"]), set())
        self.expect_same("eval", report)
        if not self.trace:
            return {}
        report2 = self.work / "eval2"
        self.command("eval@2", ["eval", str(audio1), "--jobs", "2"], report2)
        self.expect_same("eval", report2)
        traced_audio = self.work / "audio-traced"
        synth_spans = self.traced("synth-test", argv, traced_audio)
        if synth_spans is None:
            return {}
        eval_spans = self.traced("eval", ["eval", str(traced_audio)],
                                 self.work / "eval-traced")
        if eval_spans is None:
            return {}
        return layer_metrics(span_stats(synth_spans, eval_spans), self.pieces)

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        round_fn = self.render_round if self.spec.renders else self.pipeline_round
        while not self.rounds or time.perf_counter() < deadline:
            self.rounds.append(round_fn())
            if self.problems:
                break

    # -- metrics ---------------------------------------------------------

    def median(self, key: str) -> float:
        walls = self.walls.get(key)
        return statistics.median(walls) if walls else 0.0

    def throughput(self, amount: float, key: str) -> float:
        wall = self.median(key)
        return amount / wall if wall else 0.0

    def end_to_end(self, setup: list[float]) -> dict[str, float]:
        main = "synth-test" if self.spec.renders else "pipeline"
        return {
            "setup_s": statistics.median(setup),
            "pieces_per_s": self.throughput(self.pieces, f"{main}@1"),
            "pieces_per_s_jobs2": self.throughput(self.pieces, f"{main}@2"),
            "peak_rss_mb": max(max(kb) for key, kb in self.rss_kb.items()
                               if key.endswith("@1")) / 1024.0,
        }

    def readings(self) -> dict[str, float]:
        """Command-level readings named after what they time; per-layer."""
        values = {
            "pipeline_pieces_per_s": self.throughput(self.pieces, "pipeline@1"),
            "pipeline_pieces_per_s_jobs2":
                self.throughput(self.pieces, "pipeline@2"),
            "synth_audio_s_per_s":
                self.throughput(self.facts.get("mixture_s", 0), "synth-test@1"),
            "synth_audio_s_per_s_jobs2":
                self.throughput(self.facts.get("mixture_s", 0), "synth-test@2"),
            "eval_audio_s_per_s":
                self.throughput(self.facts.get("reference_s", 0), "eval@1"),
            "pieces_failed_frac":
                self.facts.get("failed", 0) / self.facts.get("inputs", 1),
            "cli.synth-test.wall_s": self.median("synth-test@1"),
            "cli.eval.wall_s": self.median("eval@1"),
            "cli.eval.jobs2_wall_s": self.median("eval@2"),
        }
        for stage, _, _ in PIPELINE_STAGES:
            values[f"cli.{stage}.wall_s"] = self.median(stage)
        commands = ("synth-test", "eval") if self.spec.renders else ("pipeline",)
        plain = sum(self.median(f"{c}@1") for c in commands)
        traced = sum(self.median(f"{c}@traced") for c in commands)
        values["trace_overhead_frac"] = traced / plain - 1.0 if traced else 0.0
        return values

    def per_layer(self) -> dict[str, float]:
        traced = [metrics for metrics in self.rounds if metrics]
        values = {name: statistics.median(r[name] for r in traced)
                  for name in (traced[0] if traced else ())}
        values.update(self.readings())
        return values


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_sha": git_sha,
    }


def run(workload: str, inputs: Path, work: Path, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload over prepared inputs; returns the result object
    (`correct`, `attempted`, `failed`, `metrics`) plus a `report`."""
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    _child(["setup"])  # untimed: compiles bytecode, warms the file cache
    setup = [_child(["setup"])["wall_s"] for _ in range(setup_repeats)]
    bench = Run(workload, inputs, work, results, trace)
    bench.measure(seconds)
    units = PER_LAYER if trace else END_TO_END
    values = bench.per_layer() if trace else bench.end_to_end(setup)
    report = {
        "workload": workload,
        "pieces": bench.pieces,
        "rounds": len(bench.rounds),
        "setup_s": summary(setup),
        "commands": {key: summary(walls) for key, walls in bench.walls.items()},
        "rss_kb": bench.rss_kb,
        "readings": bench.readings(),
        "sha256": bench.digests,
        "problems": bench.problems,
        "environment": environment(),
    }
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
        "report": report,
    }


def print_report(result: dict) -> None:
    report = result["report"]
    print(f"workload {report['workload']}: {report['pieces']} input pieces, "
          f"{report['rounds']} round(s), closed loop, one command at a time")
    for key, stats in sorted(report["commands"].items()):
        tail = (f", p{stats['tail_pct']:.0f} {stats['tail']:.4f}"
                if "tail" in stats else "")
        print(f"  {key:<22} wall median {stats['median']:.4f} s{tail} "
              f"(n={stats['n']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    if "pieces_per_s" in result["metrics"]:
        for name, value in report["readings"].items():
            if name in PER_LAYER and value:
                print(f"  ({name:<40} {value:.6g} {PER_LAYER[name]})")
    for kind, digest in sorted(report["sha256"].items()):
        print(f"  sha256 {kind:<12} {digest}")
    env = report["environment"]
    print(f"  python {env['python']}, nproc {env['nproc']}, numpy "
          f"{env['numpy']} ({env['blas']}), git {env['git_sha']}, "
          f"thread env {env['thread_env']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    base = ROOT / ".perfbench"
    work = base / "work"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(args.workload, args.seed, work)
        result = run(args.workload, inputs, work, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        keep = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(keep, ignore_errors=True)
        if (work / "results").is_dir():
            shutil.copytree(work / "results", keep)
        shutil.rmtree(work, ignore_errors=True)
    (keep / "result.json").write_text(json.dumps(result, indent=1))
    print_report(result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
