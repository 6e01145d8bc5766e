"""Command-line front end.

Subcommands map one-to-one onto the library stages:

    fix         identify instruments, rewrite programs, drop unknowns, dedupe
    normalize   flat velocity 75, single 120 BPM tempo, strip CC 1/11/32
    annotate    random tempo/dynamics/articulation annotation (or plain copy)
    stats       per-instrument activity and polyphony histograms
    split       stratified train/eval/test partition
    manifest    render manifests for external synthesizers
    synth-test  built-in test synthesis of stems and mixtures
    eval        frame SDR / piece median / corpus median report
    pipeline    fix -> normalize -> annotate -> stats -> split -> manifest

The MIDI subcommands from fix to manifest are ranges of one per-piece chain,

    parse -> fix -> normalize -> annotate -> stats | split | manifest

run in the workers on each file, parsed once and kept in memory between
steps; the parent reduces over the corpus (dedupe after fix, stats totals,
the split) and writes each step's directory. `pipeline` is the whole range.

All randomness flows from one master seed; each piece gets its own generator
seeded from (master seed, piece id), so results do not depend on file
enumeration order or the number of workers. Every output directory gets a
provenance.json recording the tool version, seed and configuration. Per-file
failures are reported and skipped; --strict turns them into a nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .audio import Waveform, read_wav, write_wav
from .datasetkit import (
    DEFAULT_RATIOS,
    InvalidRatios,
    activity_time,
    as_fractions,
    piece_labels,
    polyphony_histogram,
    stratified_split,
)
from .evalkit import FRAME_SECONDS, SILENCE_DBFS, SdrReport, evaluate_piece
from .expressive import (
    AnnotationParams,
    AnnotationPlan,
    annotate,
    from_dict,
    load_articulation_tables,
    piece_seed,
    plan_from_dict,
    plan_to_dict,
)
from .gmfix import (
    InstrumentDictionary,
    PieceRejected,
    admit_piece,
    dedupe,
    normalize,
    note_fingerprint,
)
from .renderkit import (
    DEFAULT_SAMPLE_RATE,
    StemEntry,
    StemGroupRules,
    emit_manifest,
    mix_stems,
    test_synthesize,
)
from .smf import SmfError, parse_smf, write_smf

MIXTURE_STEM = "mixture"


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class PipelineConfig:
    master_seed: int = 0
    corpus_dir: str = ""
    output_dir: str = ""
    dictionary: str | None = None
    articulation_tables: str | None = None
    annotation: AnnotationParams = dataclasses.field(default_factory=AnnotationParams)
    split_ratios: tuple[float, ...] = DEFAULT_RATIOS
    annotate_mode: str = "proposed"
    sample_rate: int = DEFAULT_SAMPLE_RATE
    frame_len_s: float = FRAME_SECONDS
    silence_threshold_dbfs: float = SILENCE_DBFS
    projection: str = "plain"

    @classmethod
    def from_file(cls, path: str | Path,
                  overrides: dict | None = None) -> "PipelineConfig":
        """The config in the JSON file at ``path``, with ``overrides`` on top."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        return cls.from_dict({**raw, **(overrides or {})})

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Decode and check a whole config; every fault is a ConfigError."""
        try:
            config = from_dict(cls, raw)
            as_fractions(config.split_ratios)
        except (TypeError, ValueError, InvalidRatios) as exc:
            raise ConfigError(str(exc)) from exc
        if config.annotate_mode not in ("plain", "proposed"):
            raise ConfigError(f"bad annotate_mode {config.annotate_mode!r}")
        if config.projection not in ("plain", "scalar"):
            raise ConfigError(f"bad projection {config.projection!r}")
        for name in ("sample_rate", "frame_len_s"):
            if not getattr(config, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if config.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        return config


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_provenance(out_dir: Path, stage: str, config: PipelineConfig) -> None:
    _write_json(out_dir / "provenance.json", {
        "tool": "scoreforge",
        "version": __version__,
        "stage": stage,
        "config": dataclasses.asdict(config),
    })


def _midi_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in (".mid", ".midi"))
    if not files:
        raise ConfigError(f"no MIDI files in {directory}")
    return files


def _map_jobs(fn: Callable, items: Sequence, jobs: int) -> list:
    """Apply fn over items, preserving order; jobs > 1 uses processes."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


class _Failures:
    def __init__(self, strict: bool):
        self.strict = strict
        self.items: list[tuple[str, str]] = []

    def add(self, piece_id: str, message: str) -> None:
        self.items.append((piece_id, message))
        print(f"skip {piece_id}: {message}", file=sys.stderr)

    def exit_code(self) -> int:
        return 1 if (self.strict and self.items) else 0


def _collect(results: list[dict], step: str, failures: _Failures) -> list[dict]:
    """Report the results that failed at ``step``; return the rest, in order."""
    ok = []
    for result in results:
        if step in result["errors"]:
            failures.add(result["id"], result["errors"][step])
        else:
            ok.append(result)
    return ok


@cache
def _dictionary(path: str | None) -> InstrumentDictionary:
    return (InstrumentDictionary.default() if path is None
            else InstrumentDictionary.from_csv(path))


_tables = cache(load_articulation_tables)


def _load_config_files(steps: tuple[str, ...], config: PipelineConfig) -> None:
    """Fill the caches with the files ``steps`` read before any worker starts
    (forked workers inherit them); a file that fails to load is a ConfigError."""
    loads = {"fix": (_dictionary, config.dictionary)}
    if config.annotate_mode == "proposed":
        loads["annotate"] = (_tables, config.articulation_tables)
    for step, (load, path) in loads.items():
        if step in steps:
            try:
                load(path)
            except Exception as exc:
                raise ConfigError(f"cannot load {path}: "
                                  f"{type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# The per-piece chain (top level so it pickles for process pools)
# ---------------------------------------------------------------------------

STEPS = ("fix", "normalize", "annotate", "stats", "split", "manifest")
# a failure in these ends the piece's chain; the later steps only read the
# piece, so each of them fails on its own
CHAIN_STEPS = STEPS[:3]
STAGE_DIRS = dict(zip(STEPS, ("10_fixed", "20_normalized", "30_annotated",
                              "40_stats", "50_split", "60_manifests")))
# what each step reports as a per-piece failure (anything else aborts the
# command), and whether the message names the exception type
_STEP_ERRORS = {
    "fix": ((SmfError, PieceRejected, OSError), False),
    "normalize": ((SmfError, OSError), False),
    "annotate": (Exception, True),
    "stats": ((SmfError, OSError), False),
    "split": ((SmfError, OSError), False),
    "manifest": (Exception, True),
}


def _message(step: str, exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}" if _STEP_ERRORS[step][1] else str(exc)


def _read_plan(plans_dir: str, piece_id: str) -> AnnotationPlan | None:
    plan_path = Path(plans_dir) / f"{piece_id}.plan.json"
    if plan_path.exists():
        data = json.loads(plan_path.read_text(encoding="utf-8"))
        if data.get("mode") == "proposed":
            return plan_from_dict(data["plan"])
    return None


def _chain_worker(path_str: str, steps: tuple[str, ...], config: PipelineConfig,
                  plans_dir: str | None) -> dict:
    """Parse one file and run ``steps`` (a range of STEPS) on it in memory.

    Returns the piece id, each step's artefact under the step's name (SMF
    bytes, the stats and label set, the manifest dict), the fixed piece's
    note fingerprint, instruments and the annotation sidecar, and
    ``errors``: step -> message for every step that failed.
    """
    path = Path(path_str)
    piece_id = path.stem
    out: dict = {"id": piece_id, "errors": {}}
    piece = plan = None
    for step in steps:
        try:
            if piece is None:  # so a parse failure is the first step's
                piece = parse_smf(path.read_bytes())
            if step == "fix":
                piece, instruments = admit_piece(piece, _dictionary(config.dictionary))
                out["fix"] = write_smf(piece)
                out["fingerprint"] = note_fingerprint(piece)
                out["instruments"] = sorted({iid.name for iid in instruments})
            elif step == "normalize":
                piece = normalize(piece)
                out["normalize"] = write_smf(piece)
            elif step == "annotate":
                seed = piece_seed(config.master_seed, piece_id)
                out["plan"] = {"mode": config.annotate_mode, "seed": seed}
                if config.annotate_mode == "proposed":
                    piece, plan = annotate(
                        piece, _tables(config.articulation_tables),
                        dataclasses.replace(config.annotation, seed=seed))
                    out["plan"]["plan"] = plan_to_dict(plan)
                out["annotate"] = write_smf(piece)
            elif step == "stats":
                out["stats"] = {
                    "activity_seconds": {iid.name: seconds for iid, seconds
                                         in activity_time(piece).items()},
                    "polyphony_seconds": {str(level): seconds for level, seconds
                                          in polyphony_histogram(piece).items()},
                }
            elif step == "split":
                labels = piece_labels(piece)
                if labels:
                    out["split"] = labels
                else:
                    out["errors"]["split"] = "no identifiable instruments"
            else:
                if "annotate" not in steps:
                    plan = _read_plan(plans_dir, piece_id)
                out["manifest"] = emit_manifest(
                    piece, plan, StemGroupRules(), piece_id=piece_id,
                    sample_rate=config.sample_rate).to_dict()
        except _STEP_ERRORS[step][0] as exc:
            out["errors"][step] = _message(step, exc)
            if step in CHAIN_STEPS:
                break
    return out


def _run_steps(in_dir: Path, out_dirs: dict[str, Path], config: PipelineConfig,
               jobs: int, failures: _Failures, plans_dir: Path | None = None,
               ) -> int:
    """Map the chain over the files of ``in_dir`` for the steps that key
    ``out_dirs`` (a range of STEPS), then run the corpus reducers (dedupe,
    stats totals, split) and write each step's directory. Stops with exit
    code 1 when a chain step leaves no piece for the steps after it."""
    steps = tuple(out_dirs)
    _load_config_files(steps, config)
    worker = partial(_chain_worker, steps=steps, config=config,
                     plans_dir=str(plans_dir) if plans_dir else None)
    alive = _map_jobs(worker, [str(p) for p in _midi_files(in_dir)], jobs)
    for step in steps:
        out_dir = out_dirs[step]
        out_dir.mkdir(parents=True, exist_ok=True)
        ok = _collect(alive, step, failures)
        if step == "fix":  # always the first step, so failures are its own
            kept_ids, duplicates = dedupe({r["id"]: r["fingerprint"] for r in
                                           sorted(ok, key=lambda r: r["id"])})
            kept = set(kept_ids)
            ok = [r for r in ok if r["id"] in kept]
            _write_json(out_dir / "fix_report.json", {
                "kept": {r["id"]: r["instruments"] for r in ok},
                "rejected": dict(failures.items),
                "duplicates": [{"kept": d.kept_id, "dropped": d.dropped_id,
                                "fingerprint": d.fingerprint}
                               for d in duplicates],
            })
        if step in CHAIN_STEPS:
            for r in ok:
                (out_dir / f"{r['id']}.mid").write_bytes(r[step])
                if step == "annotate":
                    _write_json(out_dir / f"{r['id']}.plan.json", r["plan"])
            alive = ok
        elif step == "stats":
            totals: dict[str, dict] = {"activity_seconds": {},
                                       "polyphony_seconds": {}}
            for r in ok:
                for kind, values in r["stats"].items():
                    for key, seconds in values.items():
                        totals[kind][key] = totals[kind].get(key, 0.0) + seconds
            _write_json(out_dir / "stats.json", {
                "pieces": {r["id"]: r["stats"] for r in ok}, "corpus": totals})
        elif step == "split":
            if not ok:
                raise ConfigError(f"no usable pieces in {in_dir}")
            result = stratified_split({r["id"]: r["split"] for r in ok},
                                      config.split_ratios,
                                      np.random.default_rng(config.master_seed))
            _write_json(out_dir / "split.json", {
                "ratios": list(result.ratios),
                "assignment": dict(sorted(result.assignment.items())),
                "splits": {name: result.split(name)
                           for name in ("train", "eval", "test")},
                "balance_report": result.balance_report,
            })
        else:
            for r in ok:
                _write_json(out_dir / f"{r['id']}.manifest.json", r["manifest"])
        _write_provenance(out_dir, step, config)
        if not alive and step != steps[-1]:
            print(f"no pieces left after {step}", file=sys.stderr)
            return 1
    return failures.exit_code()


# ---------------------------------------------------------------------------
# Audio commands
# ---------------------------------------------------------------------------

def _synth_worker(path_str: str, out_dir: str, sample_rate: int) -> dict:
    path = Path(path_str)
    piece_id = path.stem
    try:
        piece = parse_smf(path.read_bytes())
        manifest = emit_manifest(piece, None, StemGroupRules(),
                                 piece_id=piece_id, sample_rate=sample_rate)
        piece_dir = Path(out_dir) / piece_id
        piece_dir.mkdir(parents=True, exist_ok=True)

        def render(entry: StemEntry) -> Waveform:
            stem = test_synthesize(
                piece, [tr.track_index for tr in entry.tracks], sample_rate)
            # storage precision is float32; round in place and mix in that
            # precision so the written stems sum exactly to the written
            # mixture
            stem.samples[:] = stem.samples.astype(np.float32)
            write_wav(piece_dir / f"{entry.stem}.wav", stem)
            return stem

        # entries are sorted by stem name, which is the mix order
        mix = mix_stems(render(entry) for entry in manifest.entries)
        write_wav(piece_dir / f"{MIXTURE_STEM}.wav", mix.waveform)
        stems = [entry.stem for entry in manifest.entries]
        return {"id": piece_id, "errors": {}, "stems": stems,
                "peak": mix.peak}
    except Exception as exc:
        return {"id": piece_id,
                "errors": {"synth-test": f"{type(exc).__name__}: {exc}"}}


def _eval_worker(piece_dir_str: str, estimates_dir: str | None,
                 frame_len_s: float, silence_threshold_dbfs: float,
                 projection: str) -> dict:
    piece_dir = Path(piece_dir_str)
    piece_id = piece_dir.name

    def failed(message: str) -> dict:
        return {"id": piece_id, "errors": {"eval": message}}

    try:
        references: dict[str, Waveform] = {}
        for wav in sorted(piece_dir.glob("*.wav")):
            if wav.stem != MIXTURE_STEM:
                references[wav.stem] = read_wav(wav)
        if not references:
            return failed("no stem files")
        if estimates_dir is None:
            mixture = read_wav(piece_dir / f"{MIXTURE_STEM}.wav")
            estimates = {stem: mixture for stem in references}
        else:
            paths = {stem: Path(estimates_dir) / piece_id / f"{stem}.wav"
                     for stem in references}
            missing = [stem for stem, path in paths.items() if not path.exists()]
            if missing:
                return failed(f"no estimate for stems: {', '.join(missing)}")
            estimates = {stem: read_wav(path) for stem, path in paths.items()}
        frames = evaluate_piece(references, estimates, frame_len_s,
                                silence_threshold_dbfs, projection)
        return {"id": piece_id, "errors": {}, "frames": frames}
    except Exception as exc:
        return failed(f"{type(exc).__name__}: {exc}")


def _run_synth(in_dir: Path, out_dir: Path, config: PipelineConfig,
               jobs: int, failures: _Failures) -> int:
    files = [str(p) for p in _midi_files(in_dir)]
    out_dir.mkdir(parents=True, exist_ok=True)
    worker = partial(_synth_worker, out_dir=str(out_dir),
                     sample_rate=config.sample_rate)
    results = _map_jobs(worker, files, jobs)
    report = {r["id"]: {"stems": r["stems"], "peak": r["peak"]}
              for r in _collect(results, "synth-test", failures)}
    _write_json(out_dir / "synth_report.json", {"pieces": report})
    _write_provenance(out_dir, "synth-test", config)
    return failures.exit_code()


def _run_eval(audio_dir: Path, out_dir: Path, config: PipelineConfig,
              jobs: int, failures: _Failures,
              estimates_dir: Path | None) -> int:
    if not audio_dir.is_dir():
        raise ConfigError(f"not a directory: {audio_dir}")
    if estimates_dir is not None and not estimates_dir.is_dir():
        raise ConfigError(f"--estimates is not a directory: {estimates_dir}")
    piece_dirs = sorted(p for p in audio_dir.iterdir() if p.is_dir())
    if not piece_dirs:
        raise ConfigError(f"no piece directories in {audio_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    worker = partial(_eval_worker,
                     estimates_dir=str(estimates_dir) if estimates_dir else None,
                     frame_len_s=config.frame_len_s,
                     silence_threshold_dbfs=config.silence_threshold_dbfs,
                     projection=config.projection)
    results = _map_jobs(worker, [str(p) for p in piece_dirs], jobs)
    report = SdrReport(frame_len_s=config.frame_len_s,
                       silence_threshold_dbfs=config.silence_threshold_dbfs,
                       projection=config.projection)
    for result in _collect(results, "eval", failures):
        report.add_piece(result["id"], result["frames"])
    report.finalize()
    _write_json(out_dir / "eval_report.json", report.to_dict())
    _write_provenance(out_dir, "eval", config)
    return failures.exit_code()


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreforge",
        description="Expressive render-ready corpora from raw orchestral MIDI.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True):
        if needs_input:
            p.add_argument("input", help="input directory")
        p.add_argument("--out", required=needs_input, default="",
                       help="output directory"
                            + ("" if needs_input else " (or output_dir from config)"))
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument("--strict", action="store_true",
                       help="nonzero exit if any piece fails")

    p = sub.add_parser("fix", help="map instruments, reject unknowns, dedupe")
    common(p)
    p.add_argument("--dictionary", help="track-name dictionary CSV")

    p = sub.add_parser("normalize", help="flatten velocity, tempo, controllers")
    common(p)

    p = sub.add_parser("annotate", help="apply random expressive annotations")
    common(p)
    p.add_argument("--mode", choices=("plain", "proposed"), default=None)
    p.add_argument("--tables", help="articulation table CSV")

    p = sub.add_parser("stats", help="activity and polyphony statistics")
    common(p)

    p = sub.add_parser("split", help="stratified train/eval/test split")
    common(p)
    p.add_argument("--ratios", help="three comma-separated ratios, e.g. 0.7,0.1,0.2")

    p = sub.add_parser("manifest", help="emit render manifests")
    common(p)
    p.add_argument("--plans", help="directory with .plan.json files")

    p = sub.add_parser("synth-test", help="render stems with the test synthesizer")
    common(p)
    p.add_argument("--sample-rate", type=int, default=None)

    p = sub.add_parser("eval", help="SDR report for stems under an audio tree")
    common(p)
    p.add_argument("--estimates", help="directory of estimated stems "
                                       "(default: use each piece's mixture)")
    p.add_argument("--projection", choices=("plain", "scalar"), default=None)

    p = sub.add_parser("pipeline", help="run fix through manifest in order")
    common(p, needs_input=False)
    p.add_argument("input", nargs="?", help="input directory (or corpus_dir from config)")

    return parser


# config key -> the flag that overrides it
_OVERRIDES = {"master_seed": "seed", "dictionary": "dictionary",
              "articulation_tables": "tables", "annotate_mode": "mode",
              "sample_rate": "sample_rate", "projection": "projection",
              "split_ratios": "ratios"}


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {key: getattr(args, flag, None) for key, flag in _OVERRIDES.items()}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if "split_ratios" in overrides:
        try:
            overrides["split_ratios"] = [float(x) for x in args.ratios.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --ratios {args.ratios!r}: {exc}") from exc
    return (PipelineConfig.from_file(args.config, overrides) if args.config
            else PipelineConfig.from_dict(overrides))


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        failures = _Failures(strict=args.strict)
        out_dir = Path(args.out)
        jobs = max(args.jobs, 1)

        if args.command in STEPS:
            plans = None
            if args.command == "manifest":
                plans = Path(args.plans or args.input)
                if args.plans and not plans.is_dir():
                    raise ConfigError(f"--plans is not a directory: {plans}")
            return _run_steps(Path(args.input), {args.command: out_dir}, config,
                              jobs, failures, plans)
        if args.command == "synth-test":
            return _run_synth(Path(args.input), out_dir, config, jobs, failures)
        if args.command == "eval":
            estimates = Path(args.estimates) if args.estimates else None
            return _run_eval(Path(args.input), out_dir, config, jobs, failures,
                             estimates)
        # pipeline
        if not args.input and not config.corpus_dir:
            raise ConfigError("no corpus directory (positional argument "
                              "or corpus_dir in config)")
        in_dir = Path(args.input) if args.input else Path(config.corpus_dir)
        if not in_dir.is_dir():
            raise ConfigError(f"corpus directory not found: {in_dir}")
        if not args.out and not config.output_dir:
            raise ConfigError("no output directory (--out or output_dir "
                              "in config)")
        root = Path(args.out) if args.out else Path(config.output_dir)
        return _run_steps(in_dir, {step: root / STAGE_DIRS[step] for step in STEPS},
                          config, jobs, failures)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SmfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
