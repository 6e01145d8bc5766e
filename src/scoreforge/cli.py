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
steps. The parent first removes what an earlier run into the same
directories left of this run's files. It takes the pieces' results in
piece-id order: it dedupes each piece as it arrives and writes every file
the piece made (fix, normalize and annotate MIDI, the plan sidecar, the
manifest) through one write function, chosen once per command. At --jobs N
the parent writes them itself while the pool still works; a --jobs 1
command that starts with a chain step computes the chain and hands the
files to a writer process; a standalone stats, split or manifest at --jobs 1
writes its own. At the end it reports the failures and runs the corpus
reducers (fix report, stats totals, the split). `pipeline` is the whole
range.

All randomness flows from one master seed; each piece gets its own generator
seeded from (master seed, piece id), so results do not depend on file
enumeration order or the number of workers. Every output directory gets a
provenance.json recording the tool version, seed and configuration. Per-file
failures are reported and skipped; --strict turns them into a nonzero exit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .audio import MAX_SAMPLE_RATE, AudioError, Buffer, Waveform, read_wav, write_wav
from .datasetkit import (
    DEFAULT_RATIOS,
    InvalidRatios,
    activity_time,
    as_fractions,
    instrument_intervals,
    piece_labels,
    polyphony_histogram,
    stratified_split,
)
from .evalkit import (
    FRAME_SECONDS,
    SILENCE_DBFS,
    EvalError,
    SdrParameters,
    SdrReport,
    evaluate_piece,
)
from .expressive import (
    AnnotationParams,
    ExpressiveError,
    annotate,
    from_dict,
    load_articulation_tables,
    piece_seed,
)
from .gmfix import (
    Deduper,
    GmFixError,
    InstrumentDictionary,
    PieceRejected,
    admit_piece,
    normalize,
    note_fingerprint,
)
from .renderkit import (
    DEFAULT_SAMPLE_RATE,
    RenderError,
    StemEntry,
    emit_manifest,
    mix_stems,
    test_synthesize,
)
from .smf import SmfError, TempoMap, parse_smf, write_smf

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
            config.sdr  # the record checks its own values
        except (TypeError, ValueError, InvalidRatios, EvalError) as exc:
            raise ConfigError(str(exc)) from exc
        if config.annotate_mode not in ("plain", "proposed"):
            raise ConfigError(f"bad annotate_mode {config.annotate_mode!r}")
        if not config.sample_rate > 0:
            raise ConfigError("sample_rate must be positive")
        if config.sample_rate > MAX_SAMPLE_RATE:  # what a WAV header holds
            raise ConfigError(f"sample_rate must be at most {MAX_SAMPLE_RATE}")
        if config.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        return config

    @property
    def sdr(self) -> SdrParameters:
        """The eval protocol's record of this config's three values."""
        return SdrParameters(self.frame_len_s, self.silence_threshold_dbfs,
                             self.projection)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _write_json(path: Path, payload: dict) -> None:
    path.write_bytes(_json_bytes(payload))


def _write_provenance(out_dir: Path, stage: str, config: PipelineConfig) -> None:
    _write_json(out_dir / "provenance.json", {
        "tool": "scoreforge",
        "version": __version__,
        "stage": stage,
        "config": dataclasses.asdict(config),
    })


def _midi_files(directory: Path) -> list[Path]:
    """The MIDI files of ``directory``, in piece-id order (the name without
    its extension; ``a.mid`` before ``a-b.mid``), the order in which dedupe
    keeps the first of a pair. Files whose names differ only in the
    extension (``x.mid``, ``x.MIDI``) would be one piece id, and their
    outputs one file, so they are a ConfigError."""
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    files = sorted((p for p in directory.iterdir()
                    if p.suffix.lower() in (".mid", ".midi")),
                   key=lambda p: (p.stem, p.name))
    if not files:
        raise ConfigError(f"no MIDI files in {directory}")
    by_id: dict[str, list[str]] = {}
    for path in files:
        by_id.setdefault(path.stem, []).append(path.name)
    clashes = [", ".join(names) for names in by_id.values() if len(names) > 1]
    if clashes:
        raise ConfigError(f"inputs in {directory} share a piece id: "
                          + "; ".join(clashes))
    return files


# the pool workers and the --jobs 1 writer fork on Linux, so they inherit
# the imported package; 3.14's default there, forkserver, imports it again
_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux"
                                       else None)


def _install(fn: Callable) -> None:
    _install.fn = fn  # the pool worker's fn, which _call_installed applies


def _call_installed(item):
    return _install.fn(item)


def _map_jobs(fn: Callable, items: Sequence, jobs: int) -> Iterator:
    """The results of fn over items, in order, each yielded as it is made.
    jobs > 1 uses processes, each given fn once and sent about 16 chunks of
    items (one item each for small inputs), the pool open until the last
    result. Otherwise fn runs in this process, on each item in turn."""
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # the pool starts all its workers at once, so no more than there are items
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=_CONTEXT, initializer=_install,
                             initargs=(fn,)) as pool:
        yield from pool.map(_call_installed, items,
                            chunksize=max(1, len(items) // (16 * jobs)))


def _write_file(made: set[Path], path: Path, data: bytes) -> None:
    """Write ``path``, first making its directory unless it is in ``made``."""
    if path.parent not in made:
        path.parent.mkdir(parents=True, exist_ok=True)
        made.add(path.parent)
    path.write_bytes(data)


def _write_loop(conn: Connection, parent_end: Connection) -> None:
    """The writer process: write each (path, bytes) sent, up to the first
    OSError, which it sends back at once; the end marker None is answered
    with None if every write succeeded. With the parent's end closed here,
    a parent that dies is an EOF."""
    parent_end.close()
    made: set[Path] = set()
    failed = False
    with contextlib.suppress(EOFError, BrokenPipeError):
        while (item := conn.recv()) is not None:
            if not failed:
                try:
                    _write_file(made, Path(item[0]), item[1])
                except OSError as exc:
                    failed = True
                    conn.send(exc)
        if not failed:
            conn.send(None)


@contextlib.contextmanager
def _chain_writer(jobs: int, steps: tuple[str, ...],
                  ) -> Iterator[Callable[[Path, bytes], None]]:
    """A function that writes (path, bytes), chosen from ``jobs`` and the
    command's range of ``steps``. A jobs 1 command that starts with a chain
    step sends them to a writer process, started from ``_CONTEXT`` as the
    block opens, so the kernel creates the files on another
    core while the caller computes; the writer's OSError is raised by the
    next call or on leaving the block, with nothing written after it, and
    the writer never outlives the block. Otherwise the caller writes the
    files itself: at jobs > 1 it only waits on its pool, and a writer forked
    there would copy a process that runs the pool's thread and measured no
    faster; a standalone stats, split or manifest computes little per file,
    and a writer process made its manifests slower."""
    if jobs > 1 or steps[0] not in CHAIN_STEPS:
        yield partial(_write_file, set())
        return
    conn, child_end = _CONTEXT.Pipe()
    writer = _CONTEXT.Process(target=_write_loop, args=(child_end, conn))
    writer.start()
    child_end.close()

    def send(path: Path, data: bytes) -> None:
        if conn.poll():
            raise conn.recv()
        conn.send((str(path), data))

    try:
        yield send
        conn.send(None)
        if (error := conn.recv()) is not None:
            raise error
    finally:
        conn.close()
        writer.join()


def _collect(results: Iterable[dict], step: str,
             failures: list[tuple[str, str]]) -> list[dict]:
    """Report the results that failed at ``step``, adding each (piece id,
    message) to ``failures``; return the rest, in order."""
    ok = []
    for result in results:
        if step in result["errors"]:
            failures.append((result["id"], result["errors"][step]))
            print(f"skip {result['id']}: {result['errors'][step]}",
                  file=sys.stderr)
        else:
            ok.append(result)
    return ok


def _config_files(steps: tuple[str, ...], config: PipelineConfig,
                  ) -> tuple[InstrumentDictionary | None, dict | None]:
    """The dictionary and the articulation tables, as ``steps`` read them:
    the dictionary when fix runs, the tables when annotate or manifest runs
    in proposed mode, else None. Each is loaded once, here, and handed to
    every worker; a file that fails to load is a ConfigError."""
    dictionary = tables = None
    try:
        if "fix" in steps:
            path = config.dictionary
            dictionary = (InstrumentDictionary.default() if path is None
                          else InstrumentDictionary.from_csv(path))
        if (config.annotate_mode == "proposed"
                and not {"annotate", "manifest"}.isdisjoint(steps)):
            path = config.articulation_tables
            tables = load_articulation_tables(path)
    except (OSError, ValueError, GmFixError) as exc:
        raise ConfigError(f"cannot load {path}: "
                          f"{type(exc).__name__}: {exc}") from exc
    return dictionary, tables


# ---------------------------------------------------------------------------
# The per-piece chain (top level so it pickles for process pools)
# ---------------------------------------------------------------------------

STEPS = ("fix", "normalize", "annotate", "stats", "split", "manifest")
# a failure in these ends the piece's chain; the later steps only read the
# piece, so each of them fails on its own
CHAIN_STEPS = STEPS[:3]
STAGE_DIRS = dict(zip(STEPS, ("10_fixed", "20_normalized", "30_annotated",
                              "40_stats", "50_split", "60_manifests")))
# the files each step writes under a piece's id: suffix -> the key of the
# chain result that holds the file's bytes
PIECE_FILES = {"fix": {".mid": "fix"}, "normalize": {".mid": "normalize"},
               "annotate": {".mid": "annotate", ".plan.json": "plan"},
               "manifest": {".manifest.json": "manifest"}}
# the file each step's corpus reducer writes, besides provenance.json
REDUCER_FILES = {"fix": "fix_report.json", "stats": "stats.json",
                 "split": "split.json"}
# what each step reports as a per-piece failure (anything else aborts the
# command), and whether the message names the exception type
_STEP_ERRORS = {
    "fix": ((SmfError, PieceRejected, OSError), False),
    "normalize": ((SmfError, OSError), False),
    "annotate": ((SmfError, ExpressiveError, OSError), True),
    "stats": ((SmfError, OSError), False),
    "split": ((SmfError, OSError), False),
    "manifest": ((SmfError, RenderError, OSError), True),
}


def _message(step: str, exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}" if _STEP_ERRORS[step][1] else str(exc)


def _chain_worker(path_str: str, steps: tuple[str, ...],
                  config: PipelineConfig,
                  dictionary: InstrumentDictionary | None,
                  tables: dict | None) -> dict:
    """Parse one file and run ``steps`` (a range of STEPS) on it in memory,
    with the config files as ``_config_files`` loads them for ``steps``.

    Returns the piece id, each step's artefact under the step's name (SMF
    bytes, the stats and label set, the manifest's JSON bytes), the fixed
    piece's note fingerprint and instruments, the annotation sidecar's JSON
    bytes under ``plan``, and ``errors``: step -> message for every step
    that failed. The manifest's schedules are the piece's own CC#32 events,
    named from ``tables`` (None in ``plain`` mode), so a standalone
    ``manifest`` reads no sidecar.
    """
    path = Path(path_str)
    piece_id = path.stem
    out: dict = {"id": piece_id, "errors": {}}
    piece = None
    for step in steps:
        try:
            if piece is None:  # so a parse failure is the first step's
                piece = parse_smf(path.read_bytes())
            if step == "fix":
                piece, instruments = admit_piece(piece, dictionary)
                out["fix"] = write_smf(piece)
                out["fingerprint"] = note_fingerprint(piece)
                out["instruments"] = sorted({iid.name for iid in instruments})
            elif step == "normalize":
                piece = normalize(piece)
                out["normalize"] = write_smf(piece)
            elif step == "annotate":
                seed = piece_seed(config.master_seed, piece_id)
                sidecar = {"mode": config.annotate_mode, "seed": seed}
                if config.annotate_mode == "proposed":
                    piece, plan = annotate(piece, tables, config.annotation,
                                           seed)
                    sidecar["plan"] = dataclasses.asdict(plan)
                out["annotate"] = write_smf(piece)
                out["plan"] = _json_bytes(sidecar)
            elif step == "stats":
                # exact totals; int / int is correctly rounded
                intervals, unit = instrument_intervals(piece)
                out["stats"] = {
                    "activity_seconds": {iid.name: total / unit for iid, total
                                         in activity_time(intervals).items()},
                    "polyphony_seconds": {str(level): total / unit for level, total
                                          in polyphony_histogram(intervals).items()},
                }
            elif step == "split":
                labels = piece_labels(piece)
                if labels:
                    out["split"] = labels
                else:
                    out["errors"]["split"] = "no identifiable instruments"
            else:
                out["manifest"] = _json_bytes(dataclasses.asdict(emit_manifest(
                    piece, tables, piece_id, config.sample_rate)))
        except _STEP_ERRORS[step][0] as exc:
            out["errors"][step] = _message(step, exc)
            if step in CHAIN_STEPS:
                break
    return out


def _clear_outputs(in_dir: Path, inputs: list[Path],
                   out_dirs: dict[str, Path]) -> None:
    """Remove the files of ``out_dirs`` this run could write: each step's
    files for the input pieces, its reducer file and provenance.json. Never
    an input, nor a directory in a file's place (the write fails on it).
    Then remove each of ``out_dirs`` left empty."""
    ids = [path.stem for path in inputs]
    for step, out_dir in out_dirs.items():
        if not out_dir.is_dir():
            continue
        owned = {piece_id + suffix for piece_id in ids
                 for suffix in PIECE_FILES.get(step, ())}
        # a step without a reducer adds None, which names no file
        owned |= {"provenance.json", REDUCER_FILES.get(step)}
        if out_dir.resolve() == in_dir.resolve():
            owned -= {path.name for path in inputs}
        for name in owned.intersection(os.listdir(out_dir)):
            if not (out_dir / name).is_dir():
                (out_dir / name).unlink()
        with contextlib.suppress(OSError):  # not empty
            out_dir.rmdir()


def _run_steps(in_dir: Path, out_dirs: dict[str, Path], config: PipelineConfig,
               jobs: int, failures: list[tuple[str, str]]) -> bool:
    """Map the chain over the files of ``in_dir`` for the steps that key
    ``out_dirs`` (a range of STEPS), after clearing what an earlier run
    left of this run's files. Each piece's result is deduped (after fix)
    as it arrives, and every file it made (PIECE_FILES) goes through the
    one write that ``_chain_writer`` picks for the command, its bytes then
    dropped. After the map, so after any failed write, each step in order
    reports its failures and runs its corpus reducer (fix report, stats
    totals, split) and writes its provenance. Stops, returning True, when a
    chain step leaves no piece for the steps after it, whose directories
    then hold nothing: a piece writes to one only after passing the steps
    before it."""
    steps = tuple(out_dirs)
    dictionary, tables = _config_files(steps, config)
    inputs = _midi_files(in_dir)
    _clear_outputs(in_dir, inputs, out_dirs)
    worker = partial(_chain_worker, steps=steps, config=config,
                     dictionary=dictionary, tables=tables)
    deduper = Deduper()
    alive = []  # every result but the duplicates', in piece-id order
    with _chain_writer(jobs, steps) as write:
        for r in _map_jobs(worker, [str(p) for p in inputs], jobs):
            if "fix" in r and not deduper.admit(r["id"], r["fingerprint"]):
                continue
            alive.append(r)
            for step, files in PIECE_FILES.items():
                if step in r:  # the step made its files
                    for suffix, key in files.items():
                        write(out_dirs[step] / (r["id"] + suffix), r.pop(key))
    for step in steps:
        out_dir = out_dirs[step]
        out_dir.mkdir(parents=True, exist_ok=True)
        ok = _collect(alive, step, failures)
        if step == "fix":  # always the first step, so failures are its own
            _write_json(out_dir / REDUCER_FILES[step], {
                "kept": {r["id"]: r["instruments"] for r in ok},
                "rejected": dict(failures),
                "duplicates": [{"kept": d.kept_id, "dropped": d.dropped_id,
                                "fingerprint": d.fingerprint}
                               for d in deduper.duplicates],
            })
        if step in CHAIN_STEPS:
            alive = ok
        elif step == "stats":
            totals: dict[str, dict] = {"activity_seconds": {},
                                       "polyphony_seconds": {}}
            for r in ok:
                for kind, values in r["stats"].items():
                    for key, seconds in values.items():
                        totals[kind][key] = totals[kind].get(key, 0.0) + seconds
            _write_json(out_dir / REDUCER_FILES[step], {
                "pieces": {r["id"]: r["stats"] for r in ok}, "corpus": totals})
        elif step == "split":
            if not ok:
                raise ConfigError(f"no usable pieces in {in_dir}")
            result = stratified_split({r["id"]: r["split"] for r in ok},
                                      config.split_ratios,
                                      np.random.default_rng(config.master_seed))
            _write_json(out_dir / REDUCER_FILES[step], {
                "ratios": list(result.ratios),
                "assignment": dict(sorted(result.assignment.items())),
                "splits": {name: result.split(name)
                           for name in ("train", "eval", "test")},
                "balance_report": result.balance_report,
            })
        _write_provenance(out_dir, step, config)
        if not alive and step != steps[-1]:
            print(f"no pieces left after {step}", file=sys.stderr)
            return True
    return False


# ---------------------------------------------------------------------------
# Audio commands
# ---------------------------------------------------------------------------

def _synth_worker(path_str: str, out_dir: str, sample_rate: int,
                  buffers: tuple[Buffer, Buffer, Buffer]) -> dict:
    stem_buffer, mix_buffer, written = buffers  # reused for every piece
    path = Path(path_str)
    piece_id = path.stem
    piece_dir = Path(out_dir) / piece_id

    def clear() -> None:
        for wav in piece_dir.glob("*.wav"):
            wav.unlink()

    try:
        # the directory holds this run's WAVs and no others
        clear()
        piece = parse_smf(path.read_bytes())
        manifest = emit_manifest(piece, None, piece_id, sample_rate)
        # the manifest's tempo points rebuild the piece's map: one per piece
        tempo_map = TempoMap(piece.ticks_per_quarter, manifest.tempo)
        piece_dir.mkdir(parents=True, exist_ok=True)

        def render(entry: StemEntry) -> Waveform:
            tracks = [tr.track_index for tr in entry.tracks]
            stem = test_synthesize(piece, tempo_map, tracks, sample_rate,
                                   stem_buffer)
            # storage precision is float32; the stem takes the values
            # written, so the written stems sum exactly to the written
            # mixture
            stem.samples[:] = write_wav(piece_dir / f"{entry.stem}.wav",
                                        stem, written)
            return stem

        # stems sorted by name are the mix order; each is mixed before the
        # next is rendered into its buffer
        mix = mix_stems(map(render, manifest.stems), mix_buffer)
        write_wav(piece_dir / f"{MIXTURE_STEM}.wav", mix.waveform, written)
        stems = [entry.stem for entry in manifest.stems]
        return {"id": piece_id, "errors": {}, "stems": stems,
                "peak": mix.peak}
    except (SmfError, RenderError, AudioError, OSError, MemoryError) as exc:
        # a failed piece, such as one a corrupt delta time makes too long
        # for memory, leaves no WAV and no empty directory for `eval`
        clear()
        with contextlib.suppress(OSError):
            piece_dir.rmdir()
        return {"id": piece_id,
                "errors": {"synth-test": f"{type(exc).__name__}: {exc}"}}


def _eval_worker(piece_dir_str: str, estimates_dir: str | None,
                 params: SdrParameters) -> dict:
    piece_dir = Path(piece_dir_str)
    piece_id = piece_dir.name

    def failed(message: str) -> dict:
        return {"id": piece_id, "errors": {"eval": message}}

    if not piece_dir.is_dir():
        return failed("no piece directory")
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
        frames = evaluate_piece(references, estimates, params)
        return {"id": piece_id, "errors": {}, "frames": frames}
    except (AudioError, EvalError, OSError) as exc:
        return failed(f"{type(exc).__name__}: {exc}")


def _run_synth(in_dir: Path, out_dir: Path, config: PipelineConfig,
               jobs: int, failures: list[tuple[str, str]]) -> None:
    files = [str(p) for p in _midi_files(in_dir)]
    out_dir.mkdir(parents=True, exist_ok=True)
    worker = partial(_synth_worker, out_dir=str(out_dir),
                     sample_rate=config.sample_rate,
                     buffers=(Buffer(), Buffer(), Buffer("<f4")))
    results = _map_jobs(worker, files, jobs)
    report = {r["id"]: {"stems": r["stems"], "peak": r["peak"]}
              for r in _collect(results, "synth-test", failures)}
    _write_json(out_dir / "synth_report.json", {"pieces": report})
    _write_provenance(out_dir, "synth-test", config)


def _rendered_pieces(audio_dir: Path) -> list[Path]:
    """The piece directories to score: exactly the pieces the tree's
    ``synth_report.json`` lists, whether or not their directory exists, so
    that a directory a later ``synth-test`` no longer renders is not scored;
    every subdirectory of a tree without a report. The report's ``pieces``
    must be an object keyed by piece ids, each one path component."""
    report = audio_dir / "synth_report.json"
    if not report.is_file():
        return sorted(p for p in audio_dir.iterdir() if p.is_dir())
    try:
        pieces = json.loads(report.read_text(encoding="utf-8"))["pieces"]
        if not isinstance(pieces, dict):
            raise TypeError(f"pieces is not an object: {pieces!r}")
        for piece_id in pieces:
            if piece_id in ("", ".", "..") or Path(piece_id).name != piece_id:
                raise ValueError(f"bad piece id {piece_id!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read {report}: "
                          f"{type(exc).__name__}: {exc}") from exc
    return [audio_dir / piece_id for piece_id in sorted(pieces)]


def _run_eval(audio_dir: Path, out_dir: Path, config: PipelineConfig,
              jobs: int, failures: list[tuple[str, str]],
              estimates_dir: Path | None) -> None:
    if not audio_dir.is_dir():
        raise ConfigError(f"not a directory: {audio_dir}")
    if estimates_dir is not None and not estimates_dir.is_dir():
        raise ConfigError(f"--estimates is not a directory: {estimates_dir}")
    piece_dirs = _rendered_pieces(audio_dir)
    if not piece_dirs:
        raise ConfigError(f"no piece directories in {audio_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    params = config.sdr
    worker = partial(_eval_worker,
                     estimates_dir=str(estimates_dir) if estimates_dir else None,
                     params=params)
    results = _map_jobs(worker, [str(p) for p in piece_dirs], jobs)
    report = SdrReport(params)
    for result in _collect(results, "eval", failures):
        report.add_piece(result["id"], result["frames"])
    report.finalize()
    _write_json(out_dir / "eval_report.json", dataclasses.asdict(report))
    _write_provenance(out_dir, "eval", config)


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

    p = sub.add_parser("normalize", help="flatten velocity, tempo, controllers")
    common(p)

    p = sub.add_parser("annotate", help="apply random expressive annotations")
    common(p)

    p = sub.add_parser("stats", help="activity and polyphony statistics")
    common(p)

    p = sub.add_parser("split", help="stratified train/eval/test split")
    common(p)
    p.add_argument("--ratios", help="three comma-separated ratios, e.g. 0.7,0.1,0.2")

    p = sub.add_parser("manifest", help="emit render manifests")
    common(p)

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
_OVERRIDES = {"master_seed": "seed", "sample_rate": "sample_rate",
              "projection": "projection", "split_ratios": "ratios"}


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
    failures: list[tuple[str, str]] = []  # (piece id, message)
    stopped = False  # a chain step left no piece for the steps after it
    try:
        config = _config_from_args(args)
        out_dir = Path(args.out)
        jobs = max(args.jobs, 1)

        if args.command in STEPS:
            stopped = _run_steps(Path(args.input), {args.command: out_dir},
                                 config, jobs, failures)
        elif args.command == "synth-test":
            _run_synth(Path(args.input), out_dir, config, jobs, failures)
        elif args.command == "eval":
            estimates = Path(args.estimates) if args.estimates else None
            _run_eval(Path(args.input), out_dir, config, jobs, failures,
                      estimates)
        else:  # pipeline
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
            stopped = _run_steps(in_dir, {step: root / STAGE_DIRS[step]
                                          for step in STEPS},
                                 config, jobs, failures)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SmfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if stopped or (args.strict and failures) else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
