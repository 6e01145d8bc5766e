"""Run one scoreforge command in a fresh interpreter and report on it.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run [--spans FILE --workload NAME] -- ARGV...

`setup` times what every command pays before it touches its input: importing
`scoreforge.cli`, building the default instrument dictionary and loading the
bundled articulation tables. `run` calls `scoreforge.cli.run_command(ARGV)`
and times it. Both print one JSON line on stdout with the exit code, the wall
time and the peak resident set size of this process.

With `--spans`, the layer boundary functions of every module are wrapped
before the command runs, and the spans they record are written to FILE when
it ends. Tracing is only meaningful at `--jobs 1`: pool workers are not
wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _input_bytes(args, result):
    return len(args[0])


def _output_bytes(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _samples(args, result):
    return len(result.samples)


def _frames_scored(args, result):
    return sum(1 for frames in result.values() for sdr in frames if sdr is not None)


# The layer boundaries: module -> traced function -> what its span counts.
LAYER_FUNCTIONS = {
    "smf": {"parse_smf": _input_bytes, "write_smf": _output_bytes,
            "track_notes": None},
    "gmfix": {"fix_piece": None, "normalize": None, "note_fingerprint": None,
              "track_instruments": None},
    "expressive": {"annotate": None},
    "datasetkit": {"activity_time": None, "polyphony_histogram": None,
                   "stratified_split": None, "piece_labels": None},
    "renderkit": {"emit_manifest": None, "test_synthesize": _samples,
                  "mix_stems": None},
    "audio": {"write_wav": _file_bytes, "read_wav": _file_bytes},
    "evalkit": {"evaluate_piece": _frames_scored},
    "cli": {"run_command": None},
}


class Tracer:
    """Records one span per call of a wrapped function, in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent, failed, amount]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, amount=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function and rebind the name in each scoreforge
        module that holds it, since modules import with `from .x import y`."""
        import scoreforge.cli  # noqa: F401  (imports every layer)

        modules = [module for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "scoreforge"]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"scoreforge.{layer}"]
            for name, amount in functions.items():
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original, amount)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        from scoreforge.smf import TempoMap

        from_piece = TempoMap.from_piece.__func__
        TempoMap.from_piece = classmethod(
            self.wrap("smf.TempoMap.from_piece", from_piece))

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "failed", "amount")
        records = [dict(zip(keys, span), workload=self.workload)
                   for span in self.spans]
        path.write_text(json.dumps({"workload": self.workload,
                                    "spans": records}), encoding="utf-8")


def _setup() -> dict:
    start = time.perf_counter()
    from scoreforge.cli import InstrumentDictionary, load_articulation_tables

    InstrumentDictionary.default()
    load_articulation_tables(None)
    return {"rc": 0, "wall_s": time.perf_counter() - start}


def _run(argv: list[str]) -> dict:
    split = argv.index("--")
    options = dict(zip(argv[:split:2], argv[1:split:2]))
    tracer = None
    if "--spans" in options:
        tracer = Tracer(options["--workload"])
        tracer.install()
    import scoreforge.cli

    start = time.perf_counter()
    rc = scoreforge.cli.run_command(argv[split + 1:])
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.write(Path(options["--spans"]))
    return {"rc": rc, "wall_s": wall}


def main(argv: list[str]) -> int:
    result = _setup() if argv[0] == "setup" else _run(argv[1:])
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
