"""Smoke test of the benchmark on tiny corpora.

Runs every workload once in each mode and checks that exactly the metrics
BENCHMARK.json declares are emitted, with their units, and that a truncated
MIDI file in the corpus shows up in `pieces_failed_frac` instead of
crashing the run.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up there
_spec.loader.exec_module(bench)

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"repair-raw": 102, "render-eval": 2}
SEED = 0


def _measure(tmp_path: Path, workload: str, trace: bool,
             truncate: bool = False) -> dict:
    inputs = bench.make_inputs(workload, SEED, tmp_path, TINY[workload])
    if truncate:
        whole = sorted(inputs.glob("*.mid"))[0].read_bytes()
        (inputs / "truncated.mid").write_bytes(whole[:len(whole) // 2])
    return bench.run(workload, inputs, tmp_path, seconds=0, trace=trace,
                     setup_repeats=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, workload,
                                                        trace):
    result = _measure(tmp_path, workload, trace)
    assert result["correct"], result["report"]["problems"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == {entry["name"]: entry["unit"] for entry in declared}
    assert all(math.isfinite(metric["value"])
               for metric in result["metrics"].values())
    if trace and workload == "render-eval":
        assert result["metrics"]["pieces_failed_frac"]["value"] == 0


def test_truncated_file_raises_failed_fraction(tmp_path):
    result = _measure(tmp_path, "render-eval", True, truncate=True)
    assert result["correct"], result["report"]["problems"]
    assert result["failed"] == 0
    pieces = TINY["render-eval"] + 1
    assert result["metrics"]["pieces_failed_frac"]["value"] == \
        pytest.approx(1 / pieces)
