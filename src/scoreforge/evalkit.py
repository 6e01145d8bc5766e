"""Separation quality measurement: frame SDR, silence handling, medians.

The protocol: cut reference and estimate into non-overlapping one-second
frames (the trailing partial frame is dropped), mark frames silent when the
reference falls below an RMS threshold, report per-frame SDR otherwise, take
the median over non-silent frames per piece and the median over non-silent
pieces per stem.

Two projection modes:

* ``plain``: SDR = 10 log10(sum(s^2) / sum((s - s_hat)^2)).
* ``scalar``: the estimate is first scaled by the least-squares gain
  alpha = <s, s_hat> / <s_hat, s_hat>, making the result invariant to any
  positive rescaling of the estimate. The residual is computed through the
  projection identity sum(s^2) - <s, s_hat>^2 / <s_hat, s_hat>, floored at
  zero, so near-perfect estimates cannot go negative through cancellation.

SDR is capped at +100 dB so zero-residual frames stay finite and medians
remain order-preserving. Medians use the lower-middle element for even
counts: a reported value is always one that actually occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .audio import Waveform

FRAME_SECONDS = 1.0
SILENCE_DBFS = -60.0
SDR_CAP_DB = 100.0

SILENT = None  # frames and pieces use None as the "silent" marker


class EvalError(Exception):
    pass


class LengthMismatch(EvalError):
    pass


class NonPositiveFrame(EvalError):
    pass


class NoActivePieces(EvalError):
    def __init__(self, stem: str):
        super().__init__(f"stem {stem!r} has no pieces with active reference")
        self.stem = stem


def frame_sdr(reference: Waveform, estimate: Waveform,
              frame_len_s: float = FRAME_SECONDS,
              silence_threshold_dbfs: float = SILENCE_DBFS,
              projection: str = "plain") -> list[float | None]:
    """Per-frame SDR in dB, or None for frames whose reference is silent."""
    if projection not in ("plain", "scalar"):
        raise EvalError(f"unknown projection mode {projection!r}")
    if frame_len_s <= 0:
        raise NonPositiveFrame(f"frame length must be positive: {frame_len_s}")
    if reference.sample_rate != estimate.sample_rate:
        raise LengthMismatch(
            f"sample rates differ: {reference.sample_rate} vs {estimate.sample_rate}")
    if len(reference) != len(estimate):
        raise LengthMismatch(
            f"lengths differ: {len(reference)} vs {len(estimate)} samples")
    frame = int(round(frame_len_s * reference.sample_rate))
    if frame <= 0:
        raise NonPositiveFrame(
            f"frame of {frame_len_s} s is empty at {reference.sample_rate} Hz")
    threshold = 10.0 ** (silence_threshold_dbfs / 20.0)

    # Row sums of products over a (frames, frame) view. einsum's own loop
    # keeps BLAS, whose threads split dot products, out of the result.
    n_frames = len(reference) // frame
    s = reference.samples[:n_frames * frame].reshape(n_frames, frame)
    s_hat = estimate.samples[:n_frames * frame].reshape(n_frames, frame)
    signal_powers = np.einsum("ij,ij->i", s, s).tolist()
    if projection == "plain":
        diff = s - s_hat
        residuals = np.einsum("ij,ij->i", diff, diff).tolist()
    else:
        estimate_powers = np.einsum("ij,ij->i", s_hat, s_hat).tolist()
        crosses = np.einsum("ij,ij->i", s, s_hat).tolist()

    out: list[float | None] = []
    for i, signal_power in enumerate(signal_powers):
        if math.sqrt(signal_power / frame) < threshold:
            out.append(SILENT)
            continue
        if projection == "plain":
            residual = residuals[i]
        elif estimate_powers[i] > 0.0:
            residual = max(signal_power - crosses[i] * crosses[i]
                           / estimate_powers[i], 0.0)
        else:
            residual = signal_power
        if residual <= 0.0:
            out.append(SDR_CAP_DB)
            continue
        sdr = 10.0 * math.log10(signal_power / residual)
        out.append(min(sdr, SDR_CAP_DB))
    return out


def _lower_median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def piece_sdr(frames: Sequence[float | None]) -> float | None:
    """Median over non-silent frames; None when every frame is silent."""
    active = [f for f in frames if f is not SILENT]
    if not active:
        return SILENT
    return _lower_median(active)


def corpus_sdr(piece_values: Mapping[str, Sequence[float | None]],
               ) -> dict[str, float]:
    """Per-stem median over pieces with a non-silent reference."""
    out: dict[str, float] = {}
    for stem, values in piece_values.items():
        active = [v for v in values if v is not SILENT]
        if not active:
            raise NoActivePieces(stem)
        out[stem] = _lower_median(active)
    return out


@dataclass
class SdrReport:
    frame_len_s: float
    silence_threshold_dbfs: float
    projection: str
    # piece_id -> stem -> frame values (None = silent frame)
    frames: dict[str, dict[str, list[float | None]]] = field(default_factory=dict)
    # piece_id -> stem -> piece median (None = all frames silent)
    piece_medians: dict[str, dict[str, float | None]] = field(default_factory=dict)
    corpus_medians: dict[str, float] = field(default_factory=dict)

    def add_piece(self, piece_id: str,
                  stem_frames: Mapping[str, Sequence[float | None]]) -> None:
        self.frames[piece_id] = {s: list(v) for s, v in stem_frames.items()}
        self.piece_medians[piece_id] = {
            s: piece_sdr(v) for s, v in stem_frames.items()
        }

    def finalize(self) -> None:
        per_stem: dict[str, list[float | None]] = {}
        for medians in self.piece_medians.values():
            for stem, value in medians.items():
                per_stem.setdefault(stem, []).append(value)
        self.corpus_medians = {
            stem: corpus_sdr({stem: values})[stem]
            for stem, values in sorted(per_stem.items())
            if any(v is not SILENT for v in values)
        }

    def to_dict(self) -> dict:
        return {
            "parameters": {
                "frame_len_s": self.frame_len_s,
                "silence_threshold_dbfs": self.silence_threshold_dbfs,
                "projection": self.projection,
            },
            "pieces": {
                piece_id: {
                    "frames": {
                        stem: [v for v in values]
                        for stem, values in sorted(self.frames[piece_id].items())
                    },
                    "medians": {
                        stem: value
                        for stem, value in sorted(medians.items())
                    },
                }
                for piece_id, medians in sorted(self.piece_medians.items())
            },
            "corpus_medians": dict(sorted(self.corpus_medians.items())),
        }


def evaluate_piece(references: Mapping[str, Waveform],
                   estimates: Mapping[str, Waveform],
                   frame_len_s: float = FRAME_SECONDS,
                   silence_threshold_dbfs: float = SILENCE_DBFS,
                   projection: str = "plain") -> dict[str, list[float | None]]:
    """Frame SDRs for every stem present in both mappings."""
    out: dict[str, list[float | None]] = {}
    for stem in sorted(references):
        if stem not in estimates:
            continue
        out[stem] = frame_sdr(references[stem], estimates[stem],
                              frame_len_s, silence_threshold_dbfs, projection)
    return out
