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
# samples of s - s_hat held at once in the plain projection (2 MiB of float64)
_RESIDUAL_BLOCK_SAMPLES = 1 << 18

SILENT = None  # frames and pieces use None as the "silent" marker


class EvalError(Exception):
    pass


class LengthMismatch(EvalError):
    pass


class NonPositiveFrame(EvalError):
    pass


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
    samples = frame_len_s * reference.sample_rate
    if not math.isfinite(samples):
        raise EvalError(f"a frame of {frame_len_s} s at "
                        f"{reference.sample_rate} Hz is past float range")
    frame = int(round(samples))
    if frame <= 0:
        raise NonPositiveFrame(
            f"frame of {frame_len_s} s is empty at {reference.sample_rate} Hz")
    try:
        threshold = 10.0 ** (silence_threshold_dbfs / 20.0)
    except OverflowError:
        raise EvalError(f"a silence threshold of {silence_threshold_dbfs} dBFS "
                        "is past float range as an amplitude") from None

    # Row sums of products over a (frames, frame) view. einsum's own loop
    # keeps BLAS, whose threads split dot products, out of the result.
    n_frames = len(reference) // frame
    if n_frames == 0:  # nothing to score, nor a shape numpy could hold
        return []
    s = reference.samples[:n_frames * frame].reshape(n_frames, frame)
    s_hat = estimate.samples[:n_frames * frame].reshape(n_frames, frame)
    signal_powers = np.einsum("ij,ij->i", s, s).tolist()
    if projection == "plain":
        # s - s_hat a block of frames at a time, so memory does not grow
        # with the piece. A row sums to the same bits in any block of two
        # or more rows; a block of one row is summed in buffer-sized pieces
        # once the frame exceeds einsum's buffer, so no block is left with
        # one row unless the whole signal is one frame.
        rows = max(2, _RESIDUAL_BLOCK_SAMPLES // frame)
        residuals = []
        start = 0
        while start < n_frames:
            stop = start + rows if n_frames - start - rows != 1 else n_frames
            diff = s[start:stop] - s_hat[start:stop]
            residuals += np.einsum("ij,ij->i", diff, diff).tolist()
            start = stop
    else:
        estimate_powers = np.einsum("ij,ij->i", s_hat, s_hat).tolist()
        crosses = np.einsum("ij,ij->i", s, s_hat).tolist()

    out: list[float | None] = []
    for i, signal_power in enumerate(signal_powers):
        # a NaN or infinite sample (or a power past float range): no SDR
        error = residuals[i] if projection == "plain" else estimate_powers[i]
        if not math.isfinite(signal_power + error):
            signal = "reference" if not math.isfinite(signal_power) else "estimate"
            raise EvalError(f"frame {i}: the {signal} holds a NaN or "
                            f"infinite sample")
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


def piece_sdr(frames: Sequence[float | None]) -> float | None:
    """Median over non-silent frames, the lower middle one of an even
    count; None when every frame is silent."""
    active = sorted(f for f in frames if f is not SILENT)
    return active[(len(active) - 1) // 2] if active else SILENT


@dataclass
class SdrParameters:
    frame_len_s: float
    silence_threshold_dbfs: float
    projection: str


@dataclass
class PieceSdr:
    frames: dict[str, list[float | None]]  # stem -> frame values (None = silent)
    medians: dict[str, float | None]  # stem -> median (None = all silent)


@dataclass
class SdrReport:
    """Frame SDRs and their medians; the JSON form is ``dataclasses.asdict``."""

    parameters: SdrParameters
    pieces: dict[str, PieceSdr] = field(default_factory=dict)
    corpus_medians: dict[str, float] = field(default_factory=dict)

    def add_piece(self, piece_id: str,
                  stem_frames: Mapping[str, Sequence[float | None]]) -> None:
        self.pieces[piece_id] = PieceSdr(
            frames={s: list(v) for s, v in stem_frames.items()},
            medians={s: piece_sdr(v) for s, v in stem_frames.items()})

    def finalize(self) -> None:
        """Each stem's median over its pieces' medians, by the rule of
        ``piece_sdr``; a stem silent in every piece has none."""
        per_stem: dict[str, list[float | None]] = {}
        for piece in self.pieces.values():
            for stem, value in piece.medians.items():
                per_stem.setdefault(stem, []).append(value)
        medians = {stem: piece_sdr(values)
                   for stem, values in sorted(per_stem.items())}
        self.corpus_medians = {stem: median for stem, median in medians.items()
                               if median is not SILENT}


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
