"""Bridge from annotated scores to audio.

Real rendering is delegated to external synthesizers: ``emit_manifest``
describes, per output stem, which tracks contribute, their instruments and
their articulation schedules, together with the tempo map, so any sampler
host can reproduce the session. Stems are grouped the way separation models
consume them (all violins into one stem, piccolo into flute, english horn
into oboe).

For end-to-end verification without third-party sound libraries there is a
deliberately plain built-in synthesizer: band-limited sawtooths read from a
one-period wavetable, with linear attack/release, deterministic to the bit
whatever the render order. Sample n of a note reads phase n * step whatever
the note's length, so each pitch keeps its unscaled samples from phase 0 in
a prefix of at most ``OSC_CAP`` samples, filled up to the longest note read
so far, and a note is a scaled slice of it: at most 128 prefixes of
``OSC_CAP`` float64 values (16 MiB) per process and sample rate.
``mix_stems`` is a plain sample sum with no normalization, because the whole
premise of source separation data is that stems add up to the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .audio import AudioError, Waveform
from .expressive import ArticulationTable
from .gmfix import track_instruments
from .smf import (
    ControlChange,
    MidiPiece,
    TempoMap,
    has_notes,
    track_name,
    track_notes,
)

DEFAULT_SAMPLE_RATE = 22_050
ATTACK_SECONDS = 0.010
RELEASE_SECONDS = 0.010
SYNTH_GAIN = 0.2
MAX_HARMONICS = 32
# entries in one period of a wavetable; a power of two, so a phase index
# wraps with a mask
WAVETABLE_SIZE = 2_048
# samples of each pitch's oscillator kept per process, from phase 0: notes
# up to this long (0.74 s at 22.05 kHz) are one scaled read of the prefix
OSC_CAP = 16_384

# instrument -> the stem it folds into; every other instrument is its own stem
STEM_MERGES = {
    "piccolo": "flute",
    "english_horn": "oboe",
}


class RenderError(Exception):
    pass


class UngroupableTrack(RenderError):
    pass


class SampleRateMismatch(AudioError):
    pass


@dataclass
class TrackRender:
    track_index: int
    instrument: str  # the registry name
    gm_program: int
    # articulation schedule: (tick, cc32 value, articulation name)
    schedule: list[tuple[int, int, str]]


@dataclass
class StemEntry:
    stem: str
    path: str
    tracks: list[TrackRender]


@dataclass
class RenderManifest:
    """A piece's render session; its JSON form is ``dataclasses.asdict``."""

    piece_id: str
    sample_rate: int
    channel_layout: str
    tempo: list[tuple[int, int]]  # (tick, microseconds per quarter)
    merge_rules: dict[str, str]
    stems: list[StemEntry]


def emit_manifest(piece: MidiPiece,
                  tables: Mapping[str, ArticulationTable] | None,
                  piece_id: str = "piece",
                  sample_rate: int = DEFAULT_SAMPLE_RATE) -> RenderManifest:
    """Describe how to render a piece: one entry per output stem, each
    listing its contributing tracks and their articulation schedules.

    A track's schedule is its CC#32 events as (tick, value, name), sorted;
    the name is that of the row with the event's value in the table of the
    track's instrument, "" when ``tables`` has no such table or row. On an
    annotated piece this is the annotation plan's schedule: ``annotate``
    writes one CC#32 per interval, at its start, into a piece ``normalize``
    stripped of CC#32, and a table's CC#32 values are unique. Raises
    UngroupableTrack for note-bearing tracks whose instrument cannot be
    identified.
    """
    stems: dict[str, StemEntry] = {}
    for index, (track, iid) in enumerate(zip(piece.tracks,
                                             track_instruments(piece))):
        if not has_notes(track):
            continue
        if iid is None:
            raise UngroupableTrack(f"track {index} ({track_name(track)!r}) "
                                   "has no identifiable instrument")
        table = tables.get(iid.name) if tables else None
        names = {row.cc32: row.articulation for row in table.rows} if table else {}
        stem = STEM_MERGES.get(iid.name, iid.name)
        entry = stems.get(stem)
        if entry is None:
            entry = StemEntry(stem=stem, path=f"{piece_id}/{stem}.wav", tracks=[])
            stems[stem] = entry
        entry.tracks.append(TrackRender(
            track_index=index, instrument=iid.name, gm_program=iid.gm_program,
            schedule=sorted((ev.tick, ev.value, names.get(ev.value, ""))
                            for ev in track.events
                            if isinstance(ev, ControlChange)
                            and ev.controller == 32)))

    return RenderManifest(piece_id=piece_id, sample_rate=sample_rate,
                          channel_layout="mono",
                          tempo=TempoMap.from_piece(piece).changes(),
                          merge_rules=dict(STEM_MERGES),
                          stems=[stems[name] for name in sorted(stems)])


# ---------------------------------------------------------------------------
# Test synthesizer
# ---------------------------------------------------------------------------

def _pitch_to_hz(pitch: int) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


# harmonic count -> one period of the summed partials and its first
# difference, built on first use, per process: at most MAX_HARMONICS pairs of
# WAVETABLE_SIZE float64 values (1 MiB)
_wavetables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _wavetable(harmonics: int) -> tuple[np.ndarray, np.ndarray]:
    """One period of sum sin(2 pi k j / N) / k over k = 1..harmonics, with
    N = WAVETABLE_SIZE, and its first difference around the period.

    The sum is accumulated in the order k = 1, 2, ..., so the table of the
    most harmonics below this count already holds its first terms, to the
    bit: it is continued from there rather than summed again from zero."""
    table = _wavetables.get(harmonics)
    if table is None:
        below = max((h for h in _wavetables if h < harmonics), default=0)
        wave = (_wavetables[below][0].copy() if below
                else np.zeros(WAVETABLE_SIZE))
        j = np.arange(WAVETABLE_SIZE)
        sine = np.sin(2.0 * np.pi / WAVETABLE_SIZE * j)
        for k in range(below + 1, harmonics + 1):
            # the integer phase k*j mod N keeps every partial on the period,
            # so partial k reads the one-harmonic period at that phase
            wave += sine[k * j % WAVETABLE_SIZE] / k
        table = _wavetables[harmonics] = (wave, np.roll(wave, -1) - wave)
    return table


# (frequency, harmonics, sample_rate) -> an OSC_CAP buffer whose first
# ``filled`` entries hold the oscillator's unscaled samples from phase 0, and
# ``filled``: the longest note read so far, capped at OSC_CAP. Built on first
# use, per process; a key is one pitch at one sample rate, so at most 128
# buffers (16 MiB) per rate, whose pages are touched only as filled
_oscillators: dict[tuple[float, int, int], tuple[np.ndarray, int]] = {}


def _read_partials(wave: np.ndarray, slope: np.ndarray, step: float,
                   start: int, out: np.ndarray) -> None:
    """Write into out the unscaled oscillator samples start, start + 1, ...
    from phase 0: sample n reads the wavetable at phase n * step with linear
    interpolation, so its bits do not depend on which samples are read
    with it."""
    phase = np.arange(start, start + len(out), dtype=np.float64)
    phase *= step
    index = phase.astype(np.intp)
    # the fraction between two entries; trunc(phase) equals float(index) and
    # is cheaper to subtract than the integers
    phase -= np.trunc(phase)
    index &= WAVETABLE_SIZE - 1
    np.multiply(slope.take(index), phase, out=out)
    out += wave.take(index)


def _oscillate(length: int, gain: float, frequency: float, harmonics: int,
               sample_rate: int) -> np.ndarray:
    """gain times the first length samples of the summed partials from
    phase 0, read from the wavetable with linear interpolation.

    The first OSC_CAP unscaled samples are read from the key's prefix in
    ``_oscillators``, which is filled up to the longest note asked for; the
    samples past the cap are read from the wavetable for this note alone.
    """
    wave, slope = _wavetable(harmonics)
    step = frequency * WAVETABLE_SIZE / sample_rate
    key = (frequency, harmonics, sample_rate)
    prefix, filled = _oscillators.get(key) or (np.empty(OSC_CAP), 0)
    head = min(length, OSC_CAP)
    if filled < head:
        _read_partials(wave, slope, step, filled, prefix[filled:head])
        _oscillators[key] = prefix, head
    seg = np.empty(length)
    np.multiply(prefix[:head], gain, out=seg[:head])
    if length > OSC_CAP:
        tail = seg[OSC_CAP:]
        _read_partials(wave, slope, step, OSC_CAP, tail)
        tail *= gain
    return seg


def _envelope_ramps(attack: int, release: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last max(attack, release) envelope factors of any
    note longer than twice that: there the release cannot reach the head nor
    the attack the tail, so the ramps do not depend on the note's length."""
    edge = max(attack, release)
    head = np.minimum(np.arange(1, edge + 1, dtype=np.float64) / attack, 1.0)
    tail = np.minimum(np.arange(edge, 0, -1, dtype=np.float64) / release, 1.0)
    return head, tail


def _apply_envelope(seg: np.ndarray, attack: int, release: int,
                    ramps: tuple[np.ndarray, np.ndarray]) -> None:
    """Multiply seg by the linear attack/release envelope,
    min((n + 1) / attack, (length - n) / release, 1.0) at sample n. Past the
    first and before the last max(attack, release) samples it is exactly
    1.0, so a note longer than twice that has only its edges multiplied, by
    ``ramps``, which is ``_envelope_ramps(attack, release)``."""
    length = len(seg)
    head, tail = ramps
    edge = len(head)
    if length > 2 * edge:
        seg[:edge] *= head
        seg[length - edge:] *= tail
    else:
        seg *= np.minimum(
            np.minimum(np.arange(1, length + 1, dtype=np.float64) / attack,
                       np.arange(length, 0, -1, dtype=np.float64) / release),
            1.0)


def test_synthesize(piece: MidiPiece,
                    track_selection: Sequence[int] | None = None,
                    sample_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Render selected tracks with band-limited sawtooths.

    Each note plays its equal-tempered frequency with harmonics up to the
    Nyquist limit (at most 32 partials), amplitude proportional to
    velocity/127, and a 10 ms linear attack and release. The partials are
    read from a one-period wavetable per harmonic count, with at least 60 dB
    SNR against summing them sample by sample. Deliberately crude, but
    deterministic, which is what the downstream SDR checks need.
    """
    tempo_map = TempoMap.from_piece(piece)
    total_seconds = tempo_map.seconds_at(piece.end_tick())
    n_samples = max(int(round(total_seconds * sample_rate)), 1)
    out = np.zeros(n_samples, dtype=np.float64)
    indices = (range(len(piece.tracks)) if track_selection is None
               else track_selection)
    attack = max(int(round(ATTACK_SECONDS * sample_rate)), 1)
    release = max(int(round(RELEASE_SECONDS * sample_rate)), 1)
    ramps = _envelope_ramps(attack, release)
    nyquist = sample_rate / 2.0

    for index in indices:
        for note in track_notes(piece.tracks[index]):
            start = int(round(tempo_map.seconds_at(note.tick_on) * sample_rate))
            stop = int(round(tempo_map.seconds_at(note.tick_off) * sample_rate))
            stop = min(stop, n_samples)
            if stop <= start:
                continue
            length = stop - start
            frequency = _pitch_to_hz(note.pitch)
            harmonics = min(int(nyquist / frequency), MAX_HARMONICS)
            if harmonics < 1:
                continue
            seg = _oscillate(length, SYNTH_GAIN * (note.velocity / 127.0),
                             frequency, harmonics, sample_rate)
            _apply_envelope(seg, attack, release, ramps)
            out[start:stop] += seg
    return Waveform(out, sample_rate)


@dataclass
class MixResult:
    waveform: Waveform
    peak: float


def mix_stems(stems: Iterable[Waveform]) -> MixResult:
    """Sample-wise sum of stems in the given order: no normalization, no
    clipping. Shorter stems are zero-padded to the longest. Any iterable
    works; each stem is added as it arrives, so a generator keeps only one
    stem alive at a time."""
    out: np.ndarray | None = None
    rate = 0
    for stem in stems:
        if out is None:
            rate = stem.sample_rate
            out = np.zeros(len(stem), dtype=np.float64)
        elif stem.sample_rate != rate:
            raise SampleRateMismatch(
                f"stems at {stem.sample_rate} Hz and {rate} Hz cannot be mixed")
        if len(stem) > len(out):
            out = np.concatenate((out, np.zeros(len(stem) - len(out))))
        out[:len(stem)] += stem.samples
        del stem  # so a generator's next stem does not coexist with this one
    if out is None:
        raise AudioError("no stems to mix")
    peak = float(np.max(np.abs(out))) if len(out) else 0.0
    return MixResult(Waveform(out, rate), peak)
