"""Bridge from annotated scores to audio.

Real rendering is delegated to external synthesizers: ``emit_manifest``
describes, per output stem, which tracks contribute, their instruments and
their articulation schedules, together with the tempo map, so any sampler
host can reproduce the session. Stems are grouped the way separation models
consume them (all violins into one stem, piccolo into flute, english horn
into oboe).

For end-to-end verification without third-party sound libraries there is a
deliberately plain built-in synthesizer: band-limited sawtooths with linear
attack/release, bit-exact deterministic. ``mix_stems`` is a plain sample sum
with no normalization, because the whole premise of source separation data
is that stems add up to the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .audio import AudioError, Waveform
from .expressive import AnnotationPlan
from .gmfix import REGISTRY, InstrumentId, track_instruments
from .smf import MidiPiece, TempoMap, track_notes

DEFAULT_SAMPLE_RATE = 22_050
ATTACK_SECONDS = 0.010
RELEASE_SECONDS = 0.010
SYNTH_GAIN = 0.2
MAX_HARMONICS = 32
# Samples per pitch kept in the partials table (0.65 s at 22.05 kHz);
# longer notes compute their tail directly.
PARTIALS_CAP = 14_336

DEFAULT_MERGES = {
    "piccolo": "flute",
    "english_horn": "oboe",
}


class RenderError(Exception):
    pass


class UngroupableTrack(RenderError):
    pass


class SampleRateMismatch(AudioError):
    pass


@dataclass(frozen=True, slots=True)
class StemGroupRules:
    """Maps instrument names onto output stem names; identity by default."""

    merge: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_MERGES))

    def __post_init__(self):
        for source, target in self.merge.items():
            if target not in REGISTRY:
                raise RenderError(f"merge target {target!r} is not a known instrument")

    def stem_for(self, instrument: InstrumentId) -> str:
        return self.merge.get(instrument.name, instrument.name)


@dataclass
class TrackRender:
    track_index: int
    instrument: InstrumentId
    # articulation schedule: (tick, cc32 value, articulation name)
    schedule: list[tuple[int, int, str]]


@dataclass
class StemEntry:
    stem: str
    path: str
    tracks: list[TrackRender]


@dataclass
class RenderManifest:
    piece_id: str
    sample_rate: int
    channel_layout: str
    tempo: list[tuple[int, int]]  # (tick, microseconds per quarter)
    rules: StemGroupRules
    entries: list[StemEntry]

    def to_dict(self) -> dict:
        return {
            "piece_id": self.piece_id,
            "sample_rate": self.sample_rate,
            "channel_layout": self.channel_layout,
            "tempo": [list(change) for change in self.tempo],
            "merge_rules": dict(self.rules.merge),
            "stems": [
                {
                    "stem": entry.stem,
                    "path": entry.path,
                    "tracks": [
                        {
                            "track_index": tr.track_index,
                            "instrument": tr.instrument.name,
                            "gm_program": tr.instrument.gm_program,
                            "schedule": [list(step) for step in tr.schedule],
                        }
                        for tr in entry.tracks
                    ],
                }
                for entry in self.entries
            ],
        }


def emit_manifest(piece: MidiPiece, plan: AnnotationPlan | None,
                  rules: StemGroupRules | None = None,
                  piece_id: str = "piece",
                  sample_rate: int = DEFAULT_SAMPLE_RATE) -> RenderManifest:
    """Describe how to render a piece: one entry per output stem, each
    listing its contributing tracks and their articulation schedules.

    The schedule comes from the annotation plan when given, otherwise from
    CC#32 events already present in the piece (articulation names unknown in
    that case). Raises UngroupableTrack for note-bearing tracks whose
    instrument cannot be identified.
    """
    rules = rules or StemGroupRules()
    instruments = track_instruments(piece)
    by_index: dict[int, list[tuple[int, int, str]]] = {}
    if plan is not None:
        for iv in plan.articulations:
            by_index.setdefault(iv.track_index, []).append(
                (iv.start_tick, iv.cc32_value, iv.articulation))
    else:
        from .smf import ControlChange
        for index, track in enumerate(piece.tracks):
            for ev in track.events:
                if isinstance(ev, ControlChange) and ev.controller == 32:
                    by_index.setdefault(index, []).append((ev.tick, ev.value, ""))

    stems: dict[str, StemEntry] = {}
    for index, (track, iid) in enumerate(zip(piece.tracks, instruments)):
        if not track_notes(track):
            continue
        if iid is None:
            raise UngroupableTrack(
                f"track {index} ({track.name!r}) has no identifiable instrument")
        stem = rules.stem_for(iid)
        entry = stems.get(stem)
        if entry is None:
            entry = StemEntry(stem=stem, path=f"{piece_id}/{stem}.wav", tracks=[])
            stems[stem] = entry
        entry.tracks.append(TrackRender(
            track_index=index, instrument=iid,
            schedule=sorted(by_index.get(index, []))))

    tempo = TempoMap.from_piece(piece).changes()
    entries = [stems[name] for name in sorted(stems)]
    return RenderManifest(piece_id=piece_id, sample_rate=sample_rate,
                          channel_layout="mono", tempo=tempo, rules=rules,
                          entries=entries)


# ---------------------------------------------------------------------------
# Test synthesizer
# ---------------------------------------------------------------------------

def _pitch_to_hz(pitch: int) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


# (pitch, sample rate) -> (buffer of PARTIALS_CAP samples, samples filled):
# each pitch's summed partials from phase 0, filled on demand, per process.
# Every note starts at phase 0, so a note of length L is the first L samples
# of its pitch's partials: a prefix slice, bit-identical to rendering anew.
_partials: dict[tuple[int, int], tuple[np.ndarray, int]] = {}


def _sum_partials(frequency: float, harmonics: int, sample_rate: int,
                  lo: int, hi: int) -> np.ndarray:
    """Samples lo..hi-1 of the summed partials; each sample is the same
    whatever range it is computed in."""
    t = np.arange(lo, hi, dtype=np.float64) / sample_rate
    wave = np.zeros(hi - lo, dtype=np.float64)
    for k in range(1, harmonics + 1):
        wave += np.sin(2.0 * np.pi * k * frequency * t) / k
    return wave


def _note_wave(pitch: int, frequency: float, harmonics: int,
               sample_rate: int, length: int) -> np.ndarray:
    """The first `length` samples of a pitch's summed partials: a view of
    the table up to PARTIALS_CAP, the rest computed directly. Callers must
    not write to the result."""
    key = (pitch, sample_rate)
    table, filled = _partials.get(key) or (np.empty(PARTIALS_CAP), 0)
    want = min(length, PARTIALS_CAP)
    if filled < want:
        table[filled:want] = _sum_partials(frequency, harmonics, sample_rate,
                                           filled, want)
        filled = want
        _partials[key] = (table, filled)
    if length <= filled:
        return table[:length]
    return np.concatenate((table, _sum_partials(
        frequency, harmonics, sample_rate, PARTIALS_CAP, length)))


def test_synthesize(piece: MidiPiece,
                    track_selection: Sequence[int] | None = None,
                    sample_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Render selected tracks with additive band-limited sawtooths.

    Each note plays its equal-tempered frequency with harmonics up to the
    Nyquist limit (at most 32 partials), amplitude proportional to
    velocity/127, and a 10 ms linear attack and release. Deliberately crude,
    but deterministic and bit-exact, which is what the downstream SDR checks
    need.
    """
    tempo_map = TempoMap.from_piece(piece)
    total_seconds = tempo_map.seconds_at(piece.end_tick())
    n_samples = max(int(round(total_seconds * sample_rate)), 1)
    out = np.zeros(n_samples, dtype=np.float64)
    indices = (range(len(piece.tracks)) if track_selection is None
               else track_selection)
    attack = max(int(round(ATTACK_SECONDS * sample_rate)), 1)
    release = max(int(round(RELEASE_SECONDS * sample_rate)), 1)
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
            wave = _note_wave(note.pitch, frequency, harmonics, sample_rate,
                              length)
            envelope = np.minimum(
                np.minimum(np.arange(1, length + 1, dtype=np.float64) / attack,
                           np.arange(length, 0, -1, dtype=np.float64) / release),
                1.0)
            out[start:stop] += SYNTH_GAIN * (note.velocity / 127.0) * wave * envelope
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
