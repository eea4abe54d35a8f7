"""Seeded synthetic corpora for the benchmark workloads.

Every recording is built with ``repspeech.synth`` and written to disk as
16-bit WAV (plus a long-format TextGrid where the workload aligns), so the
program under test only ever sees files.  Each recording carries the
ground truth its synthesis fixed; ``oracle.py`` checks features against it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repspeech import alignment, audio_io, synth

SNR_DB = 25.0
# Noise of a held vowel sits this far below the voice.  At 25 dB the noise
# in its lead and tail silence would sit on the pause detector's threshold
# (25 dB below the loudest frame), so a noise frame could start a "speech"
# run and turn the rest of the lead silence into a pause.
VOWEL_SNR_DB = 35.0
CANONICAL_RATE = 16000
MIN_PAUSE_S = 0.30  # TimingParams.min_pause_s
# The pause detector reads a silent run about 30 ms shorter than the
# synthesized gap (40 ms frames, 10 ms hop), so a gap within one frame of
# the threshold has no well-defined expected count.  Gaps avoid that band.
GAP_BANDS = ((0.06, 0.26), (0.38, 0.50))
VOWEL_LABEL = "AA1"
# one native sample rate and channel count per recording device
DEVICES = (("condenser", 44100, 2), ("iPhone11", 48000, 2), ("headset", 16000, 1))


@dataclass(frozen=True)
class Recording:
    """One generated input file and the truth its synthesis fixed."""

    wav: str
    textgrid: str | None
    duration: float
    f0: float
    f1: float
    f2: float
    n_bursts: int
    n_pauses: int
    n_vowels: int


@dataclass(frozen=True)
class Workload:
    name: str
    levels: tuple[str, ...]
    recordings: tuple[Recording, ...]
    batch: bool  # run through ``repspeech extract`` as one batch

    @classmethod
    def from_json(cls, d: dict) -> "Workload":
        recs = tuple(Recording(**r) for r in d["recordings"])
        return cls(d["name"], tuple(d["levels"]), recs, d["batch"])


# Sizes per workload: (recording count, duration range in seconds).  Smoke
# sizes keep every code path but finish in seconds; they also define the
# golden-output corpus (at the default seed).
SIZES = {
    "read_sa": {"full": (3, (55.0, 65.0)), "smoke": (1, (5.0, 7.0))},
    "long_s": {"full": (2, (100.0, 125.0)), "smoke": (1, (8.0, 10.0))},
    "vowels_batch": {"full": (2, (5.5, 6.5)), "smoke": (1, (2.5, 3.0))},
}


def _speaker(rng: random.Random) -> tuple[float, tuple[tuple[float, float], ...]]:
    """An /a/ speaker: f0 and two resonators (centre Hz, bandwidth Hz).

    f0 stays near the 100 Hz at which the acceptance suite states its formant
    tolerance (ac04); the oracle applies that tolerance.  LPC formants drift
    upward as harmonics thin out, by up to about 70 Hz at f0 = 190 Hz.
    """
    f0 = rng.uniform(90.0, 110.0)
    formants = ((rng.uniform(650.0, 800.0), 80.0), (rng.uniform(1050.0, 1300.0), 90.0))
    return f0, formants


def _gap(rng: random.Random) -> float:
    lo, hi = rng.choice(GAP_BANDS)
    return rng.uniform(lo, hi)


def read_passage(rng: random.Random, duration: float, stem: Path, with_textgrid: bool) -> Recording:
    """Voice bursts of 0.15-0.6 s separated by gaps, 25 dB SNR, 16 kHz mono.

    The length is whatever the drawn segments add up to, never rounded to a
    convenient FFT size.  The TextGrid has one AA1 interval per burst.
    """
    f0, formants = _speaker(rng)
    segs = [synth.SynthSpec("silence", rng.uniform(0.3, 0.6))]
    total = segs[0].duration
    while True:
        burst = rng.uniform(0.15, 0.6)
        segs.append(synth.SynthSpec("formant_voice", burst, f0=f0, formants=formants))
        total += burst
        if total >= duration - 0.6:
            break
        gap = _gap(rng)
        segs.append(synth.SynthSpec("silence", gap))
        total += gap
    segs.append(synth.SynthSpec("silence", rng.uniform(0.3, 0.6)))
    pat = synth.synth_pattern(segs, CANONICAL_RATE)
    buf = synth.add_noise(pat.buffer, SNR_DB, seed=rng.getrandbits(32))

    events = pat.events
    bursts = [e for e in events if e.kind == "formant_voice"]
    # internal gaps only: the first and last events are edge silence
    n_pauses = sum(1 for e in events[1:-1] if e.kind == "silence" and e.end - e.start >= MIN_PAUSE_S)
    wav = stem.with_suffix(".wav")
    audio_io.write_wav(buf, wav)
    textgrid = None
    if with_textgrid:
        phones = tuple(
            alignment.Interval(e.start, e.end, VOWEL_LABEL if e.kind == "formant_voice" else "sil")
            for e in events
        )
        grid = alignment.TierSet(0.0, buf.duration, (alignment.Tier("phones", 0.0, buf.duration, phones),))
        textgrid = str(stem.with_suffix(".TextGrid"))
        Path(textgrid).write_text(alignment.serialize_textgrid(grid), encoding="utf-8")
    n_vowels = sum(1 for e in bursts if e.end - e.start >= alignment.DEFAULT_MIN_VOWEL_DURATION)
    return Recording(
        str(wav), textgrid, buf.duration, f0, formants[0][0], formants[1][0],
        len(bursts), n_pauses, n_vowels if with_textgrid else 0,
    )


def sustained_vowel(
    rng: random.Random, speaker, duration: float, path: Path, rate: int, channels: int
) -> Recording:
    """One held /a/ at the device's native rate; stereo channels differ in noise.

    As in a recorded vowel task, the voice starts after 0.3-0.6 s of silence
    and stops 0.3-0.6 s before the end.  The excitation period is a whole
    number of samples, so the steady state of a short ``synth_formant_voice``
    render tiles exactly to any length without rendering every harmonic of
    every sample.
    """
    f0_target, formants = speaker
    period = int(round(rate / f0_target))
    f0 = rate / period
    render = synth.synth_formant_voice(f0, formants, 0.25, rate).signal
    cycle = render[len(render) - 10 * period :]  # past the resonator transient
    lead, tail = (int(rng.uniform(0.3, 0.6) * rate) for _ in range(2))
    n = int(duration * rate) - lead - tail
    voice = np.tile(cycle, n // len(cycle) + 1)[:n]
    clean = audio_io.AudioBuffer.mono(np.concatenate([np.zeros(lead), voice, np.zeros(tail)]), rate)
    chans = [synth.add_noise(clean, VOWEL_SNR_DB, seed=rng.getrandbits(32)).signal for _ in range(channels)]
    buf = audio_io.AudioBuffer(np.vstack(chans), rate)
    audio_io.write_wav(buf, path)
    return Recording(str(path), None, buf.duration, f0, formants[0][0], formants[1][0], 1, 0, 0)


def build(name: str, seed: int, out_dir: Path, size: str = "full") -> Workload:
    """Write workload ``name``'s inputs for ``seed`` under ``out_dir``."""
    count, (lo, hi) = SIZES[name][size]
    rng = random.Random(f"{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "read_sa":
        recs = tuple(
            read_passage(rng, rng.uniform(lo, hi), out_dir / f"reading{i:02d}", True) for i in range(count)
        )
        return Workload(name, ("S", "a"), recs, False)
    if name == "long_s":
        recs = tuple(
            read_passage(rng, rng.uniform(lo, hi), out_dir / f"passage{i:02d}", False) for i in range(count)
        )
        return Workload(name, ("S",), recs, False)
    if name == "vowels_batch":
        recs = []
        for p in range(count):
            speaker = _speaker(rng)  # one participant's voice on every device
            for device, rate, channels in DEVICES:
                path = out_dir / f"P{p + 1:02d}_{device}_D1_S1_Vowels.wav"
                recs.append(sustained_vowel(rng, speaker, rng.uniform(lo, hi), path, rate, channels))
        return Workload(name, ("S",), tuple(recs), True)
    raise ValueError(f"unknown workload {name!r}")


def save(workload: Workload, path: Path) -> None:
    path.write_text(json.dumps(asdict(workload)), encoding="utf-8")


def load(path: Path) -> Workload:
    return Workload.from_json(json.loads(path.read_text(encoding="utf-8")))
