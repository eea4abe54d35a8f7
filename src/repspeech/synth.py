"""Deterministic test-signal generators with analytically known ground truth.

Pulse trains are realized as band-limited sums of equal-amplitude harmonics,
so pulse locations, fundamental frequency, and spectral envelope are exact by
construction and nothing aliases above Nyquist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer
from .dsp import chunk_rows
from .errors import BadF0, BadResonator, RepSpeechError, SilentSignal
from .timing import finite_at_least

DEFAULT_RATE = 16000
DEFAULT_AMPLITUDE = 0.3
KINDS = ("pulse_train", "formant_voice", "tone", "noise", "silence")
PITCHED_KINDS = ("pulse_train", "formant_voice", "tone")  # the kinds an f0 sets


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one generated segment.

    ``f0`` is the fundamental for voiced kinds and the tone frequency for
    ``kind="tone"``.  ``seed`` only matters for noise.
    """

    kind: str  # one of KINDS
    duration: float
    f0: float | None = None
    formants: tuple[tuple[float, float], ...] = ()
    amplitude: float = DEFAULT_AMPLITUDE
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise RepSpeechError(f"unknown segment kind {self.kind!r}; choose from {', '.join(KINDS)}")
        if not finite_at_least(self.duration, 0.0):
            raise RepSpeechError(f"segment duration must be finite and at least 0 s, got {self.duration!r}")
        if self.kind in PITCHED_KINDS and not finite_at_least(self.f0, -math.inf):
            raise BadF0(f"a {self.kind} segment needs a finite f0, got {self.f0!r}")
        if not (finite_at_least(self.amplitude, 0.0) and self.amplitude <= 1.0):
            raise RepSpeechError(f"segment amplitude must be finite and in [0, 1], got {self.amplitude!r}")


@dataclass(frozen=True)
class PatternEvent:
    """Ground-truth location of one rendered segment."""

    kind: str
    start: float
    end: float
    f0: float | None


@dataclass(frozen=True)
class PatternResult:
    buffer: AudioBuffer
    events: list[PatternEvent] = field(default_factory=list)

    def to_ground_truth(self) -> dict:
        return {
            "sample_rate": self.buffer.sample_rate,
            "duration": self.buffer.duration,
            "events": [
                {"kind": e.kind, "start": e.start, "end": e.end, "f0": e.f0}
                for e in self.events
            ],
        }


def _harmonic_count(f0: float, rate: int) -> int:
    k = int(math.floor((0.5 * rate) / f0))
    if k * f0 >= 0.5 * rate:
        k -= 1
    return k


def _pulse_train_raw(f0: float, n: int, rate: int) -> np.ndarray:
    t = np.arange(n) / rate
    k = np.arange(1, _harmonic_count(f0, rate) + 1)
    x = np.empty(n)
    step = chunk_rows(8 * len(k))
    # a block of samples at a time, so memory stays flat with duration; in a plain loop, so no helper thread starts
    for a in range(0, n, step):
        phase = 2.0 * np.pi * f0 * np.outer(t[a : a + step], k)
        x[a : a + step] = np.cos(phase, out=phase).sum(axis=1)
    return x


def synth_pulse_train(
    f0: float, duration: float, rate: int = DEFAULT_RATE, amplitude: float = DEFAULT_AMPLITUDE
) -> AudioBuffer:
    """Band-limited pulse train with pulse peaks at integer multiples of 1/f0."""
    return synth_formant_voice(f0, (), duration, rate, amplitude)


def synth_tone(freq: float, duration: float, rate: int = DEFAULT_RATE, amplitude: float = DEFAULT_AMPLITUDE) -> AudioBuffer:
    if freq <= 0 or freq >= rate / 2.0:
        raise BadF0(f"tone frequency {freq} outside (0, Nyquist)")
    t = np.arange(int(round(duration * rate))) / rate
    return AudioBuffer(amplitude * np.sin(2.0 * np.pi * freq * t), rate)


def synth_silence(duration: float, rate: int = DEFAULT_RATE) -> AudioBuffer:
    return AudioBuffer(np.zeros(int(round(duration * rate))), rate)


def synth_noise(duration: float, rate: int = DEFAULT_RATE, rms: float = 0.1, seed: int = 0) -> AudioBuffer:
    """White Gaussian noise scaled to an exact RMS level.

    Raises RepSpeechError, naming the largest RMS that fits, when noise of
    that level would peak above full scale: scaling it down would render
    another level than the one asked for, and recorded as its truth.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(round(duration * rate)))
    measured = math.sqrt(float(np.mean(x**2))) if len(x) else 0.0
    if measured > 0:
        x = x * (rms / measured)
    peak = np.max(np.abs(x)) if len(x) else 0.0
    if peak > 1.0:
        fits = math.floor(rms / peak * 1000) / 1000  # rounded down, so it fits
        raise RepSpeechError(
            f"noise of RMS {rms:g} peaks at {peak:.3g}, past full scale; "
            f"this duration and seed fit an RMS of at most {fits:g}"
        )
    return AudioBuffer(x, rate)


def synth_formant_voice(
    f0: float,
    formants: tuple[tuple[float, float], ...],
    duration: float,
    rate: int = DEFAULT_RATE,
    amplitude: float = DEFAULT_AMPLITUDE,
) -> AudioBuffer:
    """Pulse train filtered through cascaded second-order resonators.

    Each (center Hz, bandwidth Hz) pair contributes one conjugate pole pair;
    an empty formant list returns a plain pulse train.
    """
    if f0 < 1.0 or f0 >= rate / 4.0:
        raise BadF0(f"f0 {f0} outside [1, rate/4)")
    for freq, bw in formants:
        if not (0.0 < freq < rate / 2.0):
            raise BadResonator(f"resonator at {freq} Hz not below Nyquist")
        if bw <= 0:
            raise BadResonator(f"bandwidth {bw} must be positive")
    n = int(round(duration * rate))
    x = _pulse_train_raw(f0, n, rate)
    for freq, bw in formants:
        # imported here: synth generates test load, and the extraction path never loads lfilter's package
        from scipy.signal import lfilter

        r = math.exp(-math.pi * bw / rate)
        theta = 2.0 * math.pi * freq / rate
        x = lfilter([1.0], [1.0, -2.0 * r * math.cos(theta), r * r], x)
    peak = np.max(np.abs(x)) if n else 1.0
    if peak > 0:
        x = x * (amplitude / peak)
    return AudioBuffer(x, rate)


def add_noise(buf: AudioBuffer, snr_db: float, seed: int = 0) -> AudioBuffer:
    """Add white Gaussian noise at an exact measured signal-to-noise ratio.

    Deterministic per seed.  If the mix would clip, signal and noise are
    rescaled together, which leaves the power ratio untouched.  An infinite
    SNR returns the input unchanged.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return buf
    x = buf.signal
    p_signal = float(np.mean(x**2)) if len(x) else 0.0
    if p_signal <= 0.0:
        raise SilentSignal("cannot set an SNR against a silent signal")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(x))
    p_noise_target = p_signal / (10.0 ** (snr_db / 10.0))
    noise *= math.sqrt(p_noise_target / float(np.mean(noise**2)))
    y = x + noise
    peak = np.max(np.abs(y))
    if peak > 1.0:
        y = y / peak
    return AudioBuffer(y, buf.sample_rate, buf.source_bit_depth)


def render_segment(spec: SynthSpec, rate: int = DEFAULT_RATE) -> AudioBuffer:
    if spec.kind == "pulse_train":
        return synth_pulse_train(spec.f0, spec.duration, rate, spec.amplitude)
    if spec.kind == "formant_voice":
        return synth_formant_voice(spec.f0, spec.formants, spec.duration, rate, spec.amplitude)
    if spec.kind == "tone":
        return synth_tone(spec.f0, spec.duration, rate, spec.amplitude)
    if spec.kind == "noise":
        return synth_noise(spec.duration, rate, rms=spec.amplitude, seed=spec.seed)
    return synth_silence(spec.duration, rate)  # a SynthSpec admits no other kind


def synth_pattern(segments: list[SynthSpec], rate: int = DEFAULT_RATE) -> PatternResult:
    """Concatenate segments with sample-exact boundaries.

    The returned events carry the realized boundary times so tests can use
    them as ground truth for pause and nucleus counting.
    """
    if not segments:
        raise ValueError("pattern needs at least one segment")
    chunks = []
    events = []
    cursor = 0
    for spec in segments:
        piece = render_segment(spec, rate)
        chunks.append(piece.signal)
        start = cursor / rate
        cursor += piece.n_samples
        events.append(PatternEvent(spec.kind, start, cursor / rate, spec.f0))
    return PatternResult(AudioBuffer(np.concatenate(chunks), rate), events)
