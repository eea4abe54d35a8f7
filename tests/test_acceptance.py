"""Acceptance suite: the package's exit criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the criterion.  The final plausibility gate runs only when a real
read-speech recording of at least 60 s is supplied via the
REPSPEECH_REAL_WAV environment variable or tests/data/real_speech.wav.
"""

import copy
import os
import random
import time

from helpers import make_wav_bytes, sort_based_quartiles
from pathlib import Path

import numpy as np
import pytest

from repspeech.alignment import Interval, Tier, TierSet, parse_textgrid, serialize_textgrid
from repspeech.articulation import formant_means, formant_track, spectral_moments
from repspeech.audio_io import AudioBuffer, read_wav, to_canonical, write_wav
from repspeech.errors import MalformedTextGrid, NonMonotoneIntervals, TruncatedData, UnsupportedEncoding
from repspeech.phonation import (
    PitchTrack,
    cpp_mean,
    cpp_track,
    hnr_mean,
    hnr_track,
    intensity_mean,
    intensity_track,
    pitch_stats,
    pitch_track_two_pass,
)
from repspeech.pipeline import ExtractionRequest, PipelineParams, extract_recording
from repspeech.protocol import (
    DESIGN_CHECKLIST,
    ManifestExpectation,
    RecordingId,
    SessionSchedule,
    checklist_template,
    lint_study_design,
    parse_recording_filename,
    validate_manifest,
    validate_schedule,
)
from repspeech.reporting import Cell, format_cell, quartiles
from repspeech.synth import (
    SynthSpec,
    add_noise,
    synth_formant_voice,
    synth_noise,
    synth_pattern,
    synth_pulse_train,
)
from repspeech.timing import count_syllable_nuclei, detect_speech_regions, timing_features

RATE = 16000
PARAMS = PipelineParams()


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_ac01_pitch_oracle():
    """Two-pass pitch within 1% of synthesis f0; under 5 s for all four."""
    targets = (85.0, 120.0, 200.0, 300.0)
    t0 = time.perf_counter()
    errors = {}
    for f0 in targets:
        track = pitch_track_two_pass(synth_pulse_train(f0, 2.0))
        mean, _ = pitch_stats(track.voiced_f0)
        errors[f0] = abs(mean - f0) / f0
    elapsed = time.perf_counter() - t0
    ok = all(e <= 0.01 for e in errors.values()) and elapsed < 5.0
    worst = max(errors.values())
    _report("pitch-oracle", ok, f"worst error {worst * 100:.3f}% of f0, runtime {elapsed:.2f} s")
    assert ok


def test_ac02_ceiling_adaptation():
    """Adapted range keeps a 120 Hz harmonic-rich voice below 300 Hz readings."""
    track = pitch_track_two_pass(synth_pulse_train(120.0, 2.0))
    voiced = track.voiced_f0
    frac_above = float(np.mean(voiced > 300.0))
    ok = frac_above < 0.01
    _report(
        "ceiling-adaptation",
        ok,
        f"{frac_above * 100:.2f}% of voiced frames above 300 Hz "
        f"(adapted ceiling {track.ceiling:.0f} Hz)",
    )
    assert ok


def _random_burst_spec(seed: int):
    rng = random.Random(seed)
    segs = []
    truth_pauses = 0
    if rng.random() < 0.5:
        segs.append(SynthSpec("silence", 0.4))
    n_bursts = rng.randint(3, 7)
    for i in range(n_bursts):
        f0 = rng.choice((175, 200, 225))
        segs.append(SynthSpec("pulse_train", rng.choice((0.20, 0.25, 0.30)), f0=f0))
        if i < n_bursts - 1:
            if rng.random() < 0.5:
                segs.append(SynthSpec("silence", rng.choice((0.5, 0.6, 0.7, 0.8))))
                truth_pauses += 1
            else:
                segs.append(SynthSpec("silence", rng.choice((0.08, 0.10, 0.12))))
    if rng.random() < 0.5:
        segs.append(SynthSpec("silence", 0.5))
    return segs, n_bursts, truth_pauses


def test_ac03_timing_oracle():
    """Randomized burst/gap patterns give exact counts and the rate identity."""
    all_ok = True
    details = []
    for seed in range(10):
        segs, truth_nuclei, truth_pauses = _random_burst_spec(seed)
        pat = synth_pattern(segs)
        track = pitch_track_two_pass(pat.buffer)
        tf = timing_features(pat.buffer, intensity_track(pat.buffer), track, PARAMS)
        identity = abs(
            tf.speaking_rate - tf.articulation_rate * (tf.phonation_time / tf.duration)
        ) <= 1e-9 * max(tf.speaking_rate, 1e-12)
        ok = tf.n_syllables == truth_nuclei and tf.n_pauses == truth_pauses and identity
        all_ok &= ok
        if not ok:
            details.append(
                f"seed {seed}: nuclei {tf.n_syllables}/{truth_nuclei} pauses {tf.n_pauses}/{truth_pauses}"
            )
    _report("timing-oracle", all_ok, details[0] if details else "10/10 randomized patterns exact")
    assert all_ok, details


def test_ac04_formant_oracle():
    """Two-resonator syntheses recover F1 within 50 Hz and F2 within 75 Hz."""
    targets = ((700.0, 1200.0), (300.0, 2300.0), (500.0, 1000.0))
    worst = (0.0, 0.0)
    ok = True
    for t1, t2 in targets:
        buf = synth_formant_voice(100.0, ((t1, 80.0), (t2, 90.0)), 2.0)
        track = pitch_track_two_pass(buf)
        f1, f2 = formant_means(formant_track(buf, track).over(0.0, buf.duration))
        worst = (max(worst[0], abs(f1 - t1)), max(worst[1], abs(f2 - t2)))
        ok &= abs(f1 - t1) <= 50.0 and abs(f2 - t2) <= 75.0
    _report("formant-oracle", ok, f"worst |dF1| {worst[0]:.1f} Hz, worst |dF2| {worst[1]:.1f} Hz")
    assert ok


def test_ac05_spectral_moments():
    """Closed-form moments for tones; uniform-band noise matches theory."""
    t = np.arange(RATE) / RATE
    one = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), RATE)
    two = AudioBuffer(0.3 * np.sin(2 * np.pi * 500 * t) + 0.3 * np.sin(2 * np.pi * 1500 * t), RATE)
    bin_width = RATE / one.n_samples
    m1 = spectral_moments(one)
    m2 = spectral_moments(two)
    ok = (
        abs(m1.gravity - 1000.0) <= bin_width
        and m1.deviation <= 2 * bin_width
        and abs(m2.gravity - 1000.0) <= bin_width
        and abs(m2.deviation - 500.0) <= 2 * bin_width
    )
    gs, ds = [], []
    for seed in range(20):
        m = spectral_moments(synth_noise(1.0, rms=0.1, seed=seed))
        gs.append(m.gravity)
        ds.append(m.deviation)
    g_mean, d_mean = float(np.mean(gs)), float(np.mean(ds))
    ok &= abs(g_mean - 4000.0) <= 100.0 and abs(d_mean - 8000.0 / np.sqrt(12)) <= 100.0
    _report(
        "spectral-moments",
        ok,
        f"tones within one bin; noise gravity {g_mean:.0f} Hz, deviation {d_mean:.0f} Hz",
    )
    assert ok


def test_ac06_hnr_snr_relation():
    """Harmonicity tracks the constructed SNR within 2 dB, monotonically."""
    buf = synth_pulse_train(200.0, 2.0)
    values = []
    for snr in (0.0, 10.0, 20.0, 30.0):
        noisy = add_noise(buf, snr, seed=1)
        track = pitch_track_two_pass(noisy)
        values.append(hnr_mean(hnr_track(noisy, track).over(0.0, noisy.duration)))
    diffs = [abs(h - s) for h, s in zip(values, (0, 10, 20, 30))]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    ok = max(diffs) <= 2.0 and monotone
    _report(
        "hnr-snr-relation",
        ok,
        "HNR " + ", ".join(f"{v:.2f}" for v in values) + f" dB; worst |HNR-SNR| {max(diffs):.2f} dB",
    )
    assert ok


def test_ac07_cpp_ordering():
    """Cepstral peak prominence separates periodic from noise by over 8 dB."""
    pulse = synth_pulse_train(200.0, 2.0)
    pulse_cpp = cpp_mean(cpp_track(pulse).over(0.0, pulse.duration))
    margins = []
    for seed in range(20):
        noise = synth_noise(2.0, rms=0.1, seed=seed)
        noise_cpp = cpp_mean(cpp_track(noise).over(0.0, noise.duration))
        margins.append(pulse_cpp - noise_cpp)
    ok = all(m > 8.0 for m in margins)
    _report(
        "cpp-ordering",
        ok,
        f"pulse CPP {pulse_cpp:.1f} dB; smallest margin over noise {min(margins):.1f} dB (20 seeds)",
    )
    assert ok


def test_ac08_semitone_invariance():
    """Scaling any voiced contour leaves the semitone spread unchanged."""
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for _ in range(20):
        f0 = rng.uniform(90, 280, size=rng.integers(5, 60))
        track = PitchTrack(np.arange(len(f0)) * 0.01, f0, 50.0, 600.0)
        _, sd = pitch_stats(track.voiced_f0)
        for g in (0.5, 2.0, 3.0):
            scaled = PitchTrack(track.times, g * f0, track.floor, track.ceiling)
            _, sd_g = pitch_stats(scaled.voiced_f0)
            worst = max(worst, abs(sd_g - sd))
            ok &= abs(sd_g - sd) <= 1e-9
    _report("semitone-invariance", ok, f"max |SD change| {worst:.2e} semitones")
    assert ok


def test_ac09_gain_invariance():
    """Gain shifts intensity by 20 log10 g and nothing else."""
    voice = synth_formant_voice(120.0, ((700.0, 80.0), (1200.0, 90.0)), 2.0)
    track = pitch_track_two_pass(voice)
    base_int = intensity_mean(intensity_track(voice).over(0.0, voice.duration))
    base_hnr = hnr_mean(hnr_track(voice, track).over(0.0, voice.duration))
    base_formants = formant_means(formant_track(voice, track).over(0.0, voice.duration))
    pattern = synth_pattern(
        [
            SynthSpec("pulse_train", 0.25, f0=200),
            SynthSpec("silence", 0.4),
            SynthSpec("pulse_train", 0.25, f0=200),
            SynthSpec("silence", 0.4),
            SynthSpec("pulse_train", 0.25, f0=200),
        ]
    )
    p_track = pitch_track_two_pass(pattern.buffer)
    p_contour = intensity_track(pattern.buffer)
    base_nuclei = count_syllable_nuclei(pattern.buffer, p_contour, p_track, PARAMS)
    base_pauses = sum(1 for s in detect_speech_regions(pattern.buffer, p_contour, PARAMS) if s.kind == "pause")

    ok = True
    details = []
    for g in (0.1, 0.5, 2.0):
        scaled = AudioBuffer(voice.signal * g, RATE)
        s_track = pitch_track_two_pass(scaled)
        shift = intensity_mean(intensity_track(scaled).over(0.0, scaled.duration)) - base_int
        ok &= abs(shift - 20 * np.log10(g)) <= 0.05
        ok &= len(s_track.f0) == len(track.f0) and np.max(np.abs(s_track.f0 - track.f0)) <= 0.1
        f1, f2 = formant_means(formant_track(scaled, s_track).over(0.0, scaled.duration))
        ok &= abs(f1 - base_formants[0]) <= 1.0 and abs(f2 - base_formants[1]) <= 1.0
        ok &= abs(hnr_mean(hnr_track(scaled, s_track).over(0.0, scaled.duration)) - base_hnr) <= 0.01
        sp = AudioBuffer(pattern.buffer.signal * g, RATE)
        sp_track = pitch_track_two_pass(sp)
        sp_contour = intensity_track(sp)
        ok &= count_syllable_nuclei(sp, sp_contour, sp_track, PARAMS) == base_nuclei
        ok &= sum(1 for s in detect_speech_regions(sp, sp_contour, PARAMS) if s.kind == "pause") == base_pauses
        details.append(f"g={g}: dI {shift:+.3f} dB")
    _report("gain-invariance", ok, "; ".join(details))
    assert ok


def _textgrid_corpus():
    rng = random.Random(42)
    grids = [
        TierSet(0.0, 1.0, (Tier("phones", 0.0, 1.0, (Interval(0.0, 0.5, "spn x"), Interval(0.5, 1.0, 'say ""hi""'),)),)),
        TierSet(0.0, 2.0, (Tier("phones", 0.0, 2.0, (Interval(0.0, 2.0, ""),)),)),
    ]
    alphabet = 'abcdefgh AA1"չ-'
    while len(grids) < 20:
        tiers = []
        for ti in range(rng.randint(1, 3)):
            n = rng.randint(1, 8)
            bounds = sorted(rng.uniform(0, 10) for _ in range(n + 1))
            if len(set(bounds)) < n + 1:
                continue
            intervals = tuple(
                Interval(bounds[i], bounds[i + 1], "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10))))
                for i in range(n)
            )
            tiers.append(Tier(f"t{ti}", 0.0, 10.0, intervals))
        if tiers:
            grids.append(TierSet(0.0, 10.0, tuple(tiers)))
    return grids


def test_ac10_parser_suites(tmp_path):
    """WAV round-trip within one LSB; TextGrid corpus round-trips exactly."""
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, 32000)
    path = tmp_path / "rt.wav"
    write_wav(AudioBuffer(x, RATE), path)
    wav_err = float(np.max(np.abs(read_wav(path).samples[0] - x)))
    ok = wav_err <= 2**-15

    corpus = _textgrid_corpus()
    exact = 0
    for grid in corpus:
        text = serialize_textgrid(grid)
        back = parse_textgrid(text)
        if back == grid and serialize_textgrid(back) == text:
            exact += 1
    ok &= exact == len(corpus) == 20

    raised = 0
    bad_wav = tmp_path / "bad.wav"
    bad_wav.write_bytes(make_wav_bytes([[0] * 100], RATE)[:-50])
    try:
        read_wav(bad_wav)
    except TruncatedData:
        raised += 1
    float_wav = tmp_path / "float.wav"
    float_wav.write_bytes(make_wav_bytes([[0] * 8], RATE, format_code=3))
    try:
        read_wav(float_wav)
    except UnsupportedEncoding:
        raised += 1
    try:
        parse_textgrid("ooBinaryFile\x00")
    except MalformedTextGrid:
        raised += 1
    try:
        parse_textgrid(
            serialize_textgrid(corpus[0]).replace("xmax = 0.5", "xmax = 0.0", 1)
        )
    except (NonMonotoneIntervals, MalformedTextGrid):
        raised += 1
    ok &= raised == 4
    _report(
        "parser-suites",
        ok,
        f"WAV max error {wav_err:.2e} (1 LSB = {2 ** -15:.2e}); {exact}/20 grids byte-exact; "
        f"{raised}/4 malformed inputs rejected",
    )
    assert ok


def test_ac11_protocol_suites():
    """Filename grammar, schedule rules, manifest arithmetic, checklist lint."""
    rng = random.Random(7)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-"
    names_ok = 0
    for _ in range(1000):
        fields = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))) for _ in range(rng.randint(4, 5))]
        rid = RecordingId(*fields) if len(fields) == 5 else RecordingId(*fields[:4])
        if parse_recording_filename(rid.format() + ".wav") == rid:
            names_ok += 1
    ok = names_ok == 1000

    good = SessionSchedule.from_dict(
        {"arm": "Day", "session_starts": ["2023-06-14T09:12:00", "2023-06-14T14:05:00", "2023-06-14T18:04:00"]}
    )
    bad = SessionSchedule.from_dict(
        {"arm": "Day", "session_starts": ["2023-06-14T09:00:00", "2023-06-14T14:00:00", "2023-06-14T17:00:00"]}
    )
    ok &= validate_schedule(good).ok
    ok &= any(f.code == "MinGap" for f in validate_schedule(bad).findings)

    sessions = []
    for i in range(28):
        for day in ("D1", "D2"):
            for s in ("S1", "S2", "S3"):
                sessions.append((f"P{i:02d}", day, s))
    for i in range(26):
        for day, s in (("W1", "S1"), ("W2", "S2"), ("W3", "S3")):
            sessions.append((f"Q{i:02d}", day, s))
    sessions.remove(("Q25", "W3", "S3"))
    expectation = ManifestExpectation(
        tuple(sessions), ("condenser", "iPhone11", "SamsungS20FE", "MotorolaG5", "headset")
    )
    manifest = sorted(expectation.expected_ids(), key=RecordingId.format)
    arithmetic = len(sessions) == 245 and expectation.expected_count == 1225
    ok &= arithmetic and validate_manifest(manifest, expectation).ok

    flagged = 0
    total = 0
    for section, aspects in DESIGN_CHECKLIST.items():
        for aspect in aspects:
            total += 1
            config = copy.deepcopy(checklist_template())
            del config[section][aspect]
            report = lint_study_design(config)
            if any(f.code == "Missing" and f.context == f"{section}/{aspect}" for f in report.findings):
                flagged += 1
    ok &= flagged == total
    _report(
        "protocol-suites",
        ok,
        f"{names_ok}/1000 filenames round-trip; schedule pass/fail as specified; "
        f"manifest 245 x 5 = 1225; checklist flags {flagged}/{total} removed aspects",
    )
    assert ok


def test_ac12_summary_statistics():
    """Quantiles equal a sort-based oracle; markdown formatting matches."""
    rng = random.Random(11)
    worst = 0.0
    ok = True
    for _ in range(100):
        values = [rng.uniform(-100, 100) for _ in range(rng.randint(1, 40))]
        got = quartiles(values)
        want = sort_based_quartiles(values)
        for g, w in zip((got[0], got[1], got[2]), want):
            err = abs(g - w) / max(abs(w), 1e-12)
            worst = max(worst, err)
            ok &= err <= 1e-12 or abs(g - w) <= 1e-12
    cell_text = format_cell("speaking_rate", Cell(3.6912, 3.4001, 3.9897, 26))
    ok &= cell_text == "3.69 (3.40, 3.99)"
    _report("summary-statistics", ok, f"worst quantile deviation {worst:.2e}; cell renders {cell_text!r}")
    assert ok


PLAUSIBILITY_ENVELOPES = {
    "duration": (55.0, 900.0),
    "speaking_rate": (2.0, 6.0),
    "articulation_rate": (2.5, 7.0),
    "pause_rate": (0.02, 1.0),
    "intensity_mean": (40.0, 100.0),
    "pitch_mean": (60.0, 350.0),
    "pitch_sd": (0.3, 8.0),
    "hnr_mean": (2.0, 30.0),
    "spectral_slope": (-30.0, 5.0),
    "cpp_mean": (5.0, 18.0),
    "f1_mean": (300.0, 800.0),
    "f2_mean": (800.0, 2600.0),
    "spectral_gravity": (200.0, 1500.0),
    "spectral_deviation": (100.0, 1200.0),
}


def test_ac13_plausibility_gate(tmp_path):
    """Optional gate on user-supplied read speech; skipped when absent."""
    candidate = os.environ.get("REPSPEECH_REAL_WAV", "")
    if not candidate:
        default = Path(__file__).parent / "data" / "real_speech.wav"
        candidate = str(default) if default.exists() else ""
    if not candidate:
        _report("plausibility-gate", True, "skipped: no real read-speech recording supplied")
        pytest.skip("no user-supplied read-speech WAV; set REPSPEECH_REAL_WAV to enable")
    buf = to_canonical(read_wav(candidate))
    if buf.duration < 60.0:
        _report("plausibility-gate", True, "skipped: supplied recording shorter than 60 s")
        pytest.skip("supplied recording shorter than 60 s")
    wav = tmp_path / "real.wav"
    write_wav(buf, wav)
    record = extract_recording(ExtractionRequest(str(wav), None, ("S",)))[0]
    misses = []
    for feature, (lo, hi) in PLAUSIBILITY_ENVELOPES.items():
        value = record.features.get(feature)
        if value is None or not (lo <= value <= hi):
            misses.append(f"{feature}={value}")
    ok = not misses
    _report("plausibility-gate", ok, "all 14 features in envelope" if ok else "; ".join(misses))
    assert ok, misses
