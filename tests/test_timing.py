"""Pause detection, syllable-nucleus counting, rate features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repspeech.audio_io import AudioBuffer, read_wav, to_canonical, write_wav
from repspeech.errors import ZeroDuration, ZeroPhonationTime
from repspeech.phonation import HOP, PitchTrack, intensity_track, pitch_track_two_pass
from repspeech.pipeline import PipelineParams
from repspeech.synth import SynthSpec, synth_pattern, synth_pulse_train, synth_silence
from repspeech.timing import (
    NO_CONTOUR,
    count_syllable_nuclei,
    detect_speech_regions,
    timing_features,
)

RATE = 16000
PARAMS = PipelineParams()


def burst_pattern(n_bursts, burst=0.25, gap=0.4, f0=200, lead=0.0, trail=0.0):
    segs = []
    if lead:
        segs.append(SynthSpec("silence", lead))
    for i in range(n_bursts):
        segs.append(SynthSpec("pulse_train", burst, f0=f0))
        if i < n_bursts - 1:
            segs.append(SynthSpec("silence", gap))
    if trail:
        segs.append(SynthSpec("silence", trail))
    return synth_pattern(segs)


def brute_force_pause_count(buf, params=PARAMS):
    """Literal scan over the intensity contour, as an independent oracle."""
    track = intensity_track(buf)
    mask = track.values >= track.values.max() + params.silence_threshold_db
    count = 0
    i = 0
    n = len(mask)
    while i < n:
        if not mask[i]:
            j = i
            while j < n and not mask[j]:
                j += 1
            is_internal = i > 0 and j < n
            gap = (j - i) * HOP
            if is_internal and gap >= params.min_pause:
                count += 1
            i = j
        else:
            i += 1
    return count


def test_tone_gap_tone_single_pause():
    pat = synth_pattern(
        [SynthSpec("tone", 2.0, f0=1000), SynthSpec("silence", 0.5), SynthSpec("tone", 2.0, f0=1000)]
    )
    regions = detect_speech_regions(pat.buffer, intensity_track(pat.buffer), PARAMS)
    pauses = [s for s in regions if s.kind == "pause"]
    assert len(pauses) == 1
    assert pauses[0].duration == pytest.approx(0.5, abs=0.05)


def test_short_gap_not_a_pause():
    pat = synth_pattern(
        [SynthSpec("tone", 1.0, f0=1000), SynthSpec("silence", 0.2), SynthSpec("tone", 1.0, f0=1000)]
    )
    regions = detect_speech_regions(pat.buffer, intensity_track(pat.buffer), PARAMS)
    assert sum(1 for s in regions if s.kind == "pause") == 0
    assert sum(1 for s in regions if s.kind == "speech") == 1


def test_all_silence_no_regions():
    silence = synth_silence(2.0)
    assert detect_speech_regions(silence, intensity_track(silence), PARAMS) == []


def test_leading_trailing_silence_not_pauses():
    pat = burst_pattern(2, burst=0.5, gap=0.5, lead=0.6, trail=0.6)
    regions = detect_speech_regions(pat.buffer, intensity_track(pat.buffer), PARAMS)
    pauses = [s for s in regions if s.kind == "pause"]
    assert len(pauses) == 1
    speech = [s for s in regions if s.kind == "speech"]
    assert speech[0].start == pytest.approx(0.6, abs=0.05)
    assert speech[-1].end == pytest.approx(0.6 + 0.5 + 0.5 + 0.5, abs=0.05)


def test_four_bursts_counted(synth_cache):
    pat = burst_pattern(4)
    track = pitch_track_two_pass(pat.buffer)
    assert count_syllable_nuclei(pat.buffer, intensity_track(pat.buffer), track, PARAMS) == 4


def test_steady_tone_single_nucleus():
    pat = synth_pattern([SynthSpec("pulse_train", 2.0, f0=200)])
    track = pitch_track_two_pass(pat.buffer)
    assert count_syllable_nuclei(pat.buffer, intensity_track(pat.buffer), track, PARAMS) == 1


def test_edge_voiced_nucleus_survives_wav_round_trip(tmp_path):
    """A voice from the first sample to the last keeps its one nucleus in a 16-bit WAV.

    Quantization moves the contour maximum to the first intensity frame,
    which lies before the first pitch frame.
    """
    buf = synth_pulse_train(150.0, 2.0)
    path = tmp_path / "edge.wav"
    write_wav(buf, path)
    read_back = to_canonical(read_wav(path))
    for b in (buf, read_back):
        assert count_syllable_nuclei(b, intensity_track(b), pitch_track_two_pass(b), PARAMS) == 1
    empty = PitchTrack(np.zeros(0), np.zeros(0), 75.0, 600.0)
    assert count_syllable_nuclei(read_back, intensity_track(read_back), empty, PARAMS) == 0


def test_silence_zero_nuclei():
    silence = synth_silence(1.0)
    assert count_syllable_nuclei(silence, intensity_track(silence), None, PARAMS) == 0


def test_unvoiced_peaks_rejected():
    pat = synth_pattern(
        [SynthSpec("noise", 0.3, amplitude=0.2), SynthSpec("silence", 0.5), SynthSpec("noise", 0.3, amplitude=0.2, seed=1)]
    )
    contour = intensity_track(pat.buffer)
    assert count_syllable_nuclei(pat.buffer, contour, None, PARAMS) == 0
    # both bursts are nuclei by level alone: a track voiced throughout keeps them
    all_voiced = PitchTrack(contour.times, np.full(len(contour.times), 100.0), 75.0, 600.0)
    assert count_syllable_nuclei(pat.buffer, contour, all_voiced, PARAMS) == 2


def test_constructed_rates():
    # 5 nuclei over 2.0 s, one true pause, short gaps absorbed into speech
    segs = []
    for i in range(5):
        segs.append(SynthSpec("pulse_train", 0.24, f0=200))
        if i == 2:
            segs.append(SynthSpec("silence", 0.5))
        elif i < 4:
            segs.append(SynthSpec("silence", 0.1))
    pat = synth_pattern(segs)
    buf = pat.buffer
    assert buf.duration == pytest.approx(2.0)
    track = pitch_track_two_pass(buf)
    tf = timing_features(buf, intensity_track(buf), track, PARAMS)
    assert tf.n_syllables == 5
    assert tf.n_pauses == 1
    assert tf.speaking_rate == pytest.approx(2.5)
    assert tf.pause_rate == pytest.approx(0.5)
    assert tf.articulation_rate == pytest.approx(5 / 1.5, rel=0.07)


def test_rate_identity_exact():
    pat = burst_pattern(4)
    track = pitch_track_two_pass(pat.buffer)
    tf = timing_features(pat.buffer, intensity_track(pat.buffer), track, PARAMS)
    assert tf.speaking_rate == pytest.approx(
        tf.articulation_rate * (tf.phonation_time / tf.duration), rel=1e-9
    )
    assert tf.speaking_rate <= tf.articulation_rate


def test_pause_count_matches_brute_force_scan():
    for n, gap in ((2, 0.5), (3, 0.45), (5, 0.6)):
        pat = burst_pattern(n, gap=gap)
        regions = detect_speech_regions(pat.buffer, intensity_track(pat.buffer), PARAMS)
        assert sum(1 for s in regions if s.kind == "pause") == brute_force_pause_count(pat.buffer)


def test_quantized_periodic_bursts_not_overcounted(tmp_path):
    """Bit-identical plateau maxima (16-bit file of a periodic voice) merge."""
    from repspeech.audio_io import read_wav, to_canonical, write_wav

    segs = []
    for i in range(4):
        segs.append(SynthSpec("formant_voice", 0.5, f0=110, formants=((650, 80), (1150, 90))))
        if i < 3:
            segs.append(SynthSpec("silence", 0.45))
    pat = synth_pattern(segs)
    path = tmp_path / "q.wav"
    write_wav(pat.buffer, path)
    buf = to_canonical(read_wav(path))
    track = pitch_track_two_pass(buf)
    assert count_syllable_nuclei(buf, intensity_track(buf), track, PARAMS) == 4


def test_counts_gain_invariant():
    pat = burst_pattern(3)
    track = pitch_track_two_pass(pat.buffer)
    contour = intensity_track(pat.buffer)
    n1 = count_syllable_nuclei(pat.buffer, contour, track, PARAMS)
    scaled = AudioBuffer(pat.buffer.signal * 0.1, RATE)
    track2 = pitch_track_two_pass(scaled)
    scaled_contour = intensity_track(scaled)
    assert count_syllable_nuclei(scaled, scaled_contour, track2, PARAMS) == n1
    r1 = detect_speech_regions(pat.buffer, contour, PARAMS)
    r2 = detect_speech_regions(scaled, scaled_contour, PARAMS)
    assert [s.kind for s in r1] == [s.kind for s in r2]


@st.composite
def burst_patterns(draw):
    """Voiced bursts, with or without silence at either end; their pause count; and a gain.

    Gaps stay clear of the 0.30 s pause threshold (the detector reads a gap
    about 30 ms short), and bursts of one pattern lie within 13 dB of each
    other, well above the -25 dB silence threshold, so no count sits on a
    threshold that quantization could tip.
    """
    edge = st.one_of(st.just(0.0), st.floats(0.05, 0.5))
    segments = [SynthSpec("silence", draw(edge))]
    n_bursts = draw(st.integers(1, 4))
    pauses = 0
    for i in range(n_bursts):
        kind = draw(st.sampled_from(["pulse_train", "formant_voice"]))
        segments.append(
            SynthSpec(
                kind,
                draw(st.floats(0.15, 0.6)),
                f0=draw(st.floats(90.0, 250.0)),
                formants=((700.0, 80.0), (1200.0, 90.0)) if kind == "formant_voice" else (),
                amplitude=draw(st.floats(0.2, 0.9)),
            )
        )
        if i < n_bursts - 1:
            gap = draw(st.one_of(st.floats(0.06, 0.26), st.floats(0.38, 0.5)))
            pauses += gap > 0.3
            segments.append(SynthSpec("silence", gap))
    segments.append(SynthSpec("silence", draw(edge)))
    return [s for s in segments if s.duration > 0], pauses, draw(st.floats(1e-3, 1.0))


def pause_and_nucleus_counts(buf):
    contour = intensity_track(buf)
    pauses = sum(s.kind == "pause" for s in detect_speech_regions(buf, contour, PARAMS))
    return pauses, count_syllable_nuclei(buf, contour, pitch_track_two_pass(buf), PARAMS)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(burst_patterns())
def test_counts_survive_the_wav_round_trip_and_gain(tmp_path_factory, case):
    segments, pauses, gain = case
    buf = synth_pattern(segments).buffer
    path = tmp_path_factory.mktemp("counts") / "pattern.wav"
    write_wav(buf, path)
    counts = pause_and_nucleus_counts(buf)
    assert counts[0] == pauses
    assert pause_and_nucleus_counts(to_canonical(read_wav(path))) == counts
    assert pause_and_nucleus_counts(AudioBuffer(buf.signal * gain, buf.sample_rate)) == counts


def test_empty_buffer():
    with pytest.raises(ZeroDuration):
        timing_features(AudioBuffer(np.zeros(0), RATE), NO_CONTOUR, None, PARAMS)


def test_all_silence_zero_phonation():
    with pytest.raises(ZeroPhonationTime):
        silence = synth_silence(1.0)
        timing_features(silence, intensity_track(silence), None, PARAMS)
