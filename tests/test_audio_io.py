"""WAV container decoding, canonicalization, and encoding."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import resample_poly

from helpers import make_wav_bytes

from repspeech.audio_io import AudioBuffer, read_wav, resample, to_canonical, write_wav
from repspeech.errors import MalformedRiff, TruncatedData, UnsupportedEncoding
from repspeech.synth import synth_pulse_train


def test_reads_mono_16k_header_arithmetic(tmp_path):
    vals = [0, 1000, -1000, 32767, -32768] * 3200
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes([vals], 16000))
    buf = read_wav(path)
    assert buf.sample_rate == 16000
    assert buf.channels == 1
    assert buf.n_samples == 16000
    assert buf.duration == pytest.approx(1.0)
    assert buf.source_bit_depth == 16


def test_stereo_matches_byte_level_decoder(tmp_path):
    rng = np.random.default_rng(0)
    left = rng.integers(-32768, 32767, size=4410).tolist()
    right = rng.integers(-32768, 32767, size=4410).tolist()
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav_bytes([left, right], 44100))
    buf = read_wav(path)
    assert buf.channels == 2
    assert buf.sample_rate == 44100
    np.testing.assert_allclose(buf.samples[0], np.array(left) / 32768.0)
    np.testing.assert_allclose(buf.samples[1], np.array(right) / 32768.0)


def test_truncated_data_chunk(tmp_path):
    blob = make_wav_bytes([[0] * 1000], 16000)
    path = tmp_path / "t.wav"
    path.write_bytes(blob[:-500])
    with pytest.raises(TruncatedData):
        read_wav(path)


def test_float_wav_rejected(tmp_path):
    path = tmp_path / "f.wav"
    path.write_bytes(make_wav_bytes([[0] * 8], 16000, format_code=3))
    with pytest.raises(UnsupportedEncoding):
        read_wav(path)


def test_compressed_codec_rejected(tmp_path):
    path = tmp_path / "c.wav"
    path.write_bytes(make_wav_bytes([[0] * 8], 16000, format_code=85))
    with pytest.raises(UnsupportedEncoding):
        read_wav(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"JUNK" + bytes(60))
    with pytest.raises(MalformedRiff):
        read_wav(path)


def test_missing_fmt_chunk(tmp_path):
    blob = b"RIFF" + struct.pack("<I", 12) + b"WAVE" + b"data" + struct.pack("<I", 4) + bytes(4)
    path = tmp_path / "m.wav"
    path.write_bytes(blob)
    with pytest.raises(MalformedRiff):
        read_wav(path)


def test_8_and_24_bit_decode(tmp_path):
    p8 = tmp_path / "b8.wav"
    p8.write_bytes(make_wav_bytes([[0, 128, 255]], 8000, bits=8))
    buf = read_wav(p8)
    np.testing.assert_allclose(buf.samples[0], [(0 - 128) / 128, 0.0, (255 - 128) / 128])

    p24 = tmp_path / "b24.wav"
    p24.write_bytes(make_wav_bytes([[0, 1 << 22, (1 << 24) - (1 << 22)]], 8000, bits=24))
    buf = read_wav(p24)
    np.testing.assert_allclose(buf.samples[0], [0.0, 0.5, -0.5])


def test_round_trip_within_one_lsb(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 16000)
    buf = AudioBuffer(x, 16000)
    path = tmp_path / "rt.wav"
    write_wav(buf, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples[0] - x)) <= 2**-15


def test_stereo_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, (2, 4000))
    path = tmp_path / "st.wav"
    write_wav(AudioBuffer(x, 22050), path)
    back = read_wav(path)
    assert back.channels == 2
    assert back.sample_rate == 22050
    assert np.max(np.abs(back.samples - x)) <= 2**-15


def test_skips_padded_extra_chunk(tmp_path):
    # an odd-sized chunk before the data must be skipped with its pad byte
    blob = make_wav_bytes([[100, -100, 50]], 16000)
    fmt_end = blob.index(b"data")
    extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"
    path = tmp_path / "x.wav"
    path.write_bytes(blob[:fmt_end] + extra + blob[fmt_end:])
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples[0], np.array([100, -100, 50]) / 32768.0)


def test_written_file_readable_by_stdlib(tmp_path):
    import wave

    rng = np.random.default_rng(9)
    x = rng.uniform(-0.9, 0.9, 5000)
    path = tmp_path / "w.wav"
    write_wav(AudioBuffer(x, 16000), path)
    with wave.open(str(path)) as fh:
        assert fh.getnchannels() == 1
        assert fh.getframerate() == 16000
        assert fh.getsampwidth() == 2
        raw = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    np.testing.assert_array_equal(raw / 32768.0, read_wav(path).samples[0])


def test_write_empty_buffer(tmp_path):
    path = tmp_path / "e.wav"
    write_wav(AudioBuffer(np.zeros(0), 16000), path)
    back = read_wav(path)
    assert back.n_samples == 0


def test_file_size_header_arithmetic(tmp_path):
    buf = synth_pulse_train(200, 1.0, rate=16000)
    path = tmp_path / "p.wav"
    write_wav(buf, path)
    assert path.stat().st_size == 44 + 2 * 16000


def test_canonical_idempotent():
    buf = synth_pulse_train(150, 0.5)
    once = to_canonical(buf)
    twice = to_canonical(once)
    assert np.max(np.abs(twice.samples - once.samples)) <= 2**-15


def test_canonical_duration_and_downmix(tmp_path):
    rng = np.random.default_rng(3)
    left = rng.integers(-20000, 20000, size=44100).tolist()
    right = rng.integers(-20000, 20000, size=44100).tolist()
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav_bytes([left, right], 44100))
    buf = read_wav(path)
    canon = to_canonical(buf)
    assert canon.channels == 1
    assert canon.sample_rate == 16000
    assert abs(canon.n_samples - 16000) <= 1


def test_canonical_preserves_tone_frequency():
    t = np.arange(44100) / 44100
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), 44100)
    canon = to_canonical(buf)
    spec = np.abs(np.fft.rfft(canon.signal * np.hanning(canon.n_samples)))
    freqs = np.fft.rfftfreq(canon.n_samples, 1 / 16000)
    peak = freqs[np.argmax(spec)]
    assert abs(peak - 1000.0) <= 16000 / canon.n_samples


def test_downmix_identical_channels_exact():
    x = np.linspace(-0.5, 0.5, 1000)
    buf = AudioBuffer(np.stack([x, x, x]), 16000)
    canon = to_canonical(buf)
    np.testing.assert_array_equal(canon.samples[0], x)


@pytest.mark.parametrize("rate_in", [8000, 22050, 44100, 48000])
def test_resample_preserves_duration(rate_in):
    x = np.zeros(rate_in)  # exactly 1 s
    y = resample(x, rate_in, 16000)
    assert abs(len(y) - 16000) <= 1


@pytest.mark.parametrize(
    "rate_in, rate_out",
    [(44100, 16000), (48000, 16000), (22050, 16000), (8000, 16000), (11025, 16000), (96000, 16000), (16000, 11000)],
)
def test_resample_is_scipys_resample_poly_bit_for_bit(rate_in, rate_out):
    frac = Fraction(rate_out, rate_in)
    rng = np.random.default_rng(rate_in)
    lengths = (1, 2, 3, 4, 5, rate_in // 3, rate_in // 3 + 1, 2 * rate_in + 1, 6 * rate_in - 1, 6 * rate_in)
    for n in lengths:
        for x in (rng.uniform(-1.0, 1.0, n), np.zeros(n), -np.zeros(n)):
            expected = resample_poly(x, frac.numerator, frac.denominator, window=("kaiser", 8.0))
            got = resample(x, rate_in, rate_out)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), n
