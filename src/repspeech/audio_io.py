"""Decode, canonicalize, and encode RIFF/WAVE PCM audio.

The canonical format used throughout the pipeline is single-channel,
16 kHz, 16-bit PCM.  Decoding normalizes integer samples to [-1, 1];
encoding quantizes back with at most one least-significant-bit error.
Resampling to the canonical rate, and to the formant analysis rate, is the
polyphase Kaiser-windowed sinc of ``dsp.resample_poly``, which gives
scipy's ``resample_poly`` output bit for bit on numpy alone, without
scipy's imports in the process.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dsp import resample_poly
from .errors import IoFailure, MalformedRiff, TruncatedData, UnsupportedEncoding

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

_PCM_FULL_SCALE = {8: 128.0, 16: 32768.0, 24: 8388608.0, 32: 2147483648.0}

CANONICAL_RATE = 16000  # Hz, the sample rate of every buffer the features read


@dataclass(frozen=True)
class AudioBuffer:
    """Decoded PCM audio as float64 amplitudes in [-1, 1].

    ``samples`` has shape (channels, n); all channels share one length.
    ``source_bit_depth`` records the integer width of the decoded file.
    """

    samples: np.ndarray
    sample_rate: int
    source_bit_depth: int = 16

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[np.newaxis, :]
        if x.ndim != 2:
            raise ValueError("samples must be a 1-D or (channels, n) array")
        if x.shape[0] < 1:
            raise ValueError("at least one channel required")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        if x.size and not np.all(np.isfinite(x)):
            raise ValueError("amplitudes must be finite")
        if x.size and np.max(np.abs(x)) > 1.0 + 1e-9:
            raise ValueError("amplitudes must lie in [-1, 1]")
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @classmethod
    def mono(cls, samples: np.ndarray, sample_rate: int) -> "AudioBuffer":
        """``AudioBuffer(samples, sample_rate)``, kept because ``bench/corpus.py`` calls it."""
        return cls(samples, sample_rate)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def signal(self) -> np.ndarray:
        """The single-channel signal; raises unless the buffer is mono."""
        if self.channels != 1:
            raise ValueError("operation requires canonical single-channel audio")
        return self.samples[0]

    def slice(self, start_s: float, end_s: float) -> "AudioBuffer":
        """Extract [start_s, end_s) by sample index (all channels)."""
        i0 = max(0, int(round(start_s * self.sample_rate)))
        i1 = min(self.n_samples, int(round(end_s * self.sample_rate)))
        if i1 < i0:
            i1 = i0
        return AudioBuffer(self.samples[:, i0:i1], self.sample_rate, self.source_bit_depth)


def read_wav(path) -> AudioBuffer:
    """Decode a RIFF/WAVE file containing integer PCM data.

    Samples are normalized to [-1, 1]; the original rate, channel count
    and bit depth are preserved.  Float or compressed codecs are rejected
    rather than silently converted.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc

    if len(blob) < 12:
        raise MalformedRiff("file too small for a RIFF header")
    if blob[0:4] != b"RIFF":
        raise MalformedRiff("missing RIFF magic")
    if blob[8:12] != b"WAVE":
        raise MalformedRiff("missing WAVE form type")

    fmt = None
    data_decl_size = None
    data_bytes = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (csize,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + csize]
        if cid == b"fmt ":
            if len(body) < 16:
                raise MalformedRiff("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            code = fmt[0]
            if code == _WAVE_FORMAT_EXTENSIBLE:
                if len(body) < 26:
                    raise MalformedRiff("extensible fmt chunk truncated")
                (sub,) = struct.unpack_from("<H", body, 24)
                if sub != _WAVE_FORMAT_PCM:
                    raise UnsupportedEncoding(f"extensible subformat {sub} is not integer PCM")
            elif code == _WAVE_FORMAT_IEEE_FLOAT:
                raise UnsupportedEncoding("float-encoded WAV rejected; supply integer PCM")
            elif code != _WAVE_FORMAT_PCM:
                raise UnsupportedEncoding(f"compressed or unknown format code {code}")
        elif cid == b"data":
            data_decl_size = csize
            data_bytes = body
        pos += 8 + csize + (csize & 1)

    if fmt is None:
        raise MalformedRiff("no fmt chunk")
    if data_decl_size is None:
        raise MalformedRiff("no data chunk")

    _, channels, rate, _, block_align, bits = fmt
    if channels < 1 or rate < 1:
        raise MalformedRiff("fmt chunk declares zero channels or rate")
    if bits not in _PCM_FULL_SCALE:
        raise UnsupportedEncoding(f"{bits}-bit PCM not supported")
    frame_size = channels * (bits // 8)
    if block_align not in (0, frame_size):
        raise MalformedRiff(f"block alignment {block_align} inconsistent with {frame_size}")

    if len(data_bytes) < data_decl_size:
        raise TruncatedData(
            f"data chunk declares {data_decl_size} bytes but only {len(data_bytes)} present"
        )
    if data_decl_size % frame_size:
        raise TruncatedData("data chunk ends mid sample frame")

    raw = data_bytes[:data_decl_size]
    scale = _PCM_FULL_SCALE[bits]
    if bits == 8:
        x = raw_u8 = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        x = (raw_u8 - 128.0) / scale
    elif bits == 16:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / scale
    elif bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        vals = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        x = vals.astype(np.float64) / scale
    else:
        x = np.frombuffer(raw, dtype="<i4").astype(np.float64) / scale

    frames = x.reshape(-1, channels).T if channels > 1 else x[np.newaxis, :]
    return AudioBuffer(frames, rate, bits)


def write_wav(buf: AudioBuffer, path) -> None:
    """Encode a buffer as little-endian 16-bit integer PCM.

    Round-tripping through :func:`read_wav` reproduces samples within
    one quantization step.
    """
    scale = _PCM_FULL_SCALE[16]
    q = np.clip(np.round(buf.samples * scale), -scale, scale - 1).astype("<i2")
    interleaved = q.T.reshape(-1).tobytes()
    channels = buf.channels
    rate = buf.sample_rate
    byte_rate = rate * channels * 2
    block_align = channels * 2
    header = b"RIFF"
    header += struct.pack("<I", 36 + len(interleaved))
    header += b"WAVE"
    header += b"fmt "
    header += struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, channels, rate, byte_rate, block_align, 16)
    header += b"data"
    header += struct.pack("<I", len(interleaved))
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(interleaved)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def resample(x: np.ndarray, rate_in: int, rate_out: int) -> np.ndarray:
    """Polyphase windowed-sinc resampling with cutoff at the lower Nyquist (``dsp.resample_poly``)."""
    if rate_in == rate_out:
        return np.asarray(x, dtype=np.float64)
    frac = Fraction(rate_out, rate_in)
    up, down = frac.numerator, frac.denominator
    if len(x) == 0:
        return np.zeros(0)
    return resample_poly(np.asarray(x, dtype=np.float64), up, down)


def to_canonical(buf: AudioBuffer) -> AudioBuffer:
    """Downmix and resample a buffer to the canonical pipeline format, mono at ``CANONICAL_RATE``.

    Channels are averaged, the result is resampled with a windowed-sinc
    polyphase filter, and amplitudes are clamped to [-1, 1].  Applying
    the conversion to already-canonical input is an identity.
    """
    if buf.channels == 1 or np.all(buf.samples == buf.samples[0]):
        mono = buf.samples[0]
    else:
        mono = buf.samples.mean(axis=0)
    y = resample(mono, buf.sample_rate, CANONICAL_RATE)
    y = np.clip(y, -1.0, 1.0)
    return AudioBuffer(y, CANONICAL_RATE, buf.source_bit_depth)
