"""Test-side oracles shared across test modules."""

import struct

import numpy as np


# the 14 bytes after the subformat code in a WAVE_FORMAT_EXTENSIBLE fmt chunk's GUID
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def make_wav_bytes(samples_by_channel, rate, bits=16, format_code=1, subformat=None):
    """Independent byte-level WAV encoder used as the test-side oracle.

    A ``subformat`` writes the 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk
    whose GUID carries that format code, in place of ``format_code``.
    """
    channels = len(samples_by_channel)
    n = len(samples_by_channel[0])
    frame_size = channels * bits // 8
    body = bytearray()
    for i in range(n):
        for ch in range(channels):
            v = samples_by_channel[ch][i]
            if bits == 16:
                body += struct.pack("<h", v)
            elif bits == 8:
                body += struct.pack("<B", v)
            elif bits == 24:
                body += int(v & 0xFFFFFF).to_bytes(3, "little")
            elif bits == 32:
                body += struct.pack("<i", v)
    fmt = struct.pack("<HIIHH", channels, rate, rate * frame_size, frame_size, bits)
    if subformat is None:
        fmt = struct.pack("<H", format_code) + fmt
    else:  # cbSize 22: valid bits, no channel mask, the subformat GUID
        fmt = struct.pack("<H", 0xFFFE) + fmt + struct.pack("<HHIH", 22, bits, 0, subformat) + _KSDATAFORMAT_TAIL
    header = b"RIFF" + struct.pack("<I", 20 + len(fmt) + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    header += b"data" + struct.pack("<I", len(body))
    return bytes(header + body)


def sort_based_quartiles(values):
    """Independent quantile oracle: linear interpolation between order statistics."""
    v = sorted(values)
    n = len(v)

    def at(p):
        h = (n - 1) * p
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        return v[lo] + (h - lo) * (v[hi] - v[lo])

    return at(0.5), at(0.25), at(0.75)
