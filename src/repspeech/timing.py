"""Speech timing: pause detection, syllable-nucleus counting, rate features.

Both detectors read one intensity contour of the recording, on the shared
40 ms / 10 ms frame grid of ``phonation``, which the caller computes once
(``NO_CONTOUR`` when the recording is shorter than one frame).  Silence is anything more than
the threshold below the loudest frame; internal silent runs of at least
the minimum pause length count as pauses, and syllable nuclei are
intensity peaks flanked by dips that coincide with voiced frames.  The
candidate peaks are the contour's local maxima (``dsp.local_maxima``, the
maxima scipy's ``find_peaks`` finds, plateau midpoints included) that
clear the silence threshold.  The silence threshold, the minimum pause and
the minimum dip are fields of ``pipeline.PipelineParams``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .audio_io import AudioBuffer
from .dsp import Track, local_maxima, runs
from .errors import ZeroDuration, ZeroPhonationTime
from .phonation import HOP, PitchTrack

if TYPE_CHECKING:
    from .pipeline import PipelineParams


def finite_at_least(value: object, least: float) -> bool:
    """Whether ``value`` is a finite number, not a bool, of at least ``least``; an int too large for a float is not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and value >= least
    except OverflowError:  # no float holds it
        return False


@dataclass(frozen=True)
class Segment:
    kind: str  # "speech" | "pause"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TimingFeatures:
    duration: float
    speaking_rate: float
    articulation_rate: float
    pause_rate: float
    n_syllables: int
    n_pauses: int
    phonation_time: float


# the contour of a buffer shorter than one frame
NO_CONTOUR = Track(np.zeros(0), np.zeros(0), None)


def _sounding(buf: AudioBuffer, contour: Track, params: PipelineParams) -> np.ndarray:
    """The frames of ``contour`` at most the threshold below the loudest one; none when the signal is all zeros."""
    if len(contour.values) == 0 or not np.any(buf.signal):
        return np.zeros(len(contour.values), dtype=bool)
    return contour.values >= float(np.max(contour.values)) + params.silence_threshold_db


def detect_speech_regions(buf: AudioBuffer, contour: Track, params: PipelineParams) -> list[Segment]:
    """Segment a recording into speech regions and internal pauses.

    Silent runs shorter than the minimum pause are absorbed into speech;
    leading and trailing silence belongs to neither category.  All-silent
    input yields an empty list.  ``contour`` is the intensity track of
    ``buf``.
    """
    mask = _sounding(buf, contour, params)
    if not np.any(mask):
        return []
    starts, stops = runs(mask)
    # frame i covers [t_i - hop/2, t_i + hop/2]: on the 40 ms / 10 ms grid the
    # first begins 15 ms into the recording and the last ends 15 ms or more before its end;
    # the bounds are Python floats, as ``Segment`` says, and so are the rates summed from them
    begin = (contour.times[starts] - 0.5 * HOP).tolist()
    end = (contour.times[stops - 1] + 0.5 * HOP).tolist()
    sounding = np.flatnonzero(mask[starts])
    segments: list[Segment] = []
    start = begin[sounding[0]]
    # runs alternate: the silent runs between the first and last sounding ones
    for i in range(sounding[0] + 1, sounding[-1], 2):
        if end[i] - begin[i] >= params.min_pause:
            segments += [Segment("speech", start, begin[i]), Segment("pause", begin[i], end[i])]
            start = begin[i + 1]
    segments.append(Segment("speech", start, end[sounding[-1]]))
    return segments


def count_syllable_nuclei(
    buf: AudioBuffer, contour: Track, track: PitchTrack | None, params: PipelineParams
) -> int:
    """Count intensity peaks that behave like syllable nuclei.

    A nucleus is a contour peak above the silence threshold separated from
    its neighbors by dips of at least the minimum depth on both sides;
    consecutive maxima without such a valley between them merge into one
    nucleus.  The peak must fall on a voiced pitch frame; a peak outside
    the pitch track's span is read at its first or last frame, and without
    a track no peak counts.  ``contour`` is the intensity track of ``buf``.
    """
    sounding = _sounding(buf, contour, params)
    if not np.any(sounding):
        return 0
    level = contour.values
    # pad with a deep floor so plateaus touching the signal edges still count
    candidates = local_maxima(np.concatenate([[-1e30], level, [-1e30]])) - 1
    candidates = candidates[sounding[candidates]]

    # merge candidates that lack a valley of min_dip between them; the
    # prominence shortcut breaks on exactly equal-height maxima, which
    # periodic or quantized signals do produce
    accepted: list[int] = []
    for k in candidates:
        if not accepted:
            accepted.append(int(k))
            continue
        prev = accepted[-1]
        valley = float(np.min(level[prev : k + 1]))
        if level[k] - valley >= params.min_dip and level[prev] - valley >= params.min_dip:
            accepted.append(int(k))
        elif level[k] > level[prev]:
            accepted[-1] = int(k)
    if track is None or len(track.times) == 0:
        return 0
    # intensity frames are shorter than pitch frames, so the contour starts
    # earlier and ends later than the track; a peak outside the track is
    # read at its nearest end frame
    query = np.clip(contour.times[accepted], track.times[0], track.times[-1])
    return int(np.count_nonzero(track.voiced_at_many(query)))


def timing_features(
    buf: AudioBuffer, contour: Track, track: PitchTrack | None, params: PipelineParams
) -> TimingFeatures:
    """Duration, speaking rate, articulation rate, and pause rate.

    Duration is the full recording length; speaking rate divides nuclei by
    it, articulation rate divides by phonation time only, and
    speaking_rate = articulation_rate x (phonation_time / duration).
    Both detectors read ``contour``, the intensity track of ``buf``.
    """
    if buf.n_samples == 0:
        raise ZeroDuration("empty recording")
    duration = buf.duration
    regions = detect_speech_regions(buf, contour, params)
    phonation = sum(s.duration for s in regions if s.kind == "speech")
    n_pauses = sum(1 for s in regions if s.kind == "pause")
    n_syllables = count_syllable_nuclei(buf, contour, track, params)
    if phonation <= 0.0:
        raise ZeroPhonationTime("no speech regions; articulation rate undefined")
    return TimingFeatures(
        duration=duration,
        speaking_rate=n_syllables / duration,
        articulation_rate=n_syllables / phonation,
        pause_rate=n_pauses / duration,
        n_syllables=n_syllables,
        n_pauses=n_pauses,
        phonation_time=phonation,
    )
