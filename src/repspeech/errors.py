"""Exception types shared across the package."""


class RepSpeechError(Exception):
    """Base class for all errors raised by this package."""


def error_code(exc: RepSpeechError) -> str:
    """The code a record stores for a feature that ``exc`` left unmeasured."""
    return type(exc).__name__


# -- audio container and IO --------------------------------------------------

class MalformedRiff(RepSpeechError):
    """RIFF/WAVE container is structurally broken (magic, chunk layout)."""


class UnsupportedEncoding(RepSpeechError):
    """WAV codec is not integer PCM (float, compressed, odd bit depth), or its sample rate lies outside 1-384 kHz."""


class TruncatedData(RepSpeechError):
    """Data chunk is shorter than its declared size."""


class IoFailure(RepSpeechError):
    """Underlying file system operation failed."""


# -- settings ----------------------------------------------------------------

class BadSetting(RepSpeechError):
    """An analysis setting lies outside the values it can take."""


# -- signal-level preconditions ----------------------------------------------

class SignalTooShort(RepSpeechError):
    """Signal is shorter than one analysis frame."""


class OrderTooHigh(RepSpeechError):
    """Prediction order is not smaller than the frame length."""


class SilentSignal(RepSpeechError):
    """No frame exceeds the silence threshold."""


class NoVoicedFrames(RepSpeechError):
    """Pitch analysis found no voiced frames."""


class InsufficientBandwidth(RepSpeechError):
    """Spectral energy does not span enough octaves for a slope fit."""


class ZeroDuration(RepSpeechError):
    """Recording is empty."""


class ZeroPhonationTime(RepSpeechError):
    """No speech regions detected; articulation rate is undefined."""


class NoMeasurableInstances(RepSpeechError):
    """No frame or vowel instance in the span yields a value for the feature."""


# -- synthesis ----------------------------------------------------------------

class BadF0(RepSpeechError):
    """Requested fundamental is outside the synthesizable range."""


class BadResonator(RepSpeechError):
    """Resonator center frequency or bandwidth is not realizable."""


# -- alignment ----------------------------------------------------------------

class MalformedTextGrid(RepSpeechError):
    """Annotation file does not follow the long text format."""


class NonMonotoneIntervals(MalformedTextGrid):
    """Tier intervals are unordered, overlapping, or empty."""


class MissingPhoneTier(RepSpeechError):
    """No phone tier with the requested name."""


class NoTargetVowels(RepSpeechError):
    """Selection produced no vowel instances."""


class VowelOutOfBounds(RepSpeechError):
    """A vowel interval extends past the end of the audio."""


class AlignmentMissing(RepSpeechError):
    """Vowel-level extraction requested without an alignment file."""


# -- protocol metadata ----------------------------------------------------------

class BadFieldCount(RepSpeechError):
    """Recording filename does not split into 4 or 5 fields."""


class EmptyField(RepSpeechError):
    """Recording filename contains an empty field."""


# -- reporting ------------------------------------------------------------------

class EmptyGroup(RepSpeechError):
    """Summary requested over a group with no records."""
