"""Repeated-speech analysis toolkit.

Canonical audio ingestion, a 14-feature exemplar acoustic set extracted
suprasegmentally and per aligned open vowel, validators for dataset
conventions and collection schedules, and normative summary tables.
"""

__version__ = "0.1.0"

from .audio_io import AudioBuffer, read_wav, to_canonical, write_wav
from .errors import RepSpeechError

__all__ = [
    "AudioBuffer",
    "RepSpeechError",
    "read_wav",
    "to_canonical",
    "write_wav",
    "__version__",
]
