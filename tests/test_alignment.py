"""TextGrid parsing, vowel selection, and vowel-level aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repspeech.alignment import (
    DEFAULT_MIN_VOWEL_DURATION,
    DEFAULT_PHONE_TIER,
    DEFAULT_VOWEL_LABELS,
    Interval,
    Tier,
    TierSet,
    find_target_vowels,
    parse_textgrid,
    serialize_textgrid,
    vowel_level_features,
    vowel_spans,
)
from repspeech.analysis import A_FEATURES, Analysis
from repspeech.articulation import FORMANT_CEILING
from repspeech.errors import (
    MalformedTextGrid,
    MissingPhoneTier,
    NonMonotoneIntervals,
    NoTargetVowels,
    VowelOutOfBounds,
)
from repspeech.synth import SynthSpec, synth_pattern

MINIMAL_GRID = '''File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 1
        intervals: size = 2
        intervals [1]:
            xmin = 0
            xmax = 0.5
            text = "AA1"
        intervals [2]:
            xmin = 0.5
            xmax = 1
            text = "sil"
'''


def test_parses_minimal_grid():
    grid = parse_textgrid(MINIMAL_GRID)
    assert len(grid.tiers) == 1
    tier = grid.tiers[0]
    assert tier.name == "phones"
    assert len(tier.intervals) == 2
    assert tier.intervals[0].label == "AA1"
    assert tier.intervals[1].xmin == 0.5


def test_label_with_embedded_space_and_quotes():
    grid = TierSet(
        0.0,
        1.0,
        (Tier("phones", 0.0, 1.0, (Interval(0.0, 1.0, 'spn x "quoted" bit'),)),),
    )
    back = parse_textgrid(serialize_textgrid(grid))
    assert back.tiers[0].intervals[0].label == 'spn x "quoted" bit'


def test_out_of_order_intervals():
    bad = MINIMAL_GRID.replace('xmin = 0.5', 'xmin = 0.4', 1).replace(
        'xmax = 0.5', 'xmax = 0.45', 1
    )
    # now first interval is [0, 0.45] and second [0.4, 1]: overlapping
    with pytest.raises(NonMonotoneIntervals):
        parse_textgrid(bad)


def test_empty_interval_rejected():
    bad = MINIMAL_GRID.replace("xmax = 0.5", "xmax = 0", 1)
    with pytest.raises(NonMonotoneIntervals):
        parse_textgrid(bad)


def test_short_format_rejected():
    short = '"ooTextFile"\n"TextGrid"\n0\n1\n<exists>\n1\n'
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(short)


def test_binary_rejected():
    with pytest.raises(MalformedTextGrid):
        parse_textgrid("ooBinaryFile\x00garbage")


def test_point_tier_rejected():
    grid = MINIMAL_GRID.replace('"IntervalTier"', '"TextTier"')
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(grid)


COUNT_LINES = {"size": "\nsize = 1\n", "intervals: size": "intervals: size = 2\n"}  # of MINIMAL_GRID


@pytest.mark.parametrize("count", ["inf", "nan", "-1", "2.5"])
@pytest.mark.parametrize("key", COUNT_LINES)
def test_count_that_is_no_whole_number_is_refused(key, count):
    line = COUNT_LINES[key]
    grid = MINIMAL_GRID.replace(line, line[: line.index("= ") + 2] + count + "\n")
    assert grid != MINIMAL_GRID
    with pytest.raises(MalformedTextGrid, match=f"bad count for {key}"):
        parse_textgrid(grid)


def test_truncated_grid():
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(MINIMAL_GRID[: len(MINIMAL_GRID) // 2])


label_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=12
)


@st.composite
def tier_sets(draw):
    n_tiers = draw(st.integers(1, 3))
    tiers = []
    for ti in range(n_tiers):
        n = draw(st.integers(1, 6))
        bounds = sorted(
            set(draw(st.lists(st.floats(0.001, 9.999), min_size=n + 1, max_size=n + 1, unique=True)))
        )
        while len(bounds) < 2:
            bounds.append(bounds[-1] + 1.0)
        intervals = tuple(
            Interval(bounds[i], bounds[i + 1], draw(label_strategy))
            for i in range(len(bounds) - 1)
        )
        tiers.append(Tier(f"tier{ti}", 0.0, 10.0, intervals))
    return TierSet(0.0, 10.0, tuple(tiers))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tier_sets())
def test_round_trip_structure_and_bytes(grid):
    text = serialize_textgrid(grid)
    back = parse_textgrid(text)
    assert back == grid
    assert serialize_textgrid(back) == text


# -- vowel selection -------------------------------------------------------------


def grid_with(intervals):
    end = max(iv.xmax for iv in intervals)
    return TierSet(0.0, end, (Tier("phones", 0.0, end, tuple(intervals)),))


def test_selection_filters():
    grid = grid_with(
        [
            Interval(0.0, 0.08, "AA1"),   # pass
            Interval(0.08, 0.12, "AA0"),  # 40 ms: too short
            Interval(0.12, 0.22, "EH"),   # wrong label
            Interval(0.22, 0.27, "AA"),   # exactly 50 ms: kept
        ]
    )
    hits = find_target_vowels(grid, DEFAULT_VOWEL_LABELS, DEFAULT_MIN_VOWEL_DURATION, DEFAULT_PHONE_TIER)
    assert [(v.label, round(v.xmax - v.xmin, 3)) for v in hits] == [("AA1", 0.08), ("AA", 0.05)]


def test_selection_returns_the_tiers_own_intervals():
    grid = grid_with([Interval(0.0, 0.1, "sil"), Interval(0.1, 0.3, "AA1"), Interval(0.3, 0.5, "AA2")])
    (tier,) = grid.tiers
    hits = find_target_vowels(grid, DEFAULT_VOWEL_LABELS, DEFAULT_MIN_VOWEL_DURATION, DEFAULT_PHONE_TIER)
    assert len(hits) == 2
    assert hits[0] is tier.intervals[1] and hits[1] is tier.intervals[2]


def test_missing_phone_tier():
    grid = TierSet(0.0, 1.0, (Tier("words", 0.0, 1.0, (Interval(0.0, 1.0, "hi"),)),))
    with pytest.raises(MissingPhoneTier):
        find_target_vowels(grid, DEFAULT_VOWEL_LABELS, DEFAULT_MIN_VOWEL_DURATION, DEFAULT_PHONE_TIER)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(["AA", "AA1", "AE", "EH", "IY"]), st.floats(0.01, 0.2)),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.02, 0.08),
)
def test_selection_monotone(phones, min_dur):
    start = 0.0
    intervals = []
    for label, dur in phones:
        intervals.append(Interval(start, start + dur, label))
        start += dur
    grid = grid_with(intervals)
    tier = DEFAULT_PHONE_TIER
    base = {(v.xmin, v.xmax) for v in find_target_vowels(grid, {"AA", "AA1"}, min_dur, tier)}
    wider_labels = {(v.xmin, v.xmax) for v in find_target_vowels(grid, {"AA", "AA1", "AE"}, min_dur, tier)}
    lower_min = {(v.xmin, v.xmax) for v in find_target_vowels(grid, {"AA", "AA1"}, min_dur / 2, tier)}
    assert base <= wider_labels
    assert base <= lower_min


# -- vowel-level features ------------------------------------------------------------


def two_pitch_recording():
    pat = synth_pattern(
        [
            SynthSpec("pulse_train", 0.6, f0=150),
            SynthSpec("silence", 0.3),
            SynthSpec("pulse_train", 0.6, f0=160),
        ]
    )
    vowels = [
        Interval(0.05, 0.55, "AA1"),
        Interval(0.95, 1.45, "AA1"),
    ]
    return pat.buffer, vowels


def test_aggregate_is_mean_of_instances():
    buf, vowels = two_pitch_recording()
    analysis = Analysis(buf, FORMANT_CEILING)
    spans = vowel_spans(vowels, buf.duration)
    agg = vowel_level_features(A_FEATURES, analysis.reduce(spans))
    assert agg.n_instances == 2
    assert agg.means["pitch_mean"] == pytest.approx(155.0, abs=1.0)

    # brute-force recompute: single-span reductions averaged by hand
    singles = [analysis.reduce([span])[0][0] for span in spans]
    checked = 0
    for key, value in agg.means.items():
        parts = [s[key] for s in singles if s[key] is not None]
        if value is not None and len(parts) == 2:
            assert value == pytest.approx(float(np.mean(parts)), rel=1e-12)
            checked += 1
    assert checked >= 5


def test_empty_vowel_list():
    buf, _ = two_pitch_recording()
    with pytest.raises(NoTargetVowels):
        vowel_spans([], buf.duration)


def test_vowel_past_audio_end():
    buf, _ = two_pitch_recording()
    bad = [Interval(1.0, buf.duration + 0.05, "AA1")]
    with pytest.raises(VowelOutOfBounds):
        vowel_spans(bad, buf.duration)


def reaching_out(side: str, by: float, duration: float) -> Interval:
    """A vowel of ``two_pitch_recording`` reaching ``by`` seconds past the recording's ``side``."""
    if side == "end":
        return Interval(1.0, duration + by, "AA1")
    return Interval(-by, 0.5, "AA1")


@pytest.mark.parametrize("side", ["start", "end"])
def test_vowel_within_boundary_slack_is_clipped_and_measured(side):
    buf, _ = two_pitch_recording()
    vowel = reaching_out(side, 0.5e-6, buf.duration)  # the slack is 1 us
    (span,) = vowel_spans([vowel], buf.duration)
    assert span == (max(vowel.xmin, 0.0), min(vowel.xmax, buf.duration))
    agg = vowel_level_features(A_FEATURES, Analysis(buf, FORMANT_CEILING).reduce([span]))
    assert agg.n_instances == 1 and agg.feature_counts["pitch_mean"] == 1
    assert agg.means["pitch_mean"] == pytest.approx(150.0 if side == "start" else 160.0, abs=1.0)


@pytest.mark.parametrize("side", ["start", "end"])
def test_vowel_beyond_boundary_slack_is_refused(side):
    buf, _ = two_pitch_recording()
    with pytest.raises(VowelOutOfBounds):
        vowel_spans([reaching_out(side, 2e-6, buf.duration)], buf.duration)
