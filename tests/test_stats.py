"""Histograms, chi-square verdicts, exact modulo bias."""

import math
import random
from collections import Counter

import pytest

from dicesim.stats import (
    ALPHAS,
    Histogram,
    MIN_SAMPLES_PER_FACE,
    ascii_chart,
    chi_square,
    critical_value,
    histogram_csv,
    modulo_bias,
    uniformity_report,
)


def test_chi_square_hand_example():
    stat, df = chi_square(Histogram(2, (10, 20), 30))
    assert math.isclose(stat, 10 / 3)
    assert df == 1


def test_chi_square_uniform_is_zero():
    stat, df = chi_square(Histogram(4, (25, 25, 25, 25), 100))
    assert stat == 0.0
    assert df == 3


def test_chi_square_rejects_empty():
    with pytest.raises(ValueError):
        chi_square(Histogram(6, (0,) * 6, 0))


def _brute_force_bias(sides, bits):
    counts = [0] * sides
    for word in range(1 << bits):
        counts[word % sides] += 1
    return tuple(counts)


def _counts(report):
    return tuple(report.count(face) for face in range(1, report.dice_sides + 1))


def test_modulo_bias_small_domain_brute_force():
    for sides in (2, 3, 6, 10):
        report = modulo_bias(sides, domain_bits=8)
        assert _counts(report) == _brute_force_bias(sides, 8)
        assert sum(_counts(report)) == 256


def test_modulo_bias_frozen_32_bit():
    d20 = modulo_bias(20, 32)
    assert d20.quotient == 214_748_364
    assert d20.remainder == 16
    assert _counts(d20) == (214_748_365,) * 16 + (214_748_364,) * 4
    d6 = modulo_bias(6, 32)
    assert _counts(d6) == (715_827_883,) * 4 + (715_827_882,) * 2
    assert sum(_counts(d6)) == 1 << 32


def test_modulo_bias_power_of_two_is_flat():
    report = modulo_bias(4, 32)
    assert report.remainder == 0
    assert report.ratio == 1.0
    assert len(set(_counts(report))) == 1


def test_bias_report_ratio():
    report = modulo_bias(20, 32)
    assert report.max_count - report.min_count == 1
    assert report.ratio == 214_748_365 / 214_748_364


def test_bias_report_more_faces_than_words():
    report = modulo_bias(300, domain_bits=8)
    assert (report.quotient, report.remainder) == (0, 256)
    assert (report.max_count, report.min_count) == (1, 0)
    assert report.ratio == math.inf
    assert _counts(report) == _brute_force_bias(300, 8)


def test_bias_report_billion_faces_needs_no_per_face_storage():
    report = modulo_bias(10**9)
    assert (report.quotient, report.remainder) == (4, (1 << 32) - 4 * 10**9)
    assert report.ratio == 5 / 4
    assert (report.count(1), report.count(10**9)) == (5, 4)


def test_critical_value_spot_checks():
    assert critical_value(1, 0.05) == 3.84
    assert critical_value(1, 0.001) == 10.83
    assert critical_value(5, 0.001) == 20.52
    assert critical_value(19, 0.001) == 43.82
    assert ALPHAS == (0.05, 0.01, 0.001)


def test_critical_value_is_monotonic():
    for alpha in ALPHAS:
        col = [critical_value(df, alpha) for df in range(1, 100)]
        assert col == sorted(col)
    for df in (1, 10, 50, 99):
        assert critical_value(df, 0.05) < critical_value(df, 0.01) < critical_value(df, 0.001)


def test_critical_value_validates():
    with pytest.raises(ValueError):
        critical_value(0, 0.05)
    with pytest.raises(ValueError):
        critical_value(100, 0.05)
    with pytest.raises(ValueError):
        critical_value(5, 0.1)


def _d6(rolls):
    faces = Counter(rolls)
    return Histogram(6, tuple(faces[face] for face in range(1, 7)), len(rolls))


def test_uniformity_pass_and_fail():
    rng = random.Random(21)
    report = uniformity_report(_d6([rng.randrange(1, 7) for _ in range(6_000)]), alpha=0.001)
    assert report.passed
    assert report.df == 5
    loaded = _d6([1] * 500 + [rng.randrange(1, 7) for _ in range(500)])
    assert not uniformity_report(loaded, alpha=0.001).passed


def test_uniformity_requires_enough_samples():
    hist = Histogram(6, (9,) * 6, 54)  # 54 < 60
    with pytest.raises(ValueError, match="need at least 60"):
        uniformity_report(hist)
    assert MIN_SAMPLES_PER_FACE == 10


def test_uniformity_strict_inequality_at_the_boundary():
    # statistic exactly at the critical value must fail
    crit = critical_value(1, 0.05)
    hist = Histogram(2, (540, 460), 1000)  # stat = 6.4 > 3.84
    assert not uniformity_report(hist, 0.05).passed
    stat, _ = chi_square(hist)
    assert stat > crit


def test_histogram_csv_shape():
    text = histogram_csv(Histogram(2, (2, 1), 3))
    lines = text.splitlines()
    assert lines[0] == "face,count,expected"
    assert lines[1] == "1,2,1.500000"
    assert lines[2] == "2,1,1.500000"


def test_ascii_chart_scales_to_peak():
    text = ascii_chart(Histogram(3, (4, 2, 1), 7))
    lines = text.splitlines()
    assert [line.count("#") for line in lines] == [40, 20, 10]
