"""Histograms, chi-square verdicts, exact modulo bias."""

import math
import random

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
    tally,
    uniformity_report,
)


def test_tally_counts_faces():
    hist = tally([1, 2, 2, 6, 6, 6], 6)
    assert hist.counts == (1, 2, 0, 0, 0, 3)
    assert hist.total == 6


def test_tally_rejects_out_of_range_with_index():
    with pytest.raises(ValueError, match="roll #2"):
        tally([1, 2, 7], 6)
    with pytest.raises(ValueError, match="roll #0"):
        tally([0], 6)


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


def test_modulo_bias_small_domain_brute_force():
    for sides in (2, 3, 6, 10):
        report = modulo_bias(sides, domain_bits=8)
        assert report.counts == _brute_force_bias(sides, 8)
        assert sum(report.counts) == 256


def test_modulo_bias_frozen_32_bit():
    d20 = modulo_bias(20, 32)
    assert d20.quotient == 214_748_364
    assert d20.remainder == 16
    assert d20.counts[:16] == (214_748_365,) * 16
    assert d20.counts[16:] == (214_748_364,) * 4
    d6 = modulo_bias(6, 32)
    assert d6.counts == (715_827_883,) * 4 + (715_827_882,) * 2
    assert sum(d6.counts) == 1 << 32


def test_modulo_bias_power_of_two_is_flat():
    report = modulo_bias(4, 32)
    assert report.remainder == 0
    assert report.ratio == 1.0
    assert len(set(report.counts)) == 1


def test_bias_report_ratio():
    report = modulo_bias(20, 32)
    assert report.max_count - report.min_count == 1
    assert report.ratio == 214_748_365 / 214_748_364


def test_bias_report_more_faces_than_words():
    report = modulo_bias(300, domain_bits=8)
    assert (report.quotient, report.remainder) == (0, 256)
    assert (report.max_count, report.min_count) == (1, 0)
    assert report.ratio == math.inf
    assert report.counts == _brute_force_bias(300, 8)


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


def test_uniformity_pass_and_fail():
    rng = random.Random(21)
    fair = tally([rng.randrange(1, 7) for _ in range(6_000)], 6)
    report = uniformity_report(fair, alpha=0.001)
    assert report.passed
    assert report.df == 5
    loaded = tally([1] * 500 + [rng.randrange(1, 7) for _ in range(500)], 6)
    assert not uniformity_report(loaded, alpha=0.001).passed


def test_uniformity_requires_enough_samples():
    hist = tally([1, 2, 3, 4, 5, 6] * 9, 6)  # 54 < 60
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
    text = histogram_csv(tally([1, 1, 2], 2))
    lines = text.splitlines()
    assert lines[0] == "face,count,expected"
    assert lines[1] == "1,2,1.500000"
    assert lines[2] == "2,1,1.500000"


def test_ascii_chart_scales_to_peak():
    text = ascii_chart(tally([1, 1, 1, 1, 2, 2], 2), width=8)
    lines = text.splitlines()
    assert lines[0].count("#") == 8
    assert lines[1].count("#") == 4
