"""Roll statistics: histograms, chi-square uniformity, and the exact
modulo-reduction bias of mapping 32-bit words onto die faces.

The bias analysis is exact integer arithmetic over the full 2**k input
domain, not an estimate: face f receives floor(2**k / d) preimages plus one
more when f <= 2**k mod d. Chi-square verdicts come from a fixed critical
value table (df 1..99 at alpha 0.05, 0.01, 0.001), so verdicts are stable
and the package needs no statistics library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Histogram:
    """Face counts for one die; counts[i] is the tally of face i+1."""

    dice_sides: int
    counts: tuple[int, ...]
    total: int


def chi_square(hist: Histogram) -> tuple[float, int]:
    """Chi-square statistic against the uniform expectation, and df = d - 1."""
    if hist.total == 0:
        raise ValueError("cannot compute chi-square of an empty histogram")
    expected = hist.total / hist.dice_sides
    stat = sum((obs - expected) ** 2 / expected for obs in hist.counts)
    return stat, hist.dice_sides - 1


# ======================================================================
#  exact modulo-reduction bias
# ======================================================================

@dataclass(frozen=True)
class BiasReport:
    """Exact preimage counts of (word mod d) + 1 over the 2**bits domain.

    Faces 1..remainder receive quotient + 1 preimages and the rest receive
    quotient, so the report holds those two numbers, not one count per face.
    """

    dice_sides: int
    domain_bits: int
    quotient: int
    remainder: int

    def count(self, face: int) -> int:
        """Preimages of face (1..dice_sides)."""
        return self.quotient + 1 if face <= self.remainder else self.quotient

    @property
    def max_count(self) -> int:
        return self.count(1)

    @property
    def min_count(self) -> int:
        return self.count(self.dice_sides)  # remainder < dice_sides

    @property
    def ratio(self) -> float:
        """Worst-case probability ratio between any two faces; inf when some
        face has no preimage (dice_sides > 2**bits)."""
        if self.min_count == 0:
            return math.inf
        return self.max_count / self.min_count


def modulo_bias(dice_sides: int, domain_bits: int = 32) -> BiasReport:
    """Exact per-face preimage counts of mapping a 2**bits domain onto a die.

    Faces 1..r (r = 2**bits mod d) receive one extra preimage; counts always
    sum to 2**bits and never differ by more than one.
    """
    if dice_sides < 1:
        raise ValueError(f"dice_sides must be at least 1: {dice_sides}")
    if domain_bits < 1:
        raise ValueError(f"domain_bits must be at least 1: {domain_bits}")
    q, r = divmod(1 << domain_bits, dice_sides)
    return BiasReport(dice_sides, domain_bits, q, r)


# ======================================================================
#  uniformity verdicts
# ======================================================================

# Critical values of the chi-square distribution, df 1..99, two decimals.
CHI2_CRITICAL = {
    0.05: (
        3.84, 5.99, 7.81, 9.49, 11.07, 12.59, 14.07, 15.51, 16.92,
        18.31, 19.68, 21.03, 22.36, 23.68, 25.00, 26.30, 27.59, 28.87,
        30.14, 31.41, 32.67, 33.92, 35.17, 36.42, 37.65, 38.89, 40.11,
        41.34, 42.56, 43.77, 44.99, 46.19, 47.40, 48.60, 49.80, 51.00,
        52.19, 53.38, 54.57, 55.76, 56.94, 58.12, 59.30, 60.48, 61.66,
        62.83, 64.00, 65.17, 66.34, 67.50, 68.67, 69.83, 70.99, 72.15,
        73.31, 74.47, 75.62, 76.78, 77.93, 79.08, 80.23, 81.38, 82.53,
        83.68, 84.82, 85.96, 87.11, 88.25, 89.39, 90.53, 91.67, 92.81,
        93.95, 95.08, 96.22, 97.35, 98.48, 99.62, 100.75, 101.88, 103.01,
        104.14, 105.27, 106.39, 107.52, 108.65, 109.77, 110.90, 112.02, 113.15,
        114.27, 115.39, 116.51, 117.63, 118.75, 119.87, 120.99, 122.11, 123.23,
    ),
    0.01: (
        6.63, 9.21, 11.34, 13.28, 15.09, 16.81, 18.48, 20.09, 21.67,
        23.21, 24.72, 26.22, 27.69, 29.14, 30.58, 32.00, 33.41, 34.81,
        36.19, 37.57, 38.93, 40.29, 41.64, 42.98, 44.31, 45.64, 46.96,
        48.28, 49.59, 50.89, 52.19, 53.49, 54.78, 56.06, 57.34, 58.62,
        59.89, 61.16, 62.43, 63.69, 64.95, 66.21, 67.46, 68.71, 69.96,
        71.20, 72.44, 73.68, 74.92, 76.15, 77.39, 78.62, 79.84, 81.07,
        82.29, 83.51, 84.73, 85.95, 87.17, 88.38, 89.59, 90.80, 92.01,
        93.22, 94.42, 95.63, 96.83, 98.03, 99.23, 100.43, 101.62, 102.82,
        104.01, 105.20, 106.39, 107.58, 108.77, 109.96, 111.14, 112.33, 113.51,
        114.69, 115.88, 117.06, 118.24, 119.41, 120.59, 121.77, 122.94, 124.12,
        125.29, 126.46, 127.63, 128.80, 129.97, 131.14, 132.31, 133.48, 134.64,
    ),
    0.001: (
        10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12, 27.88,
        29.59, 31.26, 32.91, 34.53, 36.12, 37.70, 39.25, 40.79, 42.31,
        43.82, 45.31, 46.80, 48.27, 49.73, 51.18, 52.62, 54.05, 55.48,
        56.89, 58.30, 59.70, 61.10, 62.49, 63.87, 65.25, 66.62, 67.99,
        69.35, 70.70, 72.05, 73.40, 74.74, 76.08, 77.42, 78.75, 80.08,
        81.40, 82.72, 84.04, 85.35, 86.66, 87.97, 89.27, 90.57, 91.87,
        93.17, 94.46, 95.75, 97.04, 98.32, 99.61, 100.89, 102.17, 103.44,
        104.72, 105.99, 107.26, 108.53, 109.79, 111.06, 112.32, 113.58, 114.84,
        116.09, 117.35, 118.60, 119.85, 121.10, 122.35, 123.59, 124.84, 126.08,
        127.32, 128.56, 129.80, 131.04, 132.28, 133.51, 134.75, 135.98, 137.21,
        138.44, 139.67, 140.89, 142.12, 143.34, 144.57, 145.79, 147.01, 148.23,
    ),
}

ALPHAS = tuple(sorted(CHI2_CRITICAL, reverse=True))

# Dice a verdict exists for: df = sides - 1 must be in the table.
VERDICT_SIDES = range(2, len(CHI2_CRITICAL[0.05]) + 2)

# Samples-per-face floor below which the verdict is refused.
MIN_SAMPLES_PER_FACE = 10


def critical_value(df: int, alpha: float) -> float:
    """Table lookup of the chi-square critical value."""
    if alpha not in CHI2_CRITICAL:
        raise ValueError(f"alpha must be one of {ALPHAS}: {alpha}")
    table = CHI2_CRITICAL[alpha]
    if not 1 <= df <= len(table):
        raise ValueError(f"df out of table range 1..{len(table)}: {df}")
    return table[df - 1]


@dataclass(frozen=True)
class UniformityReport:
    passed: bool
    statistic: float
    df: int
    critical: float
    alpha: float
    total: int


def uniformity_report(hist: Histogram, alpha: float = 0.05) -> UniformityReport:
    """Chi-square uniformity verdict: pass iff statistic < critical value.

    Requires at least MIN_SAMPLES_PER_FACE * dice_sides samples; smaller
    inputs get an error telling how many are needed.
    """
    needed = MIN_SAMPLES_PER_FACE * hist.dice_sides
    if hist.total < needed:
        raise ValueError(
            f"too few samples for a d{hist.dice_sides} verdict: have {hist.total}, "
            f"need at least {needed} ({MIN_SAMPLES_PER_FACE} per face)"
        )
    stat, df = chi_square(hist)
    crit = critical_value(df, alpha)
    return UniformityReport(stat < crit, stat, df, crit, alpha, hist.total)


# ======================================================================
#  report formatting
# ======================================================================

def histogram_csv(hist: Histogram) -> str:
    """CSV form: face,count,expected (expected carries the exact mean)."""
    expected = hist.total / hist.dice_sides
    lines = ["face,count,expected"]
    for face, count in enumerate(hist.counts, start=1):
        lines.append(f"{face},{count},{expected:.6f}")
    return "\n".join(lines) + "\n"


def ascii_chart(hist: Histogram) -> str:
    """Plain-text bar chart of the face counts, 40 characters at the peak."""
    peak = max(hist.counts) if hist.counts else 0
    lines = []
    for face, count in enumerate(hist.counts, start=1):
        bar = "#" * (round(count * 40 / peak) if peak else 0)
        lines.append(f"face {face:>3} | {bar} {count}")
    return "\n".join(lines) + "\n"
