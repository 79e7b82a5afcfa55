"""Xorshift word pipeline, the ADC-fed seed register and the LCG that stands
in for the ADC.

The dice hardware derives each roll from a 32-bit xorshift transform (shift
triple 7 right, 9 left, 13 right) of a seed register that holds the last two
16-bit ADC noise samples. Two generation modes are provided because the
as-built wiring and the conventional xorshift construction differ:

* STATELESS: the transform is applied to the seed register alone, so the
  output word changes only when the seed register shifts. This is the
  as-built behavior and the default for device simulation.
* FEEDBACK: the previous output word is fed back as the next input, giving a
  free-running generator. This is the conventional construction and the
  default for the statistics tooling. On the device the register free-runs
  on the system clock and each roll tick samples it, so each tick is one
  HZ10 period of steps after the one before.

The transform T is linear over GF(2), so k steps are one 32x32 bit matrix
T**k (Haramoto, Matsumoto, L'Ecuyer et al. 2008, "Efficient jump ahead for
F2-linear random number generators"). A matrix is held as four 256-entry
lookup tables, one per input byte, in one 1 024-entry uint32 buffer. The
tables of T**(2**i) are built on first use by squaring and cached, so
`xorshift_jump` costs one table pass per set bit of its step count.
`apply_tables` makes that pass on an int with the buffer itself, or on a
uint32 array with a flat numpy view of it, which `kernels` keeps per level;
this module itself never imports numpy.
"""

from __future__ import annotations

import functools
from array import array

MASK32 = 0xFFFFFFFF

STATELESS = "stateless"
FEEDBACK = "feedback"
MODES = (STATELESS, FEEDBACK)

# Shift triple of the hardware transform.
SHIFT_A = 7
SHIFT_B = 9
SHIFT_C = 13

# Synthetic ADC noise source: classic 32-bit linear congruential generator.
# Samples are the top 16 bits of the state.
LCG_MULT = 1664525
LCG_INC = 1013904223


def xorshift_step(x: int) -> int:
    """One xorshift update of a 32-bit word.

    Total on 32-bit words; inputs are masked. Zero is the lone fixed point.
    Also steps a uint32 numpy array element-wise, updating it in place on
    the way, so callers pass an array they own.
    """
    x &= MASK32
    x ^= x >> SHIFT_A
    x = (x ^ (x << SHIFT_B)) & MASK32
    x ^= x >> SHIFT_C
    return x


def lcg_step(x: int) -> int:
    """One step of the synthetic ADC's LCG; also steps a uint32 numpy array
    element-wise (the array wraps mod 2**32 by itself)."""
    return (LCG_MULT * x + LCG_INC) & MASK32


@functools.cache
def lcg_power(i: int) -> tuple[int, int]:
    """(mult, inc) of the LCG applied 2**i times: x -> mult * x + inc mod 2**32.
    Affine maps compose to affine maps, so each level is the one below
    applied twice (Brown 1994, "Random number generation with arbitrary
    strides")."""
    if i == 0:
        return LCG_MULT, LCG_INC
    mult, inc = lcg_power(i - 1)
    return (mult * mult) & MASK32, ((mult + 1) * inc) & MASK32


def lcg_jump(x: int, steps: int) -> int:
    """Apply lcg_step steps times to one word, in O(log steps)."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative: {steps}")
    x &= MASK32
    for i in range(steps.bit_length()):
        if steps >> i & 1:
            mult, inc = lcg_power(i)
            x = (mult * x + inc) & MASK32
    return x


def _unshift_right(y: int, k: int) -> int:
    # inverse of x -> x ^ (x >> k): xor the geometric series of shifts
    x = 0
    s = 0
    while s < 32:
        x ^= y >> s
        s += k
    return x & MASK32


def _unshift_left(y: int, k: int) -> int:
    x = 0
    s = 0
    while s < 32:
        x ^= (y << s) & MASK32
        s += k
    return x & MASK32


def xorshift_inverse(y: int) -> int:
    """Exact inverse of xorshift_step.

    Each xor-shift stage is invertible on GF(2), so the whole transform is a
    bijection; this undoes the three stages in reverse order. Also inverts
    a uint32 numpy array element-wise, not in place.
    """
    y = y & MASK32
    t2 = _unshift_right(y, SHIFT_C)
    t1 = _unshift_left(t2, SHIFT_B)
    return _unshift_right(t1, SHIFT_A)


def seed_shift(seed: int, adc_sample: int) -> int:
    """Shift one 16-bit ADC sample into the seed register.

    The register's two halves update together: the old low half moves to the
    high half and the fresh sample lands in the low half, so after any two
    shifts the register is fully determined by the last two samples.
    """
    if not 0 <= adc_sample <= 0xFFFF:
        raise ValueError(f"ADC sample out of range 0..65535: {adc_sample}")
    return ((seed << 16) & MASK32) | adc_sample


# ======================================================================
#  GF(2)-linear maps of 32-bit words as byte lookup tables
# ======================================================================

def _byte_tables(columns) -> array:
    """Tables of the linear map whose image of 1 << j is columns[j]: entry
    256 * byte + v is the image of v << (8 * byte)."""
    tables = array("I")
    for byte in range(4):
        table = [0]
        for column in columns[8 * byte:8 * byte + 8]:
            table += [v ^ column for v in table]
        tables.extend(table)
    return tables


def apply_tables(tables, x):
    """Image of a 32-bit word under the map held in tables; or, with tables
    viewed as a flat uint32 numpy array, the element-wise image of a uint32
    array."""
    return (tables[x & 0xFF] ^ tables[256 | (x >> 8) & 0xFF]
            ^ tables[512 | (x >> 16) & 0xFF] ^ tables[768 | x >> 24])


def _squared(tables) -> array:
    """Tables of the map held in tables, applied twice: entry 1 << j of
    table j // 8 is the image of 1 << j."""
    return _byte_tables([apply_tables(tables, tables[256 * (j // 8) + (1 << j % 8)]) for j in range(32)])


@functools.cache
def power_tables(i: int) -> array:
    """Tables of T**(2**i): level 0 from xorshift_step, each level above by
    squaring the one below."""
    if i == 0:
        return _byte_tables([xorshift_step(1 << j) for j in range(32)])
    return _squared(power_tables(i - 1))


def jump_tables(levels, x: int, steps: int) -> int:
    """Image of a 32-bit word under a map applied steps times, where
    levels(i) gives the tables of its 2**i-th power: one pass per set bit
    of steps."""
    for i in range(steps.bit_length()):
        if steps >> i & 1:
            x = apply_tables(levels(i), x)
    return x


def xorshift_jump(x: int, steps: int) -> int:
    """Apply the xorshift transform steps times to one word, in O(log steps)."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative: {steps}")
    return jump_tables(power_tables, x & MASK32, steps)
