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
  default for the statistics tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    bijection; this undoes the three stages in reverse order.
    """
    y &= MASK32
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


@dataclass
class PrngState:
    """Generator state: mode plus the feedback register (idle in STATELESS)."""

    mode: str = STATELESS
    rand_reg: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown PRNG mode: {self.mode!r}")
        self.rand_reg &= MASK32

    @property
    def degenerate(self) -> bool:
        """True when FEEDBACK mode sits on the all-zero orbit."""
        return self.mode == FEEDBACK and self.rand_reg == 0


def feedback_state(seed: int) -> PrngState:
    """FEEDBACK-mode state from an explicit seed. Zero is rejected."""
    if seed & MASK32 == 0:
        raise ValueError("feedback seed must be nonzero (zero never leaves the zero orbit)")
    return PrngState(FEEDBACK, seed & MASK32)


def next_rand(state: PrngState, seed_value: int = 0) -> tuple[PrngState, int]:
    """Produce the next 32-bit output word.

    STATELESS: output is a pure function of seed_value, state is returned
    unchanged (repeated calls with the same seed give the same word).
    FEEDBACK: rand_reg steps once and the new register value is the output;
    seed_value is ignored.
    """
    if state.mode == STATELESS:
        return state, xorshift_step(seed_value)
    word = xorshift_step(state.rand_reg)
    return PrngState(FEEDBACK, word), word
