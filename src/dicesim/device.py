"""Control logic of the dice unit: tilt debounce, selection FSM, roll pipeline,
keep-awake toggler, and the composite Device register file.

Each four-digit register (the selection's set digits, the roll's live and
held digits) is one tuple of display codes ordered (thou, huns, tens, ones),
the bus that the display multiplexer and the UART read.

Per-tick semantics at an HZ10 rising edge: the seed register shifts in the
ADC sample, the PRNG output for the tick is computed, the tilt window
updates, the selection FSM acts on the fresh upright level, and the roll
pipeline computes or holds the display digits. The debounce keeps the
as-built one-tick lag: upright is judged from the window as it was before
the new sample shifted in.
"""

from __future__ import annotations

import functools

from .prng import (
    MASK32,
    MODES,
    STATELESS,
    _byte_tables,
    _squared,
    apply_tables,
    jump_tables,
    lcg_jump,
    lcg_step,
    seed_shift,
    xorshift_step,
)
from .record import Record
from .timing import HALF_PERIODS, HZ10

# dselect -> (diceval, thou, huns, tens, ones display codes)
DICE_TABLE = {
    0: (2, 0xD, 0x2, 0xF, 0xF),
    1: (4, 0xD, 0x4, 0xF, 0xF),
    2: (6, 0xD, 0x6, 0xF, 0xF),
    3: (8, 0xD, 0x8, 0xF, 0xF),
    4: (10, 0xD, 0x1, 0x0, 0xF),
    5: (12, 0xD, 0x1, 0x2, 0xF),
    6: (20, 0xD, 0x2, 0x0, 0xF),
    7: (100, 0xD, 0x1, 0x0, 0x0),
}

SUPPORTED_DICE = tuple(row[0] for row in DICE_TABLE.values())

WINDOW_BITS = 10
WINDOW_MASK = (1 << WINDOW_BITS) - 1
UPRIGHT_THRESHOLD = 7

DEFAULT_ADC_SEED = 12345

# sysclk edges per HZ10 period: the feedback register's steps between two ticks
TICK_STEPS = 2 * HALF_PERIODS[HZ10]

# T**TICK_STEPS as the images of the unit vectors, 1 << j at index j, as
# `prng.xorshift_jump(1 << j, TICK_STEPS)` gives them: a fixed stride needs
# no table levels, only this one matrix
TICK_JUMP = (
    0x0439A156, 0x5058EF94, 0x222A76FA, 0x5F8EDF3A,
    0x13B29031, 0x96BD0439, 0x3E309BB3, 0x1DC589B3,
    0x4DA4FB35, 0x63AF67ED, 0xF01925F9, 0xDC078BBD,
    0x633BF018, 0x2FF52588, 0x718C4CFC, 0xBBA62202,
    0xC421DD48, 0xCC0C077B, 0xB8207B62, 0xF14AFC69,
    0x5B0FD3FD, 0x01001C17, 0x95E9B411, 0xF865ED09,
    0xCF9C9113, 0x2336248D, 0x2A8528C3, 0xDCFB38F8,
    0xFB3D1AA9, 0x7741E975, 0xAC3AE03C, 0xD47DF3D5,
)


@functools.cache
def _tick_tables(i: int):
    """Byte tables of T**(TICK_STEPS * 2**i), built on first use, so a
    process that never runs a feedback tick never pays for them: level 0
    from TICK_JUMP, each level above by squaring the one below. A steady
    span of n ticks needs only the levels up to log2(n), not the
    `prng.power_tables` levels up to log2(n * TICK_STEPS)."""
    return _byte_tables(TICK_JUMP) if i == 0 else _squared(_tick_tables(i - 1))


def dice_table(dselect: int) -> tuple[int, int, int, int, int]:
    """(diceval, thou, huns, tens, ones) codes for a selector value."""
    if dselect not in DICE_TABLE:
        raise ValueError(f"dselect out of range 0..7: {dselect}")
    return DICE_TABLE[dselect]


# ======================================================================
#  tilt debounce
# ======================================================================

class TiltState(Record):
    """Ten-sample shift window plus the derived upright level."""

    __slots__ = ("window", "sumtilt", "upright")

    def __init__(self, window: int = 0, sumtilt: int = 0, upright: bool = False) -> None:
        self.window = window
        self.sumtilt = sumtilt
        self.upright = upright


def tilt_update(state: TiltState, sample: int, intuitive: bool = False) -> TiltState:
    """Shift one tilt sample into the window and re-judge upright.

    Faithful mode counts the window as it was before this sample shifted in
    (the as-built blocking read), so a change of posture needs one extra tick
    to register. The intuitive flag counts the post-shift window instead.
    """
    window = ((state.window << 1) | (1 if sample else 0)) & WINDOW_MASK
    basis = window if intuitive else state.window
    total = basis.bit_count()
    return TiltState(window, total, total >= UPRIGHT_THRESHOLD)


# ======================================================================
#  dice selection FSM
# ======================================================================

class SelectionState(Record):
    """Selector, its dice table row (diceval and the four set digits), the
    display mode, and the keep-awake arm."""

    __slots__ = ("setmode", "dselect", "diceval", "set_digits", "keepon")

    def __init__(self, setmode: bool = False, dselect: int = 0, diceval: int = 2,
                 set_digits: tuple[int, int, int, int] = (0, 0, 0, 0), keepon: bool = True) -> None:
        self.setmode = setmode
        self.dselect = dselect
        self.diceval = diceval
        self.set_digits = set_digits
        self.keepon = keepon


def selection_update(state: SelectionState, upright: bool, btn_up: int, btn_down: int) -> SelectionState:
    """One HZ10 tick of the selection FSM.

    The buttons are sampled as levels every tick (no edge detector), so
    holding a button steps the selector once per tick. Both buttons together
    disarm keep-awake and change nothing else. While not upright only setmode
    drops; the selector and dice table row hold. A tick that changes nothing
    returns the state it was given.
    """
    if not upright:
        if not state.setmode:
            return state
        return SelectionState(False, state.dselect, state.diceval, state.set_digits, state.keepon)
    setmode, dselect, keepon = state.setmode, state.dselect, state.keepon
    if btn_up and btn_down:
        keepon = False
    elif btn_up:
        setmode = True
        dselect = 0 if dselect == 7 else dselect + 1
    elif btn_down:
        setmode = True
        dselect = 7 if dselect == 0 else dselect - 1
    row = dice_table(dselect)
    if (setmode == state.setmode and dselect == state.dselect and keepon == state.keepon
            and row[0] == state.diceval and row[1:] == state.set_digits):
        return state
    return SelectionState(setmode, dselect, row[0], row[1:], keepon)


# ======================================================================
#  roll pipeline
# ======================================================================

class RollState(Record):
    """The live display digits, and the held copy that freezes while upright."""

    __slots__ = ("out", "held_diceval", "live", "held")

    def __init__(self, out: int = 0, held_diceval: int = 2, live: tuple[int, int, int, int] = (0, 0, 0, 0),
                 held: tuple[int, int, int, int] = (0, 0, 0, 0)) -> None:
        self.out = out
        self.held_diceval = held_diceval
        self.live = live
        self.held = held


def roll_update(state: RollState, rand_word: int, diceval: int, upright: bool) -> RollState:
    """One HZ10 tick of the roll pipeline.

    Not upright: compute out = (rand mod diceval) + 1, split it into display
    digits shifted one place left (units land in the tens position, ones gets
    the blank code), and refresh both the live and the held digits. Upright:
    the live digits copy the held ones, freezing the display. A tick that
    changes nothing returns the state it was given.
    """
    if upright:
        if state.live == state.held:
            return state
        return RollState(state.out, state.held_diceval, state.held, state.held)
    if diceval <= 0:
        raise ValueError(f"diceval must be positive: {diceval}")
    out = ((rand_word & MASK32) % diceval) + 1
    digits = (out // 100, out // 10 % 10, out % 10, 0xF)
    if out == state.out and diceval == state.held_diceval and digits == state.live == state.held:
        return state
    return RollState(out, diceval, digits, digits)


def held_value(state: RollState) -> int:
    """Roll value encoded in the held digits."""
    thou, huns, tens, _ = state.held
    return thou * 100 + huns * 10 + tens


# ======================================================================
#  keep-awake
# ======================================================================

class PowerState(Record):
    """Keep-awake outputs: onsig drives onpin, clk5 drives led0."""

    __slots__ = ("onsig", "clk5")

    def __init__(self, onsig: int = 0, clk5: int = 0) -> None:
        self.onsig = onsig
        self.clk5 = clk5


def keepawake_update(state: PowerState, keepon: bool) -> PowerState:
    """One S5 rising edge of the keep-awake block.

    The block has no asynchronous reset. Armed, it toggles both outputs each
    edge; disarmed it drives both low. S5 never rises while reset is held,
    because the dividers are held in reset too.
    """
    if keepon:
        return PowerState(state.onsig ^ 1, state.clk5 ^ 1)
    return PowerState(0, 0)


# ======================================================================
#  synthetic ADC source
# ======================================================================

class SyntheticAdc:
    """Deterministic stand-in for ADC noise when a trace supplies no samples.

    32-bit LCG: state' = (1664525 * state + 1013904223) mod 2**32; each
    sample is the top 16 bits of the state. Default seed is 12345.
    """

    def __init__(self, seed: int = DEFAULT_ADC_SEED) -> None:
        self.state = seed & MASK32

    def next(self) -> int:
        self.state = lcg_step(self.state)
        return (self.state >> 16) & 0xFFFF

    def skip(self, steps: int) -> tuple[int, int]:
        """Draw steps >= 2 samples at once, in O(log steps); the last two."""
        before = lcg_jump(self.state, steps - 1)
        self.state = lcg_step(before)
        return before >> 16, self.state >> 16


# ======================================================================
#  composite device
# ======================================================================

class Device:
    """Register file of the dice unit, stepped by hz10_tick and s5_tick, and
    built from its two settings: the PRNG mode and the intuitive tilt vote.

    The keep-awake block and the held roll digits survive reset (no reset
    wiring there); everything else returns to its documented reset value.
    Each hz10_tick is one HZ10 period after the one before. In FEEDBACK mode
    the rand register latches the xorshift of the first nonzero seed value it
    observes, then free-runs on the system clock: TICK_STEPS steps per tick,
    one pass of the TICK_JUMP tables.
    """

    def __init__(self, prng_mode: str = STATELESS, intuitive_tilt: bool = False) -> None:
        if prng_mode not in MODES:
            raise ValueError(f"unknown PRNG mode: {prng_mode!r}")
        self.prng_mode = prng_mode
        self.intuitive_tilt = intuitive_tilt
        self.power = PowerState()
        self.roll = RollState()
        self._clear_registers()

    def _clear_registers(self) -> None:
        self.seed = 0
        self.rand_reg = 0  # the FEEDBACK register; idle in STATELESS
        self.tilt = TiltState()
        self.selection = SelectionState()
        self.rand = 0

    def reset(self) -> None:
        """Asynchronous reset: clears everything except keep-awake and the
        held roll digits (neither has a reset branch)."""
        roll = self.roll
        self._clear_registers()
        self.roll = RollState(roll.out, roll.held_diceval, (0, 0, 0, 0), roll.held)

    def _rand_for_tick(self) -> int:
        if self.prng_mode == STATELESS:
            return xorshift_step(self.seed)
        if self.rand_reg:
            self.rand_reg = apply_tables(_tick_tables(0), self.rand_reg)
        else:  # zero until the first nonzero seed, which it latches stepped once
            self.rand_reg = xorshift_step(self.seed)
        return self.rand_reg

    def hz10_tick(self, tilt: int, btn_up: int, btn_down: int, adc: int) -> None:
        """One HZ10 rising edge: seed shift, PRNG, debounce, selection, roll."""
        self.seed = seed_shift(self.seed, adc)
        self.rand = self._rand_for_tick()
        self.tilt = tilt_update(self.tilt, tilt, self.intuitive_tilt)
        self.selection = selection_update(self.selection, self.tilt.upright, btn_up, btn_down)
        self.roll = roll_update(self.roll, self.rand, self.selection.diceval, self.tilt.upright)

    def steady_ticks(self, steps: int, samples: tuple[int, int]) -> None:
        """steps >= 2 hz10_ticks that leave tilt, selection and roll as they
        are, with upright true, the last two fed the ADC samples `samples`.
        Upright, those updates never read seed or rand, so only the two move:
        the seed register holds the last two samples, and rand is their
        transform in STATELESS, or in FEEDBACK the register jumped
        steps * TICK_STEPS at once, one pass of the _tick_tables level of each
        set bit of steps, which needs it latched (nonzero)."""
        self.seed = seed_shift(samples[0], samples[1])  # a 16-bit seed: the older sample lands high
        if self.prng_mode == STATELESS:
            self.rand = xorshift_step(self.seed)
        else:
            self.rand = self.rand_reg = jump_tables(_tick_tables, self.rand_reg, steps)

    def s5_tick(self) -> None:
        """One S5 rising edge: keep-awake toggler."""
        self.power = keepawake_update(self.power, self.selection.keepon)
