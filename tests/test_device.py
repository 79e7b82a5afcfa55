"""Tilt debounce, selection FSM, roll pipeline, keep-awake, composite device."""

import copy
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicesim import device, kernels, prng
from dicesim.device import (
    DICE_TABLE,
    SUPPORTED_DICE,
    TICK_JUMP,
    TICK_STEPS,
    UPRIGHT_THRESHOLD,
    WINDOW_BITS,
    WINDOW_MASK,
    Device,
    RollState,
    SelectionState,
    SyntheticAdc,
    TiltState,
    keepawake_update,
    roll_update,
    selection_update,
    tilt_update,
)
from dicesim.prng import FEEDBACK, MASK32, MODES, STATELESS, apply_tables, xorshift_jump, xorshift_step
from dicesim.timing import HALF_PERIODS, HZ10
from dicesim.trace import parse_trace, replay
from reference_board import gf2_power, shift_stage


# ----------------------------------------------------------------------
#  dice table
# ----------------------------------------------------------------------

def test_dice_table_rows():
    assert DICE_TABLE[0] == (2, 0xD, 0x2, 0xF, 0xF)
    assert DICE_TABLE[4] == (10, 0xD, 0x1, 0x0, 0xF)
    assert DICE_TABLE[6] == (20, 0xD, 0x2, 0x0, 0xF)
    assert DICE_TABLE[7] == (100, 0xD, 0x1, 0x0, 0x0)
    assert list(DICE_TABLE) == list(range(8))  # every selector value, in order
    assert SUPPORTED_DICE == (2, 4, 6, 8, 10, 12, 20, 100)  # the diceval column, in selector order


# ----------------------------------------------------------------------
#  tilt debounce
# ----------------------------------------------------------------------

def test_tilt_needs_eight_ticks_to_settle():
    # pre-shift vote: seven ones in the window only count one tick later
    state = TiltState()
    history = []
    for _ in range(10):
        state = tilt_update(state, 1)
        history.append(state.upright)
    assert history == [False] * 7 + [True] * 3


def test_tilt_intuitive_flag_counts_fresh_sample():
    state = TiltState()
    history = []
    for _ in range(10):
        state = tilt_update(state, 1, intuitive=True)
        history.append(state.upright)
    assert history == [False] * 6 + [True] * 4


def test_tilt_exhaustive_against_popcount():
    for window in range(WINDOW_MASK + 1):
        for sample in (0, 1):
            got = tilt_update(TiltState(window=window), sample)
            new_window = ((window << 1) | sample) & WINDOW_MASK
            assert got.window == new_window
            assert got.sumtilt == bin(window).count("1")
            assert got.upright == (got.sumtilt >= UPRIGHT_THRESHOLD)
            intuitive = tilt_update(TiltState(window=window), sample, intuitive=True)
            assert intuitive.sumtilt == bin(new_window).count("1")


def test_tilt_recovers_after_shake():
    state = TiltState(window=WINDOW_MASK, sumtilt=10, upright=True)
    drops = 0
    while state.upright:
        state = tilt_update(state, 0)
        drops += 1
    assert drops == 5  # pre-shift count falls to 6 on the fifth zero


# ----------------------------------------------------------------------
#  selection FSM
# ----------------------------------------------------------------------

def test_selection_up_walk_and_wrap():
    state = SelectionState()
    sizes = []
    for _ in range(9):
        state = selection_update(state, upright=True, btn_up=1, btn_down=0)
        sizes.append(state.diceval)
    assert sizes == [4, 6, 8, 10, 12, 20, 100, 2, 4]
    assert state.setmode


def test_selection_down_wraps_to_largest():
    state = selection_update(SelectionState(), upright=True, btn_up=0, btn_down=1)
    assert state.dselect == 7
    assert state.diceval == 100
    assert state.set_digits == (0xD, 0x1, 0x0, 0x0)


def test_selection_both_buttons_only_disarm():
    state = SelectionState(dselect=3)
    after = selection_update(state, upright=True, btn_up=1, btn_down=1)
    assert not after.keepon
    assert after.dselect == 3
    assert after.diceval == 8
    assert after.setmode == state.setmode


def test_selection_face_down_drops_setmode_only():
    state = SelectionState(setmode=True, dselect=5, keepon=True)
    after = selection_update(state, upright=False, btn_up=1, btn_down=0)
    assert not after.setmode
    assert after.dselect == 5
    assert after.diceval == 12
    assert after.keepon


def test_selection_held_button_steps_every_tick():
    # no edge detector: keeping the button down keeps stepping
    state = SelectionState()
    state = selection_update(state, True, 1, 0)
    state = selection_update(state, True, 1, 0)
    assert state.dselect == 2


def test_selection_refreshes_row_same_tick():
    state = selection_update(SelectionState(), upright=True, btn_up=1, btn_down=0)
    assert (state.diceval,) + state.set_digits == DICE_TABLE[1]


# ----------------------------------------------------------------------
#  roll pipeline
# ----------------------------------------------------------------------

def test_roll_formula_and_digit_split():
    state = roll_update(RollState(), rand_word=41, diceval=20, upright=False)
    assert state.out == (41 % 20) + 1 == 2
    assert state.live == (0, 0, 2, 0xF)
    assert state.held == (0, 0, 2, 0xF)
    assert state.held_diceval == 20


def test_roll_digits_shift_one_place_left():
    state = roll_update(RollState(), rand_word=115, diceval=100, upright=False)
    assert state.out == 16
    assert state.live == (0, 0x1, 0x6, 0xF)
    assert state.held == (0, 0x1, 0x6, 0xF)


def test_roll_three_digit_value():
    state = roll_update(RollState(), rand_word=99, diceval=100, upright=False)
    assert state.out == 100
    assert state.live == (1, 0, 0, 0xF)
    assert state.held == (1, 0, 0, 0xF)


def test_roll_upright_freezes_to_held():
    rolled = roll_update(RollState(), rand_word=7, diceval=6, upright=False)
    frozen = roll_update(rolled, rand_word=12345, diceval=6, upright=True)
    assert frozen.live == rolled.live
    assert frozen.out == rolled.out
    # held digits survive an upright tick untouched
    assert frozen.held == rolled.held
    # the live digits load the held ones, also when a reset blanked them
    blanked = RollState(rolled.held_diceval, (0, 0, 0, 0), rolled.held)
    assert roll_update(blanked, rand_word=12345, diceval=6, upright=True).live == rolled.held


def test_roll_range_over_random_words():
    rng = random.Random(8)
    for sides in SUPPORTED_DICE:
        for _ in range(500):
            state = roll_update(RollState(), rng.getrandbits(32), sides, False)
            assert 1 <= state.out <= sides


def test_roll_rejects_bad_diceval():
    with pytest.raises(ValueError):
        roll_update(RollState(), 1, 0, False)


# ----------------------------------------------------------------------
#  keep-awake
# ----------------------------------------------------------------------

def test_keepawake_toggles_while_armed():
    onsig = Device().onsig
    seen = []
    for _ in range(4):
        onsig = keepawake_update(onsig, keepon=True)
        seen.append(onsig)
    assert seen == [1, 0, 1, 0]


def test_keepawake_disarmed_drives_low():
    assert keepawake_update(1, keepon=False) == 0
    assert keepawake_update(0, keepon=False) == 0


# ----------------------------------------------------------------------
#  synthetic ADC
# ----------------------------------------------------------------------

def test_adc_first_sample_frozen():
    assert SyntheticAdc().next() == 1337


def test_adc_matches_lcg_oracle():
    adc = SyntheticAdc(seed=99)
    state = 99
    for _ in range(100):
        state = (1664525 * state + 1013904223) & 0xFFFFFFFF
        assert adc.next() == (state >> 16) & 0xFFFF


# ----------------------------------------------------------------------
#  composite device
# ----------------------------------------------------------------------

def test_device_stateless_rand_tracks_seed():
    dev = Device()
    dev.hz10_tick(0, 0, 0, 0x1234)
    assert dev.seed == 0x1234
    assert dev.rand == xorshift_step(0x1234)
    dev.hz10_tick(0, 0, 0, 0x5678)
    assert dev.seed == 0x12345678
    assert dev.rand == xorshift_step(0x12345678)


def test_device_feedback_latches_then_free_runs():
    dev = Device(prng_mode=FEEDBACK)
    dev.hz10_tick(0, 0, 0, 0x0001)
    first = dev.rand
    assert first == dev.rand_reg == xorshift_step(0x0001)
    # one HZ10 period of sysclk edges later the register has stepped that many times
    dev.hz10_tick(0, 0, 0, 0x0002)
    expected = first
    for _ in range(2 * HALF_PERIODS[HZ10]):
        expected = xorshift_step(expected)
    assert dev.rand == dev.rand_reg == expected


def test_tick_jump_is_the_jump_of_each_unit_vector():
    assert TICK_STEPS == 2 * HALF_PERIODS[HZ10]
    assert list(TICK_JUMP) == [xorshift_jump(1 << j, TICK_STEPS) for j in range(32)]


def test_tick_jump_is_the_columns_of_the_bit_matrix_oracle():
    # T as the product of its three shift stages, built from nothing in prng;
    # column j of T**TICK_STEPS is the image of 1 << j
    step = shift_stage(13) @ shift_stage(-9) @ shift_stage(7) % 2
    tick = gf2_power(step, TICK_STEPS)
    assert list(TICK_JUMP) == [sum(int(bit) << i for i, bit in enumerate(tick[:, j])) for j in range(32)]


@given(st.integers(0, MASK32))
def test_tick_tables_jump_any_word_one_tick(x):
    assert apply_tables(device._tick_tables(0), x) == xorshift_jump(x, TICK_STEPS)


@given(st.integers(1, MASK32), st.integers(2, 1 << 20))
@example(0xDEADBEEF, (1 << 20) - 1)  # every one of the 20 low levels
@example(1, 1 << 20)
def test_steady_ticks_jump_the_register_by_squared_tick_tables(x, steps):
    dev = Device(prng_mode=FEEDBACK)
    dev.rand_reg = x
    dev.steady_ticks(steps, (0x1234, 0x5678))
    assert dev.rand == dev.rand_reg == xorshift_jump(x, steps * TICK_STEPS)
    assert dev.seed == 0x12345678


def test_fresh_upright_feedback_replay_builds_no_power_tables():
    # a minute upright is one steady span, jumped by the squared tick tables
    # alone: a one-shot replay builds none of the xorshift_jump levels
    code = (
        "from dicesim import prng\n"
        "from dicesim.trace import parse_trace, replay\n"
        "events = parse_trace('0 RESET 1\\n1000 RESET 0\\n1000 TILT 1\\n')\n"
        "log = replay(events, prng_mode='feedback', duration_us=60_000_000)\n"
        "print(log.final_state['tilt']['upright'], prng.power_tables.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(device.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True 0\n"


def test_feedback_replay_without_a_steady_span_builds_no_jump_levels():
    # never upright, so every roll tick is stepped and none is jumped in a span;
    # kernels caches views of prng's level buffers, so both caches go together
    prng.power_tables.cache_clear()
    kernels._tables.cache_clear()
    events = parse_trace("0 RESET 1\n1000 RESET 0\n1000 ADC 4660\n")
    log = replay(events, prng_mode=FEEDBACK, duration_us=3_000_000)
    assert log.final_state["prng"]["rand_reg"] != 0 and not log.final_state["tilt"]["upright"]
    assert prng.power_tables.cache_info().currsize == 0


def test_stateless_word_is_computed_only_on_face_down_ticks():
    # upright, roll_update returns before it reads the word, so the device
    # computes none: once the tilt window is full, an upright tick steps no
    # xorshift, and the first face-down tick steps one
    dev = Device()
    calls = []

    def counting(x):
        calls.append(x)
        return xorshift_step(x)

    with mock.patch.object(device, "xorshift_step", counting):
        for k in range(WINDOW_BITS):
            dev.hz10_tick(1, 0, 0, k)
        assert dev.tilt.window == WINDOW_MASK and dev.tilt.upright
        before = len(calls)
        for k in range(5):
            dev.hz10_tick(1, 0, 0, k)
        assert len(calls) == before
        while dev.tilt.upright:
            dev.hz10_tick(0, 0, 0, 7)
        assert len(calls) == before + 1
        assert calls[-1] == dev.seed


def test_device_feedback_zero_seed_stays_degenerate():
    dev = Device(prng_mode=FEEDBACK)
    dev.hz10_tick(0, 0, 0, 0)
    assert dev.rand == 0
    dev.hz10_tick(0, 0, 0, 0)
    assert dev.rand == dev.rand_reg == 0


def test_device_settle_records_last_roll():
    dev = Device()
    adc = SyntheticAdc()
    # roll face-down for 20 ticks, then settle and hold
    for k in range(20):
        dev.hz10_tick(0, 0, 0, adc.next())
    last_out = dev.roll.out
    assert 1 <= last_out <= 2
    for k in range(20, 40):
        dev.hz10_tick(1, 0, 0, adc.next())
    assert dev.tilt.upright
    assert dev.roll.out == last_out
    assert dev.roll.held_diceval == 2


def test_device_reset_keeps_power_and_held_digits():
    dev = Device()
    adc = SyntheticAdc()
    for k in range(10):
        dev.hz10_tick(0, 0, 0, adc.next())
    dev.s5_tick()
    held = dev.roll.held
    onsig = dev.onsig
    dev.reset()
    assert dev.seed == 0
    assert dev.rand == 0
    assert dev.selection.diceval == 2
    assert dev.roll.live == (0, 0, 0, 0)
    assert dev.roll.held == held
    assert dev.onsig == onsig == 1


def test_device_power_on_output_low():
    dev = Device()
    assert dev.onsig == 0


def test_device_tick_methods():
    dev = Device()
    dev.hz10_tick(0, 0, 0, 0xBEEF)
    assert dev.seed == 0xBEEF
    dev.s5_tick()
    assert dev.onsig == 1


BIT = st.integers(0, 1)
SAMPLE = st.integers(0, 0xFFFF)
WORD = st.integers(0, MASK32)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODES), st.booleans(), st.lists(st.tuples(BIT, BIT, BIT, SAMPLE), max_size=20),
       st.tuples(WORD, WORD), st.tuples(WORD, WORD),
       st.lists(st.tuples(st.sampled_from((1, 1, 1, 0)), BIT, BIT, SAMPLE, SAMPLE), min_size=1, max_size=30))
@example(STATELESS, False, [], (1, 2), (0, 0), [(0, 0, 0, 3, 4)] * 5)  # TILT drops: upright four more ticks
@example(FEEDBACK, True, [], (1, 2), (5, 6), [(1, 1, 1, 3, 4)] * 3)  # both buttons held
@example(FEEDBACK, False, [], (1, 2), (0, 6), [(1, 1, 0, 3, 4)] * 9)  # one button held past a wrap
def test_upright_steps_read_no_generator_state(mode, intuitive, history, seeds, regs, steps):
    # two devices upright with a saturated window, that differ only in seed,
    # rand_reg and the ADC samples they get, keep the same tilt, selection
    # and roll through every HZ10 step with the same levels, as long as they
    # stay upright: only a roll off upright reads rand
    a = Device(mode, intuitive)
    for tilt, btn_up, btn_down, sample in history:
        a.hz10_tick(tilt, btn_up, btn_down, sample)
    for _ in range(WINDOW_BITS + 1):
        a.hz10_tick(1, 0, 0, 0)
    assert a.tilt.upright and a.tilt.window == WINDOW_MASK
    b = copy.deepcopy(a)
    (a.seed, b.seed), (a.rand_reg, b.rand_reg) = seeds, regs
    for tilt, btn_up, btn_down, sample_a, sample_b in steps:
        a.hz10_tick(tilt, btn_up, btn_down, sample_a)
        b.hz10_tick(tilt, btn_up, btn_down, sample_b)
        assert (a.tilt, a.selection) == (b.tilt, b.selection)
        if not a.tilt.upright:
            break  # the roll reads rand from this step on
        assert a.roll == b.roll


# mostly HZ10 ticks, the tilt level mostly high, so that runs of them settle
# upright between RESET 1s; now and then an S5 tick or RESET 1
DEVICE_STEPS = st.lists(st.tuples(st.sampled_from(("hz10",) * 12 + ("s5", "reset")),
                                  st.sampled_from((1, 1, 1, 0)), BIT, BIT, SAMPLE), max_size=120)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODES), st.booleans(), DEVICE_STEPS)
def test_digit_registers_stay_on_their_rows(mode, intuitive, steps):
    # whatever the device is fed, the live digits are the held ones or blank
    # (after a reset), diceval is the selector's dice table row, and the set
    # digits are that row or blank (until the first upright tick)
    dev = Device(mode, intuitive)
    for kind, *levels_and_sample in steps:
        if kind == "s5":
            dev.s5_tick()
        elif kind == "reset":
            dev.reset()
        else:
            dev.hz10_tick(*levels_and_sample)
        row = DICE_TABLE[dev.selection.dselect]
        assert dev.roll.live in (dev.roll.held, (0, 0, 0, 0))
        assert dev.selection.diceval == row[0]
        assert dev.selection.set_digits in (row[1:], (0, 0, 0, 0))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODES), st.booleans(), DEVICE_STEPS)
@example(STATELESS, False, [("hz10", 1, 0, 0, 5)] * 12 + [("reset", 1, 0, 0, 5)] + [("hz10", 1, 0, 0, 6)] * 12)
def test_upright_roll_ticks_are_given_live_equal_to_held(mode, intuitive, steps):
    # reset alone blanks the live digits, and it clears the tilt window, so
    # face-down ticks refresh live and held together before the unit reads
    # upright again: roll_update's upright branch that copies held into live
    # is never reached through Device (the branch stays, as the RTL has it)
    # each face-down tick is given the word of the mode's registers, which
    # the device derives and never stores
    given_upright = []

    def recording(state, rand_word, diceval, upright):
        if upright:
            given_upright.append(state.live == state.held)
        else:
            assert rand_word == (xorshift_step(dev.seed) if mode == STATELESS else dev.rand_reg)
        assert "rand" not in vars(dev)
        return roll_update(state, rand_word, diceval, upright)

    dev = Device(mode, intuitive)
    with mock.patch.object(device, "roll_update", recording):
        for kind, *levels_and_sample in steps:
            if kind == "s5":
                dev.s5_tick()
            elif kind == "reset":
                dev.reset()
            else:
                dev.hz10_tick(*levels_and_sample)
    assert all(given_upright)


# ----------------------------------------------------------------------
#  unchanged states: an update that changes nothing returns what it was given
# ----------------------------------------------------------------------

def _tilt_built(state, sample, intuitive):
    """The state a tilt tick builds."""
    window = ((state.window << 1) | sample) & WINDOW_MASK
    total = (window if intuitive else state.window).bit_count()
    return TiltState(window, total, total >= UPRIGHT_THRESHOLD)


def _selection_built(state, upright, btn_up, btn_down):
    """The state a selection tick builds, as its branches construct it."""
    if not upright:
        return SelectionState(False, state.dselect, state.set_digits, state.keepon)
    setmode, dselect, keepon = state.setmode, state.dselect, state.keepon
    if btn_up and btn_down:
        keepon = False
    elif btn_up or btn_down:
        setmode, dselect = True, (dselect + (1 if btn_up else -1)) % 8
    return SelectionState(setmode, dselect, DICE_TABLE[dselect][1:], keepon)


def _roll_built(state, rand_word, diceval, upright):
    """The state a roll tick builds, as its branches construct it."""
    if upright:
        return RollState(state.held_diceval, state.held, state.held)
    out = rand_word % diceval + 1
    digits = (out // 100, out // 10 % 10, out % 10, 0xF)
    return RollState(diceval, digits, digits)


def _check_update(update, built, state, *args):
    after, want = update(state, *args), built(state, *args)
    assert after == want
    assert (after is state) == (want == state)
    return after is state


BLANK = (0, 0, 0, 0)
ROW3 = DICE_TABLE[3][1:]
SETTLED = TiltState(WINDOW_MASK, WINDOW_BITS, True)  # upright, the window full and counted


@pytest.mark.parametrize("state, args, same", [
    (SETTLED, (1, False), True),                                          # upright and held there
    (SETTLED, (1, True), True),
    (TiltState(), (0, False), True),                                      # face down and held there
    (TiltState(WINDOW_MASK, WINDOW_BITS - 1, True), (1, False), False),   # the window full, the count a tick behind
    (TiltState(WINDOW_MASK, WINDOW_BITS - 1, True), (1, True), False),
    (SETTLED, (0, False), False),                                         # a zero shifts in, counted a tick later
])
def test_tilt_update_returns_an_unchanged_state_itself(state, args, same):
    assert _check_update(tilt_update, _tilt_built, state, *args) == same


def test_tilt_update_returns_a_new_state_only_when_it_differs():
    # replay jumps a steady span only when tilt is the same object after a step
    for window in range(WINDOW_MASK + 1):
        for sumtilt in range(WINDOW_BITS + 1):
            state = TiltState(window, sumtilt, sumtilt >= UPRIGHT_THRESHOLD)
            for sample in (0, 1):
                for intuitive in (False, True):
                    _check_update(tilt_update, _tilt_built, state, sample, intuitive)
D6_ROLL = RollState(6, (0, 0, 4, 0xF), (0, 0, 4, 0xF))  # out 4 of a d6


@pytest.mark.parametrize("state, args, same", [
    (SelectionState(False, 3, ROW3, True), (False, 1, 0), True),          # face down, setmode off
    (SelectionState(True, 3, ROW3, True), (False, 0, 0), False),          # face down drops setmode
    (SelectionState(True, 3, ROW3, True), (True, 0, 0), True),            # upright, no button
    (SelectionState(), (True, 0, 0), False),                              # the first upright tick after reset
    (SelectionState(False, 3, ROW3, False), (True, 1, 1), True),          # both buttons, already disarmed
    (SelectionState(False, 3, ROW3, True), (True, 1, 1), False),          # both buttons disarm
    (SelectionState(True, 3, ROW3, True), (True, 1, 0), False),           # up steps the selector
    (SelectionState(True, 0, DICE_TABLE[0][1:], True), (True, 0, 1), False),  # down wraps to 7
])
def test_selection_update_returns_an_unchanged_state_itself(state, args, same):
    assert _check_update(selection_update, _selection_built, state, *args) == same


@pytest.mark.parametrize("state, args, same", [
    (D6_ROLL, (77, 6, True), True),                                       # upright, live == held
    (RollState(6, BLANK, D6_ROLL.held), (77, 6, True), False),            # upright after a reset blanked live
    (D6_ROLL, (3 + 6 * 1000, 6, False), True),                            # face down, the same roll again
    (D6_ROLL, (4, 6, False), False),                                      # face down, another roll
    (D6_ROLL, (3, 8, False), False),                                      # the same out of another die
    (RollState(6, BLANK, D6_ROLL.held), (3, 6, False), False),            # the same roll after a reset
])
def test_roll_update_returns_an_unchanged_state_itself(state, args, same):
    assert _check_update(roll_update, _roll_built, state, *args) == same


DIGITS = st.tuples(*[st.integers(0, 0xF)] * 4)


@settings(max_examples=300, deadline=None)
@given(st.builds(SelectionState, st.booleans(), st.integers(0, 7),
                 st.one_of(st.just(BLANK), st.sampled_from([row[1:] for row in DICE_TABLE.values()])),
                 st.booleans()),
       st.builds(RollState, st.sampled_from(SUPPORTED_DICE), st.one_of(st.just(BLANK), DIGITS), DIGITS),
       st.booleans(), BIT, BIT, st.one_of(st.integers(0, 199), WORD), st.sampled_from(SUPPORTED_DICE))
def test_updates_return_a_new_state_only_when_it_differs(selection, roll, upright, btn_up, btn_down, word, sides):
    # the replay notes the display and the UART only when one of them is a new object
    _check_update(selection_update, _selection_built, selection, upright, btn_up, btn_down)
    _check_update(roll_update, _roll_built, roll, word, sides, upright)
    same = RollState(roll.held_diceval, roll.held, roll.held)
    assert roll_update(same, word, sides, True) is same
