"""Word transform, its inverse, the seed register and the LCG's jump."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dicesim.device import Device
from dicesim.prng import MASK32, lcg_jump, lcg_step, seed_shift, xorshift_inverse, xorshift_step


def _oracle_step(x):
    # straight transcription of the shift triple, kept separate on purpose
    x &= MASK32
    x ^= x >> 7
    x = (x ^ (x << 9)) & MASK32
    x ^= x >> 13
    return x


def test_step_frozen_examples():
    assert xorshift_step(1) == 0x00000201
    assert xorshift_step(0x80000000) == 0x81040800
    assert xorshift_step(0) == 0


def test_step_masks_wide_inputs():
    assert xorshift_step((1 << 40) | 1) == xorshift_step(1)


def test_step_single_bit_inputs():
    for k in range(32):
        assert xorshift_step(1 << k) == _oracle_step(1 << k)


def test_step_seeded_sweep():
    rng = random.Random(0xD1CE)
    for _ in range(20_000):
        x = rng.getrandbits(32)
        assert xorshift_step(x) == _oracle_step(x)


def test_inverse_round_trip():
    rng = random.Random(7)
    words = [0, 1, 2, MASK32, 0x80000000, 0xAAAAAAAA, 0x55555555]
    words += [rng.getrandbits(32) for _ in range(20_000)]
    for x in words:
        assert xorshift_inverse(xorshift_step(x)) == x
        assert xorshift_step(xorshift_inverse(x)) == x


def test_step_is_linear_over_xor():
    # linear map on GF(2)^32: f(a ^ b) == f(a) ^ f(b), f(0) == 0
    rng = random.Random(11)
    for _ in range(5_000):
        a = rng.getrandbits(32)
        b = rng.getrandbits(32)
        assert xorshift_step(a ^ b) == xorshift_step(a) ^ xorshift_step(b)


def test_step_no_short_cycle_from_one():
    # the orbit of 1 stays off its start for far longer than any device run
    x = 1
    for _ in range(600_000):
        x = xorshift_step(x)
        assert x != 1
        assert x != 0


def test_seed_shift_frozen_example():
    assert seed_shift(0xAAAA5555, 0x1234) == 0x55551234


def test_seed_shift_two_samples_pin_the_register():
    rng = random.Random(3)
    for _ in range(1_000):
        start_a = rng.getrandbits(32)
        start_b = rng.getrandbits(32)
        s1 = rng.getrandbits(16)
        s2 = rng.getrandbits(16)
        a = seed_shift(seed_shift(start_a, s1), s2)
        b = seed_shift(seed_shift(start_b, s1), s2)
        assert a == b == (s1 << 16) | s2


def test_seed_shift_rejects_out_of_range():
    with pytest.raises(ValueError):
        seed_shift(0, -1)
    with pytest.raises(ValueError):
        seed_shift(0, 0x10000)


def test_state_validates_mode():
    with pytest.raises(ValueError, match="unknown PRNG mode"):
        Device(prng_mode="turbo")


WORDS = st.integers(0, MASK32)
STEPS = st.integers(0, 3_000)


@given(WORDS, STEPS)
def test_lcg_jump_equals_stepping(x, steps):
    want = x
    for _ in range(steps):
        want = lcg_step(want)
    assert lcg_jump(x, steps) == want


@given(WORDS, st.integers(0, 1 << 40), st.integers(0, 1 << 40))
def test_lcg_jumps_compose(x, a, b):
    assert lcg_jump(lcg_jump(x, a), b) == lcg_jump(x, a + b)


@given(WORDS)
def test_lcg_jump_by_zero_is_the_identity(x):
    assert lcg_jump(x, 0) == x


def test_lcg_jump_period_and_negative_steps():
    # full period: the affine map mod 2**32 with an odd increment cycles through every word
    assert lcg_jump(12345, 1 << 32) == 12345
    assert lcg_jump(12345, (1 << 31)) != 12345
    with pytest.raises(ValueError, match="non-negative"):
        lcg_jump(0, -1)
