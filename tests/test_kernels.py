"""Numpy kernels versus scalar reference loops built on `prng`."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dicesim import kernels, prng
from dicesim.cli import ROLLS_PER_CHUNK
from dicesim.device import SUPPORTED_DICE
from dicesim.prng import lcg_step, xorshift_inverse, xorshift_jump, xorshift_step
from reference_board import count_reference, face_lines, feedback_reference, roll_lines, stateless_reference

words32 = st.integers(min_value=0, max_value=kernels.MASK32)


def test_feedback_sequence_matches_scalar_chain():
    assert kernels.feedback_sequence(1, 512).tolist() == feedback_reference(1, 512)


def test_feedback_sequence_empty():
    assert kernels.feedback_sequence(1, 0).shape == (0,)


# the xorshift_jump tests check the device register's scalar jump, which
# shares its byte tables with the array jumps here

def test_xorshift_jump_matches_feedback_sequence():
    seq = kernels.feedback_sequence(0xDEADBEEF, 64)
    for k in (1, 2, 17, 64):
        assert xorshift_jump(0xDEADBEEF, k) == int(seq[k - 1])
    assert xorshift_jump(0x1234, 0) == 0x1234


def test_stateless_sequence_matches_scalar_pipeline():
    assert kernels.stateless_sequence(12345, 256).tolist() == stateless_reference(12345, 256)


def test_xorshift_step_of_an_array_equals_the_scalar_step():
    rng = random.Random(99)
    words = np.array([rng.getrandbits(32) for _ in range(4_096)], dtype=np.uint32)
    out = xorshift_step(words.copy())
    assert out.dtype == np.uint32
    assert out.tolist() == [xorshift_step(int(x)) for x in words]


def test_xorshift_inverse_of_an_array_round_trips():
    rng = random.Random(100)
    words = np.array([rng.getrandbits(32) for _ in range(4_096)], dtype=np.uint32)
    assert np.array_equal(xorshift_inverse(xorshift_step(words.copy())), words)
    assert np.array_equal(xorshift_step(xorshift_inverse(words)), words)


def test_kernels_agree_with_scalar_references():
    assert kernels.feedback_sequence(7, 1_000).tolist() == feedback_reference(7, 1_000)
    assert kernels.stateless_sequence(7, 1_000).tolist() == stateless_reference(7, 1_000)
    assert xorshift_jump(7, 321) == feedback_reference(7, 321)[-1]
    words = np.arange(1, 2_049, dtype=np.uint32)
    assert xorshift_step(words.copy()).tolist() == [xorshift_step(int(x)) for x in words]


def test_lcg_matches_adc_source():
    from dicesim.device import SyntheticAdc

    adc = SyntheticAdc(12345)
    first = adc.next()
    assert first == 1337  # (1664525 * 12345 + 1013904223) mod 2**32, top 16 bits
    lcg = (prng.LCG_MULT * 12345 + prng.LCG_INC) & kernels.MASK32
    assert first == (lcg >> 16) & 0xFFFF


def test_jump_tables_are_prng_buffers_viewed_in_place():
    # one copy of each level's tables: the cached flat arrays read prng's
    # buffers and cannot write them
    for i in (0, 3, 40):
        buffer, tables = prng.power_tables(i), kernels._tables(i)
        assert tables is kernels._tables(i)
        assert tables.dtype == np.uint32 and tables.shape == (1_024,) and not tables.flags.writeable
        assert np.shares_memory(tables, np.frombuffer(buffer, dtype=np.uint32))
        assert tables.tolist() == buffer.tolist()


@given(st.lists(words32, max_size=300))
def test_inverse_of_an_array_equals_the_scalar_inverse(words):
    array = np.array(words, dtype=np.uint32)
    out = prng.xorshift_inverse(array)
    assert out.dtype == np.uint32
    assert out.tolist() == [prng.xorshift_inverse(w) for w in words]
    assert array.tolist() == words  # the array it is given is left as it was


def test_xorshift_jump_rejects_negative_steps():
    with pytest.raises(ValueError, match="non-negative"):
        xorshift_jump(1, -1)


# ----------------------------------------------------------------------
#  properties: jump-ahead equals stepping
# ----------------------------------------------------------------------

@given(words32, st.integers(0, 1 << 70), st.integers(0, 1 << 70))
def test_xorshift_jumps_compose(x, a, b):
    assert xorshift_jump(x, a + b) == xorshift_jump(xorshift_jump(x, a), b)


@settings(max_examples=50)
@given(words32, st.integers(0, 2_000))
def test_xorshift_jump_equals_step_chain(x, k):
    expected = feedback_reference(x, k)[-1] if k else x
    assert xorshift_jump(x, k) == expected


# n = 2**k - 1, 2**k and 2**k + 1 end the doubling with a partial last pass,
# a whole one, and a pass of one word; from 2 * LANES words on the sequence
# is filled by lanes, whose last one may be cut short
LANES = kernels.LANES


@settings(max_examples=40, deadline=None)
@given(words32, st.one_of(st.integers(0, 5_000), st.integers(2 * LANES - 2, 6 * LANES)))
@example(0xDEADBEEF, 4_095)
@example(0xDEADBEEF, 4_096)
@example(0xDEADBEEF, 4_097)
@example(0xDEADBEEF, 2 * LANES - 1)
@example(0xDEADBEEF, 2 * LANES)
@example(0xDEADBEEF, 4 * LANES + 3)
def test_feedback_sequence_equals_reference(seed, n):
    out = kernels.feedback_sequence(seed, n)
    assert out.dtype == np.uint32 and out.shape == (n,)
    assert out.tolist() == feedback_reference(seed, n)


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 5_000))
@example(0, 4_095)
@example(0, 4_096)
@example(0, 4_097)
def test_stateless_sequence_equals_reference(seed, n):
    out = kernels.stateless_sequence(seed, n)
    assert out.dtype == np.uint32 and out.shape == (n,)
    assert out.tolist() == stateless_reference(seed, n)


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 5_000), st.data())
def test_sequences_cut_and_continued_equal_the_whole(seed, n, data):
    # a sequence continued at start from where the first part stopped, as
    # `rolls` makes it a chunk at a time
    cut = data.draw(st.integers(0, n))
    for sequence in (kernels.feedback_sequence, kernels.stateless_sequence):
        parts = np.concatenate([sequence(seed, cut), sequence(seed, n - cut, start=cut)])
        assert parts.dtype == np.uint32
        assert parts.tolist() == sequence(seed, n).tolist()


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 1 << 62), st.one_of(st.integers(1, 300), st.integers(2 * LANES, 3 * LANES)))
def test_feedback_sequence_start_equals_jump(seed, start, n):
    assert kernels.feedback_sequence(seed, n, start=start).tolist() == \
        feedback_reference(xorshift_jump(seed, start), n)


def lcg_state(seed: int, k: int) -> int:
    """LCG state k from seed in closed form: a**k * seed + c * (a**k - 1) / (a - 1),
    the sum of the geometric series taken exactly mod 2**32."""
    a, c = prng.LCG_MULT, prng.LCG_INC
    series = (pow(a, k, (a - 1) << 32) - 1) // (a - 1)
    return (pow(a, k, 1 << 32) * seed + c * series) & kernels.MASK32


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 1 << 62), st.integers(1, 300))
@example(12345, 0, 1)
@example(12345, 1, 1)
def test_stateless_sequence_start_equals_closed_form(seed, start, n):
    # output m's register holds the top halves of LCG states m and m + 1;
    # the register starts at 0, so output 0's high half is 0
    want = []
    for m in range(start, start + n):
        high = lcg_state(seed, m) & 0xFFFF0000 if m else 0
        want.append(xorshift_step(high | lcg_state(seed, m + 1) >> 16))
    assert kernels.stateless_sequence(seed, n, start=start).tolist() == want


@given(words32, st.integers(0, 12))
def test_lcg_power_of_two_jump_of_an_array_equals_stepping(x, i):
    expected = x
    for _ in range(1 << i):
        expected = lcg_step(expected)
    got = kernels._lcg_jump(i, np.array([x], dtype=np.uint32))
    assert got.dtype == np.uint32 and int(got[0]) == expected


# ----------------------------------------------------------------------
#  rolls CSV text against per-line references
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUPPORTED_DICE), words32,
       st.one_of(st.integers(0, 300), st.integers(ROLLS_PER_CHUNK - 2, ROLLS_PER_CHUNK + 2)))
def test_format_rolls_equals_per_roll_join(sides, seed, n):
    words = np.random.default_rng(seed).integers(0, 1 << 32, n, dtype=np.uint32)
    words[:3] = (0, kernels.MASK32, sides - 1)[:n]  # the extreme words and the widest face
    assert kernels.format_rolls(words, sides) == roll_lines(words, sides)


@pytest.mark.parametrize("sides", [0, 1000])
def test_format_rolls_needs_faces_that_fit_a_word(sides):
    with pytest.raises(ValueError, match="no line table"):
        kernels.format_rolls(np.arange(4, dtype=np.uint32), sides)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 6, 20, 100)), st.data())
def test_count_rolls_equals_per_line_reference(sides, data):
    odd = ["", "0", "00", "007", "0100", "1000", "12345", str(sides + 1), " 3", "4\r", "x", "-1", "+2"]
    lines = data.draw(st.lists(st.integers(1, sides).map(str), max_size=200))
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(odd)))
    block = "".join(f"{line}\n" for line in lines).encode()
    if data.draw(st.booleans()):
        block = block.removesuffix(b"\n")  # no final LF
    assert kernels.count_rolls(block, sides) == count_reference(block, sides)


@pytest.mark.parametrize("sides, line", [(20, "1001"), (20, "2012"), (20, "0006"), (100, "1100"), (100, "0100")])
@pytest.mark.parametrize("where", ["{}\n", "{}\n5\n", "5\n{}\n", "5\n{}\n7\n"])
def test_count_rolls_rejects_four_digits_that_end_in_a_roll(sides, line, where):
    # the window over a line's last three bytes sees an in-range roll, so
    # only the length check rejects the line
    block = where.format(line).encode()
    assert count_reference(block, sides) is None
    assert kernels.count_rolls(block, sides) is None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 20), st.integers(90, 110), st.integers(999_990, 1_000_010),
                 st.integers(0, 10**12)),
       st.integers(0, 30), st.sampled_from((0, 1, 214_748_364, 2**64 // 3)))
def test_format_faces_equals_per_face_format(low, length, count):
    # runs that cross the 9/10, 99/100 and 999 999/1 000 000 widths, and empty ones
    for high in (low + length, low - length):
        assert kernels.format_faces(low, high, count) == face_lines((n, count) for n in range(low, high))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((10_000, 100_000, 1_000_000)), st.integers(201, 1_000), st.data(),
       st.sampled_from((0, 1, 2**64 // 3)))
def test_format_faces_joins_whole_blocks_across_a_width(width_edge, length, data, count):
    # runs of more than two 100-face blocks that start and end inside a
    # block and cross a digit width, so whole blocks are joined on each side
    low = width_edge - data.draw(st.integers(1, length - 1))
    assume(low % 100 and (low + length) % 100)
    assert kernels.format_faces(low, low + length, count) == \
        face_lines((n, count) for n in range(low, low + length))
