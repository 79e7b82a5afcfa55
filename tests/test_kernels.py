"""Numpy kernels versus scalar reference loops built on `prng`."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dicesim import kernels, prng, stats
from dicesim.cli import ROLLS_PER_CHUNK
from dicesim.device import SUPPORTED_DICE
from dicesim.prng import FEEDBACK, STATELESS, lcg_step, xorshift_inverse, xorshift_jump, xorshift_step
from reference_board import count_reference, face_lines, feedback_reference, roll_lines, stateless_reference

words32 = st.integers(min_value=0, max_value=kernels.MASK32)
MODE = {kernels.feedback_sequence: FEEDBACK, kernels.stateless_sequence: STATELESS}


def cursor(sequence, seed: int, position: int = 0) -> kernels.Cursor:
    """A new cursor of sequence's mode at position."""
    return kernels.Cursor(MODE[sequence], seed, position)


def first(sequence, seed: int, n: int, position: int = 0) -> np.ndarray:
    """n words of sequence from a new cursor at position."""
    return sequence(cursor(sequence, seed, position), n)


def test_feedback_sequence_matches_scalar_chain():
    assert first(kernels.feedback_sequence, 1, 512).tolist() == feedback_reference(1, 512)


def test_feedback_sequence_empty():
    assert first(kernels.feedback_sequence, 1, 0).shape == (0,)


# the xorshift_jump tests check the device register's scalar jump, which
# shares its byte tables with the array jumps here

def test_xorshift_jump_matches_feedback_sequence():
    seq = first(kernels.feedback_sequence, 0xDEADBEEF, 64)
    for k in (1, 2, 17, 64):
        assert xorshift_jump(0xDEADBEEF, k) == int(seq[k - 1])
    assert xorshift_jump(0x1234, 0) == 0x1234


def test_stateless_sequence_matches_scalar_pipeline():
    assert first(kernels.stateless_sequence, 12345, 256).tolist() == stateless_reference(12345, 256)


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
    assert first(kernels.feedback_sequence, 7, 1_000).tolist() == feedback_reference(7, 1_000)
    assert first(kernels.stateless_sequence, 7, 1_000).tolist() == stateless_reference(7, 1_000)
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
    out = first(kernels.feedback_sequence, seed, n)
    assert out.dtype == np.uint32 and out.shape == (n,)
    assert out.tolist() == feedback_reference(seed, n)


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 5_000))
@example(0, 4_095)
@example(0, 4_096)
@example(0, 4_097)
def test_stateless_sequence_equals_reference(seed, n):
    out = first(kernels.stateless_sequence, seed, n)
    assert out.dtype == np.uint32 and out.shape == (n,)
    assert out.tolist() == stateless_reference(seed, n)


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 5_000), st.data())
def test_sequences_cut_and_continued_equal_the_whole(seed, n, data):
    # a sequence continued by the same cursor where the first part stopped,
    # as `rolls` makes it a chunk at a time, or by a cursor made there
    cut = data.draw(st.integers(0, n))
    for sequence in (kernels.feedback_sequence, kernels.stateless_sequence):
        whole = first(sequence, seed, n)
        moving = cursor(sequence, seed)
        parts = np.concatenate([sequence(moving, cut), sequence(moving, n - cut)])
        assert parts.dtype == np.uint32
        assert parts.tolist() == whole.tolist()
        assert moving.position == n
        assert first(sequence, seed, n - cut, cut).tolist() == whole[cut:].tolist()


@settings(max_examples=40, deadline=None)
@given(words32, st.integers(0, 1 << 62), st.one_of(st.integers(1, 300), st.integers(2 * LANES, 3 * LANES)))
def test_feedback_sequence_start_equals_jump(seed, start, n):
    assert first(kernels.feedback_sequence, seed, n, start).tolist() == \
        feedback_reference(xorshift_jump(seed, start), n)


SEQUENCES = [kernels.feedback_sequence, kernels.stateless_sequence]


def carried(sequence, seed: int, count: int, chunk: int) -> np.ndarray:
    """count words of sequence made chunk at a time, as `rolls` makes them:
    each chunk after the first goes on from the heads the one before left
    in the cursor."""
    moving = cursor(sequence, seed)
    return np.concatenate([sequence(moving, min(chunk, count - start)) for start in range(0, count, chunk)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, kernels.MASK32), st.one_of(st.integers(2**4, 2**10), st.integers(2 * LANES, 5 * LANES)),
       st.integers(3, 5), st.integers(0, 5 * LANES))
@example(1, 2**4, 3, 0)
@example(1, 2**10, 3, 2**10 - 2)
@example(0xDEADBEEF, 4 * LANES, 3, 3 * LANES)  # lanes of stride 4, kept by a short chunk of 3 * LANES + 1
def test_carried_chunks_equal_one_call(seed, chunk, seams, cut):
    # at least three seams, then a short last chunk of 1 to chunk - 1 words;
    # from 2 * LANES words on the feedback chunks are lanes, and the short
    # one keeps the stride of the chunks before; below LANES words the
    # stateless heads are fewer than LANES
    count = seams * chunk + 1 + cut % (chunk - 1)
    for sequence in SEQUENCES:
        words = carried(sequence, seed, count, chunk)
        assert words.dtype == np.uint32
        assert np.array_equal(words, first(sequence, seed, count)), sequence.__name__


def test_carried_chunks_build_only_the_first_orbit(monkeypatch):
    # every feedback chunk after the first jumps the lane heads the cursor holds
    orbits = []
    orbit = kernels._orbit
    monkeypatch.setattr(kernels, "_orbit", lambda *args: orbits.append(args[1]) or orbit(*args))
    words = carried(kernels.feedback_sequence, 9, 8 * LANES + 5, 2 * LANES)
    assert len(orbits) == 1
    assert np.array_equal(words, first(kernels.feedback_sequence, 9, 8 * LANES + 5))


def test_carried_lcg_heads_are_doubled_from(monkeypatch):
    # only the first stateless chunk doubles from one state; each chunk
    # after it doubles from the LANES states the cursor moved on from the
    # chunk before
    heads = []
    orbit = kernels._orbit
    monkeypatch.setattr(kernels, "_orbit", lambda *args: heads.append(len(args[0])) or orbit(*args))
    words = carried(kernels.stateless_sequence, 9, 8 * LANES + 5, 2 * LANES)
    assert heads == [1] + [LANES] * 5
    assert np.array_equal(words, first(kernels.stateless_sequence, 9, 8 * LANES + 5))


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_carried_chunks_may_grow(sequence):
    # a chunk longer than the one before goes on from fewer heads than it
    # needs: doubling from them (stateless) or an orbit from the first (feedback)
    moving = cursor(sequence, 7)
    lengths = [5, 100, 3_000, 3 * LANES, 9 * LANES]
    words = np.concatenate([sequence(moving, n) for n in lengths])
    assert np.array_equal(words, first(sequence, 7, sum(lengths)))


@pytest.mark.parametrize("sequence", SEQUENCES)
@pytest.mark.parametrize("starts", [(0, 0), (0, 3 * LANES), (2 * LANES, 0), (0, 2 * LANES, 5 * LANES)])
def test_carried_heads_serve_only_the_chunk_that_follows(sequence, starts):
    # a cursor goes on only where its last chunk ended; a chunk asked for
    # again, skipped ahead or back comes from a cursor made at its start
    whole = first(sequence, 9, 8 * LANES)
    moving = None
    for start in starts:
        if moving is None or moving.position != start:
            moving = cursor(sequence, 9, start)
        words = sequence(moving, 2 * LANES)
        assert np.array_equal(words, whole[start:start + 2 * LANES]), start
        assert moving.position == start + 2 * LANES


@pytest.mark.parametrize("sequence", SEQUENCES)
@pytest.mark.parametrize("n", [LANES, 2 * LANES])
def test_carried_heads_are_not_the_returned_words(sequence, n):
    # a caller may change the words it got in place; below 2 * LANES the
    # feedback words are a view of the lanes
    moving = cursor(sequence, 3)
    sequence(moving, n)[:] = 0
    assert np.array_equal(sequence(moving, n), first(sequence, 3, n, n))


@pytest.mark.parametrize("sequence, other", [(kernels.feedback_sequence, STATELESS),
                                             (kernels.stateless_sequence, FEEDBACK)])
def test_cursor_of_the_other_mode_is_refused(sequence, other):
    with pytest.raises(ValueError, match="cursor cannot make"):
        sequence(kernels.Cursor(other, 5), 10)
    with pytest.raises(ValueError, match="cursor cannot make"):
        sequence(kernels.Cursor("lcg", 5), 10)


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
    assert first(kernels.stateless_sequence, seed, n, start).tolist() == want


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
    assert kernels.format_rolls(words, sides) == roll_lines(words, sides).encode("ascii")


@pytest.mark.parametrize("sides", [0, 1000])
def test_format_rolls_needs_faces_that_fit_a_word(sides):
    with pytest.raises(ValueError, match="no line table"):
        kernels.format_rolls(np.arange(4, dtype=np.uint32), sides)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 6, 20, 100)), st.data())
def test_count_rolls_equals_per_line_reference(sides, data):
    # a bare CR, a byte above 0x7F and a NUL have low nibbles that read as
    # a digit (0xD, 0x9 of 0xE9 and 0x0), so only the byte check sees them
    odd = [b"", b"0", b"00", b"007", b"0100", b"1000", b"12345", str(sides + 1).encode(), b" 3", b"4\r", b"x",
           b"-1", b"+2", b"\r", b"1\r", b"\xe9", b"1\xe9", b"\x00", b"1\x00", b"\x001"]
    lines = data.draw(st.lists(st.integers(1, sides).map(lambda v: str(v).encode()), max_size=200))
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(odd)))
    block = b"".join(line + b"\n" for line in lines)
    if data.draw(st.booleans()):
        block = block.removesuffix(b"\n")  # no final LF
    assert kernels.count_rolls(block, sides) == count_reference(block, sides)


@pytest.mark.parametrize("sides, line", [(20, "1001"), (20, "2012"), (20, "0006"), (100, "1100"), (100, "0100"),
                                         (100, "\x0012"), (20, "1\x00"), (20, "\x85"), (100, "\r"), (20, "1\r"),
                                         (20, "1:5")])
@pytest.mark.parametrize("where", ["{}\n", "{}\n5\n", "5\n{}\n", "5\n{}\n7\n"])
def test_count_rolls_rejects_four_digits_that_end_in_a_roll(sides, line, where):
    # the window over a line's last three bytes sees an in-range roll, so
    # only the keys of the digits before its LF reject the line; a NUL, the
    # UTF-8 of U+0085 (0xC2 0x85) and a colon have the low nibble of a digit
    # or of a LF, so only the byte check rejects them, and a CR's is 0xD
    block = where.format(line).encode()
    assert count_reference(block, sides) is None
    assert kernels.count_rolls(block, sides) is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(SUPPORTED_DICE), st.integers(1, 999)), st.data())
def test_count_rolls_counts_every_block_of_bare_rolls(sides, data):
    # every block of 1- to 3-digit lines of rolls in 1..sides, leading
    # zeros included, is counted here: none falls to the per-line path
    rolls = data.draw(st.lists(st.integers(1, sides), min_size=1, max_size=300))
    widths = data.draw(st.lists(st.integers(0, 2), min_size=len(rolls), max_size=len(rolls)))
    block = b"".join(b"%0*d\n" % (max(len(str(roll)), width + 1), roll) for roll, width in zip(rolls, widths))
    assert kernels.count_rolls(block, sides) == [rolls.count(face) for face in range(1, sides + 1)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 20), st.integers(90, 110), st.integers(999_990, 1_000_010),
                 st.integers(0, 10**12)),
       st.integers(0, 30), st.sampled_from((0, 1, 214_748_364, 2**64 // 3)))
def test_format_faces_equals_per_face_format(low, length, count):
    # runs that cross the 9/10, 99/100 and 999 999/1 000 000 widths, and empty ones
    for high in (low + length, low - length):
        assert stats.format_faces(low, high, count) == face_lines((n, count) for n in range(low, high))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((10_000, 100_000, 1_000_000)), st.integers(201, 1_000), st.data(),
       st.sampled_from((0, 1, 2**64 // 3)))
def test_format_faces_joins_whole_blocks_across_a_width(width_edge, length, data, count):
    # runs of more than two 100-face blocks that start and end inside a
    # block and cross a digit width, so whole blocks are joined on each side
    low = width_edge - data.draw(st.integers(1, length - 1))
    assume(low % 100 and (low + length) % 100)
    assert stats.format_faces(low, low + length, count) == \
        face_lines((n, count) for n in range(low, low + length))
