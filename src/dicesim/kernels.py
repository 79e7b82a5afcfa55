"""Bulk generator kernels in numpy: jump-ahead, and sequences by doubling and by lanes.

The xorshift transform T (`prng.xorshift_step`) is linear over GF(2), so k
steps are one 32x32 bit matrix T**k (Haramoto, Matsumoto, L'Ecuyer et al.
2008, "Efficient jump ahead for F2-linear random number generators"). `prng`
builds and caches the byte lookup tables of T**(2**i), each one uint32
buffer; here each level's buffer is viewed in place as a flat array, and
`prng.apply_tables` maps a whole uint32 array through it in one pass. The
device's own register jumps one HZ10 period per tick through the tables of
`device.TICK_JUMP` and never reaches this module. Element-wise steps and inverses of arrays call
`prng.xorshift_step` and `prng.xorshift_inverse` themselves.

The synthetic ADC source is an LCG (`prng.lcg_step`, which `SyntheticAdc`
steps too), affine mod 2**32, so it jumps the same way, by the cached
`(mult, inc)` of 2**i steps that `prng.lcg_power` builds and `prng.lcg_jump`
applies to one word (Brown 1994, "Random number generation with arbitrary
strides").

A sequence is filled by doubling: its first word is reached by one jump per
set bit of its position in the stream, then the jump by 2**i maps the 2**i
words made so far onto the next 2**i. A long feedback sequence is filled
as lanes of stride 2**m instead: the first word of each lane comes from
the orbit of the jump by 2**m, whose levels are the cached tables of
T**(2**(i + m)), and each later word of a lane is one step of the word
before, one `prng.xorshift_step` per row of lanes. The stateless sequence
keeps plain doubling: its jump by 2**i, one multiply and one add, costs no
more than a step, so lanes would add work there.

A `Cursor` says where a stream goes on, so a long sequence is made a chunk
at a time: its position and its heads, the generator's states there (the
feedback lane heads at their stride, or the first LCG states). Made at a
position, it jumps its seed there once, to one head. Each call makes the
next n words from the heads, doubling from them while they are too few,
and leaves them to the next call, which first moves them on by those n
words: the lane heads by one jump at their stride, the LCG states in place
by one multiply and one add (`_lcg_move`). The heads are at most 2 * LANES
words, 32 KiB, in an array of their own, so a chunk's words are freed with
the chunk.

The text of a rolls CSV is made and read here too, a block at a time with
no Python step per roll: `format_rolls` gathers each face's line from a
table of the die's lines, and `count_rolls` keys every byte of a block by
the low nibbles of the three bytes before it, so that a LF's key is its
line's last three bytes; one `bincount` counts the keys, and a table maps
those of the LFs to faces.
"""

from __future__ import annotations

import functools

import numpy as np

from .prng import (
    FEEDBACK,
    MASK32,
    STATELESS,
    apply_tables,
    jump_tables,
    lcg_jump,
    lcg_power,
    power_tables,
    xorshift_jump,
    xorshift_step,
)

LANES = 4_096  # the fewest lanes a feedback sequence of 2 * LANES words or more is filled as


# ======================================================================
#  jumps by 2**i steps of a uint32 array
# ======================================================================

@functools.cache
def _tables(i: int) -> np.ndarray:
    """`prng`'s tables of T**(2**i) as a read-only flat uint32 array, not copied."""
    tables = np.frombuffer(power_tables(i), dtype=np.uint32)
    tables.flags.writeable = False
    return tables


def _xorshift_jump(i: int, x: np.ndarray) -> np.ndarray:
    return apply_tables(_tables(i), x)


def _lcg_jump(i: int, x: np.ndarray) -> np.ndarray:
    mult, inc = lcg_power(i)
    return x * np.uint32(mult) + np.uint32(inc)


def _lcg_move(states: np.ndarray, steps: int) -> None:
    """Move LCG states on in place by steps steps, one multiply and one add:
    the affine map's image of 0 is inc, and of 1 is mult + inc."""
    inc = lcg_jump(0, steps)
    states *= np.uint32(lcg_jump(1, steps) - inc & MASK32)
    states += np.uint32(inc)


def _orbit(head, n: int, jump) -> np.ndarray:
    """The first n states of the orbit that head begins, as uint32.

    head holds its first 2**k states (k >= 0), and jump(i, x) applies
    f**(2**i) to a uint32 array: once the first 2**i states are made, one
    jump by 2**i makes the next 2**i from them.
    """
    out = np.empty(n, dtype=np.uint32)
    made = min(n, len(head))
    out[:made] = head[:made]
    i = made.bit_length() - 1
    while made < n:
        more = min(made, n - made)
        out[made:made + more] = jump(i, out[:more])
        made, i = made + more, i + 1
    return out


class Cursor:
    """Where one generator's stream goes on: position, the index of its next
    word, and heads, the generator's states behind words before it, from
    which the call before made its words.

    A feedback cursor's heads are xorshift outputs stride words apart, one
    per lane; a stateless cursor's are consecutive LCG states. The next call
    moves them on by behind words and makes its own words from them. A
    cursor made at a position jumps its seed there once, to one head.
    """

    __slots__ = ("mode", "position", "heads", "stride", "behind")

    def __init__(self, mode: str, seed: int, position: int = 0) -> None:
        seed, position = int(seed), int(position)
        head = xorshift_jump(seed, position + 1) if mode == FEEDBACK else lcg_jump(seed, position)
        self.mode, self.position, self.stride, self.behind = mode, position, 1, 0
        self.heads = np.array([head], dtype=np.uint32)


def _check_mode(cursor: Cursor, mode: str) -> None:
    if cursor.mode != mode:
        raise ValueError(f"a {cursor.mode} cursor cannot make {mode} words")


# ======================================================================
#  public kernels
# ======================================================================

def feedback_sequence(cursor: Cursor, n: int) -> np.ndarray:
    """The next n outputs of the free-running xorshift from cursor, which
    moves on past them.

    The outputs are filled as lanes: row 0, the first output of each lane,
    is the cursor's heads jumped once to its position, and each row after it
    is one step of the row before. When the heads have too few lanes for n
    outputs, row 0 is made anew from the first head, at the largest stride
    2**m that leaves at least LANES lanes, as the orbit of the jump by 2**m.
    Below 2 * LANES outputs that stride is 1, so the orbit is the whole
    sequence. The cursor keeps a copy of row 0.
    """
    n = int(n)
    _check_mode(cursor, FEEDBACK)
    heads, stride, behind = cursor.heads, cursor.stride, cursor.behind
    if len(heads) * stride < n:
        m = max(0, (n // LANES).bit_length() - 1)
        stride = 1 << m
        first = jump_tables(_tables, heads[:1], behind)
        heads, behind = _orbit(first, -(-n // stride), lambda i, x: _xorshift_jump(i + m, x)), 0
    rows = np.empty((stride, max(1, -(-n // stride))), dtype=np.uint32)  # a lane at least: the cursor keeps row 0
    row = rows[0] = jump_tables(_tables, heads[:rows.shape[1]], behind)
    cursor.heads, cursor.stride, cursor.behind = rows[0].copy(), stride, n
    cursor.position += n
    for t in range(1, stride):
        row = rows[t] = xorshift_step(row)  # it changes its argument, of which rows[t - 1] is a copy
    return rows.T.reshape(-1)[:n]


def stateless_sequence(cursor: Cursor, n: int) -> np.ndarray:
    """The next n outputs of the as-built pipeline fed by the synthetic LCG
    source from cursor, which moves on past them.

    Each step shifts the top 16 bits of the next LCG state into the seed
    register (which starts at 0) and outputs the xorshift of the register,
    so output k's register is the top halves of LCG states k and k + 1.
    The states are doubled from the cursor's heads, moved on in place, and
    first doubled to the largest power of two up to n + 1 and LANES if
    fewer; the cursor keeps them. They are made before the rest of the
    states, so the chunk's larger arrays are freed around them, not under
    them.
    """
    n = int(n)
    _check_mode(cursor, STATELESS)
    heads = cursor.heads
    if cursor.behind:
        _lcg_move(heads, cursor.behind)
    want = min(LANES, 1 << (n + 1).bit_length() - 1)
    if len(heads) < want:
        heads = cursor.heads = _orbit(heads, want, _lcg_jump)
    states = _orbit(heads, n + 1, _lcg_jump)
    if cursor.position == 0:
        states[0] = 0  # the register's first high half is its reset value
    cursor.behind = n
    cursor.position += n
    register = states[:-1] & np.uint32(0xFFFF0000)
    register |= states[1:] >> np.uint32(16)
    del states  # free the states before the transform's temporaries
    return xorshift_step(register)


# ======================================================================
#  rolls CSV text
# ======================================================================

_MAX_LINE = 4  # bytes of the widest line, three digits and a LF


@functools.cache
def _line_table(sides: int) -> np.ndarray:
    """The lines "1\n" .. f"{sides}\n", each one uint16 word when every
    line is two bytes (d1 to d9), else NUL-padded to one uint32 word."""
    if sides < 1 or len(f"{sides}\n") > _MAX_LINE:
        raise ValueError(f"no line table for a d{sides}: faces must fit {_MAX_LINE - 1} digits")
    width = 2 if sides < 10 else _MAX_LINE
    text = b"".join(f"{face}\n".encode().ljust(width, b"\0") for face in range(1, sides + 1))
    return np.frombuffer(text, dtype=np.uint16 if width == 2 else np.uint32)  # read-only: it views the bytes


def format_rolls(words, sides: int) -> bytes:
    """The rolls CSV lines of words as ASCII bytes: face (word mod sides)
    + 1, one per line. The remainder is taken as words - (words // sides)
    * sides: numpy's floor_divide of uint32 by a scalar uses a precomputed
    divisor (libdivide), and its remainder does not, so the three passes
    beat the one. Two-byte lines are gathered whole; wider ones are
    gathered NUL-padded in place, and the NULs stripped."""
    table = _line_table(sides)
    words = np.asarray(words, dtype=np.uint32)
    divisor = np.uint32(sides)
    faces = words // divisor
    faces *= divisor
    np.subtract(words, faces, out=faces)
    if table.dtype == np.uint16:
        return table.take(faces, mode="clip").tobytes()
    table.take(faces, out=faces, mode="clip")  # in place: every index is below sides, and "raise" would buffer
    return faces.tobytes().translate(None, b"\0")


@functools.cache
def _window_faces() -> np.ndarray:
    """Face value of each window key, whose hex digits 0xHTO are the low
    nibbles of a line's last three bytes before its LF: a digit's value, or
    0xA for a LF. A key no line of 1 to 3 digits makes is 0, not a face.
    Built on first use, so the commands that count no rolls never pay for it."""
    key = np.arange(16 ** 3)
    hundreds, tens, ones = key >> 8, key >> 4 & 0xF, key & 0xF
    value = np.where(hundreds == 0xA, 0, 100 * hundreds) + 10 * tens + ones
    value = np.where(tens == 0xA, ones, value)  # a 1-digit line, whatever byte comes before it
    return np.where((hundreds > 0xA) | (tens > 0xA) | (ones > 9), 0, value)


def count_rolls(block: bytes, sides: int) -> list[int] | None:
    """Counts of faces 1..sides in block, when every line of it ends at a LF
    and is 1 to 3 ASCII digits of a value in 1..sides; else None.

    No line end is looked for. Each byte gets a key: the low nibbles of the
    three bytes before it (three LFs are put ahead) as 0xHTO, plus 16**3
    when the byte is a digit. One bincount counts every key. A LF's key is
    its line's window, which `_window_faces` maps to a face, or to 0 for a
    line that is empty or is not a roll; a digit's key whose three nibbles
    are digits too ends four digits in a row.
    """
    if not block.endswith(b"\n"):
        return None
    text = np.frombuffer(b"\n\n\n" + block, dtype=np.uint8)
    digit = np.less(text - np.uint8(0x30), 10).view(np.uint8)
    if np.count_nonzero(digit) + np.count_nonzero(text == 0x0A) != len(text):
        return None  # a byte that is neither a digit nor a LF
    # numpy shifts uint8 arrays with no SIMD loop, so nibbles are placed by
    # multiplies: pairs[i] holds those of bytes i and i + 1, and high[i]
    # that of byte i, plus 0x10 when byte i + 3 is a digit; the key of byte
    # i + 3 is high[i] * 256 + pairs[i + 1]
    nibbles = text & np.uint8(0x0F)
    pairs = nibbles[:-1] * np.uint8(16)
    pairs |= nibbles[1:]
    high = digit[3:] * np.uint8(16)
    high |= nibbles[:-3]
    keys = high.astype(np.uint16)
    keys *= np.uint16(256)
    keys |= pairs[1:-1]
    counts = np.bincount(keys, minlength=2 * 16 ** 3)
    if counts[16 ** 3:].reshape(16, 16, 16)[:10, :10, :10].any():
        return None
    faces = np.zeros(1_000, dtype=np.int64)  # every value of 1 to 3 digits
    np.add.at(faces, _window_faces(), counts[:16 ** 3])
    if faces[0] or faces[sides + 1:].any():
        return None
    return faces[1:sides + 1].tolist()
