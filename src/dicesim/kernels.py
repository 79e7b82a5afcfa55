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
set bit of its offset in the stream, then the jump by 2**i maps the 2**i
words made so far onto the next 2**i. A long feedback sequence is filled
as lanes of stride 2**m instead: the first word of each lane comes from
the orbit of the jump by 2**m, whose levels are the cached tables of
T**(2**(i + m)), and each later word of a lane is one step of the word
before, one `prng.xorshift_step` per row of lanes. The stateless sequence
keeps plain doubling: its jump by 2**i, one multiply and one add, costs no
more than a step, so lanes would add work there. A sequence may begin
`start` words into the stream, so a long one is made a chunk at a time,
each chunk continuing where the one before stopped.

The text of a rolls CSV is made and read here too, a block at a time with
no Python step per roll: `format_rolls` gathers each face's line from a
table of NUL-padded uint32 words, and `count_rolls` reads each line of a
block of bare 1- to 3-digit lines as one window, the little-endian word of
its last three bytes and its LF, whose digits' low nibbles make a 12-bit
key; it counts the keys with one `bincount` and maps them to faces through
a table. The face lines of a bias report are joins in plain Python:
`format_faces` makes each block of 100 faces that share their leading
digits with one `str.join` over 101 pieces fixed by the count.
"""

from __future__ import annotations

import functools

import numpy as np

from .prng import MASK32, apply_tables, lcg_power, power_tables, xorshift_jump, xorshift_step

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


def _orbit(first: int, n: int, jump, start: int) -> np.ndarray:
    """The n states f**start(first) .. f**(start+n-1)(first), as uint32.

    jump(i, x) applies f**(2**i) to a uint32 array. Once the first 2**i
    states are made, one jump by 2**i makes the next 2**i from them.
    """
    out = np.empty(n, dtype=np.uint32)
    out[:1] = first & MASK32
    for i in range(start.bit_length()):
        if start >> i & 1:
            out[:1] = jump(i, out[:1])
    made, i = min(n, 1), 0
    while made < n:
        more = min(made, n - made)
        out[made:made + more] = jump(i, out[:more])
        made, i = made + more, i + 1
    return out


# ======================================================================
#  public kernels
# ======================================================================

def feedback_sequence(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n successive outputs of the free-running xorshift from seed, after
    skipping its first start outputs.

    The outputs are filled as lanes of stride 2**m, the largest stride that
    leaves at least LANES lanes: row 0, the first output of each lane, is
    the orbit of the jump by 2**m, and each row after it is one step of the
    row before. Below 2 * LANES outputs the stride is 1, so the orbit is the
    whole sequence.
    """
    n = int(n)
    m = max(0, (n // LANES).bit_length() - 1)
    stride = 1 << m
    rows = np.empty((stride, -(-n // stride)), dtype=np.uint32)
    row = rows[0] = _orbit(xorshift_jump(int(seed), int(start) + 1), rows.shape[1],
                           lambda i, x: _xorshift_jump(i + m, x), 0)
    for t in range(1, stride):
        row = rows[t] = xorshift_step(row)  # it changes its argument, of which rows[t - 1] is a copy
    return rows.T.reshape(-1)[:n]


def stateless_sequence(lcg_seed: int, n: int, start: int = 0) -> np.ndarray:
    """n outputs of the as-built pipeline fed by the synthetic LCG source,
    after skipping its first start outputs.

    Each step shifts the top 16 bits of the next LCG state into the seed
    register (which starts at 0) and outputs the xorshift of the register,
    so output k's register is the top halves of LCG states k and k + 1.
    """
    start = int(start)
    states = _orbit(int(lcg_seed), int(n) + 1, _lcg_jump, start)
    if start == 0:
        states[0] = 0  # the register's first high half is its reset value
    register = states[:-1] & np.uint32(0xFFFF0000)
    register |= states[1:] >> np.uint32(16)
    del states  # free the states before the transform's temporaries
    return xorshift_step(register)


# ======================================================================
#  rolls CSV text
# ======================================================================

_LINE_BYTES = np.dtype(np.uint32).itemsize
_DIGITS = b"0123456789"


@functools.cache
def _line_table(sides: int) -> np.ndarray:
    """The lines "1\n" .. f"{sides}\n", each NUL-padded to one uint32 word."""
    if sides < 1 or len(f"{sides}\n") > _LINE_BYTES:
        raise ValueError(f"no line table for a d{sides}: faces must fit {_LINE_BYTES - 1} digits")
    text = b"".join(f"{face}\n".encode().ljust(_LINE_BYTES, b"\0") for face in range(1, sides + 1))
    return np.frombuffer(text, dtype=np.uint32)  # read-only: it views the bytes


def format_rolls(words, sides: int) -> str:
    """The rolls CSV lines of words: face (word mod sides) + 1, one per line.
    The remainder is taken as words - (words // sides) * sides: numpy's
    floor_divide of uint32 by a scalar uses a precomputed divisor (libdivide),
    and its remainder does not, so the three passes beat the one."""
    table = _line_table(sides)
    words = np.asarray(words, dtype=np.uint32)
    divisor = np.uint32(sides)
    faces = words // divisor
    faces *= divisor
    np.subtract(words, faces, out=faces)
    return table.take(faces).tobytes().translate(None, b"\0").decode("ascii")


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
    and is 1 to 3 ASCII digits of a value in 1..sides; else None."""
    if not block.endswith(b"\n") or block.translate(None, _DIGITS + b"\n"):
        return None
    # three LFs ahead: every line has three bytes before its LF, and a
    # 1-digit line has a LF two bytes before its own
    text = b"\n\n\n" + block
    ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
    width = np.diff(ends[2:])  # each line's length and its LF
    if width.min() < 2 or width.max() > 4:
        return None
    # the little-endian word of each line's last three bytes and its LF;
    # times 0x10010010 its three low nibbles land in the top 12 bits, with no
    # two of the partial products sharing a bit
    windows = np.ndarray(len(text) - 3, dtype="<u4", buffer=text, strides=(1,))
    keys = windows.take(ends[3:] - 3) & np.uint32(0x0F0F0F)
    keys *= np.uint32(0x10010010)
    keys >>= np.uint32(20)
    faces = np.zeros(1_000, dtype=np.int64)  # every value of 1 to 3 digits
    np.add.at(faces, _window_faces(), np.bincount(keys, minlength=16 ** 3))
    if faces[0] or faces[sides + 1:].any():
        return None
    return faces[1:sides + 1].tolist()


# ======================================================================
#  bias report text
# ======================================================================

@functools.lru_cache(maxsize=2)  # a bias report's two counts
def _face_pieces(count: int) -> tuple[str, ...]:
    """The 101 pieces that str(b).join makes the 100 lines of faces
    100 * b .. 100 * b + 99 with count from, for b >= 1."""
    return ("face ", *(f"{last:02d},{count}\nface " for last in range(99)), f"99,{count}\n")


def format_faces(low: int, high: int, count: int) -> str:
    """The bias report lines f"face {n},{count}\\n" for n in low..high-1,
    low >= 0. Each whole block of 100 faces that share their leading digits
    is one join; the faces of a part of a block, or below 100, are
    formatted one by one."""
    pieces = _face_pieces(count)
    lines = []
    while low < high:
        block = low // 100
        end = min(high, 100 * block + 100)
        if block and low % 100 == 0 and end % 100 == 0:
            lines.append(str(block).join(pieces))
        else:
            lines.append("".join([f"face {n},{count}\n" for n in range(low, end)]))
        low = end
    return "".join(lines)
