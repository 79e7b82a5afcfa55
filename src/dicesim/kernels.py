"""Bulk generator kernels in numpy: jump-ahead and sequences by doubling.

The xorshift transform T (`prng.xorshift_step`) is linear over GF(2), so k
steps are one 32x32 bit matrix T**k (Haramoto, Matsumoto, L'Ecuyer et al.
2008, "Efficient jump ahead for F2-linear random number generators"). `prng`
builds and caches the byte lookup tables of T**(2**i), each one uint32
buffer; here each level's buffer is viewed in place as a flat array, and
`prng.apply_tables` maps a whole uint32 array through it in one pass. The
device's own register jumps one HZ10 period per tick in `prng` and never
reaches this module. Element-wise steps and inverses of arrays call
`prng.xorshift_step` and `prng.xorshift_inverse` themselves.

The synthetic ADC source is an LCG (`prng.lcg_step`, which `SyntheticAdc`
steps too), affine mod 2**32, so it jumps the same way, by the cached
`(mult, inc)` of 2**i steps that `prng.lcg_power` builds and `prng.lcg_jump`
applies to one word (Brown 1994, "Random number generation with arbitrary
strides").

A sequence is filled by doubling: its first word is reached by one jump per
set bit of its offset in the stream, then the jump by 2**i maps the 2**i
words made so far onto the next 2**i. A sequence may begin `start` words
into the stream, so a long one is made a chunk at a time, each chunk
continuing where the one before stopped.

The text of a rolls CSV is made and read here too, a block at a time with
no Python step per roll: `format_rolls` gathers each face's line from a
table of NUL-padded uint32 words, and `count_rolls` counts a block of bare
1- to 3-digit lines by digit arithmetic at its LFs. The face lines of a
bias report are written the same way: `format_faces` fills the digit
columns of a run of faces one place at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .prng import MASK32, apply_tables, lcg_power, power_tables, xorshift_step


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
    skipping its first start outputs."""
    return _orbit(int(seed), int(n), _xorshift_jump, int(start) + 1)


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
    """The rolls CSV lines of words: face (word mod sides) + 1, one per line."""
    table = _line_table(sides)
    faces = np.asarray(words, dtype=np.uint32) % np.uint32(sides)
    return table[faces].tobytes().translate(None, b"\0").decode("ascii")


@functools.cache
def _place_values() -> np.ndarray:
    """Value of a digit byte at each of a line's last three places, by
    [place, byte]; any other byte (the LF) is 0. Built on first use, so
    the commands that count no rolls never pay for it."""
    table = np.zeros((3, 256), dtype=np.int32)
    table[:, _DIGITS[0]:_DIGITS[-1] + 1] = np.outer((1, 10, 100), np.arange(10))
    return table


def count_rolls(block: bytes, sides: int) -> list[int] | None:
    """Counts of faces 1..sides in block, when every line of it ends at a LF
    and is 1 to 3 ASCII digits of a value in 1..sides; else None."""
    if not block.endswith(b"\n") or block.translate(None, _DIGITS + b"\n"):
        return None
    # two LFs ahead: every line's last three places lie in the array, and
    # the place before a line's digits is a LF, which counts as 0
    text = np.frombuffer(b"\n\n" + block, dtype=np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    length = np.diff(ends)[1:] - 1
    ends = ends[2:]
    if length.min() < 1 or length.max() > 3:
        return None
    place = _place_values()
    value = (place[0, text[ends - 1]] + place[1, text[ends - 2]]
             + np.where(length == 3, place[2, text[ends - 3]], 0))
    if value.min() < 1 or value.max() > sides:
        return None
    return np.bincount(value, minlength=sides + 1)[1:].tolist()


# ======================================================================
#  bias report text
# ======================================================================

_FACE = np.frombuffer(b"face ", dtype=np.uint8)


def format_faces(low: int, high: int, count: int) -> str:
    """The bias report lines f"face {n},{count}\\n" for n in low..high-1,
    low >= 0. Each run of faces of one digit width is an array of lines
    whose digit columns are filled one place at a time."""
    suffix = np.frombuffer(f",{count}\n".encode("ascii"), dtype=np.uint8)
    runs = []
    while low < high:
        width = len(str(low))
        end = min(high, 10 ** width)
        lines = np.empty((end - low, _FACE.size + width + suffix.size), dtype=np.uint8)
        lines[:, :_FACE.size] = _FACE
        lines[:, _FACE.size + width:] = suffix
        faces = np.arange(low, end, dtype=np.int64)
        for place in range(_FACE.size + width - 1, _FACE.size - 1, -1):
            faces, digit = np.divmod(faces, 10)
            lines[:, place] = digit + _DIGITS[0]
        runs.append(lines.tobytes())
        low = end
    return b"".join(runs).decode("ascii")
