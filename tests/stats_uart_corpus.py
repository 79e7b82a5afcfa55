"""The `stats` and `uart` byte contract as a committed corpus of cases.

Case i is one command, drawn from `random.Random(i)` alone:

- cases 0..191 run `stats --rolls` on a fuzzed rolls file, read as a d6, a
  d20 or a d100 in turn. The files have LF, CRLF or mixed line ends, a
  header or none, blank lines and blanks around values, leading zeros, bad
  lines and out-of-range rolls, a missing final line end, and 0 to 70 000
  lines; some are skewed, so the verdict fails. No line is longer than 4 300
  digits. Some cases set `--alpha` or write the histogram with `--out`;
- then `stats --bias D --bits B` for every D in BIAS_SIDES and B in
  BIAS_BITS, and the usage errors of `stats`;
- then `uart encode` of hex tokens, well formed or not, and `uart decode`
  of bit streams of frames with idle gaps, stop bits stomped, a frame cut
  off at the end, or a character that is not a bit.

`stats_uart_corpus.json` holds, per case, the sha256 of every file the
command writes, of its stdout and of its stderr, and its exit code. Each
case runs through `corpus_runner.run_main`.

    python tests/stats_uart_corpus.py    # check every case

checks every case against the digests and, for each one that differs,
prints its argv. tests/test_stats_uart_corpus.py checks a fixed slice. The
digest file and this check are those of tests/corpus_runner.py.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

if __name__ == "__main__":  # run as a script: use this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from corpus_runner import check_every_case, run_main  # noqa: E402

DIGESTS = Path(__file__).with_name("stats_uart_corpus.json")

ROLLS_CASES = 192
ROLLS_SIDES = (6, 20, 100)
BIAS_SIDES = (1, 9, 10, 20, 99, 100, 100_971, 1_000_003)
BIAS_BITS = (8, 32, 40, 64)
USAGE_ERRORS = (
    ("stats",),
    ("stats", "--bias", "0"),
    ("stats", "--bias", "-6"),
    ("stats", "--bias", "6", "--bits", "0"),
    ("stats", "--bias", "6", "--bits", "65"),
    ("stats", "--bias", "6", "--bits", "-1"),
    ("stats", "--rolls", "TMP/rolls.csv"),
    ("stats", "--sides", "6"),
    ("stats", "--rolls", "TMP/rolls.csv", "--sides", "1"),
    ("stats", "--rolls", "TMP/rolls.csv", "--sides", "101"),
    ("stats", "--rolls", "TMP/missing.csv", "--sides", "6"),
)
UART_CASES = 96  # encode, then decode
BIAS_START = ROLLS_CASES
USAGE_START = BIAS_START + len(BIAS_SIDES) * len(BIAS_BITS)
UART_START = USAGE_START + len(USAGE_ERRORS)
CASES = UART_START + UART_CASES

# lines no roll grammar accepts, and lines of bytes that are not UTF-8
_BAD_LINES = (b"x", b"1_0", b"+3", "٣".encode("utf-8"), b"3.0", b"1 2", b"0x5", b"\xe9", b"5\xa0", b"roll")


@dataclass(frozen=True)
class Case:
    index: int
    argv: tuple[str, ...]
    inputs: dict = field(default_factory=dict)   # file name -> bytes, written before the run


def _rolls_file(rng: random.Random, sides: int) -> bytes:
    """A rolls file, mostly of faces of the die it is read as."""
    size = rng.choice((0, 1, rng.randrange(2, 200), *(rng.randrange(10 * sides, 5_000) for _ in range(3)),
                       rng.randrange(20_000, 70_001)))
    die = sides if rng.random() < 0.9 else rng.choice(ROLLS_SIDES)
    skewed = rng.random() < 0.2
    lines = []
    for _ in range(size):
        face = rng.randrange(1, die + 1)
        if skewed:
            face = min(face, rng.randrange(1, die + 1))
        lines.append(b"%d" % face)
    for _ in range(rng.choice((0, 0, 1, 3)) if lines else 0):  # leading zeros, blanks and tabs around a value
        k = rng.randrange(len(lines))
        zeros = b"0" * rng.choice((1, 2, 300))
        lines[k] = rng.choice((b"", b" ", b"\t")) + zeros + lines[k] + rng.choice((b"", b" ", b"\t "))
    for _ in range(rng.choice((0, 0, 1, 4))):  # blank lines
        lines.insert(rng.randrange(len(lines) + 1), rng.choice((b"", b" ", b"\t", b" \t ")))
    if rng.random() < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_BAD_LINES))
    if rng.random() < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), b"%d" % rng.choice((0, -1, sides + 1, 1000)))
    if rng.random() < 0.5:
        lines.insert(0, rng.choice((b"roll", b"face value", b"#rolls", b"\xe9t\xe9")))
    ends = rng.choice(("LF", "CRLF", "mixed"))
    text = b"".join(line + (b"\r\n" if ends == "CRLF" or (ends == "mixed" and rng.random() < 0.5) else b"\n")
                    for line in lines)
    if lines and rng.random() < 0.3:  # no final line end
        text = text.removesuffix(b"\n").removesuffix(b"\r")
    return text


def _hex_token(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.5:  # one byte, in one or two digits, with or without 0x
        token = rng.choice(("", "0x")) + f"{rng.randrange(256):0{rng.choice((1, 2))}x}"
    elif kind < 0.75:
        token = bytes(rng.randrange(256) for _ in range(rng.randrange(2, 6))).hex()
    elif kind < 0.9:
        token = rng.choice(("0X0a", "0x", "abc", "zz", "1g", "", "0x123", "0x0x1"))
    else:  # odd length
        token = bytes(rng.randrange(256) for _ in range(rng.randrange(2, 4))).hex()[:-1]
    return token.upper() if rng.random() < 0.2 else token


def _bit_stream(rng: random.Random) -> list[str]:
    """A bit stream as one or more argv tokens."""
    bits = "1" * rng.randrange(4)
    for _ in range(rng.randrange(6)):
        byte = rng.randrange(256)
        frame = "0" + "".join(str((byte >> k) & 1) for k in range(8)) + "1"
        if rng.random() < 0.15:
            frame = frame[:9] + "0"  # the stop bit stomped
        bits += frame + "1" * rng.choice((0, 0, 1, 3))
    if rng.random() < 0.15:
        bits += "0" + "".join(rng.choice("01") for _ in range(rng.randrange(8)))  # cut off
    if rng.random() < 0.1:
        at = rng.randrange(len(bits) + 1)
        bits = bits[:at] + rng.choice("2a ") + bits[at:]
    if not bits:
        bits = "1"
    cuts = sorted(rng.randrange(len(bits) + 1) for _ in range(rng.choice((0, 0, 2))))
    return [bits[a:b] for a, b in zip([0] + cuts, cuts + [len(bits)]) if a < b] or [bits]


def make_case(index: int) -> Case:
    rng = random.Random(index)
    if index < BIAS_START:
        sides = ROLLS_SIDES[index % len(ROLLS_SIDES)]
        argv = ["stats", "--rolls", "TMP/rolls.csv", "--sides", str(sides)]
        if rng.random() < 0.3:
            argv += ["--alpha", rng.choice(("0.05", "0.01", "0.001"))]
        if rng.random() < 0.5:
            argv += ["--out", "TMP/hist.csv"]
        return Case(index, tuple(argv), {"rolls.csv": _rolls_file(rng, sides)})
    if index < USAGE_START:
        sides, bits = divmod(index - BIAS_START, len(BIAS_BITS))
        return Case(index, ("stats", "--bias", str(BIAS_SIDES[sides]), "--bits", str(BIAS_BITS[bits])))
    if index < UART_START:
        return Case(index, USAGE_ERRORS[index - USAGE_START], {"rolls.csv": b"roll\n1\n2\n"})
    if index < UART_START + UART_CASES // 2:
        return Case(index, ("uart", "encode", *(_hex_token(rng) for _ in range(rng.randrange(1, 6)))))
    return Case(index, ("uart", "decode", *_bit_stream(rng)))


def run_case(case: Case) -> dict:
    return run_main(case.argv, case.inputs)


def describe(case: Case) -> str:
    """The case's argv and the size of its rolls file, enough to find it again."""
    inputs = "".join(f" ({name}: {len(data)} bytes)" for name, data in case.inputs.items())
    return f"case {case.index}: dicesim {' '.join(case.argv)}{inputs}"


if __name__ == "__main__":
    sys.exit(check_every_case(sys.modules[__name__], "stats and uart"))
