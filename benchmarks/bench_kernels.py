"""Time the numpy generator kernels and check them against scalar loops.

    python benchmarks/bench_kernels.py [N]

Each kernel runs once untimed (the first call builds its cached jump
tables), then the best of REPEAT timed calls is printed. Before timing,
the first CHECK words of every sequence, and a long `prng.xorshift_jump`,
are compared with the scalar chains `feedback_reference` and
`stateless_reference` of tests/reference_board.py; `prng.xorshift_step`
and `prng.xorshift_inverse` of an array of CHECK words with the scalar step
and inverse of each word; and each sequence made a chunk at a time, as
`rolls` makes it, with one whole call. The array step and inverse are
timed beside the kernels, the step on a copy, since it updates its
argument in place.
The text kernels are compared with the per-line references of
tests/reference_board.py, `roll_lines` and `count_reference` on every
supported die, and the bias report's face lines with `face_lines`; then
one rolls chunk is
formatted, one read of a rolls file counted, and a ROLL_FILE_LINES-line
rolls file tallied as `stats --rolls` reads it, with LF and CRLF line ends
(a CRLF file is checked line by line). Last, one BIAS_FACES_PER_WRITE-face
write of a bias report is formatted, and the face lines of a whole
BIAS_SIDES-sided report as `stats --bias` writes them. The scalar jump
of one feedback-mode roll tick, which replay makes in `prng` without
numpy, is timed beside the kernels.
"""

import io
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from dicesim import cli, kernels  # noqa: E402
from dicesim.cli import BIAS_FACES_PER_WRITE, ROLL_BYTES_PER_READ, ROLLS_PER_CHUNK  # noqa: E402
from dicesim.device import SUPPORTED_DICE, TICK_STEPS  # noqa: E402
from dicesim.prng import xorshift_inverse, xorshift_jump, xorshift_step  # noqa: E402
from dicesim.stats import modulo_bias  # noqa: E402
from reference_board import (  # noqa: E402
    count_reference,
    face_lines,
    feedback_reference,
    roll_lines,
    stateless_reference,
)

N = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
REPEAT = 3
CHECK = 20_000
ROLL_FILE_LINES = 250_000  # the rolls file of one perfbench rolls_stats call
BIAS_SIDES = 100_500  # about the die of one perfbench rolls_stats bias call


def best_of(fn, *args):
    fn(*args)
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def check_against_scalar_chain():
    n = min(N, CHECK)
    feedback = feedback_reference(1, n)
    words = np.arange(1, n + 1, dtype=np.uint32)
    assert kernels.feedback_sequence(1, N)[:n].tolist() == feedback
    assert kernels.stateless_sequence(12345, N)[:n].tolist() == stateless_reference(12345, n)
    assert xorshift_step(words.copy()).tolist() == [xorshift_step(int(w)) for w in words]
    assert xorshift_inverse(words).tolist() == [xorshift_inverse(int(w)) for w in words]
    assert xorshift_jump(1, n) == feedback[-1]
    print(f"kernels match the scalar chain and the scalar inverse on the first {n} words")


def chunked(sequence, seed, n):
    """n words of sequence made ROLLS_PER_CHUNK at a time, each chunk continuing the last."""
    return np.concatenate([sequence(seed, min(ROLLS_PER_CHUNK, n - start), start=start)
                           for start in range(0, n, ROLLS_PER_CHUNK)])


def check_chunked_continuation():
    n = max(N, 2 * ROLLS_PER_CHUNK + 1)
    for sequence, seed in ((kernels.feedback_sequence, 1), (kernels.stateless_sequence, 12345)):
        assert np.array_equal(chunked(sequence, seed, n), sequence(seed, n))
    print(f"sequences made {ROLLS_PER_CHUNK} words at a time equal one whole call over {n} words")


def faces_reference(low, high, count):
    return face_lines((n, count) for n in range(low, high))


def report_reference(report):
    return face_lines((n, report.count(n)) for n in range(1, report.dice_sides + 1))


def reads(text):
    """text cut as `stats --rolls` reads it: ROLL_BYTES_PER_READ bytes completed to a line end."""
    fh = io.BytesIO(text)
    while block := fh.read(ROLL_BYTES_PER_READ):
        yield block + (b"" if block.endswith(b"\n") else fh.readline())


def check_text_kernels():
    words = kernels.feedback_sequence(1, ROLLS_PER_CHUNK)
    for sides in SUPPORTED_DICE:
        text = kernels.format_rolls(words, sides)
        assert text == roll_lines(words, sides), sides
        for block in reads(text.encode("ascii")):
            assert kernels.count_rolls(block, sides) == count_reference(block, sides), sides
    for low, high, count in ((1, 20_000, 7), (95, 1_005, 2**64 // 3), (99_950, 100_250, 5), (999_000, 1_001_000, 0)):
        assert kernels.format_faces(low, high, count) == faces_reference(low, high, count)
    report = modulo_bias(BIAS_SIDES)
    assert "".join(cli._bias_lines(report)) == report_reference(report)
    print(f"text kernels match the per-roll join, the per-line count and the per-face format on d{SUPPORTED_DICE}")


def rolls_file(line_end):
    faces = kernels.feedback_sequence(1, ROLL_FILE_LINES) % 20 + 1
    return ("roll" + line_end + line_end.join(map(str, faces.tolist())) + line_end).encode("ascii")


def main():
    check_against_scalar_chain()
    check_chunked_continuation()
    check_text_kernels()
    print(f"N = {N}")
    words = np.arange(1, N + 1, dtype=np.uint32)
    rows = [
        ("feedback_sequence", N, best_of(kernels.feedback_sequence, 1, N)),
        ("stateless_sequence", N, best_of(kernels.stateless_sequence, 12345, N)),
        ("feedback_sequence chunked", N, best_of(chunked, kernels.feedback_sequence, 1, N)),
        ("stateless_sequence chunked", N, best_of(chunked, kernels.stateless_sequence, 12345, N)),
        ("xorshift_step of an array copy", N, best_of(lambda: xorshift_step(words.copy()))),
        ("xorshift_inverse of an array", N, best_of(xorshift_inverse, words)),
        (f"xorshift_jump({TICK_STEPS}), one tick", 1, best_of(xorshift_jump, 1, TICK_STEPS)),
    ]
    chunk = kernels.feedback_sequence(1, ROLLS_PER_CHUNK)
    block = next(reads(kernels.format_rolls(chunk, 20).encode("ascii")))
    lines = block.count(b"\n")
    rows += [
        ("format_rolls d20, one chunk", ROLLS_PER_CHUNK, best_of(kernels.format_rolls, chunk, 20)),
        ("  per-roll join", ROLLS_PER_CHUNK, best_of(roll_lines, chunk, 20)),
        ("count_rolls d20, one read", lines, best_of(kernels.count_rolls, block, 20)),
        ("  per-line count", lines, best_of(count_reference, block, 20)),
    ]
    for name, line_end in (("LF", "\n"), ("CRLF", "\r\n")):
        text = rolls_file(line_end)
        rows.append((f"stats --rolls tally, {name} file", ROLL_FILE_LINES,
                     best_of(lambda: cli._tally_rolls(io.BytesIO(text), 20))))
    low, report = BIAS_SIDES - BIAS_FACES_PER_WRITE, modulo_bias(BIAS_SIDES)
    rows += [
        ("format_faces, one write", BIAS_FACES_PER_WRITE,
         best_of(kernels.format_faces, low, BIAS_SIDES, 42_735)),
        ("  per-face format", BIAS_FACES_PER_WRITE, best_of(faces_reference, low, BIAS_SIDES, 42_735)),
        (f"stats --bias {BIAS_SIDES} face lines", BIAS_SIDES, best_of(lambda: "".join(cli._bias_lines(report)))),
        ("  per-face format", BIAS_SIDES, best_of(report_reference, report)),
    ]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'kernel':<{width}}  {'best (s)':>10}  {'Mwords/s':>9}")
    for name, count, seconds in rows:
        print(f"{name:<{width}}  {seconds:>10.6f}  {count / seconds / 1e6:>9.2f}")


if __name__ == "__main__":
    main()
