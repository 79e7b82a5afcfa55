"""The `simulate` byte contract as a committed corpus of cases.

Case i below DRAWN_CASES is a trace and a set of `simulate` options drawn
from `random.Random(i)` alone, so it is the same case on every Python version
and platform; the cases after them are written out in FIXED_CASES, for what
no drawn case reaches. `simulate_corpus.json` holds, per case, the sha256 of every file
`simulate` writes, of its stdout and of its stderr, and its exit code.

The cases cover both PRNG modes and the intuitive tilt, csv and jsonl logs,
runs with and without `--uart-bits`, default and cut-off durations, and
`RESET 1`/`RESET 0` at arbitrary µs, on a UART frame start (1 500 + 10 000·m
µs after a release) and on an HZ10 rising edge (50 002·(2k + 1) µs after a
release), each ±1 µs. Every tenth case is a malformed trace or a duration
that ends before the last event, whose digest is exit 2 plus stderr.

    python tests/simulate_corpus.py    # check every case

checks every case against the digests and, for each one that differs,
prints its argv and its trace. tests/test_simulate_corpus.py checks a fixed
slice. The runner, the digest file and this check are those of
tests/corpus_runner.py; `run_case` is this corpus's own, as `simulate`
writes its files into `--out`.
"""

from __future__ import annotations

import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":  # run as a script: use this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from corpus_runner import check_every_case, sha  # noqa: E402
from dicesim.cli import main  # noqa: E402

DRAWN_CASES = 320
# (options, trace) of each case after the drawn ones
FIXED_CASES = (
    # both buttons disarm keep-awake while onpin is high, before the S5 edge
    # (7 501 300 us) that drives it low, where an armed toggler would drive
    # it low too; the edge after that (12 501 500 us) keeps it low
    (("--prng-mode", "stateless", "--format", "csv", "--duration-us", "13000000"),
     "0 RESET 1\n1000 RESET 0\n2000 TILT 1\n3000000 BTNU 1\n3000000 BTND 1\n"
     "3300000 BTNU 0\n3300000 BTND 0\n"),
    # one BTND tick steps the selector from the d2 down to the d100, which
    # settles on a roll of 100 when the die stands up again
    (("--prng-mode", "feedback", "--format", "jsonl", "--duration-us", "8700188"),
     "0 RESET 1\n1000 RESET 0\n2000 TILT 1\n1500000 BTND 1\n1600000 BTND 0\n2000000 TILT 0\n"
     "6700188 TILT 1\n"),
)
CASES = DRAWN_CASES + len(FIXED_CASES)
DIGESTS = Path(__file__).with_name("simulate_corpus.json")

FRAME_US = 10_000          # one UART frame; frame m starts 1 500 + 10 000 m us after a release
FIRST_FRAME_US = 1_500
HZ10_HALF_US = 50_002      # HZ10 rises at odd multiples of this after a release
S5_HALF_US = 2_500_100     # and S5 at odd multiples of this


@dataclass(frozen=True)
class Case:
    index: int
    options: tuple[str, ...]   # simulate flags after --trace and --out
    trace: bytes


def _aligned(rng: random.Random, release: int) -> int:
    """A µs on the device grid of the release at `release`, give or take one:
    a frame start, a frame's STOP edge or an HZ10 rising edge; or a µs just
    after an HZ10 edge, before the frames that carry its new byte start."""
    frame = release + FIRST_FRAME_US + FRAME_US * rng.randrange(300)
    hz10 = release + HZ10_HALF_US * (2 * rng.randrange(30) + 1)
    if rng.random() < 0.25:
        return hz10 + rng.randrange(1, 1_500)
    return rng.choice((frame, frame + 9_000, hz10)) + rng.choice((-1, 0, 0, 1))


def _events(rng: random.Random) -> list[tuple[int, str, int]]:
    """A valid event list: a session of tilts, buttons, ADC samples and
    resets, some at grid-aligned µs, or events at arbitrary µs."""
    if rng.random() < 0.3:
        signals = [rng.choice(("TILT", "BTNU", "BTND", "RESET", "ADC")) for _ in range(rng.randrange(12))]
        return sorted((rng.randrange(3_000_000), signal, rng.randrange(65_536 if signal == "ADC" else 2))
                      for signal in signals)
    events, t, release, held = [], 0, 0, 0
    if rng.random() < 0.7:  # the usual power-on: reset asserted, then released
        t = release = rng.choice((1_000, rng.randrange(5_000)))
        events += [(0, "RESET", 1), (t, "RESET", 0)]
    for _ in range(rng.randrange(1, 14)):
        kind = rng.random()
        if kind < 0.3:  # a tilt level held long enough to settle, or a short wobble
            t += rng.choice((rng.randrange(100, 20_000), rng.randrange(300_000, 1_500_000)))
            events.append((t, "TILT", rng.randrange(2)))
        elif kind < 0.45:
            t += rng.randrange(1_000, 400_000)
            signal = rng.choice(("BTNU", "BTND"))
            events += [(t, signal, 1), (t + rng.randrange(150_000, 400_000), signal, 0)]
            t = events[-1][0]
        elif kind < 0.6:
            t += rng.randrange(0, 200_000)
            events.append((t, "ADC", rng.randrange(65_536)))
        else:  # a reset edge at an arbitrary or a grid-aligned µs of the last release
            if held or rng.random() < 0.2:
                t += rng.randrange(0, 30_000)
            else:
                t = max(t, _aligned(rng, release) if rng.random() < 0.7 else t + rng.randrange(2_000_000))
            value = 1 - held if rng.random() < 0.9 else held  # now and then a repeated level
            events.append((t, "RESET", value))
            if value != held:
                held, release = value, t
    return sorted(events, key=lambda ev: ev[0])


def _trace_text(rng: random.Random, events: list[tuple[int, str, int]]) -> str:
    """Events as trace lines, with the comments, blank lines, tabs and CRLF
    line ends the grammar allows now and then."""
    lines = ["# corpus trace"] if rng.random() < 0.3 else []
    for t, signal, value in events:
        gap = rng.choice((" ", " ", "\t", "  \t"))
        line = gap.join((str(t), signal, str(value)))
        if rng.random() < 0.1:
            line += " # note"
        if rng.random() < 0.05:
            lines.append("")
        lines.append(line)
    end = "\r\n" if rng.random() < 0.15 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


_MALFORMED = (
    "{t} TILT", "{t} TILT 1 1", "-{t} TILT 1", "{t} FOO 1", "{t} ADC 65536", "{t} ADC -1", "{t} BTNU 2",
    "+{t} TILT 1", "1_{t} TILT 1", "{t} RESET 0x1", "\u0661\u0662 TILT 1", "{t}\u00a0TILT 1", "{t} tilt 1",
)


def make_case(index: int) -> Case:
    if index >= DRAWN_CASES:
        options, trace = FIXED_CASES[index - DRAWN_CASES]
        return Case(index, options, trace.encode("ascii"))
    rng = random.Random(index)
    events = _events(rng)
    last = events[-1][0] if events else 0
    options = ["--prng-mode", rng.choice(("stateless", "feedback")), "--format", rng.choice(("csv", "jsonl"))]
    if rng.random() < 0.25:
        options.append("--intuitive-tilt")
    if rng.random() < 0.5:
        options.append("--uart-bits")
    if rng.random() < 0.2:
        options += ["--adc-seed", str(rng.randrange(1 << 32))]
    duration = rng.random()
    if duration < 0.4:  # cut off on the grid of the last release, or anywhere after the last event
        release = max((t for t, signal, value in events if signal == "RESET" and value == 0), default=0)
        cut = _aligned(rng, release) if duration < 0.25 else last + rng.randrange(1_500_000)
        options += ["--duration-us", str(max(cut, last))]
    elif duration < 0.45:  # long enough for S5 keep-awake steps
        options += ["--duration-us", str(last + S5_HALF_US * rng.choice((3, 5)))]
    text = _trace_text(rng, events)
    if index % 10 == 9:  # malformed: a bad line, bytes that are not UTF-8, or a duration too short
        lines = text.split("\n")
        at = rng.randrange(len(lines) + 1)
        flaw = rng.randrange(len(_MALFORMED) + 3)
        if flaw < len(_MALFORMED):
            lines.insert(at, _MALFORMED[flaw].format(t=last + rng.randrange(1, 1_000)))
        elif flaw == len(_MALFORMED):  # a timestamp going backwards
            lines += [f"{last + 500} TILT 1", f"{last + 499} TILT 0"]
        elif flaw == len(_MALFORMED) + 1:
            lines.insert(at, "5 TILT 1 # caf\xe9")
        else:
            lines += [f"{last + 2_000} TILT 1"]
            options += ["--duration-us", str(last + 1_000)]
        trace = "\n".join(lines).encode("utf-8")
        if flaw == len(_MALFORMED) + 1:
            trace = trace.replace("\xe9".encode("utf-8"), b"\xe9")  # a Latin-1 byte
        return Case(index, tuple(options), trace)
    return Case(index, tuple(options), text.encode("utf-8"))


def run_case(case: Case) -> dict:
    """Run `simulate` on the case in a directory of its own: the digests of
    its exit code, stdout, stderr and every file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp, "trace.txt"), Path(tmp, "out")
        trace.write_bytes(case.trace)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["simulate", "--trace", str(trace), "--out", str(out), *case.options])
        files = {path.name: sha(path.read_bytes()) for path in sorted(out.iterdir())} if out.exists() else {}
        # the summary line names the output directory, which differs on every run
        return {"exit": code, "stdout": sha(stdout.getvalue().replace(tmp, "TMP")),
                "stderr": sha(stderr.getvalue().replace(tmp, "TMP")), "files": files}


def describe(case: Case) -> str:
    """The case's argv and trace, enough to replay it by hand."""
    argv = " ".join(("dicesim simulate --trace trace.txt --out out", *case.options))
    return f"case {case.index}: {argv}\ntrace.txt ({len(case.trace)} bytes):\n{case.trace!r}"


if __name__ == "__main__":
    sys.exit(check_every_case(sys.modules[__name__], "simulate"))
