"""Command line interface.

Subcommands: simulate (replay a trace), rolls (generate face values), stats
(uniformity verdicts and exact bias reports), uart (frame encode/decode).
Every subcommand is deterministic given its flags; default seeds are
documented constants, never wall-clock entropy.

Exit codes: 0 success (and analysis pass), 1 I/O failure, 2 usage or
validation error, 3 analysis failure (uniformity rejected, framing errors).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import operator
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

from .device import DEFAULT_ADC_SEED, SUPPORTED_DICE
from .prng import FEEDBACK, MASK32, STATELESS
from .trace import (
    ReplayConfig,
    TraceParseError,
    emit_log,
    emit_state_json,
    emit_uart_bits_csv,
    emit_uart_csv,
    load_trace,
    parse_decimal,
    replay,
)
from .uart import decode_stream, encode_frame

if TYPE_CHECKING:  # imported by the functions that use it, so simulate and uart never load it
    from . import stats

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ANALYSIS = 3

DEFAULT_ROLL_SEED = 1
ROLLS_PER_CHUNK = 65_536
ROLL_BYTES_PER_READ = 65_536
BIAS_FACES_PER_WRITE = 4_000  # a multiple of 100, so a write splits no block of `kernels.format_faces`


TEMP_NAME_TRIES = 100  # random temp names tried in a directory before giving up


def _create_temp(path: Path) -> tuple[int, str]:
    """A new file under a random name beside path, created the way a plain
    open() creates one: the kernel applies the umask to mode 0o666. It is
    opened in binary mode, so its bytes are written as given (O_BINARY is
    Windows' flag for that, which POSIX systems neither have nor need)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for _ in range(TEMP_NAME_TRIES):
        tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no unused temp file name", str(path))


def _write_all(fd: int, data: bytes) -> None:
    """Write all of data to fd: one os.write may take only part of it."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write_atomic(files: dict[Path, Callable[[], str | Iterable[str]]]) -> None:
    """Write each path's text, made by its function, as one set: each to a
    temp file of its own in the path's directory, so concurrent writers
    never share one, then, once every one is whole and no path is a
    directory, a rename of each over its path. Each chunk of text is
    written as its UTF-8 bytes, so a LF is a LF on every platform. On any
    failure before the renames, a chunk source's too, every temp file is
    closed and removed. Only one text is made at a time. An error that
    names a file, the temp file made or renamed, is raised again naming the
    path, so its message holds no random temp name."""
    written: list[tuple[str, Path]] = []
    try:
        for path, make_text in files.items():
            fd, tmp = _create_temp(path)
            written.append((tmp, path))
            try:
                text = make_text()
                for chunk in (text,) if isinstance(text, str) else text:
                    _write_all(fd, chunk.encode("utf-8"))
                del text  # before the next text is made
            finally:
                os.close(fd)
        for _, path in written:  # a rename over a directory would fail after the ones before it
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ======================================================================
#  simulate
# ======================================================================

def cmd_simulate(args) -> int:
    try:
        events = load_trace(args.trace)
    except OSError as exc:
        return _fail(f"cannot read trace: {exc}", EXIT_IO)
    except TraceParseError as exc:
        return _fail(f"malformed trace: {exc}", EXIT_USAGE)
    config = ReplayConfig(
        prng_mode=args.prng_mode,
        intuitive_tilt=args.intuitive_tilt,
        duration_us=args.duration_us,
        adc_seed=args.adc_seed,
    )
    try:
        log = replay(events, config)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_name = "log.csv" if args.format == "csv" else "log.jsonl"
        outputs = {
            out_dir / log_name: lambda: emit_log(log, args.format),
            out_dir / "uart.csv": lambda: emit_uart_csv(log),
            out_dir / "state.json": lambda: emit_state_json(log),
        }
        if args.uart_bits:
            outputs[out_dir / "uart_bits.csv"] = lambda: emit_uart_bits_csv(log)
        _write_atomic(outputs)
    except OSError as exc:
        return _fail(f"cannot write outputs: {exc}", EXIT_IO)
    uart_bytes = sum(len(times) for _, times in log.uart_byte_runs())
    print(
        f"replayed {len(events)} events: {len(log.settled_rolls)} settled rolls, "
        f"{uart_bytes} uart bytes, {len(log.display_words)} display words, "
        f"{len(log.onpin_edges)} onpin edges -> {out_dir}"
    )
    return EXIT_OK


# ======================================================================
#  rolls
# ======================================================================

def _roll_chunks(mode: str, seed: int, count: int, sides: int) -> Iterator[str]:
    """The rolls CSV, ROLLS_PER_CHUNK rolls at a time: each chunk of words
    continues the sequence where the one before stopped, so neither the
    words nor the text ever exist whole."""
    from . import kernels  # numpy loads only for the commands that use it

    # as-built pipeline in stateless mode: the seed value seeds the synthetic ADC source
    sequence = kernels.feedback_sequence if mode == FEEDBACK else kernels.stateless_sequence
    yield "roll\n"
    for start in range(0, count, ROLLS_PER_CHUNK):
        yield kernels.format_rolls(sequence(seed, min(ROLLS_PER_CHUNK, count - start), start=start), sides)


def cmd_rolls(args) -> int:
    if args.sides not in SUPPORTED_DICE:
        supported = ", ".join(str(d) for d in SUPPORTED_DICE)
        return _fail(f"unsupported die d{args.sides} (supported: {supported})", EXIT_USAGE)
    if args.count < 1:
        return _fail(f"count must be positive: {args.count}", EXIT_USAGE)
    seed = args.seed & MASK32
    if args.mode == FEEDBACK and seed == 0:
        return _fail("feedback mode needs a nonzero seed (zero never leaves the zero orbit)", EXIT_USAGE)
    chunks = _roll_chunks(args.mode, seed, args.count, args.sides)
    if args.out:
        try:
            _write_atomic({Path(args.out): lambda: chunks})
        except OSError as exc:
            return _fail(f"cannot write rolls: {exc}", EXIT_IO)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


# ======================================================================
#  stats
# ======================================================================

def _count_lines(block: bytes, first_line: int, sides: int) -> list[int]:
    """Counts of faces 1..sides in block, line by line, its lines numbered
    from first_line. Raises ValueError naming the first bad line or
    out-of-range roll; a first line of the file that is not a number is a
    header."""
    counts = [0] * (sides + 1)
    for n, line in enumerate(block.removesuffix(b"\n").split(b"\n"), start=first_line):
        line = line.strip(b" \t\r").decode("utf-8", "backslashreplace")  # a byte that is not UTF-8 shows as \xe9
        try:
            value = parse_decimal(line)
        except ValueError as exc:  # too many digits
            raise ValueError(f"line {n}: bad roll value ({exc})") from None
        if value is not None:
            if not 1 <= value <= sides:
                raise ValueError(f"line {n}: roll out of range 1..{sides}: {value}")
            counts[value] += 1
        elif line and n != 1:  # blank lines are skipped, and a first line that is not a number is a header
            raise ValueError(f"line {n}: bad roll value {line!r}")
    return counts[1:]


def _tally_rolls(fh: BinaryIO, sides: int) -> stats.Histogram:
    """Histogram of a rolls CSV opened in binary mode. After the first line,
    which may be a header, the file is read ROLL_BYTES_PER_READ bytes at a
    time, each read completed to the end of its last line. A read of bare
    rolls is counted by `kernels.count_rolls` with no Python step per roll;
    any other read goes line by line, and only that path names the line of a
    bad value or an out-of-range roll. Lines end at LF; only blanks, tabs and
    CR around a value are stripped."""
    from . import kernels, stats

    if sides not in stats.VERDICT_SIDES:  # before any read, and before sides sizes the counts
        raise ValueError(f"no verdict for a d{sides}: --sides must be in "
                         f"{stats.VERDICT_SIDES.start}..{stats.VERDICT_SIDES.stop - 1}")
    counts = [0] * sides
    line_no = 0
    block = fh.readline()
    while block:
        faces = kernels.count_rolls(block, sides)
        if faces is None:
            faces = _count_lines(block, line_no + 1, sides)
            line_no += block.count(b"\n")  # only the file's last line may lack a LF
        else:
            line_no += sum(faces)  # one roll per line
        counts = list(map(operator.add, counts, faces))
        block = fh.read(ROLL_BYTES_PER_READ)
        if not block.endswith(b"\n"):
            block += fh.readline()
    return stats.Histogram(sides, tuple(counts), sum(counts))


def _bias_lines(report: stats.BiasReport) -> Iterator[str]:
    """The face lines of a bias report, a write of at most
    BIAS_FACES_PER_WRITE faces up to each multiple of it: faces
    1..remainder have one count and the rest the other."""
    from . import kernels

    for low, end, count in ((1, report.remainder + 1, report.quotient + 1),
                            (report.remainder + 1, report.dice_sides + 1, report.quotient)):
        while low < end:
            high = min(end, (low // BIAS_FACES_PER_WRITE + 1) * BIAS_FACES_PER_WRITE)
            yield kernels.format_faces(low, high, count)
            low = high


def cmd_stats(args) -> int:
    from . import stats

    if args.bias is not None:
        if args.bias < 1:
            return _fail(f"die must have at least 1 side: {args.bias}", EXIT_USAGE)
        if not 1 <= args.bits <= 64:
            return _fail(f"bits out of range 1..64: {args.bits}", EXIT_USAGE)
        report = stats.modulo_bias(args.bias, args.bits)
        print(f"exact preimage counts of (word mod {report.dice_sides}) + 1 "
              f"over the 2^{report.domain_bits} domain")
        print(f"quotient {report.quotient}, remainder {report.remainder}, "
              f"worst-case ratio {report.ratio:.12f}")
        sys.stdout.writelines(_bias_lines(report))
        return EXIT_OK
    if not args.rolls or args.sides is None:
        return _fail("stats needs either --bias D or both --rolls FILE and --sides D", EXIT_USAGE)
    # tallied a read at a time, so the rolls never exist whole; of a bad line
    # and an out-of-range roll, the earlier one in the file is reported
    try:
        with open(args.rolls, "rb") as fh:
            hist = _tally_rolls(fh, args.sides)
        report = stats.uniformity_report(hist, float(args.alpha))
    except OSError as exc:
        return _fail(f"cannot read rolls: {exc}", EXIT_IO)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if args.out:
        try:
            _write_atomic({Path(args.out): lambda: stats.histogram_csv(hist)})
        except OSError as exc:
            return _fail(f"cannot write histogram: {exc}", EXIT_IO)
    sys.stdout.write(stats.ascii_chart(hist))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"chi-square {report.statistic:.4f}, df {report.df}, "
          f"critical {report.critical} at alpha {report.alpha}: {verdict}")
    return EXIT_OK if report.passed else EXIT_ANALYSIS


# ======================================================================
#  uart
# ======================================================================

def _parse_hex_bytes(tokens: list[str]) -> list[int]:
    values: list[int] = []
    for token in tokens:
        text = token.lower().removeprefix("0x")
        if not text or any(c not in "0123456789abcdef" for c in text):
            raise ValueError(f"bad hex byte token {token!r}")
        if len(text) <= 2:
            values.append(int(text, 16))
        elif len(text) % 2 == 0:
            values.extend(int(text[i:i + 2], 16) for i in range(0, len(text), 2))
        else:
            raise ValueError(f"odd-length hex string {token!r}")
    return values


def cmd_uart(args) -> int:
    if args.action == "encode":
        try:
            values = _parse_hex_bytes(args.data)
        except ValueError as exc:
            return _fail(str(exc), EXIT_USAGE)
        if not values:
            return _fail("nothing to encode", EXIT_USAGE)
        bits = []
        for value in values:
            bits.extend(encode_frame(value))
        print("".join(str(b) for b in bits))
        return EXIT_OK
    # decode
    stream = "".join(args.data)
    try:
        frames, errors = decode_stream(stream)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if frames:
        print(" ".join(f"{f.byte:02x}" for f in frames))
    for err in errors:
        print(f"framing error: {err.message}", file=sys.stderr)
    return EXIT_ANALYSIS if errors else EXIT_OK


# ======================================================================
#  parser and entry point
# ======================================================================

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and reused, so
    callers must not change it. argparse looks up stdout, stderr and the
    terminal width when it prints, not when it is built, and keeps nothing
    of one parse_args for the next."""
    parser = argparse.ArgumentParser(
        prog="dicesim",
        description="Bit-faithful simulator and statistics toolkit for the FPGA dice unit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="replay a stimulus trace through the full device")
    p_sim.add_argument("--trace", required=True, help="trace file (t_us SIGNAL value lines)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--duration-us", type=int, default=None,
                       help="simulated length in us (default: last event + 1s)")
    p_sim.add_argument("--prng-mode", choices=(STATELESS, FEEDBACK), default=STATELESS,
                       help="stateless is the as-built wiring (default)")
    p_sim.add_argument("--intuitive-tilt", action="store_true",
                       help="count the debounce window after the new sample (not as built)")
    p_sim.add_argument("--adc-seed", type=int, default=DEFAULT_ADC_SEED,
                       help="seed of the synthetic ADC source (default 12345)")
    p_sim.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sim.add_argument("--uart-bits", action="store_true", help="also write the tx waveform")

    p_rolls = sub.add_parser("rolls", help="generate die rolls")
    p_rolls.add_argument("--sides", type=int, required=True,
                         help=f"die to roll, one of {', '.join(str(d) for d in SUPPORTED_DICE)}")
    p_rolls.add_argument("--count", type=int, required=True, help="number of rolls")
    p_rolls.add_argument("--mode", choices=(FEEDBACK, STATELESS), default=FEEDBACK,
                         help="feedback: free-running generator from --seed (default); "
                              "stateless: as-built pipeline fed by the synthetic ADC source, "
                              "--seed seeds that source")
    p_rolls.add_argument("--seed", type=int, default=DEFAULT_ROLL_SEED,
                         help="generator seed (default 1; feedback mode rejects 0)")
    p_rolls.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_stats = sub.add_parser("stats", help="uniformity verdicts and exact bias reports")
    p_stats.add_argument("--rolls", default=None, help="CSV of face values (one per line)")
    p_stats.add_argument("--sides", type=int, default=None, help="die the rolls came from")
    p_stats.add_argument("--alpha", choices=("0.05", "0.01", "0.001"), default="0.05")
    p_stats.add_argument("--out", default=None, help="write the histogram CSV here")
    p_stats.add_argument("--bias", type=int, default=None,
                         help="print the exact modulo-bias report for this die instead")
    p_stats.add_argument("--bits", type=int, default=32,
                         help="input domain width for --bias (default 32)")

    p_uart = sub.add_parser("uart", help="encode bytes to frames or decode a bit stream")
    p_uart.add_argument("action", choices=("encode", "decode"))
    p_uart.add_argument("data", nargs="+",
                        help="encode: hex bytes; decode: a 0/1 bit stream")

    return parser


@functools.cache
def _plain_options() -> tuple[str, dict[str, tuple[dict[str, tuple[argparse.Action, bool]], tuple]]]:
    """The option table of every command whose line is options alone, read
    once from the parsers build_parser adds: (the command's dest, command ->
    (option string -> (its action, whether it is a store_true flag), every
    action)). A command with a positional, or with an action other than
    help, store of one value and store_true, is left out. This function
    alone reads argparse's private names."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, parser in commands.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        flags = [type(a) is argparse._StoreTrueAction for a in actions]
        if all(a.option_strings and (flag or (type(a) is argparse._StoreAction and a.nargs is None))
               for a, flag in zip(actions, flags)):
            options = {option: (a, flag) for a, flag in zip(actions, flags) for option in a.option_strings}
            table[name] = (options, tuple(actions))
    return commands.dest, table


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace parse_args gives a plain line, read without argparse's
    general parse: a command of _plain_options, then only exact option
    strings of its actions, each one that is not a flag followed by a value
    that does not start with "-", converts with the action's type and is in
    its choices, and every required option given. None for any other line:
    help, abbreviations, --opt=value, negative values and every error are
    argparse's to read, so it alone prints help, usage and errors."""
    dest, table = _plain_options()
    if not argv or argv[0] not in table:
        return None
    options, actions = table[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action, flag = options.get(token, (None, False))
        if action is None:
            return None
        if flag:
            given[action.dest] = True
            continue
        text = next(tokens, "-")  # a missing value declines as one that starts with "-"
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if any(a.required and a.dest not in given for a in actions):
        return None
    return argparse.Namespace(**{dest: argv[0], **{a.dest: given.get(a.dest, a.default) for a in actions}})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        # looked up by name at each call, so a function patched onto this
        # module after the parser was built is the one that runs
        commands = {"simulate": cmd_simulate, "rolls": cmd_rolls, "stats": cmd_stats, "uart": cmd_uart}
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader left: Python flushes stdout again at exit, so point it
        # at devnull to end without a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
