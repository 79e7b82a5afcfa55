"""Command line interface.

Subcommands: simulate (replay a trace), rolls (generate face values), stats
(uniformity verdicts and exact bias reports), uart (frame encode/decode).
Every subcommand is deterministic given its flags; default seeds are
documented constants, never wall-clock entropy.

Exit codes: 0 success (and analysis pass), 1 I/O failure, 2 usage or
validation error, 3 analysis failure (uniformity rejected, framing errors).
"""

from __future__ import annotations

import contextlib
import errno
import functools
import operator
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace
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
# every file simulate may write into its --out directory
SIMULATE_OUTPUTS = ("log.csv", "log.jsonl", "uart.csv", "state.json", "uart_bits.csv")


def _error_naming(exc: OSError, *path: str) -> OSError:
    """exc naming the user's path, path's parts as pathlib joins them,
    instead of the name the failed call was given."""
    return OSError(exc.errno, exc.strerror, str(Path(*path)))


def _open_dir(out: str, name: str, make_dir: bool) -> int:
    """A descriptor of the directory out, opened for reading. Without
    make_dir, a failed open raises naming the file name in out, as a temp
    file's failure there did. With make_dir, a failed open is followed by
    the step simulate always began with, pathlib's mkdir with parents and
    exist_ok: it makes a missing directory and its parents, or raises the
    error, naming the directory, that simulate always raised."""
    flags = os.O_RDONLY | os.O_DIRECTORY
    try:
        return os.open(out, flags)
    except OSError as exc:
        if not make_dir:
            raise _error_naming(exc, out, name) from None
    Path(out).mkdir(parents=True, exist_ok=True)
    try:
        return os.open(out, flags)
    except OSError as exc:  # a directory that can be written but not read
        raise _error_naming(exc, out) from None


def _create_temp(name: str, dir_fd: int) -> tuple[int, str]:
    """A new file under a random name beside name in the directory dir_fd,
    created the way a plain open() creates one: the kernel applies the umask
    to mode 0o666. It is opened in binary mode, so its bytes are written as
    given (O_BINARY is Windows' flag for that, which POSIX systems neither
    have nor need)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for _ in range(TEMP_NAME_TRIES):
        tmp = f".{name}.{os.urandom(6).hex()}.tmp"
        try:
            return os.open(tmp, flags, 0o666, dir_fd=dir_fd), tmp
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no unused temp file name", name)


def _write_all(fd: int, data: bytes) -> None:
    """Write all of data to fd: one os.write may take only part of it."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _is_dir(name: str, dir_fd: int) -> bool:
    """Whether name in the directory dir_fd is a directory itself, not a
    symbolic link to one, which a rename replaces."""
    try:
        return stat.S_ISDIR(os.lstat(name, dir_fd=dir_fd).st_mode)
    except FileNotFoundError:
        return False


def _write_atomic(out: str, files: dict[str, Callable[[], str | Iterable[str]]], make_dir: bool = False,
                  stale: Iterable[str] = ()) -> None:
    """Write each file name's text, made by its function, into the directory
    out as one set, every step relative to one descriptor of out (see
    _open_dir for make_dir): each text to a temp file of its own, so
    concurrent writers never share one, then, once every one is whole and no
    name is a directory, a rename of each over its name, and last an unlink
    of each name in stale, the names an earlier set may hold that this one
    does not; one that is missing or a directory is left. Each chunk of text
    is written as its UTF-8 bytes, so a LF is a LF on every platform. On any
    failure before the renames, a chunk source's too, every temp file is
    closed and removed; the directory's descriptor is closed on every path.
    Only one text is made at a time. An error that names a file, the temp
    file made or renamed, is raised again naming the user's path of the
    file, so its message holds no random temp name."""
    dir_fd = _open_dir(out, next(iter(files)), make_dir)
    written: list[tuple[str, str]] = []
    try:
        for name, make_text in files.items():
            fd, tmp = _create_temp(name, dir_fd)
            written.append((tmp, name))
            try:
                text = make_text()
                for chunk in (text,) if isinstance(text, str) else text:
                    _write_all(fd, chunk.encode("utf-8"))
                del text  # before the next text is made
            finally:
                os.close(fd)
        for _, name in written:  # a rename over a directory would fail after the ones before it
            if _is_dir(name, dir_fd):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
        for tmp, name in written:
            os.replace(tmp, name, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
        for name in stale:
            try:
                os.unlink(name, dir_fd=dir_fd)
            except FileNotFoundError:
                pass
            except OSError:  # Linux refuses a directory with EISDIR, POSIX allows EPERM
                if not _is_dir(name, dir_fd):
                    raise
    except BaseException as exc:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp, dir_fd=dir_fd)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise _error_naming(exc, out, name) from None
        raise
    finally:
        os.close(dir_fd)


def _file_in_dir(path: str) -> tuple[str, str]:
    """The directory and the name of a file path as pathlib parts them, so
    an error names the path as pathlib writes it; "." for a path that has
    no name, such as "/", whose target is the directory itself."""
    parts = Path(path)
    return str(parts.parent), parts.name or "."


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
    log_name = "log.csv" if args.format == "csv" else "log.jsonl"
    outputs = {
        log_name: lambda: emit_log(log, args.format),
        "uart.csv": lambda: emit_uart_csv(log),
        "state.json": lambda: emit_state_json(log),
    }
    if args.uart_bits:
        outputs["uart_bits.csv"] = lambda: emit_uart_bits_csv(log)
    out_dir = str(Path(args.out))  # as pathlib reads it, so "" is "."
    try:
        _write_atomic(out_dir, outputs, make_dir=True, stale=[name for name in SIMULATE_OUTPUTS if name not in outputs])
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
        out, name = _file_in_dir(args.out)
        try:
            _write_atomic(out, {name: lambda: chunks})
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
        out, name = _file_in_dir(args.out)
        try:
            _write_atomic(out, {name: lambda: stats.histogram_csv(hist)})
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

# each command -> (its help line, its arguments: (option string or positional
# name, the keywords add_argument takes)), the one declaration that
# build_parser and the plain reader both read
COMMANDS = {
    "simulate": ("replay a stimulus trace through the full device", (
        ("--trace", {"required": True, "help": "trace file (t_us SIGNAL value lines)"}),
        ("--out", {"required": True, "help": "output directory"}),
        ("--duration-us", {"type": int, "help": "simulated length in us (default: last event + 1s)"}),
        ("--prng-mode", {"choices": (STATELESS, FEEDBACK), "default": STATELESS,
                         "help": "stateless is the as-built wiring (default)"}),
        ("--intuitive-tilt", {"action": "store_true",
                              "help": "count the debounce window after the new sample (not as built)"}),
        ("--adc-seed", {"type": int, "default": DEFAULT_ADC_SEED,
                        "help": "seed of the synthetic ADC source (default 12345)"}),
        ("--format", {"choices": ("csv", "jsonl"), "default": "csv"}),
        ("--uart-bits", {"action": "store_true", "help": "also write the tx waveform"}),
    )),
    "rolls": ("generate die rolls", (
        ("--sides", {"type": int, "required": True,
                     "help": f"die to roll, one of {', '.join(str(d) for d in SUPPORTED_DICE)}"}),
        ("--count", {"type": int, "required": True, "help": "number of rolls"}),
        ("--mode", {"choices": (FEEDBACK, STATELESS), "default": FEEDBACK,
                    "help": "feedback: free-running generator from --seed (default); "
                            "stateless: as-built pipeline fed by the synthetic ADC source, "
                            "--seed seeds that source"}),
        ("--seed", {"type": int, "default": DEFAULT_ROLL_SEED,
                    "help": "generator seed (default 1; feedback mode rejects 0)"}),
        ("--out", {"help": "output CSV (default stdout)"}),
    )),
    "stats": ("uniformity verdicts and exact bias reports", (
        ("--rolls", {"help": "CSV of face values (one per line)"}),
        ("--sides", {"type": int, "help": "die the rolls came from"}),
        ("--alpha", {"choices": ("0.05", "0.01", "0.001"), "default": "0.05"}),
        ("--out", {"help": "write the histogram CSV here"}),
        ("--bias", {"type": int, "help": "print the exact modulo-bias report for this die instead"}),
        ("--bits", {"type": int, "default": 32, "help": "input domain width for --bias (default 32)"}),
    )),
    "uart": ("encode bytes to frames or decode a bit stream", (
        ("action", {"choices": ("encode", "decode")}),
        ("data", {"nargs": "+", "help": "encode: hex bytes; decode: a 0/1 bit stream"}),
    )),
}


@functools.cache
def build_parser():
    """The parser of every command in COMMANDS, built on the first call and
    reused, so callers must not change it. argparse looks up stdout, stderr
    and the terminal width when it prints, not when it is built, and keeps
    nothing of one parse_args for the next. Only this function imports
    argparse, so a plain line never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dicesim",
        description="Bit-faithful simulator and statistics toolkit for the FPGA dice unit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        for name, keywords in arguments:
            command_parser.add_argument(name, **keywords)
    return parser


@functools.cache
def _plain_options(command: str) -> dict[str, tuple[str, dict]] | None:
    """Each option string of a command of COMMANDS -> (its dest, as argparse
    derives it, and its keywords), when every argument of the command is an
    option that stores one value or is a store_true flag; None for a command
    with any other argument."""
    arguments = COMMANDS[command][1]
    if not all(name.startswith("--") and keywords.get("action") in (None, "store_true") and "nargs" not in keywords
               for name, keywords in arguments):
        return None
    return {name: (name[2:].replace("-", "_"), keywords) for name, keywords in arguments}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The values parse_args gives a plain line, as a namespace, read from
    COMMANDS without argparse: a command of _plain_options, then only its exact option
    strings, each one that is not a flag followed by a value that does not
    start with "-", converts with the option's type and is in its choices,
    and every required option given. None for any other line: help,
    abbreviations, --opt=value, negative values and every error are
    argparse's to read, so it alone prints help, usage and errors."""
    options = _plain_options(argv[0]) if argv and argv[0] in COMMANDS else None
    if options is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options:
            return None
        dest, keywords = options[token]
        if "action" in keywords:  # a store_true flag
            given[dest] = True
            continue
        text = next(tokens, "-")  # a missing value declines as one that starts with "-"
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[dest] = value
    if any(keywords.get("required") and dest not in given for dest, keywords in options.values()):
        return None
    return SimpleNamespace(command=argv[0], **{
        dest: given.get(dest, keywords.get("default", False if "action" in keywords else None))
        for dest, keywords in options.values()})


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
