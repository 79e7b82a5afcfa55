"""Stimulus traces and deterministic replay.

Trace format: one event per line, ``<t_us> <SIGNAL> <value>``, with ``#``
comments and blank lines ignored. Lines end at LF only (one CR right before
it is dropped), and fields are parted by ASCII blanks and tabs only. Signals
are TILT, BTNU, BTND, RESET (binary levels) and ADC (a one-shot 16-bit
sample). Timestamps and values are ASCII decimal digits, at most 4 300 past
the leading zeros. Timestamps must be non-decreasing; simultaneous events
apply in file order.

Replay semantics: switch levels hold between events and are sampled at tick
boundaries, so pulses that fit between two polls of the same clock are
invisible. Each HZ10 tick consumes the most recent ADC event since the
previous tick, or draws from the synthetic LCG source when none arrived.
RESET 1 asserts the asynchronous reset (clock dividers clear and hold, the
device registers return to reset values); RESET 0 releases it and counting
restarts from zero. Replay is a pure function of the trace and the config:
two runs produce byte-identical logs.
"""

from __future__ import annotations

import functools
import heapq
import json
import re
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import inf
from operator import itemgetter
from typing import NamedTuple

from .device import DEFAULT_ADC_SEED, Device, SyntheticAdc, held_value
from .display import DCODE, bcd_select, render_word, unpack_word
from .prng import STATELESS
from .record import Record
from .timing import HALF_PERIODS, HZ10, HZ1000, HZ500, S5
from .uart import FRAME_BITS, UartTxState, payload_pack, uart_frame

SIGNALS = ("TILT", "BTNU", "BTND", "RESET", "ADC")
LEVEL_SIGNALS = ("TILT", "BTNU", "BTND")

CYCLES_PER_US = 12
US_PER_SECOND = 1_000_000
US_PER_BIT = 2 * HALF_PERIODS[HZ1000] // CYCLES_PER_US
US_PER_FRAME = FRAME_BITS * US_PER_BIT
STOP_US = (FRAME_BITS - 1) * US_PER_BIT  # the STOP-to-IDLE edge that completes a byte

# The device grid, in cycles after a reset release. Three facts make replay on
# it alone exact; tests/test_timing.py::test_device_grid_moduli checks them.
# 1. HALF_PERIODS[S5] == 50 * HALF_PERIODS[HZ10] = 50 H, so S5 rising edge i
#    sits at H * (100 i + 50), an even multiple of H strictly between HZ10
#    rising edges 50 i + 24 and 50 i + 25 (the odd multiples 100 i + 49 and
#    100 i + 51): the two domains never tie.
# 2. The first HZ1000 rising edge leaves the transmitter idle; from the second
#    on, frames run back to back, so frame m starts at 18 000 + 120 000 m.
#    Every HZ1000 edge is a multiple of 6 000, which is 0 mod 16, while an HZ10
#    rising edge is an odd multiple of H = 600 024, which is 8 mod 16: no frame
#    starts, and no UART bit is driven, on a device step.
# 3. The live digits, and so the UART byte, change only at an HZ10 step
#    (roll_update) or at RESET 1 (Device.reset); S5 steps write only the
#    keep-awake outputs. So the UART is a list of runs of same-byte frames:
#    one opens at each release and at each HZ10 step that changes the byte,
#    from the next frame START on, and RESET 1 cuts the frame in flight.
# 4. Upright, the HZ10 updates of tilt, selection and roll read neither seed
#    nor rand, and between two trace events the levels hold and no ADC event
#    arrives. So once an HZ10 step leaves (tilt, selection, roll) as it was,
#    upright, every later step up to the next event does the same: a steady
#    span, in which only the synthetic ADC's LCG, seed and rand move, and no
#    display word, UART run or settled roll is noted. Its S5 steps see a
#    fixed keepon, and still step one by one.
HZ10_HALF = HALF_PERIODS[HZ10]
# A steady span is jumped only when this many HZ10 steps, one simulated
# second, remain before the target. Event-dense traces, whose gaps are
# shorter, step every tick: at most 9 steps per gap, a few us each.
STEADY_MIN_STEPS = 10
S5_HALF = HALF_PERIODS[S5]
FIRST_FRAME_CYCLES = 3 * HALF_PERIODS[HZ1000]
FRAME_CYCLES = FRAME_BITS * 2 * HALF_PERIODS[HZ1000]


class TraceParseError(ValueError):
    """Malformed trace text; the message names the line and field."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceEvent(NamedTuple):
    t_us: int
    signal: str
    value: int


# ASCII decimal only: int() would also take "+1", "1_000" and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")
# Fields part at ASCII blanks and tabs: str.split() also parts at NBSP, form feeds...
_BLANKS = re.compile(r"[ \t]+")
MAX_DIGITS = 4_300  # digits a decimal field may have past its leading zeros: int()'s default bound
_INT_DIGITS = 640  # int() converts this many digits whatever bound it is set to


def parse_decimal(text: str) -> int | None:
    """The value of an ASCII decimal field, an optional '-' and then digits
    0-9 only, or None if the text is not one. A field with more than
    MAX_DIGITS digits past its leading zeros is a ValueError that gives the
    count, whatever bound int() is set to."""
    if not _INTEGER.fullmatch(text):
        return None
    if len(text) <= _INT_DIGITS:
        return int(text)
    digits = text.lstrip("-").lstrip("0")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"{len(digits)} digits after the leading zeros, more than {MAX_DIGITS}")
    from decimal import Decimal  # its conversion to int has no bound; only long fields load it
    return int(Decimal(text))


def _parse_int(text: str, line_no: int, field_name: str) -> int:
    try:
        value = parse_decimal(text)
    except ValueError as exc:
        raise TraceParseError(line_no, f"bad {field_name} ({exc})") from None
    if value is None:
        raise TraceParseError(line_no, f"bad {field_name} {text!r} (expected ASCII decimal digits)")
    return value


# A well-formed line: blanks, then optionally the three fields, a timestamp of
# at most 18 digits and a value of at most 5, parted by blanks, then an
# optional comment, and a LF after at most one CR, or the end of the text.
_LINE = re.compile(r"[ \t]*(?:([0-9]{1,18})[ \t]+(%s)[ \t]+([0-9]{1,5})[ \t]*)?(?:#[^\n]*)?(?:\r?\n|\Z)"
                   % "|".join(SIGNALS))


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse trace text into an event list, enforcing order and ranges. A
    text of well-formed lines in order and in range is read by _LINE's
    matches, each starting where the one before ended; any other text goes
    to _parse_lines, which alone names errors."""
    events = []
    pos = last_t = 0
    for match in _LINE.finditer(text):
        if match.start() != pos:
            break
        pos = match.end()
        t_text, signal, v_text = match.groups()
        if t_text is None:  # a blank or comment line
            continue
        t_us, value = int(t_text), int(v_text)
        if t_us < last_t or value > (0xFFFF if signal == "ADC" else 1):
            break
        events.append(TraceEvent(t_us, signal, value))
        last_t = t_us
    else:
        if pos == len(text):
            return events
    return _parse_lines(text)


def _parse_lines(text: str) -> list[TraceEvent]:
    """parse_trace line by line, naming the line and field of an error."""
    events: list[TraceEvent] = []
    last_t = -1
    for line_no, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        fields = _BLANKS.split(line)
        if len(fields) != 3:
            raise TraceParseError(line_no, f"expected 3 fields (t_us SIGNAL value), got {len(fields)}")
        t_text, signal, v_text = fields
        t_us = _parse_int(t_text, line_no, "timestamp")
        if t_us < 0:
            raise TraceParseError(line_no, f"negative timestamp {t_us}")
        if t_us < last_t:
            raise TraceParseError(line_no, f"timestamp {t_us} goes backwards (previous {last_t})")
        if signal not in SIGNALS:
            raise TraceParseError(line_no, f"unknown signal {signal!r} (expected one of {', '.join(SIGNALS)})")
        value = _parse_int(v_text, line_no, "value")
        if signal == "ADC":
            if not 0 <= value <= 0xFFFF:
                raise TraceParseError(line_no, f"bad ADC value {value} (must be 0..65535)")
        elif value not in (0, 1):
            raise TraceParseError(line_no, f"bad {signal} value {value} (must be 0 or 1)")
        events.append(TraceEvent(t_us, signal, value))
        last_t = t_us
    return events


def load_trace(path) -> list[TraceEvent]:
    """Read and parse a trace file; bytes that are not UTF-8 are a parse
    error on the line that holds them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TraceParseError(line_no, f"byte 0x{data[exc.start]:02x} is not UTF-8 text") from None
    return parse_trace(text)


# ======================================================================
#  replay
# ======================================================================

class ReplayConfig(Record):
    __slots__ = ("prng_mode", "intuitive_tilt", "duration_us", "adc_seed")

    def __init__(self, prng_mode: str = STATELESS, intuitive_tilt: bool = False, duration_us: int | None = None,
                 adc_seed: int = DEFAULT_ADC_SEED) -> None:
        self.prng_mode = prng_mode
        self.intuitive_tilt = intuitive_tilt
        self.duration_us = duration_us  # None: last event time + one second
        self.adc_seed = adc_seed


class RunLog(Record):
    """Everything a replay records, each list in time order. The UART is kept
    as runs: (t_us, byte) in uart_runs opens a run of back-to-back frames of
    byte, the first starting at t_us, that lasts until the next entry or
    end_us; (t_us, None) is a RESET 1, which cuts the frame in flight and
    drives the line high. uart_byte_runs and uart_wave_runs give each run's
    times as ranges, and the writers format a run at a time from them through
    _frame_text. tests/reference_board.py expands the runs a record at a
    time, for the tests of the writers."""

    __slots__ = ("settled_rolls", "display_words", "onpin_edges", "uart_runs", "end_us", "final_state")

    def __init__(self, settled_rolls: list | None = None, display_words: list | None = None,
                 onpin_edges: list | None = None, uart_runs: list | None = None, end_us: int = 0,
                 final_state: dict | None = None) -> None:
        self.settled_rolls = [] if settled_rolls is None else settled_rolls  # (t_us, diceval, out)
        self.display_words = [] if display_words is None else display_words  # (t_us, word)
        self.onpin_edges = [] if onpin_edges is None else onpin_edges        # (t_us, level)
        self.uart_runs = [] if uart_runs is None else uart_runs  # (START t_us, byte), or (t_us, None) at RESET 1
        self.end_us = end_us
        self.final_state = {} if final_state is None else final_state

    def _runs(self):
        """(START t_us, byte, last us sent, cut by RESET 1) of each run."""
        runs = self.uart_runs
        # the last run ends with the replay: an end that is not a cut
        for (t0, byte), (t_next, next_byte) in zip(runs, runs[1:] + [(self.end_us + 1, 0)]):
            if byte is not None:
                yield t0, byte, t_next if next_byte is None else t_next - 1, next_byte is None

    def uart_byte_runs(self):
        """(byte, times of the STOP-to-IDLE edges of its frames that complete)
        of each run, the times as a range."""
        for t0, byte, last, _ in self._runs():
            yield byte, range(t0 + STOP_US, last + 1, US_PER_FRAME)

    def uart_wave_runs(self):
        """(changes, starts, tail) of each run: the (offset, tx level) changes
        of one of its frames, the START times of its whole frames as a range,
        and the (t_us, tx level) changes of its last frame, the only one cut,
        up to the cut or the end, then the line going high at a cut."""
        for t0, byte, last, cut in self._runs():
            changes = [(k * US_PER_BIT, level) for k, level in uart_frame(byte)[1]]
            t = last - (last - t0) % US_PER_FRAME  # the START of the run's last frame
            tail = [(t + dt, level) for dt, level in changes if dt <= last - t]
            if cut and tail[-1][1] != 1:  # tail holds at least the START edge
                tail.append((last, 1))
            yield changes, range(t0, t, US_PER_FRAME), tail


class Board:
    """The whole board under replay: device, synthetic ADC source, held input
    levels and run log. It steps only on the device grid: two counters, the
    HZ10 and the S5 steps since the last reset release, place the next edge
    of each domain arithmetically, and the earlier of the two is taken, so a
    span split by a trace event is unchanged. The HZ10 steps of a steady
    upright span (fact 4) of STEADY_MIN_STEPS or more are one jump, to the
    last step before the next event. The UART is noted as runs of same-byte
    frames, the way display words are noted: a run opens at each release
    and at each HZ10 step that changes the live byte, and RESET 1 notes a
    cut. snapshot() derives the frame in flight and the HZ500 display
    latch.
    """

    def __init__(self, config: ReplayConfig) -> None:
        self.device = Device(config.prng_mode, config.intuitive_tilt)
        self.adc = SyntheticAdc(config.adc_seed)
        self.levels = {name: 0 for name in LEVEL_SIGNALS}
        self.log = RunLog()
        self.adc_pending = None
        self.now = 0          # absolute cycles processed so far
        self.word = None      # last display word
        self._release(0)
        self.note_display(0)

    def _release(self, origin: int) -> None:
        self.reset = 0
        self.origin = origin  # absolute cycle of the last reset release
        self.hz10_steps = self.s5_steps = 0  # since the release
        self.note_uart(origin)

    def note_display(self, t_us: int) -> None:
        sel = self.device.selection
        word = bcd_select(sel.setmode, sel.set_digits, self.device.roll.live)
        if word != self.word:
            self.word = word
            self.log.display_words.append((t_us, word))

    def note_uart(self, cycle: int) -> None:
        """Open a run if the live byte differs from the last run's: the frames
        from the first START at or after absolute cycle `cycle` carry it. After
        RESET 1 the last entry is a cut, so each release opens one."""
        live, runs = self.device.roll.live, self.log.uart_runs
        byte = payload_pack(live[1], live[2])
        if not runs or runs[-1][1] != byte:
            ahead = (self.origin + FIRST_FRAME_CYCLES - cycle) % FRAME_CYCLES
            runs.append(((cycle + ahead) // CYCLES_PER_US, byte))

    def end_runs(self, t_us: int) -> None:
        """Drop the runs whose first frame would start after t_us: RESET 1 or
        the end of the replay comes first, and cuts the frame in flight."""
        runs = self.log.uart_runs
        while runs and runs[-1][0] > t_us:
            runs.pop()

    def run_to(self, cycle: int) -> None:
        """Step the device on every HZ10 and S5 rising edge at or before
        absolute cycle `cycle`."""
        if cycle < self.now:
            raise ValueError("replay cannot move backwards in time")
        self.now = cycle
        if self.reset:
            return
        dev, log, origin, levels = self.device, self.log, self.origin, self.levels
        while True:
            # the next rising edges sit at odd multiples of each half period
            hz10 = origin + HZ10_HALF * (2 * self.hz10_steps + 1)
            s5 = origin + S5_HALF * (2 * self.s5_steps + 1)
            edge = min(hz10, s5)
            if edge > cycle:
                return
            t_us = edge // CYCLES_PER_US
            if edge == hz10:  # never an S5 edge too (fact 1)
                sample = self.adc_pending
                if sample is None:
                    sample = self.adc.next()
                self.adc_pending = None
                tilt, selection, roll = dev.tilt, dev.selection, dev.roll
                dev.hz10_tick(levels["TILT"], levels["BTNU"], levels["BTND"], sample)
                if dev.tilt.upright and not tilt.upright:
                    log.settled_rolls.append((t_us, dev.roll.held_diceval, held_value(dev.roll)))
                if dev.selection is not selection or dev.roll is not roll:  # the notes read only these two
                    self.note_display(t_us)
                    self.note_uart(edge)  # no frame starts on this edge (fact 2)
                self.hz10_steps += 1
                # a steady span (fact 4) with STEADY_MIN_STEPS or more steps left by
                # cycle: jump to the last (in FEEDBACK mode, once rand_reg has latched)
                if (cycle - edge >= 2 * HZ10_HALF * STEADY_MIN_STEPS and dev.tilt.upright
                        and (dev.rand_reg or dev.prng_mode == STATELESS)
                        and (dev.tilt, dev.selection, dev.roll) == (tilt, selection, roll)):
                    steps = (cycle - edge) // (2 * HZ10_HALF)
                    dev.steady_ticks(steps, self.adc.skip(steps))
                    self.hz10_steps += steps
            else:  # S5 leaves the digits alone (fact 3)
                before = dev.power.onsig
                dev.s5_tick()
                if dev.power.onsig != before:
                    log.onpin_edges.append((t_us, dev.power.onsig))
                self.s5_steps += 1

    def apply(self, ev: TraceEvent) -> None:
        """Apply one trace event at the current time."""
        if ev.signal == "ADC":
            self.adc_pending = ev.value
        elif ev.signal == "RESET":
            if ev.value == 1 and not self.reset:
                self.end_runs(ev.t_us)  # a frame starting on this very cycle still drives its START bit
                self.log.uart_runs.append((ev.t_us, None))
                self.reset = 1
                self.device.reset()
                self.adc_pending = None
                self.note_display(ev.t_us)
            elif ev.value == 0 and self.reset:
                self._release(ev.t_us * CYCLES_PER_US)
        else:
            self.levels[ev.signal] = ev.value

    def snapshot(self) -> dict:
        """Register snapshot at the current time, as state.json holds it."""
        dev, tx, ready, latched = self.device, UartTxState(), 0, None  # idle until a frame starts
        if not self.reset:
            ready = (self.now - self.origin + HALF_PERIODS[HZ1000]) // (2 * HALF_PERIODS[HZ1000]) % 2
            since = self.now - self.origin - FIRST_FRAME_CYCLES  # cycles since the first frame started
            if since >= 0:  # the frame in flight belongs to the last run that started by its START
                start = (self.now - since % FRAME_CYCLES) // CYCLES_PER_US
                runs = self.log.uart_runs
                byte = runs[bisect_right(runs, start, key=itemgetter(0)) - 1][1]
                tx = uart_frame(byte)[0][min(self.now // CYCLES_PER_US - start, STOP_US) // US_PER_BIT]
            since = self.now - self.origin - HALF_PERIODS[HZ500]  # cycles since the first HZ500 edge
            if since >= 0:  # the word changes only on HZ10 edges, never on an HZ500 edge
                t_latch = (self.now - since % (2 * HALF_PERIODS[HZ500])) // CYCLES_PER_US
                words = self.log.display_words
                latched = words[bisect_right(words, t_latch, key=itemgetter(0)) - 1][1]
        return {
            "t_us": self.now // CYCLES_PER_US,
            "seed": dev.seed,
            "prng": {"mode": dev.prng_mode, "rand_reg": dev.rand_reg},
            "rand": dev.rand,
            "tilt": {"window": dev.tilt.window, "sumtilt": dev.tilt.sumtilt, "upright": dev.tilt.upright},
            "selection": {
                "setmode": dev.selection.setmode,
                "dselect": dev.selection.dselect,
                "diceval": dev.selection.diceval,
                "set_digits": list(dev.selection.set_digits),
                "keepon": dev.selection.keepon,
            },
            "roll": {
                "out": dev.roll.out,
                "held_diceval": dev.roll.held_diceval,
                "live": list(dev.roll.live),
                "held": list(dev.roll.held),
            },
            "power": {"onsig": dev.power.onsig, "clk5": dev.power.clk5},
            "uart": {"fsm": tx.fsm, "ready": ready, "tx_level": tx.tx_level},
            "display": {
                "word": self.word,
                "render": render_word(self.word),
                "digit_codes": list(unpack_word(latched)) if latched is not None else [DCODE] * 4,
            },
            "levels": dict(self.levels),
            "reset": self.reset,
        }


def replay(events: list[TraceEvent], config: ReplayConfig | None = None) -> RunLog:
    """Replay a trace through the full board and collect the run log.

    A settled roll is recorded at each false-to-true upright transition,
    capturing the held digits and the diceval that computed them.
    """
    cfg = config or ReplayConfig()
    last_event_t = events[-1].t_us if events else 0
    duration_us = cfg.duration_us if cfg.duration_us is not None else last_event_t + US_PER_SECOND
    if duration_us < last_event_t:
        raise ValueError(f"duration {duration_us} us ends before the last trace event at {last_event_t} us")

    board = Board(cfg)
    for ev in events:
        board.run_to(ev.t_us * CYCLES_PER_US)
        board.apply(ev)
    board.run_to(duration_us * CYCLES_PER_US)
    board.end_runs(duration_us)
    board.log.end_us = duration_us
    board.log.final_state = board.snapshot()
    return board.log


# ======================================================================
#  log serialization
# ======================================================================

LOG_COLUMNS = ("record", "t_us", "dice_sides", "roll", "byte", "word", "level")

# One row per record kind, in the order simultaneous records are written:
# the RunLog list (None for UART, whose frames log.uart_byte_runs gives a run
# at a time), then its csv and jsonl line templates over (t_us, ...).
_RECORD_KINDS = (
    ("settled_rolls", "ROLL,{0},{1},{2},,,\n", '{{"record":"ROLL","t_us":{0},"dice_sides":{1},"roll":{2}}}\n'),
    (None, "UART,{0},,,{1:02x},,\n", '{{"record":"UART","t_us":{0},"byte":"{1:02x}"}}\n'),
    ("display_words", "DISPLAY,{0},,,,{1:04x},\n", '{{"record":"DISPLAY","t_us":{0},"word":"{1:04x}"}}\n'),
    ("onpin_edges", "ONPIN,{0},,,,,{1}\n", '{{"record":"ONPIN","t_us":{0},"level":{1}}}\n'),
)
_UART_ROW = 1  # the row log.uart_byte_runs fill, a run at a time
_LOG_HEADERS = {"csv": ",".join(LOG_COLUMNS) + "\n", "jsonl": ""}


def emit_log(log: RunLog, fmt: str = "csv") -> str:
    """Serialize the merged record stream; csv and jsonl carry identical
    field values in identical order. Each RunLog list is already in time
    order, and heapq.merge keeps simultaneous ROLL, DISPLAY and ONPIN
    records in table order. Before each of them, the UART times that sort
    before it (before its t_us for a ROLL, up to it for the others) are
    written together, as _frame_text writes them; the % template of a short
    run is built once for the run."""
    if fmt not in _LOG_HEADERS:
        raise ValueError(f"unknown log format: {fmt!r} (expected csv or jsonl)")
    column = 1 if fmt == "csv" else 2
    streams = []
    for row, kind in enumerate(_RECORD_KINDS):
        if row != _UART_ROW:  # (t_us, bound, line): the UART times below bound go first
            after = int(row > _UART_ROW)
            streams.append([(rec[0], rec[0] + after, kind[column].format(*rec)) for rec in getattr(log, kind[0])])
    line = _RECORD_KINDS[_UART_ROW][column]
    pending = deque((line.format("%d", byte), times) for byte, times in log.uart_byte_runs())
    chunks = [_LOG_HEADERS[fmt]]
    for _, bound, text in chain(heapq.merge(*streams, key=itemgetter(0)), [(None, inf, "")]):
        while pending:
            template, times = pending[0]
            k = bisect_left(times, bound)
            if k < BLOCK_MIN_FRAMES:
                chunks.append((template * k) % tuple(times[:k]))
            else:
                before, after = template.split("%d")
                chunks.append(_frame_text(before, [(0, after)], times[:k]))
            if k < len(times):
                pending[0] = template, times[k:]
                break
            pending.popleft()
        chunks.append(text)
    return "".join(chunks)


def emit_uart_csv(log: RunLog) -> str:
    """UART byte log as t_us,byte_hex lines, a run at a time by _frame_text."""
    return "t_us,byte_hex\n" + "".join(
        _frame_text("", [(0, f",{byte:02x}\n")], times) for byte, times in log.uart_byte_runs())


def emit_uart_bits_csv(log: RunLog) -> str:
    """UART line-level waveform as t_us,level lines: a run's whole frames
    by _frame_text over one frame's changes, its last frame line by line."""
    chunks = ["t_us,level\n0,1\n"]  # the line idles high from 0 us
    for changes, starts, tail in log.uart_wave_runs():
        chunks.append(_frame_text("", [(dt, f",{level}\n") for dt, level in changes], starts))
        chunks += [f"{t_us},{level}\n" for t_us, level in tail]
    return "".join(chunks)


# A frame lasts US_PER_FRAME = 10**4 us, so the line at offset dt of the
# frame that starts at s is at t = 10**4 * v + w, (v, w) = divmod(s + dt,
# 10**4), and from one frame of a run to the next only v moves. Ten rows,
# v = 10 B to 10 B + 9, span [10**5 B, 10**5 (B + 1)): there, for B >= 1,
# str(t) is str(B) and five digits set by v - 10 B and w alone, so such a
# block of a run is one str(B).join over the same pieces.
BLOCK_MIN_FRAMES = 40  # a shorter run takes one % template: the pieces would cost more


def _frame_text(before, lines, starts) -> str:
    """The lines before + str(s + dt) + after, for s in starts, a range of
    step US_PER_FRAME, and (dt, after) in lines, dt ascending and less than
    US_PER_FRAME apart. A run shorter than BLOCK_MIN_FRAMES is one % template
    over its times. A longer one goes by blocks of ten rows of US_PER_FRAME
    us, the lines of a row sorted by w: one join per whole block, one over
    part of the pieces for the blocks it starts and ends in, and its lines
    below 10**5 us one by one."""
    n, m = len(starts), len(lines)
    if n < BLOCK_MIN_FRAMES:
        ranges = [range(starts.start + dt, starts.stop + dt, US_PER_FRAME) for dt, _ in lines]
        times = ranges[0] if m == 1 else chain.from_iterable(zip(*ranges))
        return ("".join(f"{before}%d{after}" for _, after in lines) * n) % tuple(times)
    # Sorted by w, the lines are the m columns of rows v, those whose s + dt
    # passed a multiple of 10**4 (v one more) first. Row v, column c is place
    # m * v + c; the run fills places f0 to f1 - 1, from the first line that
    # did not pass one, in row `first`.
    placed = []
    for dt, after in lines:
        v, w = divmod(starts.start + dt, US_PER_FRAME)
        placed.append((w, v, after))
    placed.sort()
    first = placed[-1][1]
    f0 = m * first + sum(v > first for _, v, _ in placed)
    f1, size = f0 + m * n, 10 * m
    tails = [f"{w:04d}{after}{before}" for w, _, after in placed]
    pieces = [before, *(u + tail for u in "0123456789" for tail in tails)]  # place j of a block: pieces[j + 1]
    pieces[-1] = pieces[-1][:len(pieces[-1]) - len(before)]
    b0, b1 = f0 // size, f1 // size  # the blocks the run starts and ends in, b1 >= b0 + 4
    if b0:
        head = str(b0).join([before, *pieces[1 + f0 % size:]])
    else:  # below 10**5 us, where str(t) has no leading block number
        head = "".join([f"{before}{US_PER_FRAME * v + w}{after}" for v in range(10) for w, _, after in placed][f0:])
    tail = str(b1).join(pieces[:1 + f1 % size])  # then the before of the line after the run
    blocks = map(str.join, map(str, range(b0 + 1, b1)), repeat(pieces))
    return "".join((head, *blocks, tail[:len(tail) - len(before)]))


def _leaf_texts(node, out: list) -> list:
    """The JSON text of each leaf of a snapshot (an int, a str or a bool),
    appended to out in the order json.dumps with sort_keys writes them."""
    for value in map(node.__getitem__, sorted(node)) if type(node) is dict else node:
        kind = type(value)
        if kind is int:
            out.append(str(value))
        elif kind is str:
            out.append(encode_basestring_ascii(value))
        elif kind is bool:
            out.append("true" if value else "false")
        else:  # a dict or a list
            _leaf_texts(value, out)
    return out


def _blanked(node):
    """A snapshot with each leaf replaced by the string NUL."""
    if isinstance(node, dict):
        return {key: _blanked(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_blanked(value) for value in node]
    return "\0"


@functools.cache
def _state_template() -> str:
    """state.json as a % template with one %s per leaf: json.dumps's indented,
    key-sorted layout of the shape every snapshot has, a power-on board's."""
    text = json.dumps(_blanked(Board(ReplayConfig()).snapshot()), indent=2, sort_keys=True)
    return text.replace("%", "%%").replace('"\\u0000"', "%s") + "\n"


def emit_state_json(log: RunLog) -> str:
    """Final device snapshot as stable-keyed JSON, as json.dumps writes it
    with indent=2 and sort_keys, and a LF: the leaves' JSON texts filled into
    the layout of `_state_template`."""
    return _state_template() % tuple(_leaf_texts(log.final_state, []))
