"""An edge-by-edge reference of the whole board, to check `simulate` against.

It shares no stepping code with `dicesim.trace.Board`, which steps only on
the HZ10/S5 device grid and derives the UART and the display latch from
their periods. Here, from each reset release on, a fresh `Scheduler` lists
every toggle of the divider bank, and each rising edge clocks its block:

- HZ10: the board picks the ADC sample, the last ADC event since the
  previous tick or else the synthetic source, then `Device.hz10_tick`;
- S5: `Device.s5_tick`;
- HZ1000: `UartChannel.edge` with the live byte;
- HZ500: `DisplayMux.step` with the display word.

A trace event applies after the edges of its cycle. RESET 1 holds the
dividers, and with them the UART and the display latch, in reset until
RESET 0. After every step, edge or event, the board compares the upright
level, the display word and the power pin with the step before and notes a
ROLL, DISPLAY or ONPIN record where one changed. `simulate_files` formats
its log, uart.csv and uart_bits.csv a record at a time, and the board adds
state.json.

    python tests/reference_board.py    # every simulate corpus case

checks the files of every corpus case that `simulate` completes (exit 0)
against the case's digests and, for each one that differs, prints its argv
and its trace. tests/test_reference_board.py checks a fixed slice, and
tests/test_trace.py compares the board with `simulate` on hypothesis traces.

The module is also the one home of the references that tests/ and
benchmarks/ both check the program against:

- `upright_loop`: the end state of an upright boot stepped one roll tick
  at a time, for runs too long to step edge by edge;
- `uart_bytes` and `uart_waveform`: the UART runs of a `RunLog` expanded
  a record at a time, and `log_files`: the three files `simulate`'s
  run-at-a-time writers make from a `RunLog`, formatted from those
  records and the log's lists by `simulate_files`;
- `feedback_reference` and `stateless_reference`: the generator's two
  scalar chains, a step at a time;
- `roll_lines`, `count_reference` and `face_lines`: the rolls text, the
  strict count of a rolls read and the bias report's face lines, one line
  at a time;
- `shift_stage`, `gf2_power` and `gf2_apply`: the xorshift's stages as
  GF(2) bit matrices, built from nothing in `dicesim.prng`;
- `stepper_oracle`: the divider bank's toggles, counted a cycle at a time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import sys
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: use this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dicesim.device import DEFAULT_ADC_SEED, TICK_STEPS, Device, SyntheticAdc  # noqa: E402
from dicesim.display import DisplayMux, bcd_select, render_word  # noqa: E402
from dicesim.prng import MASK32, lcg_step, seed_shift, xorshift_jump, xorshift_step  # noqa: E402
from dicesim.timing import (  # noqa: E402
    DOMAIN_ORDER,
    FALLING,
    HALF_PERIODS,
    HZ10,
    HZ1000,
    HZ500,
    RISING,
    S5,
    Scheduler,
)
from dicesim.trace import STOP_US, US_PER_BIT, US_PER_FRAME, TraceEvent, parse_trace  # noqa: E402
from dicesim.uart import FRAME_BITS, UartChannel, encode_frame, payload_pack  # noqa: E402

CYCLES_PER_US = 12
DEFAULT_TAIL_US = 1_000_000       # with no --duration-us, a run ends one second after its last event
SPAN_CYCLES = 12 * 1_000_000      # the toggles of at most one simulated second are listed at once
LOG_COLUMNS = ("record", "t_us", "dice_sides", "roll", "byte", "word", "level")
KIND_ORDER = ("ROLL", "UART", "DISPLAY", "ONPIN")  # the order of records at one µs


class ReferenceBoard:
    """Device, ADC source, held input levels, divider bank, UART and display
    latch, each stepped on its own edges, and the records noted so far."""

    def __init__(self, prng_mode: str, intuitive_tilt: bool, adc_seed: int) -> None:
        self.device = Device(prng_mode, intuitive_tilt)
        self.adc = SyntheticAdc(adc_seed)
        self.levels = {"TILT": 0, "BTNU": 0, "BTND": 0}
        self.sample = None         # the last ADC event since the previous HZ10 tick
        self.reset = 0
        self.records = []          # (t_us, kind, fields) in the order noted
        self.wave = [(0, 1)]       # (t_us, tx level) at each change; the line idles high
        self.upright, self.word, self.onsig = False, None, self.device.onsig
        self._hold()  # power-on: the blocks start clear, and the dividers count from cycle 0
        self._release(0)
        self.now = 0               # absolute cycles run so far
        self._note(0)

    def _hold(self) -> None:
        """RESET 1: the dividers stop, and the UART and the latch they clock clear."""
        self.scheduler, self.channel, self.mux = None, UartChannel(), DisplayMux()

    def _release(self, cycle: int) -> None:
        self.scheduler, self.origin = Scheduler(), cycle

    def _display_word(self) -> int:
        dev = self.device
        return bcd_select(dev.selection.setmode, dev.selection.set_digits, dev.roll.live)

    def _record(self, t_us: int, kind: str, **fields) -> None:
        self.records.append((t_us, kind, fields))

    def _note(self, t_us: int) -> None:
        """Note what changed since the last step."""
        dev = self.device
        if dev.tilt.upright and not self.upright:
            roll = dev.roll
            value = 100 * roll.held[0] + 10 * roll.held[1] + roll.held[2]
            self._record(t_us, "ROLL", dice_sides=roll.held_diceval, roll=value)
        self.upright = dev.tilt.upright
        word = self._display_word()
        if word != self.word:
            self._record(t_us, "DISPLAY", word=f"{word:04x}")
            self.word = word
        if dev.onsig != self.onsig:
            self._record(t_us, "ONPIN", level=dev.onsig)
            self.onsig = dev.onsig

    def _edge(self, domain: str, cycle: int) -> None:
        """One rising edge of a domain at absolute cycle `cycle`."""
        t_us, dev = cycle // CYCLES_PER_US, self.device
        if domain == HZ10:
            sample = self.adc.next() if self.sample is None else self.sample
            self.sample = None
            dev.hz10_tick(self.levels["TILT"], self.levels["BTNU"], self.levels["BTND"], sample)
        elif domain == S5:
            dev.s5_tick()
        elif domain == HZ1000:
            tx = self.channel.edge(payload_pack(dev.roll.live[1], dev.roll.live[2]))
            if tx.ap_valid:
                self._record(t_us, "UART", byte=f"{tx.shift_data:02x}")
            if tx.tx_level != self.wave[-1][1]:
                self.wave.append((t_us, tx.tx_level))
        elif domain == HZ500:
            self.mux.step(self._display_word())
        self._note(t_us)

    def run_to(self, cycle: int) -> None:
        """Clock every rising edge up to and including absolute cycle `cycle`."""
        self.now = cycle
        while self.scheduler is not None and self.origin + self.scheduler.cycle < cycle:
            for event in self.scheduler.advance(min(SPAN_CYCLES, cycle - self.origin - self.scheduler.cycle)):
                if event.edge == RISING:
                    self._edge(event.domain, self.origin + event.sysclk_index)

    def apply(self, ev: TraceEvent) -> None:
        """Apply one trace event after the edges of its cycle."""
        if ev.signal == "ADC":
            self.sample = ev.value
        elif ev.signal == "RESET":
            if ev.value and not self.reset:
                self.device.reset()
                self.sample = None
                self._hold()
                if self.wave[-1][1] != 1:
                    self.wave.append((ev.t_us, 1))
            elif not ev.value and self.reset:
                self._release(ev.t_us * CYCLES_PER_US)
            self.reset = ev.value
        else:
            self.levels[ev.signal] = ev.value
        self._note(ev.t_us)

    def state(self) -> dict:
        dev, tx = self.device, self.channel.tx
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
            "power": {"onsig": dev.onsig, "clk5": dev.onsig},
            "uart": {"fsm": tx.fsm, "ready": self.channel.ready, "tx_level": tx.tx_level},
            "display": {"word": self.word, "render": render_word(self.word), "digit_codes": list(self.mux.digit_codes)},
            "levels": dict(self.levels),
            "reset": self.reset,
        }

    def files(self, fmt: str, uart_bits: bool) -> dict[str, bytes]:
        """The files `simulate` writes, by name."""
        files = simulate_files(self.records, self.wave, fmt)
        if not uart_bits:
            del files["uart_bits.csv"]
        files["state.json"] = json.dumps(self.state(), indent=2, sort_keys=True) + "\n"
        return {name: text.encode("utf-8") for name, text in files.items()}


def simulate_files(records, wave, fmt: str) -> dict[str, str]:
    """log.{fmt}, uart.csv and uart_bits.csv, a record at a time: records
    are (t_us, kind, fields), each kind in the order noted, and wave is the
    (t_us, tx level) of every change of the line."""
    rows = [{"record": kind, "t_us": t_us, **fields}
            for t_us, kind, fields in sorted(records, key=lambda r: (r[0], KIND_ORDER.index(r[1])))]
    log = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(log, LOG_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        log.writelines(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    uart = "".join(f"{row['t_us']},{row['byte']}\n" for row in rows if row["record"] == "UART")
    return {
        f"log.{fmt}": log.getvalue(),
        "uart.csv": "t_us,byte_hex\n" + uart,
        "uart_bits.csv": "t_us,level\n" + "".join(f"{t_us},{level}\n" for t_us, level in wave),
    }


def reference_files(trace: bytes, options: Sequence[str]) -> dict[str, bytes]:
    """The files `dicesim simulate --trace T --out O *options` writes for a
    trace it accepts, made by the reference board."""
    values = {"--prng-mode": "stateless", "--format": "csv", "--adc-seed": str(DEFAULT_ADC_SEED),
              "--duration-us": None}
    flags = set()
    args = iter(options)
    for arg in args:
        if arg in ("--intuitive-tilt", "--uart-bits"):
            flags.add(arg)
        else:
            values[arg] = next(args)
    events = parse_trace(trace.decode("utf-8"))
    board = ReferenceBoard(values["--prng-mode"], "--intuitive-tilt" in flags, int(values["--adc-seed"]))
    for ev in events:
        board.run_to(ev.t_us * CYCLES_PER_US)
        board.apply(ev)
    duration = values["--duration-us"]
    end = int(duration) if duration is not None else (events[-1].t_us if events else 0) + DEFAULT_TAIL_US
    board.run_to(end * CYCLES_PER_US)
    return board.files(values["--format"], "--uart-bits" in flags)


UPRIGHT_TRACE = b"0 RESET 1\n1000 RESET 0\n1000 TILT 1\n"  # a boot set upright


def upright_loop(prng_mode: str, duration_us: int) -> tuple[int, int, int, int]:
    """(seed, rand, rand_reg, ONPIN records) at the end of UPRIGHT_TRACE run
    for duration_us with the default ADC seed, one roll tick at a time: per
    tick one synthetic sample shifted into the seed, and in feedback mode the
    register latched from the seed or stepped one HZ10 period; the pin
    toggles at every S5 step."""
    first_tick, tick = 1_000 + 50_002, 100_004  # the release is at 1 000 us
    first_s5, s5 = 1_000 + 2_500_100, 5_000_200
    lcg, seed, reg = DEFAULT_ADC_SEED, 0, 0
    for _ in range((duration_us - first_tick) // tick + 1):
        lcg = lcg_step(lcg)
        seed = seed_shift(seed, lcg >> 16)
        if prng_mode == "feedback":
            reg = xorshift_jump(reg, TICK_STEPS) if reg else xorshift_step(seed)
    rand = reg if prng_mode == "feedback" else xorshift_step(seed)
    return seed, rand, reg, (duration_us - first_s5) // s5 + 1


def uart_bytes(log) -> list:
    """(t_us, byte) at the STOP-to-IDLE edge of every frame of a RunLog that
    completes, a frame at a time."""
    return [(t, byte) for t0, byte, last, _ in log._runs() for t in range(t0 + STOP_US, last + 1, US_PER_FRAME)]


def uart_waveform(log) -> list:
    """(t_us, tx level) at every change of a RunLog's line, which idles high,
    a frame at a time, each frame's changes taken from its encode_frame; RESET
    1 cuts the frame in flight and drives it high."""
    wave = [(0, 1)]
    for t0, byte, last, cut in log._runs():
        levels = [1] + encode_frame(byte)
        changes = [(k * US_PER_BIT, levels[k + 1]) for k in range(FRAME_BITS) if levels[k + 1] != levels[k]]
        t = last - (last - t0) % US_PER_FRAME  # the START of the run's last frame
        wave += [(s + dt, level) for s in range(t0, t, US_PER_FRAME) for dt, level in changes]
        wave += [(t + dt, level) for dt, level in changes if dt <= last - t]
        if cut and wave[-1][1] != 1:
            wave.append((last, 1))
    return wave


def log_files(log, fmt: str) -> dict[str, str]:
    """log.{fmt}, uart.csv and uart_bits.csv of a RunLog, a record at a time:
    the records of its lists and of uart_bytes, and the uart_waveform."""
    records = [(t, "ROLL", {"dice_sides": sides, "roll": roll}) for t, sides, roll in log.settled_rolls]
    records += [(t, "UART", {"byte": f"{byte:02x}"}) for t, byte in uart_bytes(log)]
    records += [(t, "DISPLAY", {"word": f"{word:04x}"}) for t, word in log.display_words]
    records += [(t, "ONPIN", {"level": level}) for t, level in log.onpin_edges]
    return simulate_files(records, uart_waveform(log), fmt)


def feedback_reference(seed: int, n: int) -> list[int]:
    """n successive xorshift outputs from seed, one scalar step at a time."""
    out, x = [], seed
    for _ in range(n):
        x = xorshift_step(x)
        out.append(x)
    return out


def stateless_reference(lcg_seed: int, n: int) -> list[int]:
    """Run the LCG, shift its top 16 bits into the seed register, transform."""
    out, lcg, seed = [], lcg_seed & MASK32, 0
    for _ in range(n):
        lcg = lcg_step(lcg)
        seed = seed_shift(seed, lcg >> 16)
        out.append(xorshift_step(seed))
    return out


def roll_lines(words, sides: int) -> str:
    """The rolls text of a uint32 array of words, one f-string per roll."""
    return "".join(f"{w % sides + 1}\n" for w in words.tolist())


def count_reference(block: bytes, sides: int) -> list[int] | None:
    """Counts when every line ends at a LF and is 1 to 3 digits in 1..sides, else None."""
    lines = block.split(b"\n")
    if lines.pop() != b"" or not all(re.fullmatch(rb"[0-9]{1,3}", line) for line in lines):
        return None
    faces = Counter(map(int, lines))
    if not lines or not all(1 <= face <= sides for face in faces):
        return None
    return [faces[face] for face in range(1, sides + 1)]


def face_lines(counts) -> str:
    """The face lines of a bias report, one f-string per (face, count)."""
    return "".join(f"face {face},{count}\n" for face, count in counts)


def shift_stage(k: int) -> np.ndarray:
    """x ^= x >> k (k > 0) or x ^= x << -k (k < 0) as a GF(2) bit matrix:
    row i holds the input bits that output bit i xors (bit 0 = LSB)."""
    return np.eye(32, dtype=np.int64) + np.eye(32, k=k, dtype=np.int64)


def gf2_power(m: np.ndarray, k: int) -> np.ndarray:
    """m**k over GF(2), by squaring."""
    result = np.eye(32, dtype=np.int64)
    while k:
        if k & 1:
            result = result @ m % 2
        m = m @ m % 2
        k >>= 1
    return result


def gf2_apply(m: np.ndarray, word: int) -> int:
    """The 32-bit word m maps word to."""
    bits = (word >> np.arange(32)) & 1  # bit 0 = LSB
    return int(((m @ bits % 2) << np.arange(32)).sum())


def stepper_oracle(n: int) -> list[tuple[int, str, str]]:
    """(cycle, domain, edge) of every toggle in cycles 1..n, counted the slow
    way: each domain's counter toggles its level when it reaches half - 1."""
    counters = {name: 0 for name in DOMAIN_ORDER}
    levels = {name: 0 for name in DOMAIN_ORDER}
    events = []
    for cyc in range(1, n + 1):
        for name in DOMAIN_ORDER:
            if counters[name] == HALF_PERIODS[name] - 1:
                counters[name] = 0
                levels[name] ^= 1
                events.append((cyc, name, RISING if levels[name] else FALLING))
            else:
                counters[name] += 1
    return events


def file_digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


def matches_corpus(case, digest: dict) -> bool:
    """Whether the reference board's files for a simulate corpus case are
    the ones its digests hold."""
    return file_digests(reference_files(case.trace, case.options)) == digest["files"]


if __name__ == "__main__":
    import simulate_corpus as corpus
    from corpus_runner import check, load_digests

    digests = load_digests(corpus)
    cases = [corpus.make_case(index) for index in range(corpus.CASES) if digests[index]["exit"] == 0]
    sys.exit(check(cases, lambda case: matches_corpus(case, digests[case.index]), corpus.describe,
                   "completed simulate cases match the reference board"))
