"""Deterministic behavioral twin of an FPGA digital dice unit.

The package mirrors the synthesized design register for register: the
xorshift generator, the tilt debounce vote, the dice-selection state
machine, the roll pipeline and the keep-awake toggler step on the HZ10 and
S5 rising edges of the hardware's divider bank. Replay derives the UART
frames and the HZ500 display latch from their periods on that grid; only
the reference models (Scheduler, UartChannel, DisplayMux) step them edge by
edge. Every logged artifact is reproducible bit for bit.
"""

import importlib

from .device import (
    DEFAULT_ADC_SEED,
    DICE_TABLE,
    SUPPORTED_DICE,
    Device,
    SyntheticAdc,
)
from .display import DisplayMux, bcd_select, pack_word, render_word
from .prng import (
    FEEDBACK,
    MASK32,
    STATELESS,
    seed_shift,
    xorshift_inverse,
    xorshift_jump,
    xorshift_step,
)
from .stats import (
    BiasReport,
    Histogram,
    UniformityReport,
    chi_square,
    critical_value,
    modulo_bias,
    uniformity_report,
)
from .timing import HALF_PERIODS, Scheduler, TickEvent
from .trace import ReplayConfig, RunLog, load_trace, parse_trace, replay
from .uart import UartChannel, decode_stream, encode_frame, payload_pack

__version__ = "0.1.0"


def __getattr__(name: str):
    """`dicesim.kernels`, imported when it is first read. The package and the
    replay path never load numpy, so `simulate` and `uart` start without it;
    `perfbench/child.py::set_up` and `perfbench/spans.py::targets` read the
    name after a plain `import dicesim`, and set-up still loads numpy here."""
    if name == "kernels":
        return importlib.import_module(".kernels", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DEFAULT_ADC_SEED",
    "DICE_TABLE",
    "SUPPORTED_DICE",
    "Device",
    "SyntheticAdc",
    "DisplayMux",
    "bcd_select",
    "pack_word",
    "render_word",
    "FEEDBACK",
    "MASK32",
    "STATELESS",
    "seed_shift",
    "xorshift_inverse",
    "xorshift_jump",
    "xorshift_step",
    "BiasReport",
    "Histogram",
    "UniformityReport",
    "chi_square",
    "critical_value",
    "modulo_bias",
    "uniformity_report",
    "HALF_PERIODS",
    "Scheduler",
    "TickEvent",
    "ReplayConfig",
    "RunLog",
    "load_trace",
    "parse_trace",
    "replay",
    "UartChannel",
    "decode_stream",
    "encode_frame",
    "payload_pack",
    "__version__",
]
