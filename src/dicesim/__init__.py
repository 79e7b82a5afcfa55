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

__version__ = "0.1.0"

_SUBMODULES = ("cli", "device", "display", "kernels", "prng", "record", "stats", "timing", "trace", "uart")


def __getattr__(name: str):
    """Each submodule, imported when it is first read (PEP 562), so a
    command loads only the modules it runs: `simulate` and `uart` never
    load `stats` or numpy (`kernels`). `perfbench/child.py` and
    `perfbench/spans.py` read `dicesim.kernels`, `dicesim.stats` and the
    other submodules after a plain `import dicesim`."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # which binds it on the package
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
