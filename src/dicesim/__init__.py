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

# each public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("DEFAULT_ADC_SEED", "DICE_TABLE", "SUPPORTED_DICE", "Device", "SyntheticAdc"), "device"),
    **dict.fromkeys(("DisplayMux", "bcd_select", "pack_word", "render_word"), "display"),
    **dict.fromkeys(("FEEDBACK", "MASK32", "STATELESS", "seed_shift", "xorshift_inverse", "xorshift_jump",
                     "xorshift_step"), "prng"),
    **dict.fromkeys(("BiasReport", "Histogram", "UniformityReport", "chi_square", "critical_value",
                     "modulo_bias", "uniformity_report"), "stats"),
    **dict.fromkeys(("HALF_PERIODS", "Scheduler", "TickEvent"), "timing"),
    **dict.fromkeys(("ReplayConfig", "RunLog", "load_trace", "parse_trace", "replay"), "trace"),
    **dict.fromkeys(("UartChannel", "decode_stream", "encode_frame", "payload_pack"), "uart"),
}
_SUBMODULES = ("cli", "device", "display", "kernels", "prng", "record", "stats", "timing", "trace", "uart")


def __getattr__(name: str):
    """Each public name and submodule, imported when it is first read (PEP
    562), so a command loads only the modules it runs: `simulate` and
    `uart` never load `stats` or numpy (`kernels`). `perfbench/child.py`
    and `perfbench/spans.py` read `dicesim.kernels`, `dicesim.stats` and
    the other submodules after a plain `import dicesim`."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value  # read once through here
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # which binds it on the package
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
