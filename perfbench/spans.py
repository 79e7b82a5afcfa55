"""Outside-in span recorder for the traced run.

Each entry point is wrapped by patching the name its caller looks up:
methods on their classes, functions on their modules, and names that
`dicesim.trace` and `dicesim.cli` imported from elsewhere. Nothing under
`src/` changes. Spans stay in memory as (name, start, end, parent) and are
written out when the run ends; a span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

EMIT_NAMES = ("emit_log", "emit_uart_csv", "emit_uart_bits_csv", "emit_state_json")
CMD_NAMES = ("cmd_simulate", "cmd_rolls", "cmd_stats", "cmd_uart")


def _length(result, bound):
    return {"events": len(result)}


def _words(result, bound):
    return {"words": int(bound.arguments["n"])}


def _steps(result, bound):
    return {"steps": int(bound.arguments["steps"])}


def _emitted(result, bound):
    if result.startswith("{\n"):  # the indented state snapshot is one record
        records = 1
    else:  # csv outputs open with a header line, jsonl rows with a brace
        records = result.count("\n") - (1 if result[:1].isalpha() else 0)
    return {"records": records, "bytes": len(result.encode("utf-8"))}


def targets(dicesim) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    cli, trace, kernels, stats = dicesim.cli, dicesim.trace, dicesim.kernels, dicesim.stats
    found = [
        (cli, "main", "cli.main", None),
        (dicesim.timing.Scheduler, "advance", "timing.advance", _length),
        (dicesim.device.Device, "hz10_tick", "device.hz10_tick", None),
        (dicesim.device.Device, "s5_tick", "device.s5_tick", None),
        (dicesim.device.SyntheticAdc, "next", "device.adc_next", None),
        (dicesim.uart.UartChannel, "edge", "uart.edge", None),
        (dicesim.display.DisplayMux, "step", "display.step", None),
        (trace, "bcd_select", "display.bcd_select", None),
        (trace, "parse_trace", "trace.parse_trace", _length),  # looked up by load_trace
        (cli, "replay", "trace.replay", None),
    ]
    found += [(cli, name, f"trace.{name}", _emitted) for name in EMIT_NAMES]
    found += [(cli, name, f"cli.{name}", None) for name in CMD_NAMES]
    for module, prefix in ((kernels, "kernels"), (stats, "stats")):
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                counter = {"advance_feedback": _steps, "feedback_sequence": _words,
                           "stateless_sequence": _words}.get(name) if prefix == "kernels" else None
                found.append((module, name, f"{prefix}.{name}", counter))
    return found


class Recorder:
    """Collects spans while installed; `install` and `uninstall` patch and restore."""

    def __init__(self, dicesim) -> None:
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._targets = targets(dicesim)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counter in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans = []
        self.counts.clear()

    def _wrap(self, name, fn, counter):
        recorder, clock = self, time.perf_counter
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = recorder.spans, recorder._stack
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            counts = recorder.counts[name]
            counts["calls"] += 1
            if inspect.isgenerator(result):
                return recorder._iterate(name, result)
            if counter is not None:
                for key, value in counter(result, signature.bind(*args, **kwargs)).items():
                    counts[key] += value
            return result

        return wrapper

    def _iterate(self, name, iterator):
        # a generator's work happens at each next(): record each as a span
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts[name]
        while True:
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            counts["events"] += 1
            yield item

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and counters, inclusive `s` and exclusive `self_s`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
            row["s"] += end - start
            row["self_s"] += end - start - inner
        for name, counts in self.counts.items():
            out.setdefault(name, {"s": 0.0, "self_s": 0.0}).update(counts)
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in seconds, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
