"""The package's records: plain __slots__ classes, compared by value."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicesim
from dicesim.device import PowerState, RollState, TiltState
from dicesim.record import Record
from dicesim.stats import BiasReport
from dicesim.timing import TickEvent
from dicesim.trace import ReplayConfig, RunLog
from dicesim.uart import DecodedFrame, UartTxState


def test_records_show_their_fields_in_order():
    assert repr(TiltState()) == "TiltState(window=0, sumtilt=0, upright=False)"
    assert repr(RollState(4, 6, (0, 0, 4, 15), (0, 0, 4, 15))) == \
        "RollState(out=4, held_diceval=6, live=(0, 0, 4, 15), held=(0, 0, 4, 15))"
    assert repr(UartTxState()) == "UartTxState(fsm='IDLE', bit_index=0, shift_data=0, ap_valid=False, tx_level=1)"
    assert repr(ReplayConfig(duration_us=5)) == \
        "ReplayConfig(prng_mode='stateless', intuitive_tilt=False, duration_us=5, adc_seed=12345)"
    assert repr(DecodedFrame(0, 0x16)) == "DecodedFrame(offset=0, byte=22)"


def test_records_compare_by_value_within_their_class():
    assert TiltState(3, 2, False) == TiltState(3, 2, False)
    assert TiltState(3, 2, False) != TiltState(3, 2, True)
    assert TickEvent(6_000, "HZ1000", "rising") != (6_000, "HZ1000", "rising")
    assert PowerState(0, 1) != DecodedFrame(0, 1)  # equal fields, another class
    assert BiasReport(6, 32, 715_827_882, 4) == BiasReport(6, 32, 715_827_882, 4)
    assert RunLog(uart_runs=[(0, 0x16)]) == RunLog(uart_runs=[(0, 0x16)]) != RunLog()
    with pytest.raises(TypeError):
        hash(TiltState())


def test_default_lists_are_not_shared():
    a, b = RunLog(), RunLog()
    a.settled_rolls.append((0, 6, 1))
    assert b.settled_rolls == [] and a.final_state is not b.final_state


def test_every_record_class_names_its_fields():
    # a subclass without __slots__ of its own would inherit Record's empty
    # one: every instance would compare equal and show no fields
    classes = {cls for module in ("device", "stats", "timing", "trace", "uart")
               for cls in vars(getattr(dicesim, module)).values()
               if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert len(classes) == 13
    for cls in classes:
        assert "__slots__" in vars(cls) and cls.__slots__ and "__dict__" not in vars(cls), cls


def test_importing_the_commands_loads_no_dataclasses_or_inspect():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import dicesim.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'dicesim.stats', 'numpy'} & (set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dicesim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
