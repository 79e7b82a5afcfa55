"""UART transmit path: 8N1 at 1000 baud, LSB first, plus a stream decoder.

The transmitter is clocked by HZ1000, so one FSM step is one bit period. A
frame is exactly ten periods: start (0), eight data bits LSB first, stop (1).
ap_valid is asserted for the single stop period. The ready gate toggles every
HZ1000 edge, so at most one frame can start per 2 ms; a running frame ignores
ready until it returns to IDLE.

The payload is the two live rand digits packed as huns*16 + tens, which is
why a transmitted roll of 16 reads as hex 0x16 on the wire. The replay log
expands its runs of same-byte frames from encode_frame and FRAME_STATES;
tx_step and UartChannel step the FSM edge by edge and are their reference.
"""

from __future__ import annotations

import re

from .record import Record

IDLE = "IDLE"
START = "START"
TRANSFER = "TRANSFER"
STOP = "STOP"

FRAME_BITS = 10
# the FSM state after edge k of a frame, which drives encode_frame's bit k
FRAME_STATES = (START,) + (TRANSFER,) * 7 + (STOP, IDLE)


def payload_pack(huns: int, tens: int) -> int:
    """Pack the two display digits into the wire byte."""
    return ((huns & 0xF) << 4) | (tens & 0xF)


class UartTxState(Record):
    """Transmitter state after an HZ1000 edge; tx_level is the bit driven for
    the following bit period."""

    __slots__ = ("fsm", "bit_index", "shift_data", "ap_valid", "tx_level")

    def __init__(self, fsm: str = IDLE, bit_index: int = 0, shift_data: int = 0, ap_valid: bool = False,
                 tx_level: int = 1) -> None:
        self.fsm = fsm
        self.bit_index = bit_index
        self.shift_data = shift_data
        self.ap_valid = ap_valid
        self.tx_level = tx_level


def tx_step(state: UartTxState, ap_ready: bool, data: int) -> UartTxState:
    """Advance the transmitter by one HZ1000 rising edge.

    data is sampled only on the IDLE exit edge; changing it mid-frame has no
    effect on the frame already in flight.
    """
    if state.fsm == IDLE:
        if ap_ready:
            return UartTxState(START, 0, data & 0xFF, False, 0)
        return UartTxState(IDLE, 0, state.shift_data, False, 1)
    if state.fsm == START:
        return UartTxState(TRANSFER, 1, state.shift_data, False, state.shift_data & 1)
    if state.fsm == TRANSFER:
        bit = (state.shift_data >> state.bit_index) & 1
        if state.bit_index == 7:
            return UartTxState(STOP, 0, state.shift_data, False, bit)
        return UartTxState(TRANSFER, state.bit_index + 1, state.shift_data, False, bit)
    if state.fsm == STOP:
        return UartTxState(IDLE, 0, state.shift_data, True, 1)
    raise ValueError(f"unknown transmitter state: {state.fsm!r}")


def encode_frame(byte: int) -> list[int]:
    """Ten-bit frame for one byte: start, data LSB first, stop."""
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"byte out of range 0..255: {byte}")
    return [0] + [(byte >> k) & 1 for k in range(8)] + [1]


class DecodedFrame(Record):
    __slots__ = ("offset", "byte")

    def __init__(self, offset: int, byte: int) -> None:
        self.offset = offset
        self.byte = byte


class FramingError(Record):
    __slots__ = ("offset", "kind", "message")

    def __init__(self, offset: int, kind: str, message: str) -> None:
        self.offset = offset
        self.kind = kind
        self.message = message


def decode_stream(bits: str) -> tuple[list[DecodedFrame], list[FramingError]]:
    """Decode an idle-high stream of "0" and "1" sampled at the bit rate.

    High bits are idle. A low bit opens a frame: eight data bits LSB first,
    then a stop bit that must be high. A low stop bit is reported with its
    offsets and scanning resumes at the next high bit; a frame running past
    the end of the stream is reported as truncated. An all-ones stream yields
    no frames and no errors.
    """
    bad = re.search("[^01]", bits)
    if bad:
        raise ValueError(f"bit stream may only contain 0 and 1: {bad.group()!r}")
    frames: list[DecodedFrame] = []
    errors: list[FramingError] = []
    i = bits.find("0")
    while i >= 0:
        if i + FRAME_BITS > len(bits):
            errors.append(FramingError(i, "truncated",
                                       f"frame starting at bit {i} runs past the end of the stream"))
            break
        if bits[i + 9] == "1":
            frames.append(DecodedFrame(i, int(bits[i + 8:i:-1], 2)))  # data bits MSB first
            i = bits.find("0", i + FRAME_BITS)
        else:
            errors.append(FramingError(i, "bad_stop",
                                       f"frame starting at bit {i}: stop bit low at bit {i + 9}"))
            high = bits.find("1", i + FRAME_BITS)
            i = bits.find("0", high) if high >= 0 else -1
    return frames, errors


class UartChannel:
    """Transmit FSM plus the ready toggler, stepped at HZ1000 rising edges."""

    def __init__(self) -> None:
        self.tx = UartTxState()
        self.ready = 0

    def edge(self, data: int) -> UartTxState:
        """One HZ1000 rising edge; the FSM samples ready before it toggles."""
        self.tx = tx_step(self.tx, bool(self.ready), data)
        self.ready ^= 1
        return self.tx
