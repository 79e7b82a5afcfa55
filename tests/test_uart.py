"""Transmit FSM timing, frame encoding, and the stream decoder."""

import random

import pytest

from dicesim.uart import (
    DecodedFrame,
    FRAME_BITS,
    FRAME_STATES,
    IDLE,
    START,
    STOP,
    TRANSFER,
    UartChannel,
    UartTxState,
    decode_stream,
    encode_frame,
    payload_pack,
    tx_step,
)


def test_payload_pack():
    assert payload_pack(1, 6) == 0x16
    assert payload_pack(0, 0) == 0x00
    assert payload_pack(0xF, 0xF) == 0xFF


def test_encode_frame_frozen():
    assert encode_frame(0x16) == [0, 0, 1, 1, 0, 1, 0, 0, 0, 1]
    assert encode_frame(0x00) == [0] * 9 + [1]
    assert encode_frame(0xFF) == [0] + [1] * 9
    with pytest.raises(ValueError):
        encode_frame(256)


def test_tx_fsm_frame_timeline():
    # edge by edge for byte 0x16; tx holds each level for one full period
    state = UartTxState()
    state = tx_step(state, ap_ready=True, data=0x16)
    assert (state.fsm, state.tx_level) == (START, 0)
    levels = [state.tx_level]
    for _ in range(8):
        state = tx_step(state, ap_ready=False, data=0x16)
        levels.append(state.tx_level)
    assert state.fsm == STOP
    state = tx_step(state, ap_ready=False, data=0x16)
    levels.append(state.tx_level)
    assert (state.fsm, state.tx_level, state.ap_valid) == (IDLE, 1, True)
    assert levels == encode_frame(0x16)


def test_tx_latches_data_at_idle_exit():
    state = tx_step(UartTxState(), ap_ready=True, data=0xA5)
    # change the input mid-frame: the flight frame must not care
    levels = [state.tx_level]
    for _ in range(9):
        state = tx_step(state, ap_ready=False, data=0x00)
        levels.append(state.tx_level)
    assert levels == encode_frame(0xA5)


def test_tx_idle_until_ready():
    state = tx_step(UartTxState(), ap_ready=False, data=0x42)
    assert (state.fsm, state.tx_level, state.ap_valid) == (IDLE, 1, False)


def test_ap_valid_single_period():
    state = UartTxState()
    state = tx_step(state, True, 0x01)
    flags = []
    for _ in range(9):
        state = tx_step(state, False, 0x01)
        flags.append(state.ap_valid)
    assert flags == [False] * 8 + [True]
    state = tx_step(state, False, 0x01)
    assert not state.ap_valid


def test_ready_gate():
    # ready toggles on every edge
    chan = UartChannel()
    levels = []
    for _ in range(4):
        chan.edge(0x16)
        levels.append(chan.ready)
    assert levels == [1, 0, 1, 0]


def test_channel_emits_back_to_back_frames():
    chan = UartChannel()
    waveform = []
    bytes_done = 0
    edges = 0
    while bytes_done < 3:
        state = chan.edge(0x16)
        waveform.append(state.tx_level)
        edges += 1
        if state.ap_valid:
            bytes_done += 1
    # one idle priming edge, then three 10-period frames with no gap
    assert edges == 1 + 3 * FRAME_BITS
    assert waveform[0] == 1
    assert waveform[1:11] == encode_frame(0x16)
    assert waveform[11:21] == encode_frame(0x16)
    frames, errors = decode_stream("".join(map(str, waveform)))
    assert [f.byte for f in frames] == [0x16] * 3
    assert errors == []


def test_uart_frame_matches_channel_for_every_byte():
    # replay reads a frame from FRAME_STATES and encode_frame: after edge k
    # the FSM stepped edge by edge is in FRAME_STATES[k] and drives bit k
    assert len(FRAME_STATES) == FRAME_BITS
    for byte in range(256):
        chan = UartChannel()
        chan.edge(byte)  # the idle priming edge
        states = [chan.edge(byte) for _ in range(FRAME_BITS)]
        assert [state.fsm for state in states] == list(FRAME_STATES)
        assert [state.tx_level for state in states] == encode_frame(byte)
        assert [state.ap_valid for state in states] == [False] * (FRAME_BITS - 1) + [True]
        assert states[-1].shift_data == byte


def test_decode_round_trip_with_idle_gaps():
    rng = random.Random(55)
    values = [rng.randrange(256) for _ in range(64)]
    bits = [1, 1, 1]
    for v in values:
        bits.extend(encode_frame(v))
        bits.extend([1] * rng.randrange(4))
    frames, errors = decode_stream("".join(map(str, bits)))
    assert errors == []
    assert [f.byte for f in frames] == values


def test_decode_accepts_strings():
    frames, errors = decode_stream("0011010001")
    assert frames == [DecodedFrame(0, 0x16)]
    assert errors == []


def test_decode_all_ones_is_silent():
    frames, errors = decode_stream("1" * 50)
    assert frames == [] and errors == []


def test_decode_bad_stop_reports_and_resyncs():
    bits = encode_frame(0xAA)
    bits[9] = 0  # corrupt the stop bit
    bits += [1, 1] + encode_frame(0x55)
    frames, errors = decode_stream("".join(map(str, bits)))
    assert len(errors) == 1
    assert errors[0].kind == "bad_stop"
    assert errors[0].offset == 0
    assert [f.byte for f in frames] == [0x55]


def test_decode_truncated_frame():
    frames, errors = decode_stream("".join(map(str, encode_frame(0x01)[:6])))
    assert frames == []
    assert len(errors) == 1
    assert errors[0].kind == "truncated"


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_stream("0012")
