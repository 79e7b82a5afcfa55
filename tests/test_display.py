"""Display-word selection and blanking, its text form, and the scanner latch."""

from dicesim.display import (
    BLANK,
    DCODE,
    DisplayMux,
    bcd_select,
    pack_word,
    render_word,
    unpack_word,
)


def test_pack_unpack_round_trip():
    for word in range(0x10000):
        assert pack_word(*unpack_word(word)) == word


def test_pack_layout():
    assert pack_word(0xF, 0x1, 0x6, 0xF) == 0xF16F
    assert pack_word(0xD, 0x2, 0x0, 0xF) == 0xD20F


def _blank_oracle(thou, huns, tens, ones):
    t = BLANK if thou == 0 else thou
    h = BLANK if huns == 0 and thou == 0 else huns
    te = BLANK if tens == 0 and huns == 0 and thou == 0 else tens
    o = BLANK if ones == 0 else ones
    return pack_word(t, h, te, o)


def test_bcd_select_blanking_frozen_cases():
    assert bcd_select(False, (0, 0, 0, 0), (0, 1, 6, 0xF)) == 0xF16F
    assert bcd_select(False, (0, 0, 0, 0), (0, 0, 1, 0xF)) == 0xFF1F
    assert bcd_select(False, (0, 0, 0, 0), (0, 0, 0, 0)) == 0xFFFF
    assert bcd_select(False, (0, 0, 0, 0), (1, 0, 0, 0xF)) == 0x100F


def test_bcd_select_blanking_exhaustive():
    for thou in range(10):
        for huns in range(10):
            for tens in range(10):
                for ones in (0, 1, 9, 0xF):
                    got = bcd_select(False, (0, 0, 0, 0), (thou, huns, tens, ones))
                    assert got == _blank_oracle(thou, huns, tens, ones)


def test_bcd_select_setmode_passthrough():
    assert bcd_select(True, (0xD, 0x2, 0x0, 0xF), (9, 9, 9, 9)) == 0xD20F
    assert bcd_select(True, (0xD, 0x1, 0x0, 0x0), (0, 0, 0, 0)) == 0xD100


def test_render_word():
    assert render_word(0xF16F) == " 16 "
    assert render_word(0xD20F) == "d20 "
    assert render_word(0xDDDD) == "dddd"
    assert render_word(0xFFFF) == "    "
    assert render_word(0x0123) == "0123"


def test_mux_power_on_legend():
    assert DisplayMux().digit_codes == (DCODE, DCODE, DCODE, DCODE)


def test_mux_latches_word_each_step():
    mux = DisplayMux()
    mux.step(0x1234)
    assert mux.digit_codes == (1, 2, 3, 4)
    mux.step(0xFFFF)
    assert mux.digit_codes == (0xF, 0xF, 0xF, 0xF)
