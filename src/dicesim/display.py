"""Seven-segment display pipeline: digit-set selection with leading-zero
blanking, the text form of a display word, and the latch of the four-digit
multiplex scanner.

Digit codes are 4-bit: 0..9 are numerals, 0xD is the lowercase 'd' of the
dice legend, 0xF is blank (codes 0xA, 0xB, 0xC, 0xE also render blank). The
glyph decode, the anode scan and the dp pin sit after the latch; no output
file reads them, so they are not modelled.
"""

from __future__ import annotations

BLANK = 0xF
DCODE = 0xD
CODE_CHARS = "0123456789   d  "  # the text form of each digit code


def pack_word(thou: int, huns: int, tens: int, ones: int) -> int:
    """Pack four digit codes into a 16-bit word, thousands in bits 15:12."""
    return ((thou & 0xF) << 12) | ((huns & 0xF) << 8) | ((tens & 0xF) << 4) | (ones & 0xF)


def unpack_word(word: int) -> tuple[int, int, int, int]:
    return ((word >> 12) & 0xF, (word >> 8) & 0xF, (word >> 4) & 0xF, word & 0xF)


def bcd_select(setmode: bool, set_digits: tuple[int, int, int, int],
               rand_digits: tuple[int, int, int, int]) -> int:
    """Choose and blank the display word for the current mode.

    setmode passes the selection codes through untouched. Rand mode blanks
    leading zeros cascading from the thousands digit; the ones digit blanks
    on zero independently of the rest.
    """
    if setmode:
        return pack_word(*set_digits)
    thou, huns, tens, ones = rand_digits
    thou_out = BLANK if thou == 0 else thou
    huns_out = BLANK if (huns == 0 and thou == 0) else huns
    tens_out = BLANK if (tens == 0 and huns == 0 and thou == 0) else tens
    ones_out = BLANK if ones == 0 else ones
    return pack_word(thou_out, huns_out, tens_out, ones_out)


def render_word(word: int) -> str:
    """Four-character text form of a display word ('d' for 0xD, space for blank)."""
    return "".join(CODE_CHARS[code] for code in unpack_word(word))


class DisplayMux:
    """The HZ500 scanner's latch: each step latches the incoming display
    word's digit codes, and a new one holds 'dddd', the power-on legend."""

    def __init__(self) -> None:
        self.digit_codes = (DCODE, DCODE, DCODE, DCODE)

    def step(self, bcd_word: int) -> None:
        """One HZ500 rising edge: latch the word."""
        self.digit_codes = unpack_word(bcd_word)
