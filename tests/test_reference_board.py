"""The reference board against a fixed slice of the simulate digest corpus:
every twelfth case and every written-out one, all of which `simulate`
completes, in about three seconds. `python tests/reference_board.py` checks
every completed case."""

import pytest

import reference_board
import simulate_corpus as corpus
from corpus_runner import load_digests

DIGESTS = load_digests(corpus)


@pytest.mark.parametrize("index", [index for index in sorted({*range(0, corpus.CASES, 12),
                                                              *range(corpus.DRAWN_CASES, corpus.CASES)})
                                   if DIGESTS[index]["exit"] == 0])
def test_reference_board_matches_corpus_case(index):
    case = corpus.make_case(index)
    assert reference_board.matches_corpus(case, DIGESTS[index]), corpus.describe(case)
