"""A fixed slice of the stats and uart digest corpus: every third case, which
meets every kind of case, in about two seconds.
`python tests/stats_uart_corpus.py` checks all of them."""

import pytest

import stats_uart_corpus as corpus
from corpus_runner import load_digests


@pytest.fixture(scope="module")
def digests():
    return load_digests(corpus)


def test_corpus_has_a_digest_per_case(digests):
    assert len(digests) == corpus.CASES


@pytest.mark.parametrize("index", range(0, corpus.CASES, 3))
def test_stats_uart_corpus_case(index, digests):
    case = corpus.make_case(index)
    assert corpus.run_case(case) == digests[index], corpus.describe(case)
