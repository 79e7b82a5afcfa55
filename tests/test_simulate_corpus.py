"""A fixed slice of the simulate digest corpus: every fourth case and every
written-out one, about half a second. `python tests/simulate_corpus.py`
checks all of them."""

import pytest

import simulate_corpus as corpus
from corpus_runner import load_digests


@pytest.fixture(scope="module")
def digests():
    return load_digests(corpus)


def test_corpus_has_a_digest_per_case(digests):
    assert len(digests) == corpus.CASES


@pytest.mark.parametrize("index", sorted({*range(0, corpus.CASES, 4), *range(corpus.DRAWN_CASES, corpus.CASES)}))
def test_simulate_corpus_case(index, digests):
    case = corpus.make_case(index)
    assert corpus.run_case(case) == digests[index], corpus.describe(case)
