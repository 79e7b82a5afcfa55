"""A fixed slice of the rolls digest corpus: every third case, which meets
every die, mode, count, seed kind and sink, in about a second.
`python tests/rolls_corpus.py` checks all of them."""

import pytest

import rolls_corpus as corpus
from corpus_runner import load_digests


@pytest.fixture(scope="module")
def digests():
    return load_digests(corpus)


def test_corpus_has_a_digest_per_case(digests):
    assert len(digests) == corpus.CASES


def test_corpus_takes_seed_zero_in_both_modes(digests):
    # feedback refuses a seed that masks to 0 (exit 2), stateless takes it
    zero = {(case.argv[6], digests[case.index]["exit"]) for case in map(corpus.make_case, range(corpus.CASES))
            if "--seed" in case.argv and int(case.argv[-1]) & 0xFFFFFFFF == 0}
    assert zero == {("feedback", 2), ("stateless", 0)}


@pytest.mark.parametrize("index", range(0, corpus.CASES, 3))
def test_rolls_corpus_case(index, digests):
    case = corpus.make_case(index)
    assert corpus.run_case(case) == digests[index], corpus.describe(case)
