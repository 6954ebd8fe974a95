"""``shormps.rng.streams`` seeds a block of generators in one array pass, and
each is the stream of ``numpy.random.default_rng(seed)`` and of the one-seed
``streams(seed, 1)``."""

import numpy as np
import pytest

from shormps.rng import SEED_BLOCK, streams

RUNS = {
    "block": (0, SEED_BLOCK + 5),  # crosses a block boundary
    "2^32": (2**32 - 3, 6),  # one word, then two
    # a block of two-word seeds ending at 2^64 - 1, then one of two- and three-word seeds
    "2^64": (2**64 - SEED_BLOCK - 2, SEED_BLOCK + 4),
    "2^128-3": (2**128 - 3, 6),  # four words, then five: the fifth mixes into its own seeds only
    "2^128": (2**128, 1),
    "2^160-2": (2**160 - 2, 4),  # five words, then six
    "2^200+5": (2**200 + 5, 2),
    "3^150": (3**150, 2),
}


@pytest.mark.parametrize("first, count", RUNS.values(), ids=RUNS.keys())
def test_streams_equal_pcg64_and_numpy(first, count):
    got = list(streams(first, count))
    assert len(got) == count
    for k, ours in enumerate(got):
        alone, theirs = next(streams(first + k, 1)), np.random.default_rng(first + k)
        for draw in range(4):
            want = theirs.random()
            assert ours.random() == alone.random() == want, (first + k, draw)


def test_streams_read_lazily_and_can_be_empty():
    assert list(streams(7, 0)) == []
    head = streams(0, 10**12)  # one block is seeded at a time
    assert next(head).random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("first, count", [(-1, 1), (-3, 5)])
def test_negative_seed_is_refused(first, count):
    with pytest.raises(ValueError, match="non-negative"):
        list(streams(first, count))
    with pytest.raises(ValueError, match="non-negative"):
        next(streams(first, 1))
