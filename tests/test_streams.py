"""``shormps.rng.uniforms`` computes the PCG64 streams of a block of seeds in
one array pass, and each lane is the stream of
``numpy.random.default_rng(seed)`` and of the one-seed ``uniforms(seed, 1,
k)``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shormps import rng
from shormps.rng import SEED_BLOCK, uniforms

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
    got = uniforms(first, count, 4)
    assert got.shape == (count, 4)
    for k, ours in enumerate(got):
        alone, theirs = uniforms(first + k, 1, 4)[0], np.random.default_rng(first + k)
        for draw in range(4):
            want = theirs.random()
            assert ours[draw] == alone[draw] == want, (first + k, draw)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(0, 2**64), st.integers(2**64, 2**128),
                 st.integers(2**128, 2**256)),
       st.integers(0, 2 * SEED_BLOCK + 3), st.integers(1, 49))
def test_lanes_equal_numpy(first, count, draws):
    # seeds of one to nine words, counts across SEED_BLOCK, up to 2l+1 = 49
    # draws (l = 24)
    want = np.array([np.random.default_rng(first + k).random(draws) for k in range(count)])
    got = uniforms(first, count, draws)
    assert got.shape == (count, draws) and got.tobytes() == want.reshape(got.shape).tobytes()


def test_streams_read_lazily_and_can_be_empty(monkeypatch):
    assert uniforms(7, 0, 3).shape == (0, 3)
    # one block of seeds is hashed at a time
    blocks = []
    generate_states = rng._generate_states

    def counted(first, count):
        blocks.append((first, count))
        return generate_states(first, count)

    monkeypatch.setattr(rng, "_generate_states", counted)
    got = uniforms(0, 2 * SEED_BLOCK + 1, 1)
    assert blocks == [(0, SEED_BLOCK), (SEED_BLOCK, SEED_BLOCK), (2 * SEED_BLOCK, 1)]
    assert got[-1, 0] == np.random.default_rng(2 * SEED_BLOCK).random()


@pytest.mark.parametrize("first, count", [(-1, 1), (-3, 5)])
def test_negative_seed_is_refused(first, count):
    with pytest.raises(ValueError, match="non-negative"):
        uniforms(first, count, 1)
    with pytest.raises(ValueError, match="non-negative"):
        uniforms(first, 0, 1)
