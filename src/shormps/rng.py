"""PCG64 uniform draws in pure Python, seeded as numpy seeds them.

The k-th generator of ``streams(first, count)`` returns, draw for draw, the
floats of ``numpy.random.default_rng(first + k).random()``: numpy's
``SeedSequence`` turns the seed into four 64-bit words (32-bit hash mixing of
the seed's words into a pool of four, then eight output words), ``PCG64``
takes them as its 128-bit initial state and increment (O'Neill 2014, PCG
XSL-RR 128/64), and ``Generator.random`` keeps the top 53 bits of each 64-bit
output.  ``sample`` draws from it so that its process never imports
``numpy.random``, which costs 15-18 ms on first use.

``streams(first, count)`` seeds the generators of seeds ``first ...
first+count-1`` ``SEED_BLOCK`` at a time, hashing a whole block in numpy
``uint64`` lanes (one seed per column, 32-bit arithmetic masked).  That is
exact because the constant the hash uses at its k-th call is ``INIT *
MULT^k mod 2^32`` whatever the seed, so the constants are tables built at
import (``_hash_consts``); within one source row of the mixing loop the three
hashes are independent, so each step is one array operation; and a seed of
four words or fewer is hashed exactly as if zero-padded to four.  Words past
the fourth mix into their own seeds' pools only, with constants computed for
the block's longest seed, so seeds have no size cap.  In a fresh ``sample``
process (2-vCPU VM) the first block costs about 0.4 ms for 100 seeds, 0.25 ms
for 30 and 0.18 ms for one, against 2.6, 0.9 and 0.08 ms when each seed was
hashed word by word in Python (20-28 us a seed once warm); a draw costs about
a microsecond.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0 ** -53
# seeds hashed per array pass in ``streams``: bounds what a long campaign holds
SEED_BLOCK = 1024

# numpy scalars, so that no array operation converts a Python int
_LANE_M32, _S16, _S32 = np.uint64(_M32), np.uint64(16), np.uint64(32)
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)


def _hash_consts(init: int, mult: int, calls: int) -> list[int]:
    """``init * mult^k mod 2^32`` for k = 0 ... calls: the k-th hash call
    xors with entry k and multiplies by entry k+1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _lanes(values) -> np.ndarray:
    """A column of ``uint64`` constants, one per row of a (row, seed) array."""
    return np.array(values, dtype=np.uint64)[:, None]


def _mixing_steps() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per source row of the pool: the xor and multiply constants of the
    hash calls that mix it into each other row.  The source's own row gets
    zeros, and its mixed value is discarded."""
    consts = _hash_consts(_HASH_INIT_A, _HASH_MULT_A, _POOL * _POOL)
    steps = []
    call = _POOL  # calls 0 ... _POOL-1 fill the pool
    for src in range(_POOL):
        xor, mul = [0] * _POOL, [0] * _POOL
        for dst in range(_POOL):
            if dst != src:
                xor[dst], mul[dst] = consts[call], consts[call + 1]
                call += 1
        steps.append((src, _lanes(xor), _lanes(mul)))
    return steps


_FILL = _lanes(_hash_consts(_HASH_INIT_A, _HASH_MULT_A, _POOL))
_STEPS = _mixing_steps()
_OUT = _lanes(_hash_consts(_HASH_INIT_B, _HASH_MULT_B, 2 * _POOL))
# pool row behind each of the eight output words
_OUT_ROWS = [i % _POOL for i in range(2 * _POOL)]


def _hash(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul & _LANE_M32
    v ^= v >> _S16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    t = _MIX_MULT_L * x - _MIX_MULT_R * y & _LANE_M32
    t ^= t >> _S16
    return t


def _entropy(first: int, count: int) -> np.ndarray:
    """Seeds ``first ... first+count-1`` as 32-bit words, axes (word, seed),
    least significant first and zero-padded to at least ``_POOL`` words."""
    if first < 0:
        raise ValueError(f"seed must be non-negative, got {first}")
    last = first + count - 1
    width = max(_POOL, -(-last.bit_length() // 32))
    raw = b"".join(s.to_bytes(4 * width, "little") for s in range(first, last + 1))
    return np.frombuffer(raw, dtype="<u4").reshape(count, width).T.astype(np.uint64)


def _generate_states(first: int, count: int) -> list[list[int]]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for seeds ``first ...
    first+count-1``, as Python ints, one list per seed."""
    words = _entropy(first, count)
    pool = _hash(words[:_POOL], _FILL[:-1], _FILL[1:])
    for src, xor, mul in _STEPS:
        mixed = _mix(pool, _hash(pool[src], xor, mul))
        mixed[src] = pool[src]
        pool = mixed
    if words.shape[0] > _POOL:
        # word j >= _POOL mixes into every row, at calls _POOL*j ... _POOL*j+3,
        # of the seeds that have a nonzero word at or past j
        consts = _lanes(_hash_consts(_HASH_INIT_A, _HASH_MULT_A, _POOL * words.shape[0]))
        has_word = np.logical_or.accumulate(words[:_POOL - 1:-1] != 0, axis=0)[::-1]
        for j, (word, mixes) in enumerate(zip(words[_POOL:], has_word), start=_POOL):
            call = _POOL * j
            hashed = _hash(word, consts[call : call + _POOL], consts[call + 1 : call + _POOL + 1])
            pool = np.where(mixes, _mix(pool, hashed), pool)
    out = _hash(pool[_OUT_ROWS], _OUT[:-1], _OUT[1:])
    return (out[0::2] | out[1::2] << _S32).T.tolist()


class Pcg64:
    """PCG64 started from the four state words that ``SeedSequence``
    generates, for ``random()`` only; ``streams`` builds them."""

    __slots__ = ("_state", "_inc")

    def __init__(self, words: list[int]):
        s0, s1, s2, s3 = words
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        # numpy's srandom: state 0, step, add the initial state, step
        state = self._inc + (s0 << 64 | s1)
        self._state = state * _PCG_MULT + self._inc & _M128

    def random(self) -> float:
        """The next float in [0, 1), as ``Generator.random()`` gives it."""
        state = self._state = self._state * _PCG_MULT + self._inc & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        return (x >> 11) * _DOUBLE_UNIT


def streams(first: int, count: int):
    """``Pcg64``s drawing as ``numpy.random.default_rng(first + k)`` for k <
    ``count``, in order, seeded ``SEED_BLOCK`` at a time; a negative seed
    raises ``ValueError`` at the first draw of the iterator."""
    for start in range(first, first + count, SEED_BLOCK):
        for words in _generate_states(start, min(SEED_BLOCK, first + count - start)):
            yield Pcg64(words)
