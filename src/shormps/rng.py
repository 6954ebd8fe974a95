"""PCG64 uniform draws in numpy ``uint64`` lanes, seeded as numpy seeds them.

Row k of ``uniforms(first, count, draws)`` holds, bit for bit, the first
``draws`` floats of ``numpy.random.default_rng(first + k).random()``: numpy's
``SeedSequence`` turns the seed into four 64-bit words (32-bit hash mixing of
the seed's words into a pool of four, then eight output words), ``PCG64``
takes them as its 128-bit initial state and increment (O'Neill 2014, PCG
XSL-RR 128/64), and ``Generator.random`` keeps the top 53 bits of each 64-bit
output.  ``sample`` draws from it so that its process never imports
``numpy.random``, which costs 15-18 ms on first use.

The seeds are hashed ``SEED_BLOCK`` at a time in ``uint64`` lanes (one seed
per column, 32-bit arithmetic masked).  That is exact because the constant
the hash uses at its k-th call is ``INIT * MULT^k mod 2^32`` whatever the
seed, so the constants are tables built at import (``_hash_consts``); within
one source row of the mixing loop the three hashes are independent, so each
step is one array operation; and a seed of four words or fewer is hashed
exactly as if zero-padded to four.  Words past the fourth mix into their own
seeds' pools only, with constants computed for the block's longest seed, so
seeds have no size cap.

The draws need no step-by-step generator either.  A PCG64 step is the affine
map s -> s M + inc mod 2^128, and numpy's seeding starts at base = inc + the
initial state and steps once, so draw i (1-based) reads the state base
M^(i+1) + inc G_(i+1), with G_k = sum_(j<k) M^j.  The M^k and G_k are
Python ints tabled per call, split into 64-bit words, and each block's
(seed, draw) array of states comes from two 128-bit products built from
32-bit partial products, one array operation per step for every draw of
every seed at once.
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
# seeds hashed and drawn per array pass in ``uniforms``: bounds the lanes held at once
SEED_BLOCK = 1024

# numpy scalars, so that no array operation converts a Python int
_LANE_M32, _ONE = np.uint64(_M32), np.uint64(1)
_S1, _S11, _S16, _S32, _S58, _S63, _S64 = map(np.uint64, (1, 11, 16, 32, 58, 63, 64))
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
    last = first + count - 1
    width = max(_POOL, -(-last.bit_length() // 32))
    raw = b"".join(s.to_bytes(4 * width, "little") for s in range(first, last + 1))
    return np.frombuffer(raw, dtype="<u4").reshape(count, width).T.astype(np.uint64)


def _generate_states(first: int, count: int) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for seeds ``first ...
    first+count-1``, axes (word, seed)."""
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
    return out[0::2] | out[1::2] << _S32


def _split(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit constants as ``uint64`` lanes: the high word, the low word and
    the low word's two 32-bit halves, high first."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _M64 for v in values], dtype=np.uint64)
    return hi, lo, lo >> _S32, lo & _LANE_M32


def _jump_tables(draws: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """M^(i+1) and G_(i+1) = sum_(j <= i) M^j mod 2^128 for draws i = 1 ...
    ``draws``, M being the PCG multiplier, split by ``_split``."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1  # M^1 and G_1
    for _ in range(draws):
        total = total + power & _M128
        power = power * _PCG_MULT & _M128
        powers.append(power)
        sums.append(total)
    return _split(powers), _split(sums)


def _mul128(hi: np.ndarray, lo: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) times each entry of ``table`` mod 2^128, as (hi, lo) lanes.

    The low words' full 128-bit product comes from four 32-bit partial
    products; the high words enter the high word of the result only."""
    t_hi, t_lo, t1, t0 = table
    a1, a0 = lo >> _S32, lo & _LANE_M32
    p01, p10 = a0 * t1, a1 * t0
    mid = (a0 * t0 >> _S32) + (p01 & _LANE_M32) + (p10 & _LANE_M32)
    high = a1 * t1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32) + hi * t_lo + lo * t_hi
    return high, lo * t_lo


def _block_uniforms(words: np.ndarray, powers, sums) -> np.ndarray:
    """The floats of one block of generators, axes (seed, draw), from their
    ``SeedSequence`` words (``_generate_states``)."""
    s0, s1, s2, s3 = (w[:, None] for w in words)
    # numpy's srandom: state 0, step, add the initial state, step
    inc_hi, inc_lo = s2 << _S1 | s3 >> _S63, s3 << _S1 | _ONE
    base_lo = inc_lo + s1
    base_hi = inc_hi + s0 + (base_lo < s1)
    # draw i steps to base * M^(i+1) + inc * G_(i+1)
    b_hi, b_lo = _mul128(base_hi, base_lo, powers)
    i_hi, i_lo = _mul128(inc_hi, inc_lo, sums)
    lo = b_lo + i_lo
    hi = b_hi + i_hi + (lo < b_lo)
    # XSL-RR output, then the top 53 bits as Generator.random keeps them
    rot = hi >> _S58
    x = hi ^ lo
    x = x >> rot | x << (_S64 - rot & _S63)
    return (x >> _S11) * _DOUBLE_UNIT


def uniforms(first: int, count: int, draws: int) -> np.ndarray:
    """The first ``draws`` floats of ``numpy.random.default_rng(first + k)
    .random()`` for k < ``count``, axes (seed, draw), ``SEED_BLOCK`` seeds
    per array pass.  A negative seed raises ``ValueError``."""
    if first < 0:
        raise ValueError(f"seed must be non-negative, got {first}")
    powers, sums = _jump_tables(draws)
    blocks = [_block_uniforms(_generate_states(start, min(SEED_BLOCK, first + count - start)),
                              powers, sums)
              for start in range(first, first + count, SEED_BLOCK)]
    return np.concatenate(blocks) if blocks else np.empty((0, draws))
