"""PCG64 uniform draws in pure Python, seeded as numpy seeds them.

``Pcg64(seed).random()`` returns, draw for draw, the floats of
``numpy.random.default_rng(seed).random()``: numpy's ``SeedSequence`` turns
the seed into four 64-bit words (32-bit hash mixing of the seed's words into a
pool of four, then eight output words), ``PCG64`` takes them as its 128-bit
initial state and increment (O'Neill 2014, PCG XSL-RR 128/64), and
``Generator.random`` keeps the top 53 bits of each 64-bit output.  ``sample``
draws from it so that its process never imports ``numpy.random``, which costs
15-18 ms on first use; a generator here costs a few tens of microseconds to
seed and about a microsecond per draw.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0 ** -53


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence``'s entropy: 32-bit words, least significant first."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _state_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    words = _seed_words(seed)
    h = _HASH_INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * _HASH_MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        t = _MIX_MULT_L * x - _MIX_MULT_R * y & _M32
        return t ^ t >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _HASH_INIT_B
    out = []
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ h
        h = h * _HASH_MULT_B & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(_POOL)]


class Pcg64:
    """The stream of ``numpy.random.default_rng(seed)``, for ``random()`` only."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _state_words(seed)
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
