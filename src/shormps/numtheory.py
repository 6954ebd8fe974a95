"""Exact integer arithmetic for order finding and classical factor recovery.

Everything here is pure-Python integer math: primality tests, multiplicative
orders, two-adic splits, Carmichael values for odd semiprimes, continued
fractions and the gcd-based factor extraction step.  Inputs are validated
against a 62-bit ceiling so the same instances stay portable to fixed-width
implementations, but Python integers never overflow internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Supported modulus ceiling.  Every benchmarked instance is far below this.
MAX_MODULUS = 1 << 62

# Default cap on black-box order search (no factor knowledge).
ORDER_ITERATION_CAP = 1 << 26

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class OrderSearchCapError(RuntimeError):
    """Raised when iterative order finding exceeds its iteration cap."""


def _check_modulus(n: int) -> None:
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if n >= MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported 62-bit range")


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers the 62-bit range)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_power(n: int) -> bool:
    """True when n = m**k for some prime m and k >= 1."""
    if n < 2:
        return False
    if is_probable_prime(n):
        return True
    # k >= 2 keeps the float root below 2^31, where rounding is exact enough
    for k in range(2, n.bit_length()):
        root = round(n ** (1.0 / k))
        for m in (root - 1, root, root + 1):
            if m >= 2 and m**k == n and is_probable_prime(m):
                return True
    return False


def register_bits(n: int) -> int:
    """Bit width l used for register sizing.

    This is the bit length of n, bumped by one when n is all-ones so the
    upper-register range 2^(2l) keeps strict headroom over n^2.  Equivalently
    (n + 1).bit_length().
    """
    return (n + 1).bit_length()


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (adequate below 2^62 at desk scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(
    a: int,
    n: int,
    p: int | None = None,
    q: int | None = None,
    iteration_cap: int = ORDER_ITERATION_CAP,
) -> int:
    """Smallest r > 0 with a**r = 1 mod n.

    With the factors p, q of n supplied, the order is found by factoring
    lambda(n) = lcm(p-1, q-1) and descending through its prime powers.
    Otherwise successive powers are iterated, guarded by ``iteration_cap``.
    """
    _check_modulus(n)
    if not 1 < a < n:
        raise ValueError(f"base must satisfy 1 < a < n, got a={a}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1; caller should report the lucky factor")
    if p is not None and q is not None:
        lam = carmichael_semiprime(p, q)
        r = lam
        for f in _factorize(lam):
            while r % f == 0 and pow(a, r // f, n) == 1:
                r //= f
        return r
    x = a
    r = 1
    while x != 1:
        x = x * a % n
        r += 1
        if r > iteration_cap:
            raise OrderSearchCapError(
                f"order of {a} mod {n} exceeds iteration cap {iteration_cap}"
            )
    return r


def two_adic_split(r: int) -> tuple[int, int]:
    """Split r = beta * 2**alpha with beta odd; returns (alpha, beta)."""
    if r < 1:
        raise ValueError("r must be positive")
    alpha = (r & -r).bit_length() - 1
    return alpha, r >> alpha


def carmichael_semiprime(p: int, q: int) -> int:
    """lcm(p-1, q-1), the Carmichael value of the odd squarefree semiprime p*q."""
    if p == q:
        raise ValueError("semiprime must be squarefree: p != q")
    if p < 3 or q < 3 or p % 2 == 0 or q % 2 == 0:
        raise ValueError("factors must be odd primes")
    return math.lcm(p - 1, q - 1)


def continued_fraction_convergents(s: int, denom: int) -> list[tuple[int, int]]:
    """All convergents h/k of s/denom, in lowest terms, denominators increasing."""
    if denom < 1 or denom & (denom - 1):
        raise ValueError("denominator must be a positive power of two")
    if not 0 <= s < denom:
        raise ValueError("require 0 <= s < denom")
    convergents: list[tuple[int, int]] = []
    h_prev, h = 0, 1  # h_{-2}, h_{-1} seeds of the standard recurrence
    k_prev, k = 1, 0
    num, den = s, denom
    while True:
        a_i = num // den
        h_prev, h = h, a_i * h + h_prev
        k_prev, k = k, a_i * k + k_prev
        if convergents and convergents[-1][1] == k:
            # partial quotient 1 repeats the denominator; keep the sharper pair
            convergents[-1] = (h, k)
        else:
            convergents.append((h, k))
        num, den = den, num - a_i * den
        if den == 0:
            return convergents


def recover_factors(n: int, a: int, r_candidate: int) -> tuple[int, int] | None:
    """Classical factor extraction from an order candidate.

    Succeeds when r_candidate is even, a**r_candidate = 1 mod n, and
    a**(r_candidate/2) is not -1 mod n; then gcd(a^(r/2) -+ 1, n) yields the
    factor pair.  Returns None in every failure mode.
    """
    if not 1 < a < n:
        raise ValueError(f"base must satisfy 1 < a < n, got a={a}")
    if r_candidate <= 0 or r_candidate % 2:
        return None
    if pow(a, r_candidate, n) != 1:
        return None
    half = pow(a, r_candidate // 2, n)
    if half == n - 1:
        return None
    f1 = math.gcd(half - 1, n)
    f2 = math.gcd(half + 1, n)
    if f1 <= 1 or f2 <= 1 or f1 >= n or f2 >= n:
        return None
    return (f1, f2) if f1 <= f2 else (f2, f1)


def random_coprime(n: int, rng, on_lucky_factor) -> int:
    """Uniform draw from {2..n-1} coprime to n, by rejection.

    A rejected candidate sharing a factor with n is itself a factoring
    success; such factors are handed to ``on_lucky_factor`` and sampling
    continues.
    """
    if n < 4 or n % 2 == 0:
        raise ValueError("n must be an odd composite")
    while True:
        a = int(rng.integers(2, n))
        g = math.gcd(a, n)
        if g == 1:
            return a
        on_lucky_factor(g)


@dataclass(frozen=True)
class SemiprimeInstance:
    """Problem parameters: the semiprime n and the base a, with the register
    width l = ``register_bits(n)`` derived from n.

    The factors p, q are optional: they let the order be found from the
    Carmichael value and fill the report's order profile; the simulation
    never reads them.
    """

    n: int
    a: int
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        if self.n < 9 or self.n % 2 == 0:
            raise ValueError(f"n must be an odd composite >= 9, got {self.n}")
        if self.n >= MAX_MODULUS:
            raise ValueError("n exceeds the supported 62-bit range")
        if not 1 < self.a < self.n:
            raise ValueError(f"base must satisfy 1 < a < n, got a={self.a}")
        if math.gcd(self.a, self.n) != 1:
            raise ValueError(f"gcd(a, n) must be 1, got a={self.a}, n={self.n}")
        if (self.p is None) != (self.q is None):
            raise ValueError("supply both factors or neither")
        if self.p is not None:
            if self.p * self.q != self.n or self.p == self.q:
                raise ValueError("p*q must equal n with p != q")
            for f in (self.p, self.q):
                if f % 2 == 0 or not is_probable_prime(f):
                    raise ValueError(f"{f} is not an odd prime")

    @property
    def l(self) -> int:
        return register_bits(self.n)
