"""Exact output law of the order-finding circuit, computed apart from the program.

Measuring the lower register leaves the upper register in a uniform
superposition over one residue class x = x0 (mod r), x < Q = 2^(2l).  Summing
the Fourier transform of every class gives the closed form (Shor, SIAM J.
Comput. 26, 1484 (1997)):

    Pr(s) = [t F_{q+1}(theta) + (r - t) F_q(theta)] / Q^2

with q = floor(Q / r), t = Q mod r, theta = 2 pi (r s mod Q) / Q and
F_k(theta) = sin^2(k theta / 2) / sin^2(theta / 2), F_k(0) = k^2.

The order r comes from the power loop here, never from the program's
``numtheory``.  ``gof_pvalue`` tests sampled s against this law.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom, chi2

# Significance of the goodness-of-fit test.  Tiny, because a set of benchmark
# runs makes hundreds of pooled tests and must never fail a correct sampler;
# the corrupted sample sets in the tests still fall far below it.
ALPHA = 1e-6
# Offsets from the nearest peak beyond this are pooled into one class per side.
OFFSET_CLIP = 8
# Chi-square bins are merged until each expects at least this many samples.
MIN_EXPECTED = 5.0
# Mass of the far-offset region of the tail test: two samples there already
# give p = TAIL_MASS^2 < ALPHA / 2, so the test bites at a handful of samples.
TAIL_MASS = 5e-4


def residue_orbit(a: int, n: int) -> list[int]:
    """a^0, a^1, ... mod n up to the first return to 1; its length is the order."""
    orbit = [1]
    v = a % n
    while v != 1:
        orbit.append(v)
        v = v * a % n
    return orbit


def two_adic(r: int) -> tuple[int, int]:
    """(alpha, beta) with r = beta * 2^alpha and beta odd."""
    alpha = 0
    while r % 2 == 0:
        r //= 2
        alpha += 1
    return alpha, r


def closed_form_law(l: int, r: int) -> np.ndarray:
    """Pr(s) for every s in [0, 2^(2l)), by the closed form above."""
    big_q = 1 << (2 * l)
    q, t = divmod(big_q, r)
    m = np.arange(big_q, dtype=np.int64) * r % big_q

    def sin_sq(k):
        # sin^2(k theta / 2): reduce the angle exactly in integers to [0, pi/2],
        # where sin has full relative precision even next to its zeros
        x = k * m % big_q
        return np.sin(np.pi * np.minimum(x, big_q - x) / big_q) ** 2

    den = sin_sq(1)
    zero = m == 0
    den[zero] = 1.0
    f_q = sin_sq(q) / den
    f_q1 = sin_sq(q + 1) / den
    f_q[zero] = q * q
    f_q1[zero] = (q + 1) ** 2
    return (t * f_q1 + (r - t) * f_q) / float(big_q) ** 2


def peak_offsets(l: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """For every s: its offset from the nearest peak round(j Q / r), and gcd(j, r).

    A peak whose index j is coprime to r is one from which continued fractions
    recover r itself; laws of a wrong order shift the peaks (large offsets) or
    drop the coprime ones (gcd classes).
    """
    big_q = 1 << (2 * l)
    s = np.arange(big_q, dtype=np.int64)
    j = (2 * s * r + big_q) // (2 * big_q)
    offset = s - (2 * j * big_q + r) // (2 * r)
    return offset, np.gcd(j % r, r)


class GoodnessOfFit:
    """Binned chi-square plus a far-offset binomial test against the exact law."""

    def __init__(self, l: int, r: int):
        law = closed_form_law(l, r)
        offset, group = peak_offsets(l, r)
        clipped = np.clip(offset, -OFFSET_CLIP, OFFSET_CLIP) + OFFSET_CLIP
        _, self.bin_of = np.unique(clipped * (r + 1) + group, return_inverse=True)
        self.bin_probs = np.bincount(self.bin_of, weights=law)
        self.abs_offset = np.abs(offset)
        by_abs = np.bincount(self.abs_offset, weights=law)
        beyond = np.cumsum(by_abs[::-1])[::-1] - by_abs  # beyond[k] = Pr(|o| > k)
        self.window = int(np.argmax(beyond <= TAIL_MASS))
        self.far_mass = float(beyond[self.window])

    def chi_square_pvalue(self, s: np.ndarray) -> float:
        """Bins are (clipped offset, gcd class) pairs; those expecting fewer than
        MIN_EXPECTED samples are pooled, or added to the smallest kept bin."""
        counts = np.bincount(self.bin_of[s], minlength=self.bin_probs.size)
        expected = self.bin_probs * s.size
        order = np.argsort(-expected, kind="stable")
        keep = order[expected[order] >= MIN_EXPECTED]
        rest = order[expected[order] < MIN_EXPECTED]
        obs = list(counts[keep].astype(float))
        exp = list(expected[keep])
        if rest.size:
            if expected[rest].sum() >= MIN_EXPECTED or not obs:
                obs.append(float(counts[rest].sum()))
                exp.append(float(expected[rest].sum()))
            else:
                obs[-1] += counts[rest].sum()
                exp[-1] += expected[rest].sum()
        if len(exp) < 2:
            return 1.0
        stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
        return float(chi2.sf(stat, len(exp) - 1))

    def tail_pvalue(self, s: np.ndarray) -> float:
        far = int(np.count_nonzero(self.abs_offset[s] > self.window))
        return float(binom.sf(far - 1, s.size, self.far_mass))

    def pvalue(self, s) -> float:
        """Bonferroni-combined p-value of both tests; reject below ALPHA."""
        s = np.asarray(s, dtype=np.int64)
        if s.size == 0:
            raise ValueError("no samples")
        return min(1.0, 2.0 * min(self.chi_square_pvalue(s), self.tail_pvalue(s)))
