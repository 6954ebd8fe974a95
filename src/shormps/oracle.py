"""The exact law of the measured value s, in closed form.

``outcome_probabilities`` evaluates Pr(s) at given outcomes; ``sample``
reports compare their counts against it with ``tvd_at_outcomes``, and
``exact_distribution`` tabulates it over every s for the ``oracle`` command.
It depends only on l and the order r, independently of the simulation that
the reports check.  The brute-force dense states and rank oracles that the
tests also check the simulation against are in ``tests/_dense.py``.
"""

from __future__ import annotations

import numpy as np

DENSE_CAP = 1 << 26  # amplitudes
# the closed form reduces its products mod Q = 2^(2l) in uint64
LAW_MAX_L = 32


class DenseCapError(RuntimeError):
    """Dense construction would exceed the amplitude cap."""


def _check_law(l: int, r: int) -> None:
    """Refuse an (l, r) outside the closed form's domain."""
    if l < 1 or r < 1:
        raise ValueError("need l >= 1 and r >= 1")
    if l > LAW_MAX_L:
        raise ValueError(f"l={l} exceeds the closed form's limit l <= {LAW_MAX_L}")


def outcome_probabilities(l: int, r: int, s) -> np.ndarray:
    """Exact Pr(s) of the measured value at the outcomes ``s``, in closed form.

    With Q = 2^(2l), q = floor(Q/r) and t = Q mod r, the t residue classes
    x0 < t hold q+1 exponents and the other r-t hold q, so

        Pr(s) = [t F_{q+1}(theta) + (r-t) F_q(theta)] / Q^2,
        theta = 2 pi (r s mod Q) / Q,

    where F_k(theta) = sin^2(k theta/2) / sin^2(theta/2) is the Fejer kernel
    and F_k(0) = k^2 (Shor, SIAM J. Comput. 26, 1484 (1997)).  The products
    mod Q are taken in uint64, whose wrap-around is exact mod Q for
    l <= LAW_MAX_L.
    """
    _check_law(l, r)
    big_q = 1 << (2 * l)
    mask = np.uint64(big_q - 1)
    q, t = divmod(big_q, r)
    u = np.asarray(s, dtype=np.uint64) * np.uint64(r % big_q) & mask  # r s mod Q
    peak = u == 0
    den = np.sin(np.pi / big_q * u) ** 2
    den[peak] = 1.0

    def fejer(k: int) -> np.ndarray:
        # sin^2 has period pi, so k u reduces mod Q exactly before the sine
        f = np.sin(np.pi / big_q * (np.uint64(k) * u & mask)) ** 2 / den
        f[peak] = float(k) ** 2
        return f

    return (t * fejer(q + 1) + (r - t) * fejer(q)) / float(big_q) ** 2


def check_table(l: int, r: int, cap: int) -> None:
    """Refuse the table of (l, r): raise ValueError when (l, r) is outside
    the closed form's domain, DenseCapError when Q = 2^(2l) exceeds ``cap``."""
    _check_law(l, r)
    if 1 << (2 * l) > cap:
        raise DenseCapError(f"table of {1 << (2 * l)} entries exceeds cap {cap}")


def exact_distribution(l: int, r: int, cap: int = DENSE_CAP) -> np.ndarray:
    """Exact law of the measured value s as a float64 array over all
    s < Q = 2^(2l) (``outcome_probabilities`` at every s).  (l, r) must be in
    the closed form's domain and Q within ``cap``, both checked before the
    table is allocated (``check_table``)."""
    check_table(l, r, cap)
    return outcome_probabilities(l, r, np.arange(1 << (2 * l)))


def tvd_at_outcomes(l: int, r: int, histogram: dict[int, int]) -> float:
    """Total variation distance between the exact law and the counts
    ``histogram`` (s -> count), evaluating the law at the counted outcomes
    only.

    Every outcome outside the histogram contributes its probability, and
    those sum to 1 - sum_{s in hist} Pr(s), so the distance is
    (sum_{s in hist} |Pr(s) - c_s/m| + 1 - sum_{s in hist} Pr(s)) / 2.
    """
    outcomes = np.fromiter(histogram, dtype=np.int64, count=len(histogram))
    counts = np.fromiter(histogram.values(), dtype=float, count=len(histogram))
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty counts")
    probs = outcome_probabilities(l, r, outcomes)
    return 0.5 * float(np.abs(probs - counts / total).sum() + 1.0 - probs.sum())

