"""Brute-force references: dense states, exact output distribution, rank oracles.

Everything in this module is deliberately independent of the MPS machinery so
it can serve as ground truth: the dense modular-exponentiation state is built
by direct power iteration, Schmidt ranks come from dense-matrix SVDs, and the
residue rank oracle counts distinct residues by set expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import SemiprimeInstance, mod_pow

DENSE_CAP = 1 << 26  # amplitudes
# the closed form reduces its products mod Q = 2^(2l) in uint64
LAW_MAX_L = 32


class DenseCapError(RuntimeError):
    """Dense construction would exceed the amplitude cap."""


@dataclass(frozen=True)
class StateVector:
    """Dense amplitudes over qudits of the given dimensions (row-major)."""

    amps: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        assert self.amps.size == int(np.prod(self.dims))


@dataclass(frozen=True)
class DistributionTable:
    """Probabilities of the upper-register measurement value s in [0, 2^(2l))."""

    probs: np.ndarray

    def __len__(self):
        return self.probs.size


def residue_orbit(n: int, a: int) -> list[int]:
    """Residues a^0, a^1, ... mod n in exponent order (length = order of a)."""
    orbit = [1]
    v = a % n
    while v != 1:
        orbit.append(v)
        v = v * a % n
    return orbit


def dense_modexp_state(instance: SemiprimeInstance, cap: int = DENSE_CAP):
    """Normalized superposition sum_i |i> |a^i mod n>, lower register residue-indexed.

    Returns (state, residues): the lower-register axis is indexed by first
    appearance over ascending i, i.e. by exponent: index j holds residue a^j.
    """
    orbit = residue_orbit(instance.n, instance.a)
    r = len(orbit)
    big_q = 1 << (2 * instance.l)
    if big_q * r > cap:
        raise DenseCapError(f"{big_q * r} amplitudes exceed cap {cap}")
    amps = np.zeros(big_q * r)
    i = np.arange(big_q)
    amps[i * r + i % r] = 1.0 / np.sqrt(big_q)
    dims = (2,) * (2 * instance.l) + (r,)
    return StateVector(amps, dims), orbit


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
    if l < 1 or r < 1:
        raise ValueError("need l >= 1 and r >= 1")
    if l > LAW_MAX_L:
        raise ValueError(f"l={l} exceeds the closed form's limit l <= {LAW_MAX_L}")
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


def exact_distribution(l: int, r: int, cap: int = DENSE_CAP) -> DistributionTable:
    """Exact law of the measured value s over all s < Q = 2^(2l)
    (``outcome_probabilities`` at every s); the table must fit ``cap``."""
    if l < 1 or r < 1:
        raise ValueError("need l >= 1 and r >= 1")
    big_q = 1 << (2 * l)
    if big_q > cap:
        raise DenseCapError(f"table of {big_q} entries exceeds cap {cap}")
    return DistributionTable(outcome_probabilities(l, r, np.arange(big_q)))


def dense_schmidt_rank(state: StateVector, left_axes, tol: float = 1e-10) -> int:
    """Rank of the amplitude matrix across the (left_axes | rest) bipartition."""
    ndim = len(state.dims)
    left = list(left_axes)
    right = [ax for ax in range(ndim) if ax not in set(left)]
    t = state.amps.reshape(state.dims).transpose(left + right)
    rows = int(np.prod([state.dims[ax] for ax in left], dtype=np.int64))
    s = np.linalg.svd(t.reshape(rows, -1), compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def residue_rank_oracle(
    instance: SemiprimeInstance,
    qubits,
    include_lower: bool = False,
    r_hint: int | None = None,
) -> int:
    """Schmidt rank of a modexp-state bipartition, by residue set expansion.

    For a cut that puts upper qubits ``qubits`` opposite the lower register,
    the rank equals the number of distinct residues a^x mod n with x ranging
    over all bit assignments of those qubits.  With ``include_lower`` the cut
    keeps the lower register alongside ``qubits``; the rank is then the same
    count over the complementary qubits.  Expansion saturates at the order r.
    """
    qubits = set(qubits)
    if include_lower:
        qubits = set(range(2 * instance.l)) - qubits
    residues = {1}
    for j in sorted(qubits):
        mult = mod_pow(instance.a, 1 << j, instance.n)
        residues |= {v * mult % instance.n for v in residues}
        if r_hint is not None and len(residues) >= r_hint:
            return r_hint
    return len(residues)


def tvd(table: DistributionTable, counts) -> float:
    """Total variation distance between the exact law and empirical counts."""
    counts = np.asarray(counts, dtype=float)
    if counts.size != len(table):
        raise ValueError("support sizes differ")
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty counts")
    return 0.5 * float(np.abs(table.probs - counts / total).sum())


def tvd_at_outcomes(l: int, r: int, histogram: dict[int, int]) -> float:
    """``tvd`` between the exact law and the counts ``histogram`` (s -> count),
    evaluating the law at the counted outcomes only.

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


def reorder_axes(state: StateVector, order) -> StateVector:
    """Permute qudit axes; ``order[k]`` is the current axis placed at position k."""
    t = state.amps.reshape(state.dims).transpose(list(order))
    return StateVector(np.ascontiguousarray(t).ravel(), t.shape)
