"""The dense reference: an MPS with site tensors, the dense measurement and
Fourier transform, and brute-force states and rank oracles.

No ``shor-mps`` command reaches this code.  ``shor.sample_runs`` keeps only
modexp's residue maps and draws every sample from residue weights, with no
site tensor, SVD or density read; the tests hold it to the dense path below.

``MpsState`` stores the state in weighted form: three-index site tensors
Gamma[m] with axes (left bond, physical, right bond), separated by per-bond
weight vectors lambda[m].  The full amplitude tensor is the chain contraction
Gamma[0] diag(lambda[0]) Gamma[1] ... Gamma[n-1].  When a bond's flanking
sites are orthonormal in the appropriate sense, its weights equal the Schmidt
coefficients across that cut, and single-site density matrices can be read
off locally.

Conventions fixed here and relied on throughout:

* Contracting two sites absorbs the interior weights; an SVD split absorbs
  both flanking weight vectors into the two-site block first and divides them
  back out of the factors afterwards.  All stored weights exceed the
  truncation floor, so the divisions are safe.
* Orthonormality is tracked per site: ``lortho[m]`` says the left-weighted
  tensor lambda[m-1] Gamma[m] has orthonormal columns, ``rortho[m]`` says
  Gamma[m] lambda[m] has orthonormal rows.  These are properties of the
  stored arrays, updated exactly (never heuristically) by each operation.
* The element accountant tallies live site-tensor scalars: a real scalar
  counts 1 unit, a complex scalar 2, so converting scalar modes doubles the
  tally exactly.  Bond weights (always real) are excluded from the tally.

``measure_lower_register`` and ``apply_lnn_qft`` run the sampler's stages on
such a chain, with a whole-chain density read, rank-revealing sweeps and
single-site measurements; with the dense modexp of ``_helpers`` they are the
reference the graded pipeline is tested against.  ``dense_modexp_state``
builds the post-modexp state by direct power iteration, ``dense_schmidt_rank``
takes ranks from dense-matrix SVDs and ``residue_rank_oracle`` counts distinct
residues by set expansion, independently of either pipeline; ``tvd`` is the
full-table distance that ``oracle.tvd_at_outcomes`` is checked against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np

from shormps.mps import LOWER_REGISTER, NormalizationError, RankProfile, draw_outcome
from shormps.numtheory import SemiprimeInstance
from shormps.oracle import DENSE_CAP, DenseCapError
from shormps.shor import SQRT_HALF
from shormps.tensor import DEFAULT_SVD_TOL, svd_truncated


# ------------------------------------------------------------------- errors

class NotCanonicalError(RuntimeError):
    """Local density matrix requested across a bond not known orthonormal."""


class NotSeparableError(RuntimeError):
    """Site removal requested while the site holds more than one basis value."""



class StateTooLargeError(RuntimeError):
    """Dense contraction would exceed the configured amplitude cap."""



class PipelineStateError(RuntimeError):
    """Pipeline stage invoked on a state in the wrong mode or layout."""



# -------------------------------------------------------------- MPS container

def _require_unitary(g: np.ndarray, tol: float = 1e-10) -> None:
    d = g.shape[0]
    if g.shape != (d, d) or not np.allclose(g.conj().T @ g, np.eye(d), atol=tol):
        raise ValueError("gate is not unitary within tolerance")


class MpsState:
    """Open-boundary MPS over qudits of arbitrary physical dimensions."""

    def __init__(self, gammas, lambdas, labels, complex_mode=False):
        self.gammas: list[np.ndarray] = list(gammas)
        self.lambdas: list[np.ndarray] = list(lambdas)
        self.labels: list = list(labels)
        self.complex_mode = bool(complex_mode)
        self.lortho: list[bool] = [False] * len(self.gammas)
        self.rortho: list[bool] = [False] * len(self.gammas)
        self.svd_tol = DEFAULT_SVD_TOL
        self.elements_live = 0
        self.elements_peak = 0
        self._retally()

    # ------------------------------------------------------------------ basics

    @property
    def n_sites(self) -> int:
        return len(self.gammas)

    @property
    def n_bonds(self) -> int:
        return len(self.lambdas)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(g.shape[1] for g in self.gammas)

    @property
    def dtype(self):
        return np.complex128 if self.complex_mode else np.float64

    def bond_dims(self) -> tuple[int, ...]:
        return tuple(lam.size for lam in self.lambdas)

    def position_of(self, label) -> int:
        return self.labels.index(label)

    def copy(self) -> "MpsState":
        out = MpsState(
            [g.copy() for g in self.gammas],
            [l.copy() for l in self.lambdas],
            list(self.labels),
            self.complex_mode,
        )
        out.lortho = list(self.lortho)
        out.rortho = list(self.rortho)
        out.svd_tol = self.svd_tol
        out.elements_peak = out.elements_live
        return out

    def _unit(self) -> int:
        return 2 if self.complex_mode else 1

    def _retally(self) -> None:
        self.elements_live = self._unit() * sum(g.size for g in self.gammas)
        if self.elements_live > self.elements_peak:
            self.elements_peak = self.elements_live

    def reset_peak(self) -> None:
        self.elements_peak = self.elements_live

    def check_consistent(self) -> None:
        """Structural validation used by tests."""
        assert len(self.labels) == self.n_sites
        assert self.n_bonds == self.n_sites - 1
        assert self.gammas[0].shape[0] == 1 and self.gammas[-1].shape[2] == 1
        for m, lam in enumerate(self.lambdas):
            assert self.gammas[m].shape[2] == lam.size == self.gammas[m + 1].shape[0]
            assert np.all(lam > 0)

    # ------------------------------------------------------------- construction

    @classmethod
    def product_state(cls, dims, values, labels=None, complex_mode=False):
        """All bonds dimension 1; each site a basis unit vector."""
        dtype = np.complex128 if complex_mode else np.float64
        gammas = []
        for d, v in zip(dims, values):
            if not 0 <= v < d:
                raise ValueError(f"basis value {v} out of range for dimension {d}")
            g = np.zeros((1, d, 1), dtype=dtype)
            g[0, v, 0] = 1.0
            gammas.append(g)
        lambdas = [np.ones(1) for _ in range(len(gammas) - 1)]
        if labels is None:
            labels = list(range(len(gammas)))
        state = cls(gammas, lambdas, labels, complex_mode)
        state.lortho = [True] * state.n_sites
        state.rortho = [True] * state.n_sites
        return state

    # ------------------------------------------------------------- contraction

    def norm(self) -> float:
        """Full-contraction 2-norm, via the transfer chain (never dense)."""
        env = np.ones((1, 1), dtype=self.dtype)
        for m in range(self.n_sites):
            g = self.gammas[m]
            if m > 0:
                g = g * self.lambdas[m - 1][:, None, None]
            env = np.einsum("ab,aic,bid->cd", env, g.conj(), g, optimize=True)
        return float(np.sqrt(abs(env[0, 0])))

    def to_state_vector(self, cap: int = 1 << 26) -> np.ndarray:
        """Amplitudes in lexicographic order of the site-order physical indices."""
        total = 1
        for d in self.dims:
            total *= d
            if total > cap:
                raise StateTooLargeError(f"dense size {total}+ exceeds cap {cap}")
        amps = self.gammas[0].reshape(self.dims[0], -1)
        for m in range(1, self.n_sites):
            g = self.gammas[m] * self.lambdas[m - 1][:, None, None]
            chi_l, d, chi_r = g.shape
            amps = amps @ g.reshape(chi_l, d * chi_r)
            amps = amps.reshape(-1, chi_r)
        return amps.reshape(-1)

    # ------------------------------------------------------------------- gates

    def apply_single_qudit_gate(self, m: int, g: np.ndarray) -> None:
        """Local unitary on site m; orthonormality flags are preserved."""
        if np.iscomplexobj(g) and not self.complex_mode:
            raise ValueError("complex gate on a real-mode state; promote first")
        _require_unitary(np.asarray(g))
        self.gammas[m] = np.tensordot(g, self.gammas[m], axes=(1, 1)).transpose(1, 0, 2)
        self._retally()

    def apply_two_site_gate(self, m: int, g: np.ndarray) -> None:
        """Unitary over sites (m, m+1): contract, apply, SVD split."""
        if np.iscomplexobj(g) and not self.complex_mode:
            raise ValueError("complex gate on a real-mode state; promote first")
        _require_unitary(np.asarray(g))
        d_l, d_r = self.gammas[m].shape[1], self.gammas[m + 1].shape[1]
        labels = self.labels[m], self.labels[m + 1]
        self.contract_sites(m)
        self.gammas[m] = np.tensordot(g, self.gammas[m], axes=(1, 1)).transpose(1, 0, 2)
        self.decompose_site(m, (d_l, d_r), labels=labels)

    def swap_sites(self, m: int) -> None:
        """Exchange physical systems and labels of sites m, m+1 (SVD split)."""
        d_l, d_r = self.dims[m], self.dims[m + 1]
        labels = self.labels[m + 1], self.labels[m]
        self.contract_sites(m)
        g = self.gammas[m]
        chi_l, _, chi_r = g.shape
        self.gammas[m] = np.ascontiguousarray(
            g.reshape(chi_l, d_l, d_r, chi_r).swapaxes(1, 2)
        ).reshape(chi_l, d_r * d_l, chi_r)
        self.decompose_site(m, (d_r, d_l), labels=labels)

    # --------------------------------------------------- contraction/decomposition

    def contract_sites(self, m: int) -> None:
        """Merge sites m, m+1 into one site, absorbing the interior weights."""
        if not 0 <= m < self.n_sites - 1:
            raise IndexError(f"bond {m} out of range")
        left = self.gammas[m] * self.lambdas[m][None, None, :]
        chi_l, d1, _ = left.shape
        _, d2, chi_r = self.gammas[m + 1].shape
        merged = np.tensordot(left, self.gammas[m + 1], axes=(2, 0))
        self.gammas[m : m + 2] = [merged.reshape(chi_l, d1 * d2, chi_r)]
        del self.lambdas[m]
        self.labels[m : m + 2] = [(self.labels[m], self.labels[m + 1])]
        self.lortho[m : m + 2] = [self.lortho[m] and self.lortho[m + 1]]
        self.rortho[m : m + 2] = [self.rortho[m] and self.rortho[m + 1]]
        self._retally()

    def decompose_site(self, m, phys_split, labels=None) -> None:
        """Split site m with physical dimension d_l*d_r into two sites by SVD.

        The new bond carries the exact Schmidt rank and weights of the
        two-site block.
        """
        d_l, d_r = phys_split
        g = self.gammas[m]
        chi_l, d, chi_r = g.shape
        if d != d_l * d_r:
            raise ValueError(f"physical dimension {d} does not split as {d_l}x{d_r}")
        if labels is None:
            lab = self.labels[m]
            if isinstance(lab, tuple) and len(lab) == 2:
                labels = lab
            else:
                raise ValueError("labels required to split a non-merged site")
        lam_l = self.lambdas[m - 1] if m > 0 else None
        lam_r = self.lambdas[m] if m < self.n_bonds else None

        theta = g
        if lam_l is not None:
            theta = theta * lam_l[:, None, None]
        if lam_r is not None:
            theta = theta * lam_r[None, None, :]
        dec = svd_truncated(theta.reshape(chi_l * d_l, d_r * chi_r), self.svd_tol)
        k = dec.rank
        g_left = dec.left.reshape(chi_l, d_l, k)
        g_right = dec.right.reshape(k, d_r, chi_r)
        if lam_l is not None:
            g_left = g_left / lam_l[:, None, None]
        if lam_r is not None:
            g_right = g_right / lam_r[None, None, :]

        self.gammas[m : m + 1] = [g_left, g_right]
        self.lambdas.insert(m, dec.weights)
        self.labels[m : m + 1] = list(labels)
        # left factor is U up to the divided weights, right factor is V
        self.lortho[m : m + 1] = [True, False]
        self.rortho[m : m + 1] = [False, True]
        self._retally()

    # ------------------------------------------------------------------- sweeps

    def _resvd_bond(self, m: int) -> None:
        d_l, d_r = self.gammas[m].shape[1], self.gammas[m + 1].shape[1]
        labels = self.labels[m], self.labels[m + 1]
        self.contract_sites(m)
        self.decompose_site(m, (d_l, d_r), labels=labels)

    def sweep(self, direction: str, bonds=None) -> None:
        """Pairwise contract+SVD pass; establishes orthonormality along the way.

        ``right`` processes the bond range left to right (left-orthonormalizing),
        ``left`` right to left.  A full right sweep followed by a full left
        sweep puts the state in canonical form with every bond's weights equal
        to the Schmidt coefficients.
        """
        if bonds is None:
            bonds = range(self.n_bonds)
        bonds = list(bonds)
        if direction == "right":
            for m in bonds:
                self._resvd_bond(m)
        elif direction == "left":
            for m in reversed(bonds):
                self._resvd_bond(m)
        else:
            raise ValueError(f"unknown sweep direction {direction!r}")

    def canonicalize(self) -> None:
        self.sweep("right")
        self.sweep("left")
        # a full right sweep followed by a full left sweep leaves every site
        # orthonormal on both sides; single-bond updates cannot record this
        self.lortho = [True] * self.n_sites
        self.rortho = [True] * self.n_sites

    def is_fully_canonical(self) -> bool:
        return all(self.lortho) and all(self.rortho)

    # --------------------------------------------------------- density matrices

    def _weighted(self, m: int, side: str) -> np.ndarray:
        g = self.gammas[m]
        if side == "left" and m > 0:
            g = g * self.lambdas[m - 1][:, None, None]
        if side == "right" and m < self.n_bonds:
            g = g * self.lambdas[m][None, None, :]
        return g

    def reduced_density_nonlocal(self, m: int) -> np.ndarray:
        """Exact single-site density matrix by contracting the closed network."""
        env_l = np.ones((1, 1), dtype=self.dtype)
        for k in range(m):
            x = self._weighted(k, "right")
            env_l = np.einsum("ab,aic,bid->cd", env_l, x.conj(), x, optimize=True)
        env_r = np.ones((1, 1), dtype=self.dtype)
        for k in range(self.n_sites - 1, m, -1):
            y = self._weighted(k, "left")
            env_r = np.einsum("cd,aic,bid->ab", env_r, y.conj(), y, optimize=True)
        # flanking weights already live in the environment chains
        g = self.gammas[m]
        rho = np.einsum("ab,bvd,awc,cd->vw", env_l, g, g.conj(), env_r, optimize=True)
        return rho if self.complex_mode else rho.real

    def reduced_density_local(self, m: int) -> np.ndarray:
        """Single-site density matrix from the site and its two weight vectors.

        Requires every site left of m to be left-orthonormal and every site
        right of m to be right-orthonormal.
        """
        for k in range(m):
            if not self.lortho[k]:
                raise NotCanonicalError(f"site {k} is not left-orthonormal")
        for k in range(m + 1, self.n_sites):
            if not self.rortho[k]:
                raise NotCanonicalError(f"site {k} is not right-orthonormal")
        g = self.gammas[m]
        if m > 0:
            g = g * self.lambdas[m - 1][:, None, None]
        if m < self.n_bonds:
            g = g * self.lambdas[m][None, None, :]
        chi_l, d, chi_r = g.shape
        flat = g.transpose(1, 0, 2).reshape(d, chi_l * chi_r)
        rho = flat @ flat.conj().T
        return rho if self.complex_mode else rho.real

    def reduced_density(self, m: int) -> np.ndarray:
        """Local form when the flags license it, else the network contraction."""
        left_ok = all(self.lortho[:m])
        right_ok = all(self.rortho[m + 1 :])
        if left_ok and right_ok:
            return self.reduced_density_local(m)
        return self.reduced_density_nonlocal(m)

    # -------------------------------------------------------------- measurement

    def measure_qudit(self, m: int, rng=None, forced: int | None = None) -> int:
        """Sample (or force) site m, project onto the outcome, and renormalize.

        Probabilities come from the diagonal of the reduced density matrix
        and are drawn by ``draw_outcome``; a forced outcome gets the same
        unit-mass check and must have positive probability.  No bond is
        touched: the site keeps its physical dimension, holding a single
        nonzero slice, until removed, and stored bond dimensions may exceed
        the Schmidt ranks until a sweep.
        """
        rho = self.reduced_density(m)
        probs = np.real(np.diag(rho)).copy()
        if forced is None:
            outcome = int(draw_outcome(probs, np.array([rng.random()]), where=f"site {m}")[0])
        else:
            outcome = int(forced)
            total = probs.sum()
            if probs.min() < -1e-12 or abs(total - 1.0) > 1e-6:
                raise NormalizationError(f"probability mass {total} at site {m}")
            if probs[outcome] <= 0:
                raise ValueError(f"forced outcome {outcome} has zero probability")
        g = self.gammas[m]
        proj = np.zeros_like(g)
        proj[:, outcome, :] = g[:, outcome, :] / sqrt(probs[outcome])
        self.gammas[m] = proj
        self.lortho[m] = False
        self.rortho[m] = False
        self._retally()
        return outcome

    # ------------------------------------------------------- structural editing

    def remove_separable_site(self, m: int) -> None:
        """Delete site m, which holds a single basis value, at any bond dimension.

        The site's slice at that value, times the weight of the bond toward
        the neighbour, is contracted into the left neighbour (the right one at
        the left end), and that bond goes.  The other flanking bond, if any,
        keeps its weight.
        """
        if self.n_sites == 1:
            raise ValueError("cannot remove the only site")
        g = self.gammas[m]
        held = np.flatnonzero(np.any(g != 0, axis=(0, 2)))
        if held.size != 1:
            raise NotSeparableError(f"site {m} holds {held.size} basis values, not one")
        piece = g[:, held[0], :]
        neighbor = m - 1 if m > 0 else 1
        gone = min(m, neighbor)  # the bond between site m and its neighbour
        lam = self.lambdas[gone]
        if m > 0:
            merged = np.tensordot(self.gammas[neighbor], lam[:, None] * piece, axes=(2, 0))
        else:
            merged = np.tensordot(piece * lam[None, :], self.gammas[neighbor], axes=(1, 0))
        self.gammas[neighbor] = merged
        self.lortho[neighbor] = self.rortho[neighbor] = False
        del self.gammas[m], self.labels[m], self.lortho[m], self.rortho[m]
        del self.lambdas[gone]
        self._retally()

    # -------------------------------------------------------------- scalar mode

    def promote_to_complex(self) -> None:
        """Switch to complex scalars with zero imaginary parts (tally doubles)."""
        if self.complex_mode:
            warnings.warn("state is already in complex mode", stacklevel=2)
            return
        self.gammas = [g.astype(np.complex128) for g in self.gammas]
        self.complex_mode = True
        self._retally()

    # ---------------------------------------------------------------- profiling

    def schmidt_ranks(self, stage: str) -> RankProfile:
        """True per-bond Schmidt ranks (canonicalizing a working copy if needed)."""
        if self.is_fully_canonical():
            ranks = self.bond_dims()
        else:
            work = self.copy()
            work.canonicalize()
            ranks = work.bond_dims()
        return RankProfile(stage=stage, ranks=ranks, layout=tuple(self.labels))


# ------------------------------------------------------ dense pipeline stages

def hadamard() -> np.ndarray:
    return np.array(
        [[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=np.complex128
    )


def measure_lower_register(
    state: MpsState,
    lower,
    rng=None,
    forced_residue: int | None = None,
) -> int:
    """Measure R, contract it into its neighbour, and reveal the ranks.

    The dense reference of ``shor.sample_runs``' draw of R and of its
    "measure" ranks (``shor.measure_ranks``).  ``lower`` is R's residue index: anything with
    the ``position`` and ``residues`` of ``shor.LowerRegisterIndex``, such
    as the dense chain's ``_helpers.ReferenceIndex``.
    ``measure_qudit`` reads R's density matrix by contracting the closed
    network, since the sites left of R are not left-orthonormal right after
    modexp, and only projects.  Then a left-to-right sweep from R's old place
    to the right end and a right-to-left sweep over the whole chain leave
    every bond at its Schmidt rank and every site right of the left end
    right-orthonormal.
    """
    rpos = state.position_of(LOWER_REGISTER)
    forced = lower.position(forced_residue) if forced_residue is not None else None
    outcome = state.measure_qudit(rpos, rng, forced=forced)
    state.remove_separable_site(rpos)
    state.sweep("right", range(rpos - 1, state.n_bonds))
    state.sweep("left")
    return int(lower.residues[outcome])


def apply_lnn_qft(state: MpsState, rng=None, forced_bits=None) -> list[int]:
    """Semiclassical Fourier transform: one single-site gate per qubit.

    The dense reference of ``shor.graded_fourier``.  The most significant
    remaining qubit j must be an end site of the chain, as it is in both
    layouts.  Its controlled phases with the qubits k > j act
    after their measurement, so they reduce to the classically controlled
    single-qubit phase diag(1, exp(-i pi sum_k b_k / 2^(k-j))) ahead of its
    Hadamard (Griffiths & Niu, PRL 76, 3228 (1996)).  The qubit is measured as
    soon as that gate is applied, then dropped; a left-end qubit of the
    right-orthonormal chain that ``measure_lower_register`` leaves is read
    locally.  Returns the bits in measurement order; the final state is a
    single separable site.
    """
    if not state.complex_mode:
        raise PipelineStateError("QFT stage requires complex scalars; promote first")
    if LOWER_REGISTER in state.labels:
        raise PipelineStateError("lower register must be measured and removed first")
    h = hadamard()
    measured: list[int] = []
    bits: list[int] = []
    while True:
        j = max(state.labels)
        m = state.position_of(j)
        if m not in (0, state.n_sites - 1):
            # both layouts keep it at an end; anything else is a layout error
            raise PipelineStateError(f"qubit {j} is not at an end of the chain")
        phase = sum(b / 2.0 ** (k - j) for k, b in zip(measured, bits))
        state.apply_single_qudit_gate(m, h @ np.diag([1.0, np.exp(-1j * np.pi * phase)]))
        forced = forced_bits[len(bits)] if forced_bits is not None else None
        bits.append(state.measure_qudit(m, rng, forced=forced))
        measured.append(j)
        if state.n_sites == 1:
            return bits
        state.remove_separable_site(m)


# ------------------------------------------------------ brute-force references

@dataclass(frozen=True)
class StateVector:
    """Dense amplitudes over qudits of the given dimensions (row-major)."""

    amps: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        assert self.amps.size == int(np.prod(self.dims))



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
        mult = pow(instance.a, 1 << j, instance.n)
        residues |= {v * mult % instance.n for v in residues}
        if r_hint is not None and len(residues) >= r_hint:
            return r_hint
    return len(residues)


def tvd(probs: np.ndarray, counts) -> float:
    """Total variation distance between the exact law ``probs`` and
    empirical counts over the same outcomes."""
    counts = np.asarray(counts, dtype=float)
    if counts.size != probs.size:
        raise ValueError("support sizes differ")
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty counts")
    return 0.5 * float(np.abs(probs - counts / total).sum())


def reorder_axes(state: StateVector, order) -> StateVector:
    """Permute qudit axes; ``order[k]`` is the current axis placed at position k."""
    t = state.amps.reshape(state.dims).transpose(list(order))
    return StateVector(np.ascontiguousarray(t).ravel(), t.shape)
