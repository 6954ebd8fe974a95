"""Order-finding pipeline over the MPS core.

The modular-exponentiation stage entangles upper-register qubits with a
single lower-register qudit R whose effective dimension grows as new residues
appear.  Two qudit layouts are provided:

* static: every upper qubit is inserted on one side of R, so the ranks grow
  toward R and culminate in the full order r at the innermost bond.
* dynamic: qubits are inserted on the left of R until the rank toward R
  stalls; once a later gate raises it again, that qubit and all remaining
  ones are placed on the right of R instead.  The left block's rank stays at
  the odd part of r, and the right block's bonds double per qubit.

Plateau detection needs no prior knowledge of the order: for this circuit
family the rank toward R after k left-side gates is exactly min(2^k, beta)
where beta is the odd part of r.  Proof sketch: the gate for qubit i
multiplies residues by a^(2^i); after the k most significant qubits the
reachable residues are a^(m * 2^(2l-k)) for m < 2^k, a set of size
min(2^k, order of a^(2^(2l-k))) = min(2^k, beta) while 2l-k stays at least
the two-adic exponent of r.  The sequence therefore doubles strictly, then
stays flat at beta: one plateau, detectable from a single unchanged gate, and
the first subsequent rise marks the boundary qubit.

The controlled-U gate itself is never materialized: controlled multiplication
permutes the residue basis, so each gate copies amplitude blocks under the
residue map (cost linear in the affected tensor), extending R's residue index
as new residues appear.  Both layouts measure R the same way: right after
modexp the sites left of R are not left-orthonormal, so R's density matrix
comes from contracting the closed network.  Measuring only projects; R's
slice is contracted into its neighbour, and two sweeps then reveal every
bond's Schmidt rank, the only place after modexp where an SVD runs.

The Fourier transform is semiclassical: the most significant remaining qubit
sits at an end of the chain, its controlled phases from the qubits already
measured collapse into one single-site phase ahead of its Hadamard, and it is
measured as soon as that phase is known and contracted into its neighbour.
No two-site gate or SVD runs in it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .mps import LOWER_REGISTER, MpsState, RankProfile
from .numtheory import (
    SemiprimeInstance,
    continued_fraction_convergents,
    mod_pow,
    random_coprime,
    recover_factors,
)

SQRT_HALF = 1.0 / sqrt(2.0)


class MemoryLimitError(RuntimeError):
    """Element guard tripped; carries the offending stage."""

    def __init__(self, stage: str, needed: int, limit: int):
        super().__init__(f"{stage}: {needed} elements would exceed the limit {limit}")
        self.stage = stage
        self.needed = needed
        self.limit = limit

    def __reduce__(self):
        # rebuilt from its fields when a sample worker process raises it
        return type(self), (self.stage, self.needed, self.limit)


class PipelineStateError(RuntimeError):
    """Pipeline stage invoked on a state in the wrong mode or layout."""


# ------------------------------------------------------------------------ gates

def hadamard() -> np.ndarray:
    return np.array(
        [[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=np.complex128
    )


# ------------------------------------------------------------------- structures

class LowerRegisterIndex:
    """Residues of the lower register in first-appearance order."""

    def __init__(self):
        self.residues: list[int] = [1]
        self.index: dict[int, int] = {1: 0}

    @property
    def dim(self) -> int:
        return len(self.residues)

    def extend(self, mult: int, n: int) -> np.ndarray:
        """Image of each current residue under v -> v * mult mod n.

        New residues are appended as they first appear; the returned array
        maps old residue indices to the indices of their images.
        """
        count = len(self.residues)
        perm = np.empty(count, dtype=np.intp)
        for j in range(count):
            t = self.residues[j] * mult % n
            k = self.index.get(t)
            if k is None:
                k = len(self.residues)
                self.residues.append(t)
                self.index[t] = k
            perm[j] = k
        return perm


@dataclass
class PipelineConfig:
    layout: str = "dynamic"
    max_elements: int = 1 << 30
    retries: int = 2

    def __post_init__(self):
        if self.layout not in ("static", "dynamic"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.max_elements <= 0:
            raise ValueError(f"max_elements must be positive, got {self.max_elements}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")


@dataclass
class SampleRecord:
    n: int
    a: int
    l: int
    layout: str
    alpha_hat: int | None
    measured_residue: int
    measured_s: int
    convergents: list[tuple[int, int]]
    verified_r: int | None
    factors: tuple[int, int] | None
    lucky_factors: list[int]
    retries_used: int
    rank_profiles: list[RankProfile]
    peak_elements: dict[str, int]
    stage_seconds: dict[str, float]


# ----------------------------------------------------------------------- modexp

def build_initial(instance: SemiprimeInstance) -> tuple[MpsState, LowerRegisterIndex]:
    """Lower-register qudit alone, in state |1> with effective dimension 1.

    Upper qubits are created lazily as their gates are applied.
    """
    state = MpsState.product_state((1,), (0,), labels=[LOWER_REGISTER])
    return state, LowerRegisterIndex()


def _guard(stage: str, state: MpsState, delta: int, limit: int) -> None:
    needed = state.elements_live + delta
    if needed > limit:
        raise MemoryLimitError(stage, needed, limit)


def apply_controlled_modexp(
    state: MpsState,
    lower: LowerRegisterIndex,
    instance: SemiprimeInstance,
    i: int,
    side: str,
    max_elements: int = 1 << 62,
) -> None:
    """Insert upper qubit i in |+> next to R and apply controlled U^(2^i).

    The combined insert/gate/split acts directly on R's tensor: the control-1
    block is R's tensor with its residue axis permuted by the multiplier map,
    and the split leaves an identity factor behind (on the lower register for
    left-side gates, on the new qubit for right-side gates).
    """
    mult = mod_pow(instance.a, 1 << i, instance.n)
    rpos = state.position_of(LOWER_REGISTER)
    gamma_r = state.gammas[rpos]
    chi_l, d_old, chi_r = gamma_r.shape

    unit = 2 if state.complex_mode else 1
    if side == "B":
        if rpos != state.n_sites - 1:
            raise PipelineStateError("left-side gate requires R at the right end")
        perm = lower.extend(mult, instance.n)
        d_new = lower.dim
        _guard("modexp", state,
               unit * (2 * chi_l * d_new + d_new * d_new - gamma_r.size), max_elements)
        q = np.zeros((chi_l, 2, d_new), dtype=gamma_r.dtype)
        q[:, 0, :d_old] = gamma_r[:, :, 0] * SQRT_HALF
        q[:, 1, perm] = gamma_r[:, :, 0] * SQRT_HALF
        state.gammas[rpos] = np.eye(d_new, dtype=gamma_r.dtype).reshape(d_new, d_new, 1)
        state.gammas.insert(rpos, q)
        state.labels.insert(rpos, i)
        state.lambdas.insert(rpos, np.ones(d_new))
        state.lortho.insert(rpos, False)
        state.rortho.insert(rpos, False)
        state.lortho[rpos + 1] = False
        state.rortho[rpos + 1] = True  # identity block at the chain end
    elif side == "A":
        if rpos == state.n_sites - 1:
            raise PipelineStateError("right-side gate requires qubits right of R")
        perm = lower.extend(mult, instance.n)
        d_new = lower.dim
        lam_r = state.lambdas[rpos]
        _guard(
            "modexp",
            state,
            unit * (chi_l * d_new * 2 * chi_r + 4 * chi_r * chi_r - gamma_r.size),
            max_elements,
        )
        scaled = gamma_r if np.all(lam_r == 1.0) else gamma_r * lam_r[None, None, :]
        r_new = np.zeros((chi_l, d_new, 2 * chi_r), dtype=gamma_r.dtype)
        r_new[:, :d_old, :chi_r] = scaled * SQRT_HALF
        r_new[:, perm, chi_r:] = scaled * SQRT_HALF
        state.gammas[rpos] = r_new
        state.lambdas[rpos] = np.ones(2 * chi_r)
        q = np.eye(2 * chi_r, dtype=gamma_r.dtype).reshape(2 * chi_r, 2, chi_r)
        state.gammas.insert(rpos + 1, q)
        state.labels.insert(rpos + 1, i)
        state.lambdas.insert(rpos + 1, np.ones(chi_r))
        state.lortho[rpos] = False
        state.rortho[rpos] = False
        state.lortho.insert(rpos + 1, False)
        state.rortho.insert(rpos + 1, True)  # identity block, unit weights beyond
    else:
        raise ValueError(f"unknown side {side!r}")
    state._retally()


def run_modexp_static(
    state: MpsState,
    lower: LowerRegisterIndex,
    instance: SemiprimeInstance,
    config: PipelineConfig | None = None,
) -> None:
    """All upper qubits on one side of R, most significant first."""
    config = config or PipelineConfig(layout="static")
    for i in reversed(range(instance.upper_qubits)):
        apply_controlled_modexp(state, lower, instance, i, "B", config.max_elements)


def run_modexp_dynamic(
    state: MpsState,
    lower: LowerRegisterIndex,
    instance: SemiprimeInstance,
    config: PipelineConfig | None = None,
) -> int:
    """Plateau-detecting layout; returns the measured two-adic exponent.

    Qubits go to the left of R until the rank toward R has stalled (one gate
    that leaves it unchanged) and then risen; the first riser is relocated
    across R with one adjacent swap, and every later qubit is created directly
    on the right side.
    """
    config = config or PipelineConfig(layout="dynamic")
    plateau = False
    alpha_hat = 0
    right_side = False
    for i in reversed(range(instance.upper_qubits)):
        if right_side:
            apply_controlled_modexp(state, lower, instance, i, "A", config.max_elements)
            alpha_hat += 1
            continue
        d_before = lower.dim
        apply_controlled_modexp(state, lower, instance, i, "B", config.max_elements)
        if lower.dim == d_before:
            plateau = True
        elif plateau:
            # rank rose after the plateau: this qubit starts the right block
            state.swap_sites(state.position_of(LOWER_REGISTER) - 1)
            right_side = True
            alpha_hat += 1
    return alpha_hat


def run_modexp(state, lower, instance, config) -> int | None:
    if config.layout == "static":
        run_modexp_static(state, lower, instance, config)
        return None
    return run_modexp_dynamic(state, lower, instance, config)


# ------------------------------------------------------------------ measurement

def measure_lower_register(
    state: MpsState,
    lower: LowerRegisterIndex,
    rng=None,
    forced_residue: int | None = None,
) -> int:
    """Measure R, contract it into its neighbour, and reveal the ranks.

    One path for both layouts: ``measure_qudit`` reads R's density matrix by
    contracting the closed network, since the sites left of R are not
    left-orthonormal right after modexp, and only projects.  Then a
    left-to-right sweep from R's old place to the right end and a
    right-to-left sweep over the whole chain leave every bond at its Schmidt
    rank and every site right of the left end right-orthonormal.
    """
    rpos = state.position_of(LOWER_REGISTER)
    forced = lower.index[forced_residue] if forced_residue is not None else None
    outcome = state.measure_qudit(rpos, rng, forced=forced)
    state.remove_separable_site(rpos)
    state.sweep("right", range(rpos - 1, state.n_bonds))
    state.sweep("left")
    return lower.residues[outcome]


# ------------------------------------------------------------------------- QFT

def apply_lnn_qft(state: MpsState, rng=None, forced_bits=None) -> list[int]:
    """Semiclassical Fourier transform: one single-site gate per qubit.

    The most significant remaining qubit j must be an end site of the chain,
    as it is in both layouts.  Its controlled phases with the qubits k > j act
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


def assemble_s(bits, l: int) -> int:
    """Measured bits (measurement order) to the integer s < 2^(2l).

    The first measured bit is the least significant; the mapping is pinned by
    the exact-distribution validation in the test suite.
    """
    if len(bits) != 2 * l:
        raise ValueError(f"expected {2 * l} bits, got {len(bits)}")
    s = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        s |= b << k
    return s


# ------------------------------------------------------------------ full sample

def _profile(state: MpsState, stage: str) -> RankProfile:
    # post-stage bond dimensions are exact Schmidt ranks for this pipeline:
    # every split is either rank-revealing or a residue-counting identity split
    return RankProfile(stage=stage, ranks=state.bond_dims(), layout=tuple(state.labels))


def sample_run(
    instance: SemiprimeInstance, config: PipelineConfig, rng
) -> SampleRecord:
    """One end-to-end sample: modexp, lower measurement, QFT, classical step.

    A memory-limit trip redraws the base a (up to ``config.retries`` times)
    before giving up, since a fresh base usually lands a larger separable
    block.
    """
    lucky: list[int] = []
    attempt = 0
    inst = instance
    while True:
        try:
            return _sample_once(inst, config, rng, lucky, attempt)
        except MemoryLimitError:
            if attempt >= config.retries:
                raise
            attempt += 1
            a = random_coprime(instance.n, rng, on_lucky_factor=lucky.append)
            inst = SemiprimeInstance.make(
                instance.n, a, p=instance.p, q=instance.q, l=instance.l
            )


def _sample_once(instance, config, rng, lucky, retries_used) -> SampleRecord:
    profiles: list[RankProfile] = []
    peaks: dict[str, int] = {}
    seconds: dict[str, float] = {}

    def staged(name, fn):
        state.reset_peak()
        t0 = time.perf_counter()
        out = fn()
        seconds[name] = time.perf_counter() - t0
        peaks[name] = state.elements_peak
        return out

    t0 = time.perf_counter()
    state, lower = build_initial(instance)
    seconds["build"] = time.perf_counter() - t0
    peaks["build"] = state.elements_peak

    alpha_hat = staged("modexp", lambda: run_modexp(state, lower, instance, config))
    profiles.append(_profile(state, "modexp"))

    residue = staged("measure", lambda: measure_lower_register(state, lower, rng))
    profiles.append(_profile(state, "measure"))

    def qft():
        # promotion doubles the tally; nothing in the transform raises it
        _guard("qft", state, state.elements_live, config.max_elements)
        state.promote_to_complex()
        return apply_lnn_qft(state, rng)

    bits = staged("qft", qft)
    profiles.append(_profile(state, "qft"))

    t0 = time.perf_counter()
    s = assemble_s(bits, instance.l)
    convs = continued_fraction_convergents(s, 1 << (2 * instance.l))
    verified = None
    for _, k in convs:
        if k > 1 and mod_pow(instance.a, k, instance.n) == 1:
            verified = k
            break
    factors = recover_factors(instance.n, instance.a, verified) if verified else None
    seconds["classical"] = time.perf_counter() - t0

    return SampleRecord(
        n=instance.n,
        a=instance.a,
        l=instance.l,
        layout=config.layout,
        alpha_hat=alpha_hat,
        measured_residue=residue,
        measured_s=s,
        convergents=convs,
        verified_r=verified,
        factors=factors,
        lucky_factors=list(lucky),
        retries_used=retries_used,
        rank_profiles=profiles,
        peak_elements=peaks,
        stage_seconds=seconds,
    )
