"""Order-finding pipeline over the MPS core.

The modular-exponentiation stage entangles upper-register qubits with a
single lower-register qudit R whose effective dimension grows as new residues
appear.  Two qudit layouts are provided:

* static: every upper qubit is created left of R, so the ranks grow toward R
  and culminate in the full order r at the innermost bond.
* dynamic: qubits are created left of R until the rank toward R has stalled
  and the next gate would raise it; that qubit and all remaining ones are
  created right of R instead.  The left block's rank stays at the odd part of
  r, and the right block's bonds double per qubit.  Every qubit is created on
  the side where it stays, so modexp moves no site and runs no SVD.

Plateau detection needs no prior knowledge of the order: for this circuit
family the rank toward R after k left-side gates is exactly min(2^k, beta)
where beta is the odd part of r.  Proof sketch: the gate for qubit i
multiplies residues by a^(2^i); after the k most significant qubits the
reachable residues are a^(m * 2^(2l-k)) for m < 2^k, a set of size
min(2^k, order of a^(2^(2l-k))) = min(2^k, beta) while 2l-k stays at least
the two-adic exponent of r.  The sequence therefore doubles strictly, then
stays flat at beta: one plateau, detectable from a single unchanged gate.

The side of each later qubit is decided before its gate.  At a plateau the
residues reached so far are the subgroup H generated by the last multiplier
(its order beta is odd, so its powers below 2^k already close it).  A new
multiplier m maps H onto m*H, which is H itself when m lies in H and a
disjoint coset otherwise, so the gate raises the rank exactly when m is not
yet a reached residue; that qubit starts the right block.  A later gate
whose multiplier is a reached residue is idle: it only permutes the reached
residues, so modexp records it and does no work on the index (about half
the gates of every published row; see ``run_modexp``).

The controlled-U gate itself is never materialized, and neither is the
chain.  Controlled multiplication permutes the residue basis, so each gate
only scatters R's amplitude blocks through the residue map, extending R's
residue index as new residues appear: every nonzero entry of every site is
a power of 1/sqrt(2), placed by the maps.  The modexp chain is therefore
fixed by the gates' residue maps, the side of each qubit and the bond
ranks, a charge-graded store in the sense of Singh, Pfeifer & Vidal
(PRA 82, 050301 (2010)).  ``run_modexp`` keeps the labels and ranks, and R's
residue index (``LowerRegisterIndex``) keeps the reached residues, each
gate's multiplier and R's dimension before it; the maps follow from those,
and only the sampler, which reads them, builds them.  The index holds the
residues as an array and a lookup table of n ``int32`` entries from residue
to index, so extending it, or building a map, is a few vectorized gathers
over the residues reached so far: O(r) work per gate, with no per-residue
Python step, and a table of 4n bytes of which only the pages holding
reached residues are ever touched.  The table bounds n below 2^31.  Left of
R the left states of distinct residue labels have disjoint supports, so the
bond to R is a Schmidt rank equal to the number of labels; right of R each
qubit doubles the bond.  The dense chain, built site
by site, is kept in the test suite as an independent reference.

Sampling after modexp is graded by residue (Ferris & Vidal, PRB 85, 165146
(2012); the residue grading plays the role of the conserved charge of Singh,
Pfeifer & Vidal, PRA 82, 050301 (2010)).  Once R reads the residue t, the
upper register is uniform over the x < Q with a^x = t.  Cut the qubits into
those at or above j and those below, so x = u + v, and group the left states
by c = a^u.  The right state of group c is the indicator of the v < 2^j with
c * a^v = t, so distinct groups have disjoint supports on both sides: the
chain is canonical up to diagonal weights, with R_j[c] = #{v : c * a^v = t}
the squared norm of group c's right state.  Gates and measurements on the
qubits at or above j act on each group's left state alone, so once those
qubits are read the state is sum_c w[c] |right state of c>, one complex
weight per group, and the outcome o of qubit j has probability
sum_c |w_o[c]|^2 R_j[c], with no cross terms.  R is drawn
from the forward counts f[c] = #{x < Q : a^x = c}, and the Fourier transform
is semiclassical (Griffiths & Niu, PRL 76, 3228 (1996)): the most significant
unread qubit's controlled phases from the qubits already read collapse into
one single-site phase ahead of its Hadamard.  A sample therefore costs
O(l * r) and runs no SVD, density read or dense contraction, and every bond's
Schmidt rank is a label count, read off the same counts.  Modexp and the
forward counts are the same for every sample of an instance, so
``sample_runs`` computes them once and draws its samples together, each
array carrying a leading sample axis; sample k still draws only from its
own generator, so its record does not depend on the batch it is in.

The same stages on a dense chain, with site tensors, a whole-chain density
read, rank-revealing sweeps and single-site measurements, live in the test
suite (``tests/_dense.py``) with the dense modexp (``tests/_helpers.py``):
no command reaches them, and they are the reference the graded pipeline is
tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from math import sqrt

import numpy as np

from .mps import LOWER_REGISTER, RankProfile, draw_outcome
from .numtheory import (
    SemiprimeInstance,
    continued_fraction_convergents,
    mod_pow,
    recover_factors,
)

SQRT_HALF = 1.0 / sqrt(2.0)
# n must be below this for the residue index (see ``LowerRegisterIndex``)
MAX_SIMULATED_MODULUS = 1 << 31


class MemoryLimitError(RuntimeError):
    """Element guard tripped; carries the offending stage."""

    def __init__(self, stage: str, needed: int, limit: int):
        super().__init__(f"{stage}: {needed} elements would exceed the limit {limit}")
        self.stage = stage
        self.needed = needed
        self.limit = limit


# ------------------------------------------------------------------- structures

class LowerRegisterIndex:
    """Residues of the lower register modulo ``n`` in first-appearance order.

    ``residues`` holds them as an ``int64`` array; a lookup table of ``n``
    ``int32`` entries holds each reached residue's index plus one, 0 meaning
    "not reached", so ``extend`` finds every image with one gather.  The
    table is allocated zeroed, and only the pages that hold reached residues
    are ever touched, so of its 4n bytes of address space it commits at most
    one page per residue.  ``n`` must be below ``MAX_SIMULATED_MODULUS``
    (2^31): table entries then fit ``int32`` and the products in ``extend``
    fit ``int64``.

    The index records every gate applied so far, in gate order (qubit 2l-1
    first): its multiplier in ``mults`` and R's dimension before it in
    ``dims``.  It stores no map: the table never renumbers a residue, so gate
    k's map can be read off the final table (``gate_maps``), and only the
    sampler reads maps.
    """

    def __init__(self, n: int):
        if not 1 < n < MAX_SIMULATED_MODULUS:
            raise ValueError(f"the residue index needs 1 < n < 2^31, got {n}")
        self.n = n
        self.residues = np.ones(1, dtype=np.int64)
        self._where = np.zeros(n, dtype=np.int32)
        self._where[1] = 1
        self.mults: list[int] = []
        self.dims: list[int] = []

    @property
    def dim(self) -> int:
        return self.residues.size

    def position(self, v: int) -> int:
        """Index of residue ``v`` in ``residues``, or -1 when not reached."""
        return int(self._where[v]) - 1

    def record(self, mult: int) -> None:
        """Record a gate with multiplier ``mult`` that reaches no new residue.

        The caller vouches for that (see ``run_modexp``); ``extend`` records
        every other gate itself.
        """
        self.mults.append(mult)
        self.dims.append(self.dim)

    def extend(self, mult: int) -> None:
        """Record a gate and append the images v * mult mod n not yet reached.

        New residues are appended in the order of the residues they are
        images of.  ``mult`` is a unit, so the images are distinct and each
        new one is appended once.
        """
        self.record(mult)
        img = self.residues * mult % self.n
        fresh = img[self._where[img] == 0]
        if fresh.size:
            self._where[fresh] = np.arange(self.dim + 1, self.dim + 1 + fresh.size,
                                           dtype=np.int32)
            self.residues = np.concatenate((self.residues, fresh))

    def gate_maps(self) -> list[np.ndarray]:
        """Every recorded gate's multiplier map, in gate order.

        Map k sends the index of each residue reached before gate k to the
        index of its image, ``_where[residues[:D_k] * m_k % n] - 1`` with D_k
        = ``dims[k]`` and m_k = ``mults[k]``.  Gate k's images are in the
        table once it has run (an idle gate's already were), and the table
        never renumbers a residue, so these are the indices the images had
        when gate k ran.  The maps are ``int32``, as the table: at n=16351,
        intp maps held at once raised the peak RSS by 30 MB.
        """
        return [self._where[self.residues[:d] * m % self.n] - 1
                for m, d in zip(self.mults, self.dims)]


@dataclass
class PipelineConfig:
    layout: str = "dynamic"
    max_elements: int = 1 << 30

    def __post_init__(self):
        if self.layout not in ("static", "dynamic"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.max_elements <= 0:
            raise ValueError(f"max_elements must be positive, got {self.max_elements}")


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
    rank_profiles: list[RankProfile]
    peak_elements: dict[str, int]
    stage_seconds: dict[str, float]


# ----------------------------------------------------------------------- modexp

def _guard(stage: str, needed: int, limit: int) -> None:
    if needed > limit:
        raise MemoryLimitError(stage, needed, limit)


def run_modexp(
    lower: LowerRegisterIndex, instance: SemiprimeInstance, config: PipelineConfig
) -> tuple[int | None, RankProfile, int]:
    """Controlled multiplications for qubits 2l-1 ... 0, most significant first.

    Each gate creates upper qubit i in |+> next to R and scatters R's
    amplitude blocks through its multiplier map, so the chain is fixed by
    the maps (``lower.gate_maps``), each qubit's side and the bond ranks.
    Only the labels and ranks are kept, and ``lower`` records each gate's
    multiplier and R's dimension before it; no map is built.  Side B puts
    the qubit left of R, with a bond of R's new dimension between them; side
    A puts it right of R, where the new bond next to R is twice R's old right
    bond (1 at the chain end).  Every bond is a Schmidt rank (see the module
    docstring) and equals the residue rank oracle.

    The plateau is flagged after one gate that leaves ``lower.dim``
    unchanged.  From then on a gate whose multiplier is already a reached
    residue is idle: it reaches no new residue, so it is only recorded and
    ``lower.extend`` does not run.  Proof: let S_i = {a^(m 2^i) : m <
    2^(2l-i)}, the residues reached once qubits 2l-1 ... i are gated.  S_i is
    closed, the subgroup generated by a^(2^i), once 2^(2l-i) >= ord(a^(2^i)).
    The gate that flags the plateau leaves S_(i+1) = S_i, which holds only
    the even powers of a^(2^i) below 2^(2l-i) and so needs that bound: S_i is
    closed.  Because ord(a^(2^(i-1))) <= 2 ord(a^(2^i)), S_(i-1) is closed
    too, and so is S_k for every later gate.  Multiplying a closed set by one
    of its own elements permutes it.  The gate that flags the plateau still
    runs ``extend``, since nothing is known to be closed before it.

    The static layout creates every qubit left of R.  The dynamic layout
    creates every qubit after the plateau that is not idle right of R.  The
    first such qubit i starts the right block, and every later qubit is in
    it: a^(2^i) is not in S_(i+1), so ord(a^(2^i)) is even, and then
    ord(a^(2^(i-1))) = 2 ord(a^(2^i)) is even and a^(2^(i-1)) is not in S_i.

    After each gate the dense-equivalent tally of the chain's site tensors,
    the paper's sum_k b_k d_k b_(k+1) with the chain ends as bonds of
    dimension 1, is checked against ``config.max_elements``.  A gate changes
    only R's tensor and adds the new qubit's, so the tally grows by their
    difference, with chi_l and chi_r the bonds beside R before the gate
    (1 at a chain end): side B adds 2 chi_l D_new + D_new^2 - chi_l D_old,
    side A adds chi_l D_new 2 chi_r + 4 chi_r^2 - chi_l D_old chi_r.  The
    tally only grows, so the last one is the peak.  Returns the number of
    right-side qubits (the measured two-adic exponent of r; None for the
    static layout), the rank profile and that tally.
    """
    dynamic = config.layout == "dynamic"
    plateau = False
    alpha_hat = 0
    labels: list = [LOWER_REGISTER]
    bonds: list[int] = []
    tally = 1
    for i in reversed(range(instance.upper_qubits)):
        d_before = lower.dim
        mult = mod_pow(instance.a, 1 << i, instance.n)
        idle = plateau and lower.position(mult) >= 0
        if idle:
            lower.record(mult)
        else:
            lower.extend(mult)
        d_new = lower.dim
        rpos = len(bonds) - alpha_hat  # R's site: one per qubit left of it
        chi_l = bonds[rpos - 1] if rpos else 1
        if dynamic and plateau and not idle:
            chi_r = bonds[rpos] if alpha_hat else 1
            alpha_hat += 1
            labels.insert(rpos + 1, i)
            bonds.insert(rpos, 2 * chi_r)
            tally += chi_l * d_new * 2 * chi_r + 4 * chi_r * chi_r - chi_l * d_before * chi_r
        else:
            # side B gates all come first, so R is still at the right end
            labels.insert(rpos, i)
            bonds.append(d_new)
            tally += 2 * chi_l * d_new + d_new * d_new - chi_l * d_before
        _guard("modexp", tally, config.max_elements)
        plateau = plateau or d_new == d_before
    profile = RankProfile(stage="modexp", ranks=tuple(bonds), layout=tuple(labels))
    return (alpha_hat if dynamic else None), profile, tally


# --------------------------------------------------------------- graded sampler

def _dims_after(lower: LowerRegisterIndex) -> list[int]:
    # R's dimension after each gate: the dimension before the next one
    return lower.dims[1:] + [lower.dim]


def forward_counts(lower: LowerRegisterIndex, maps: list[np.ndarray]) -> np.ndarray:
    """f[c] = #{x < Q : a^x = c} over R's residue index, from the gates' maps.

    ``maps`` are ``lower.gate_maps()``.  Each gate keeps every exponent
    (control bit 0) and moves a copy through its multiplier map (control bit
    1): f <- pad(f) + scatter(f, P).
    """
    f = np.ones(1)
    for perm, dim in zip(maps, _dims_after(lower)):
        grown = np.zeros(dim)
        grown[: f.size] = f
        grown[perm] += f
        f = grown
    return f


def right_counts(lower: LowerRegisterIndex, maps: list[np.ndarray], targets) -> list[np.ndarray]:
    """R_j[c] = #{v < 2^j : c * a^v = residue t}, for j = 0 ... 2l.

    ``maps`` are ``lower.gate_maps()``, and ``targets`` holds the index of t
    in R's residue index, one per sample; each R_j has the axes (sample,
    residue).  R_j runs over the residues reached by the qubits at or above
    j, so its length is R's dimension after gate j.  R_0 is one-hot at t and
    R_{j+1} = R_j[:D_{j+1}] + R_j[P_j], P_j being qubit j's multiplier map.
    """
    targets = np.asarray(targets)
    r_0 = np.zeros(targets.shape + (lower.dim,))
    np.put_along_axis(r_0, targets[..., None], 1.0, axis=-1)
    right = [r_0]
    for perm in reversed(maps):
        r_j = right[-1]
        right.append(r_j[..., : perm.size] + r_j[..., perm])
    return right


def residue_branches(w, perm, right_j, phase):
    """Both outcomes of qubit j for residue vectors ``w`` (last axis).

    ``w`` runs over the residues reached by the qubits above j.  Bit 0 keeps
    each residue and bit 1 moves it through j's multiplier map ``perm``; the
    gate H diag(1, exp(-i pi phase)) then mixes the two at each residue.
    Returns the branches, axes (..., outcome, residue), and their
    probabilities sum_c |branch[c]|^2 R_j[c], axes (..., outcome).  Leading
    axes of ``w``, ``right_j`` and ``phase`` broadcast; the arithmetic is
    elementwise or along the residue axis, so each leading index comes out
    the same whatever the others hold.
    """
    split = np.zeros(w.shape[:-1] + (2, right_j.shape[-1]), dtype=np.complex128)
    split[..., 0, : w.shape[-1]] = w
    split[..., 1, perm] = w * np.exp(-1j * np.pi * np.asarray(phase))[..., None]
    branches = np.empty_like(split)
    np.add(split[..., 0, :], split[..., 1, :], out=branches[..., 0, :])
    np.subtract(split[..., 0, :], split[..., 1, :], out=branches[..., 1, :])
    branches *= SQRT_HALF
    weight = np.asarray(right_j)[..., None, :]
    return branches, ((branches.real**2 + branches.imag**2) * weight).sum(axis=-1)


def graded_fourier(maps: list[np.ndarray], right: list[np.ndarray], rngs) -> np.ndarray:
    """Semiclassical Fourier transform of the upper register, graded by residue.

    Reads qubits 2l-1 ... 0, most significant first, as the dense
    reference's ``apply_lnn_qft`` does, keeping one complex weight per
    residue reached by the qubits read so far, for every sample at once:
    ``maps`` are the gates' multiplier maps (``lower.gate_maps()``),
    ``right`` holds the samples' right counts (``right_counts``) and sample
    k draws from ``rngs[k]``.  Returns the bits, axes (sample, measurement
    order).
    """
    rows = np.arange(len(rngs))
    w = (1.0 / np.sqrt(right[-1])).astype(np.complex128)
    phase = np.zeros(rows.size)  # sum_k b_k / 2^(k-j) over the qubits k > j read so far
    bits = np.empty((rows.size, len(maps)), dtype=np.int64)
    top = len(maps) - 1
    for depth, (perm, right_j) in enumerate(zip(maps, reversed(right[:-1]))):
        branches, probs = residue_branches(w, perm, right_j, phase)
        bit = draw_outcome(probs, rngs, where=f"qubit {top - depth}")
        w = branches[rows, bit] / np.sqrt(probs[rows, bit])[:, None]
        phase = (phase + bit) / 2
        bits[:, depth] = bit
    return bits


def graded_ranks(alpha_hat: int | None, right: list[np.ndarray]) -> list[tuple[int, ...]]:
    """Schmidt ranks of the upper-register chain once R has read a residue.

    One rank tuple per sample, from the samples' right counts ``right``
    (``right_counts``).  A bond that splits the qubits into U and V has rank
    #{c in S_U : residue / c in S_V}, S_U being the residues a^u over U's
    bits.  Where U is the qubits at or above j, as on the static chain and on
    every dynamic bond up to the right block, that is the support of R_j.
    The dynamic right block holds qubits 0, 1, ..., alpha-1 from left to
    right, and each of its alpha-1 bonds has rank 1: every x in the support
    has x = x0 (mod r) and 2^alpha divides r, so x mod 2^alpha is the same
    for all of them, and the right block is a product of fixed bits.
    """
    alpha = alpha_hat or 0
    top = len(right) - 1
    supports = np.stack([(right[j] > 0).sum(axis=-1)
                         for j in range(top - 1, max(alpha, 1) - 1, -1)], axis=-1)
    ones = (1,) * max(alpha - 1, 0)
    return [tuple(support) + ones for support in supports.tolist()]


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

# Elements one batch of samples may hold (see ``sample_runs``): enough that
# numpy's per-call overhead is spread over many samples at small r.
BATCH_ELEMENTS = 1 << 20


def sample_runs(
    instance: SemiprimeInstance, config: PipelineConfig, rngs
) -> list[SampleRecord]:
    """End-to-end samples, one per generator in ``rngs``, in order.

    Modexp runs once and keeps only R's residue index and the chain's labels
    and bond ranks (``run_modexp``); no site tensor is built.  The gates'
    multiplier maps are then built once per call (``gate_maps``), and R and
    the Fourier transform are drawn from those maps alone (see the module
    docstring): after R reads t, the bond above qubit j has one Schmidt label
    per residue c that both sides reach, with squared weight proportional to
    the left count #{u : a^u = c} times the right count R_j[c], so one
    complex weight per residue carries the state from qubit to qubit.  The
    "measure" ranks are those label counts and the "qft" chain ends as one
    site.

    The samples are drawn in batches, every array carrying a leading sample
    axis.  Sample k draws only from ``rngs[k]``, R first and then qubits
    2l-1 ... 0, and its arithmetic is elementwise or along a residue axis, so
    its record is the same whether it is drawn alone or in any batch.  ``rngs`` may be
    any iterable of objects with a ``random()`` method returning a float in
    [0, 1), such as numpy ``Generator``s or ``rng.Pcg64``s; it is read one
    batch at a time.

    Every stage runs on ``instance`` as given.  A stage whose arrays would
    exceed ``config.max_elements`` raises ``MemoryLimitError``: modexp counts
    the elements its chain's site tensors would hold if stored densely,
    "measure" the forward and right counts of one sample, and "qft" one
    sample's right counts plus its complex residue vector and branch pair.
    These per-sample figures are each record's ``peak_elements``.  A batch
    holds max(1, min(BATCH_ELEMENTS, max_elements) // E) samples, E being
    the larger of the "measure" and "qft" figures, so its arrays stay within
    ``config.max_elements`` too.  Each record's ``stage_seconds`` is its share
    of the stage times: what runs once per call (build, modexp, and the
    maps and forward counts of "measure") evenly over all samples, the rest
    evenly over its batch.  The classical post-processing of an s runs once
    per call.  Every record owns its ``convergents``, ``peak_elements`` and
    ``stage_seconds``, while the frozen ``RankProfile``s are shared: one
    "modexp" and one "qft" profile per call, and one "measure" profile per
    distinct rank tuple.
    """
    shared: dict[str, float] = {}
    t0 = time.perf_counter()
    lower = LowerRegisterIndex(instance.n)
    shared["build"] = time.perf_counter() - t0
    peaks = {"build": 1}  # R alone, of dimension 1
    t0 = time.perf_counter()
    alpha_hat, modexp_profile, peaks["modexp"] = run_modexp(lower, instance, config)
    shared["modexp"] = time.perf_counter() - t0
    labels = tuple(lab for lab in modexp_profile.layout if lab != LOWER_REGISTER)

    dims = _dims_after(lower)
    held = sum(dims) + 1  # right counts R_0 ... R_2l
    peaks["measure"] = lower.dim + held
    _guard("measure", peaks["measure"], config.max_elements)
    # complex units: the residue vector and its two branches
    peaks["qft"] = held + max(2 * (d_before + 2 * d) for d_before, d in zip(lower.dims, dims))
    _guard("qft", peaks["qft"], config.max_elements)
    batch = max(1, min(BATCH_ELEMENTS, config.max_elements)
                // max(peaks["measure"], peaks["qft"]))

    t0 = time.perf_counter()
    maps = lower.gate_maps()
    counts = forward_counts(lower, maps)
    r_probs = counts / counts.sum()
    shared["measure"] = time.perf_counter() - t0

    # qubit 0 is read last and is the only site left
    qft_profile = RankProfile(stage="qft", ranks=(), layout=(0,))
    measure_profiles: dict[tuple[int, ...], RankProfile] = {}
    # each batch's stage shares and records; the shares are final once the
    # number of samples, and so the call-wide share, is known
    batches: list[tuple[dict[str, float], list[SampleRecord]]] = []
    # _classical depends on the instance and the bits alone, and samples of
    # a small r repeat their s often (85 of 100 at n=21, seeds 5000-5099)
    classical: dict[tuple, tuple] = {}
    rngs = iter(rngs)
    while chunk := list(islice(rngs, batch)):
        seconds: dict[str, float] = {}
        t0 = time.perf_counter()
        targets = draw_outcome(r_probs, chunk, where="R")
        residues = lower.residues[targets].tolist()
        right = right_counts(lower, maps, targets)
        ranks = graded_ranks(alpha_hat, right)
        t1 = time.perf_counter()
        bits = graded_fourier(maps, right, chunk)
        t2 = time.perf_counter()
        seconds["measure"], seconds["qft"] = t1 - t0, t2 - t1
        done = []
        for row in map(tuple, bits.tolist()):
            if row not in classical:
                classical[row] = _classical(instance, row)
            done.append(classical[row])
        seconds["classical"] = time.perf_counter() - t2
        share = {stage: dt / len(chunk) for stage, dt in seconds.items()}
        records = []
        for residue, rank, (s, convs, verified, factors) in zip(residues, ranks, done):
            if rank not in measure_profiles:
                measure_profiles[rank] = RankProfile(stage="measure", ranks=rank, layout=labels)
            records.append(SampleRecord(
                n=instance.n,
                a=instance.a,
                l=instance.l,
                layout=config.layout,
                alpha_hat=alpha_hat,
                measured_residue=residue,
                measured_s=s,
                convergents=list(convs),
                verified_r=verified,
                factors=factors,
                rank_profiles=[modexp_profile, measure_profiles[rank], qft_profile],
                peak_elements=dict(peaks),
                stage_seconds=share,  # copied once the share is final
            ))
        batches.append((share, records))
    total = sum(len(records) for _, records in batches)
    for share, records in batches:
        for stage, dt in shared.items():
            share[stage] = share.get(stage, 0.0) + dt / total
        for rec in records:
            rec.stage_seconds = dict(share)
    return [rec for _, records in batches for rec in records]


def _classical(instance: SemiprimeInstance, bits):
    """s from the bits, its convergents, the verified order and the factors."""
    s = assemble_s(bits, instance.l)
    convs = continued_fraction_convergents(s, 1 << (2 * instance.l))
    verified = None
    for _, k in convs:
        if k > 1 and mod_pow(instance.a, k, instance.n) == 1:
            verified = k
            break
    factors = recover_factors(instance.n, instance.a, verified) if verified else None
    return s, convs, verified, factors
