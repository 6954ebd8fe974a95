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

Plateau detection needs no prior knowledge of the order: the rank toward R
after k left-side gates is exactly min(2^k, beta), beta being the odd part
of r, so it doubles strictly and then stays flat, and one unchanged gate
flags the plateau.  From then on a gate raises the rank exactly when its
multiplier is not yet a reached residue, and that qubit starts the dynamic
layout's right block.  A gate whose multiplier is a reached residue is
idle: it only permutes the reached residues, so modexp records it and does
no work on the index (about half the gates of every published row; see
``run_modexp``).  The proofs are in README, "Notes on the plateau detector".

The controlled-U gate itself is never materialized, and neither is the
chain.  Controlled multiplication permutes the residue basis, so each gate
only scatters R's amplitude blocks through the residue map, extending R's
residue index as new residues appear: every nonzero entry of every site is
a power of 1/sqrt(2), placed by the maps.  The modexp chain is therefore
fixed by the gates' residue maps, the side of each qubit and the bond
ranks, a charge-graded store in the sense of Singh, Pfeifer & Vidal
(PRA 82, 050301 (2010)).  ``run_modexp`` keeps the labels and ranks, and R's
residue index (``LowerRegisterIndex``) keeps the reached residues and R's
dimension before each gate; no map is built, by modexp or by the sampler.
The index holds the residues as an array and a lookup table of n ``int32``
entries from residue to index, so extending it is a few vectorized gathers
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
sum_c |w_o[c]|^2 R_j[c], with no cross terms.  R is drawn from the forward
counts f[c] = #{x < Q : a^x = c}.  Both counts are closed forms in one
exponent e[c] per residue, a^(e[c]) = c (``residue_counts``), so no count is
carried from gate to gate, and the exponents follow from R's dimensions
alone (``residue_exponents``): the sampler reads r, those dimensions and e,
and modexp's index is freed before the first sample.  The Fourier transform
is semiclassical (Griffiths & Niu, PRL 76, 3228 (1996)): the most
significant unread qubit's controlled phases from the qubits already read
collapse into one single-site phase ahead of its Hadamard.  A sample
therefore costs O(l * r) and runs no SVD, density read or dense
contraction, and every bond's Schmidt rank is a label count, the same for
every sample (``measure_ranks``).  With r = 2^alpha * beta, beta odd, a gate
that doubles R's residue set (``floor(log2 beta) + alpha`` of them) has a
qubit that is an exact fair coin, read with one comparison and no
probability sum, and every other gate has j >= alpha and runs on the beta
exponents that are multiples of 2^alpha, where it is the cyclic shift y ->
y + 2^(j - alpha) mod beta of y = e / 2^alpha (``graded_fourier``; README,
"Exponent coordinates").  Modexp's gates, the exponents, the
forward counts and the ranks are the same for every sample of an instance
and for both layouts, whose chains differ only in their labels, bonds and
tally, so ``sample_runs`` computes them once per call, for every layout it
is asked for, and draws its samples together, each array carrying a
leading sample axis, and every float a batch draws is computed up front
from its seeds (``rng.uniforms``); sample k still draws only from its own
seed's stream, so what it draws does not depend on the batch it is in.  A
call returns one ``SampleRun``: each layout's ``Chain``, and once for every
layout what the samples drew, a column of residues and a column of s.

The same stages on a dense chain, with site tensors, a whole-chain density
read, rank-revealing sweeps and single-site measurements, live in the test
suite (``tests/_dense.py``) with the dense modexp (``tests/_helpers.py``):
no command reaches them, and they are the reference the graded pipeline is
tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .mps import LOWER_REGISTER, RankProfile, draw_outcome
from .numtheory import SemiprimeInstance, continued_fraction_convergents, recover_factors
from .rng import uniforms

SQRT_HALF = 1.0 / sqrt(2.0)
# n must be below this for the residue index (see ``LowerRegisterIndex``)
MAX_SIMULATED_MODULUS = 1 << 31
# the default element limit of every stage (see ``run_modexp`` and ``sample_runs``)
MAX_ELEMENTS = 1 << 30
# both layouts, static first: the order in which each gate's guards are checked
LAYOUTS = ("static", "dynamic")


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

    The index records R's dimension before every gate applied so far, in
    gate order (qubit 2l-1 first), in ``dims``, and stores no map and no
    multiplier.  Only modexp reads it: the sampler reads ``dims`` and the
    final dimension r, and frees the index before its first sample
    (``sample_runs``).
    """

    def __init__(self, n: int):
        if not 1 < n < MAX_SIMULATED_MODULUS:
            raise ValueError(f"the residue index needs 1 < n < 2^31, got {n}")
        self.n = n
        self.residues = np.ones(1, dtype=np.int64)
        self._where = np.zeros(n, dtype=np.int32)
        self._where[1] = 1
        self.dims: list[int] = []

    @property
    def dim(self) -> int:
        return self.residues.size

    def position(self, v: int) -> int:
        """Index of residue ``v`` in ``residues``, or -1 when not reached."""
        return int(self._where[v]) - 1

    def record(self) -> None:
        """Record a gate that reaches no new residue.

        The caller vouches for that (see ``run_modexp``); ``extend`` records
        every other gate itself.
        """
        self.dims.append(self.dim)

    def extend(self, mult: int) -> None:
        """Record a gate and append the images v * mult mod n not yet reached.

        New residues are appended in the order of the residues they are
        images of.  ``mult`` is a unit, so the images are distinct and each
        new one is appended once.
        """
        self.record()
        img = self.residues * mult % self.n
        fresh = img[self._where[img] == 0]
        if fresh.size:
            self._where[fresh] = np.arange(self.dim + 1, self.dim + 1 + fresh.size,
                                           dtype=np.int32)
            self.residues = np.concatenate((self.residues, fresh))


# qubit 0 is read last and is the only site left once the transform ends
QFT_PROFILE = RankProfile(stage="qft", ranks=(), layout=(0,))


@dataclass(frozen=True)
class Chain:
    """One layout's modexp chain (``run_modexp``): the number of right-side
    qubits (the measured two-adic exponent of r; None for the static
    layout), the "modexp" rank profile and the element tally."""

    alpha_hat: int | None
    profile: RankProfile
    tally: int


@dataclass
class SampleRun:
    """What one ``sample_runs`` call drew, for every layout it was asked for.

    ``chains`` holds each layout's own values; everything else is the same
    in every layout and held once: the "measure" ranks, the element peaks
    of build, measure and qft, each sample's residue and s, in seed order,
    ``classical``, which maps each measured s to its continued-fraction
    convergents, factors and verified order, and ``stage_seconds``, one dict
    per batch of ``batch`` samples, each of its samples' share of the stage
    times: sample k's is ``stage_seconds[k // batch]``."""

    instance: SemiprimeInstance
    chains: dict[str, Chain]
    measure_ranks: tuple[int, ...]
    peak_elements: dict[str, int]
    measured_residue: list[int]
    measured_s: list[int]
    batch: int
    classical: dict[int, tuple]
    stage_seconds: list[dict[str, float]]

    def rank_profiles(self, layout: str) -> tuple[RankProfile, RankProfile, RankProfile]:
        """A sample's "modexp", "measure" and "qft" profiles in ``layout``;
        the "measure" chain is the modexp chain without R."""
        profile = self.chains[layout].profile
        labels = tuple(lab for lab in profile.layout if lab != LOWER_REGISTER)
        return profile, RankProfile("measure", self.measure_ranks, labels), QFT_PROFILE

    def peaks(self, layout: str) -> dict[str, int]:
        """A sample's element peak per stage in ``layout``."""
        return {**self.peak_elements, "modexp": self.chains[layout].tally}


# ----------------------------------------------------------------------- modexp

def _guard(stage: str, needed: int, limit: int) -> None:
    if needed > limit:
        raise MemoryLimitError(stage, needed, limit)


def run_modexp(
    lower: LowerRegisterIndex, instance: SemiprimeInstance, layouts: tuple[str, ...],
    max_elements: int = MAX_ELEMENTS,
) -> dict[str, Chain]:
    """Controlled multiplications for qubits 2l-1 ... 0, most significant first.

    Each gate creates upper qubit i in |+> next to R and scatters R's
    amplitude blocks through its multiplier map, so the chain is fixed by
    the maps, each qubit's side and the bond ranks.  Only the labels and
    ranks are kept, and ``lower`` records R's dimension before each gate; no
    map is built.  Side B puts
    the qubit left of R, with a bond of R's new dimension between them; side
    A puts it right of R, where the new bond next to R is twice R's old right
    bond (1 at the chain end).  Every bond is a Schmidt rank (see the module
    docstring) and equals the residue rank oracle.

    The gates, and so the index, are the same in every layout: one gate
    loop places each gate's qubit in the chain of every layout of
    ``layouts``.  The plateau is flagged after one gate that leaves
    ``lower.dim`` unchanged.  From then on a gate whose multiplier is
    already a reached residue is idle: it reaches no new residue, so it is
    only recorded and ``lower.extend`` does not run.  The gate that flags
    the plateau still runs ``extend``.  The static layout creates every
    qubit left of R.  The dynamic layout creates every qubit after the
    plateau that is not idle right of R; the first such qubit starts the
    right block, and every later qubit is in it.  The proofs are in README,
    "Notes on the plateau detector".

    After each gate the dense-equivalent tally of each layout's site
    tensors, the paper's sum_k b_k d_k b_(k+1) with the chain ends as bonds
    of dimension 1, is checked against ``max_elements``, layout by layout in
    the order of ``layouts``.  A gate changes only R's tensor and adds the
    new qubit's, so the tally grows by their difference, with chi_l and
    chi_r the bonds beside R before the gate (1 at a chain end): side B adds
    2 chi_l D_new + D_new^2 - chi_l D_old, side A adds chi_l D_new 2 chi_r +
    4 chi_r^2 - chi_l D_old chi_r.  No gate leaves the dynamic tally above
    the static one: the chains agree up to the right block, and from there
    on every gate doubles D = D_0 2^k (D_0 the left bond, 2^k the right
    one), where side A adds (3 D_0^2 + 4) 4^k and the static side B 7 D^2 =
    7 D_0^2 4^k.  So with ``LAYOUTS``, static first, both layouts trip as
    static alone would, or else as dynamic alone would.  The tally only
    grows, so the last one is the peak.  Returns each layout's ``Chain``:
    its number of right-side qubits, its rank profile and that tally.
    """
    plateau = False
    labels = {layout: [LOWER_REGISTER] for layout in layouts}
    bonds: dict[str, list[int]] = {layout: [] for layout in layouts}
    right = dict.fromkeys(layouts, 0)  # qubits right of R
    tally = dict.fromkeys(layouts, 1)
    for i in reversed(range(2 * instance.l)):
        d_before = lower.dim
        mult = pow(instance.a, 1 << i, instance.n)
        idle = plateau and lower.position(mult) >= 0
        if idle:
            lower.record()
        else:
            lower.extend(mult)
        d_new = lower.dim
        for layout in layouts:
            ranks = bonds[layout]
            rpos = len(ranks) - right[layout]  # R's site: one per qubit left of it
            chi_l = ranks[rpos - 1] if rpos else 1
            if layout == "dynamic" and plateau and not idle:
                chi_r = ranks[rpos] if right[layout] else 1
                right[layout] += 1
                labels[layout].insert(rpos + 1, i)
                ranks.insert(rpos, 2 * chi_r)
                tally[layout] += (chi_l * d_new * 2 * chi_r + 4 * chi_r * chi_r
                                  - chi_l * d_before * chi_r)
            else:
                # side B gates all come first, so R is still at the right end
                labels[layout].insert(rpos, i)
                ranks.append(d_new)
                tally[layout] += 2 * chi_l * d_new + d_new * d_new - chi_l * d_before
            _guard("modexp", tally[layout], max_elements)
        plateau = plateau or d_new == d_before
    return {layout: Chain(right[layout] if layout == "dynamic" else None,
                          RankProfile("modexp", tuple(bonds[layout]), tuple(labels[layout])),
                          tally[layout])
            for layout in layouts}


# --------------------------------------------------------------- graded sampler

def residue_exponents(dims: list[int]) -> np.ndarray:
    """e[c] with a^(e[c]) = residue c of R's index, reduced mod r, from R's
    dimensions alone: ``dims`` holds R's dimension before each gate, in gate
    order, and after the last, r.

    The gate of qubit i multiplies by a^(2^i), so it sends exponent e to (e
    + 2^i) mod r, and the index appends its new images in the order of their
    sources (``LowerRegisterIndex.extend``).  A gate that doubles D appends
    every image: e[D:2D] = (e[:D] + 2^i) mod r.  A gate that grows D
    partially appends, in source order, the images whose exponent is not yet
    reached, found with one r-sized mask.  A gate that keeps D appends
    nothing.
    """
    r = dims[-1]
    e = np.zeros(r, dtype=np.int64)
    for i, d, after in zip(reversed(range(len(dims) - 1)), dims, dims[1:]):
        if after == d:
            continue
        images = (e[:d] + (1 << i) % r) % r
        if after < 2 * d:
            # "table": one r-sized mask of the reached exponents
            images = images[~np.isin(images, e[:d], kind="table")]
        e[d:after] = images
    return e


def residue_counts(offsets: np.ndarray, j: int, r: int) -> np.ndarray:
    """#{v < 2^j : v = o (mod r)} = floor(2^j / r) + [o < 2^j mod r], as
    float64, for each offset o in [0, r) (Shor, SIAM J. Comput. 26, 1484 (1997)).

    With o = e[c] and j = 2l it is the forward count f[c] = #{x < Q : a^x =
    c}, and with o = d_c = (e_t - e_c) mod r the right count R_j[c] = #{v <
    2^j : c * a^v = t}.  Integers, so exact, and bitwise equal to the float64
    sums of the map recursions, while Q / r < 2^53.
    """
    whole, part = divmod(1 << j, r)
    return (offsets < part) + float(whole)


def measure_ranks(dims: list[int], e: np.ndarray) -> tuple[int, ...]:
    """Schmidt ranks of the upper-register chain once R has read a residue,
    bonds from qubit 2l-1 down, from R's dimensions ``dims`` (before each
    gate and after the last, as for ``residue_exponents``) and the exponents
    ``e = residue_exponents(dims)``.

    The tuple is the same for every residue t that R reads and for both
    layouts, so it is counted once, at t = 1.  Proof: the bond above qubit
    j splits the qubits into U, those at or above j, and V.  On the static
    chain, and on every dynamic bond up to the right block, its rank is the
    support of R_j (``residue_counts``) over the D_j residues U reaches,
    #{c : d_c < 2^j}: all D_j when 2^j >= r.  Otherwise, U reaches a^(2^j m)
    for m < 2^(2l-j), and 2^(2l-j) > Q / r > r, so the exponents of its
    residues are the multiples of g = gcd(2^j, r) = 2^min(j, alpha) mod r;
    d_c then runs over the residues mod r equal to e_t mod g, and g divides
    2^j < r, so 2^j / g of them lie below 2^j: the rank is 2^(j - min(j,
    alpha)), whatever t.  The dynamic right block, qubits 0, 1, ..., alpha-1
    from left to right, has alpha-1 bonds of rank 1: every x in the support
    has x = x0 (mod r), and 2^alpha divides r, so the block holds the fixed
    bits of x0 mod 2^alpha.  The static bonds above qubits alpha-1 ... 1
    have rank 2^0 = 1 too.
    """
    d = -e % e.size  # d_c at t = 1, whose exponent is 0
    return tuple(int(np.count_nonzero(d[:size] < 1 << j))
                 for j, size in zip(range(len(dims) - 2, 0, -1), dims[1:]))


def residue_branches(w, shift: int, right_j, phase, out) -> np.ndarray:
    """Both outcomes of qubit j for weight vectors ``w`` over Z_beta (last
    axis), written into ``out``, axes (..., outcome, y).

    Bit 0 keeps each weight and bit 1 moves it by qubit j's gate, the cyclic
    shift y -> y + ``shift`` mod beta; the gate H diag(1, exp(-i pi phase))
    then mixes the two at each y.  Returns the branches' probabilities
    sum_y |branch[y]|^2 R_j[y], axes (..., outcome).  Leading
    axes of ``w``, ``right_j``, ``phase`` and ``out`` broadcast; the
    arithmetic is elementwise or along the last axis, so each leading index
    comes out the same whatever the others hold.
    """
    moved = out[..., 1, :]
    moved[..., shift:] = w[..., : w.shape[-1] - shift]
    moved[..., :shift] = w[..., w.shape[-1] - shift :]
    moved *= np.exp(-1j * np.pi * np.asarray(phase))[..., None]
    np.add(w, moved, out=out[..., 0, :])
    np.subtract(w, moved, out=moved)
    out *= SQRT_HALF
    weight = np.asarray(right_j)[..., None, :]
    return ((out.real**2 + out.imag**2) * weight).sum(axis=-1)


def graded_fourier(dims: list[int], e: np.ndarray, e_t: np.ndarray,
                   floats: np.ndarray) -> np.ndarray:
    """Semiclassical Fourier transform of the upper register, graded by residue.

    Reads qubits 2l-1 ... 0, most significant first, as the dense
    reference's ``apply_lnn_qft`` does, keeping one complex weight per
    residue reached by the qubits read so far, for every sample at once:
    ``dims`` are R's dimensions (before each gate and after the last, r),
    ``e`` the residues' exponents (``residue_exponents``), ``e_t`` the
    exponent of each sample's residue t, and ``floats`` the samples'
    uniforms in [0, 1), axes (sample, measurement order), one per qubit.
    Returns the bits, axes (sample, measurement order).

    With r = 2^alpha * beta, beta odd, the gates fall into three runs
    (README, "Exponent coordinates").  The leading gates that
    double R's dimension D are fair coins, bit for bit (README, "Fair
    coins"): the bit is u >= 1/2, and the state w, in index order, is
    followed by +-w exp(-i pi phase), with no sums, no normalization and no
    branch pair.  From the first gate that does not double down to qubit
    alpha, every gate has j >= alpha, the qubits read reach the beta
    exponents that are multiples of 2^alpha, and the gate sends y = e /
    2^alpha to y + 2^(j - alpha) mod beta.  So the weights are placed once
    at y = e[:D] / 2^alpha in a beta-long vector, and each of these qubits
    is drawn from its branch pair (``residue_branches``), with R_j[y] built
    from the samples' offsets (e_t - 2^alpha y) mod r (``residue_counts``).
    The last alpha gates double D again, so no later qubit reads the
    weights, and their bits are u >= 1/2 alone.
    """
    rows = np.arange(floats.shape[0])
    r = dims[-1]
    top = len(dims) - 1
    alpha = (r & -r).bit_length() - 1
    beta = r >> alpha
    bits = (floats >= 0.5).astype(np.int64)
    w = (1.0 / np.sqrt(residue_counts(e_t[:, None], top, r))).astype(np.complex128)
    phase = np.zeros(rows.size)  # sum_k b_k / 2^(k-j) over the qubits k > j read so far
    depth = 0
    while dims[depth + 1] == 2 * dims[depth]:
        bit = bits[:, depth]
        w = np.concatenate((w, w * ((1 - 2 * bit) * np.exp(-1j * np.pi * phase))[:, None]), axis=-1)
        phase = (phase + bit) / 2
        depth += 1
    placed = np.zeros((rows.size, beta), dtype=np.complex128)
    placed[:, e[: dims[depth]] >> alpha] = w
    w = placed
    offsets = (e_t[:, None] - (np.arange(beta) << alpha)) % r
    branches = np.empty((rows.size, 2, beta), dtype=np.complex128)
    for depth in range(depth, top - alpha):
        j = top - 1 - depth
        probs = residue_branches(w, (1 << (j - alpha)) % beta,
                                 residue_counts(offsets, j, r), phase, branches)
        bit = bits[:, depth] = draw_outcome(probs, floats[:, depth], where=f"qubit {j}")
        w = branches[rows, bit] / np.sqrt(probs[rows, bit])[:, None]
        phase = (phase + bit) / 2
    return bits


def assemble_s(bits, l: int):
    """Measured bits to the integers s < 2^(2l): a ``(batch, 2l)`` array,
    each row in measurement order, gives one s per row, and one row gives
    its s.

    The first measured bit is the least significant; the mapping is pinned by
    the exact-distribution validation in the test suite.  The sums are exact
    in int64, 2l being at most 62 below ``MAX_SIMULATED_MODULUS``.
    """
    if np.shape(bits)[-1] != 2 * l:
        raise ValueError(f"expected {2 * l} bits, got {np.shape(bits)[-1]}")
    return bits @ (1 << np.arange(2 * l))


# ------------------------------------------------------------------ full sample

# Elements one batch of samples may hold (see ``sample_runs``): enough that
# numpy's per-call overhead is spread over many samples at small r.
BATCH_ELEMENTS = 1 << 20


def sample_runs(
    instance: SemiprimeInstance, layouts: tuple[str, ...], seeds: range,
    max_elements: int = MAX_ELEMENTS,
) -> SampleRun:
    """End-to-end samples, one per seed of the range ``seeds``, in order, as
    one ``SampleRun`` for every layout of ``layouts``.

    Modexp runs once for every layout and keeps only R's residue index and
    each layout's ``Chain``, its labels and bond ranks (``run_modexp``); no
    site tensor is built.  Of the index the sampler keeps R's dimensions
    alone, and the index is freed before the first sample.  The residues'
    exponents e follow from those dimensions once per call
    (``residue_exponents``), and R and the Fourier transform are drawn from
    e alone (see the module docstring): R from its forward counts, read off
    e once per call, so that its residue is a^(e_t) mod n, and each qubit
    from one complex weight per residue and its right counts, built from one
    beta-long row of offsets per sample (``graded_fourier``,
    ``residue_counts``).  The "measure" ranks are the same
    for every sample and both layouts, counted once per call
    (``measure_ranks``); the "qft" chain ends as one site (``QFT_PROFILE``).
    None of this depends on the layout, so the samples are drawn once for
    every layout, and only the chains are the layouts' own.

    The samples are drawn in batches, every array carrying a leading sample
    axis.  The sample of seed s draws the first 2l+1 floats of
    ``numpy.random.default_rng(s).random()``, R first and then qubits 2l-1
    ... 0; each batch computes its seeds' floats up front in PCG64 lanes
    (``rng.uniforms``).  A sample's arithmetic is elementwise or along a
    residue axis, so what it draws is the same whether it is drawn alone or
    in any batch.  ``seeds`` is a range of consecutive seeds.

    Every stage runs on ``instance`` as given.  A stage whose arrays would
    exceed ``max_elements`` raises ``MemoryLimitError``: modexp counts the
    elements each layout's site tensors would hold if stored densely,
    "measure" the forward and right counts of one sample, and "qft" one
    sample's right counts plus its complex residue vector and branch pair.
    These per-sample figures, the run's ``peak_elements``, count every R_j at
    once, an upper bound.  A batch holds max(1, min(BATCH_ELEMENTS,
    max_elements) // E) samples, E being the larger of the "measure" and
    "qft" figures, so its arrays stay within ``max_elements`` too.

    Each sample leaves only what it drew, its residue and s, one entry in
    each of two columns.  What follows from s is computed once per distinct
    s (``classical``), and ``stage_seconds`` holds one dict per batch, each
    of its samples' share of the stage times: what runs once per call
    (build, modexp, and the exponents, forward counts and ranks of
    "measure") evenly over all samples, the rest evenly over the batch.
    """
    t0 = time.perf_counter()
    lower = LowerRegisterIndex(instance.n)
    t1 = time.perf_counter()
    chains = run_modexp(lower, instance, layouts, max_elements)
    # R's dimension before each gate and after the last, r: all the sampler
    # reads of the index, whose table and residues go here
    dims = lower.dims + [lower.dim]
    del lower
    shared = {"build": t1 - t0, "modexp": time.perf_counter() - t1}

    r = dims[-1]
    held = sum(dims[1:]) + 1  # right counts R_0 ... R_2l
    # build: R alone, of dimension 1; qft in complex units: the residue
    # vector and its two branches
    peaks = {"build": 1, "measure": r + held,
             "qft": held + max(2 * (d + 2 * after) for d, after in zip(dims, dims[1:]))}
    for stage in ("measure", "qft"):
        _guard(stage, peaks[stage], max_elements)
    batch = max(1, min(BATCH_ELEMENTS, max_elements) // max(peaks["measure"], peaks["qft"]))

    t0 = time.perf_counter()
    e = residue_exponents(dims)
    r_probs = residue_counts(e, 2 * instance.l, r) / (1 << (2 * instance.l))
    run = SampleRun(instance, chains, measure_ranks(dims, e), peaks, [], [], batch, {}, [])
    shared["measure"] = time.perf_counter() - t0

    for start in range(0, len(seeds), batch):
        chunk = seeds[start : start + batch]
        t0 = time.perf_counter()
        u = uniforms(chunk.start, len(chunk), 2 * instance.l + 1)
        e_t = e[draw_outcome(r_probs, u[:, 0], where="R")]
        run.measured_residue += [pow(instance.a, x, instance.n) for x in e_t.tolist()]
        t1 = time.perf_counter()
        bits = graded_fourier(dims, e, e_t, u[:, 1:])
        t2 = time.perf_counter()
        s_values = assemble_s(bits, instance.l).tolist()
        # samples of a small r repeat their s often (85 of 100 at n=21,
        # seeds 5000-5099)
        for s in set(s_values).difference(run.classical):
            run.classical[s] = _classical(instance, s)
        run.measured_s += s_values
        seconds = {"measure": t1 - t0, "qft": t2 - t1, "classical": time.perf_counter() - t2}
        run.stage_seconds.append({stage: dt / len(chunk) for stage, dt in seconds.items()})
    # what runs once per call is shared evenly over all samples
    for share in run.stage_seconds:
        for stage, dt in shared.items():
            share[stage] = share.get(stage, 0.0) + dt / len(seeds)
    return run


def _classical(instance: SemiprimeInstance, s: int):
    """The convergents of s / 2^(2l), the factors and the verified order."""
    convs = tuple(continued_fraction_convergents(s, 1 << (2 * instance.l)))
    verified = None
    for _, k in convs:
        if k > 1 and pow(instance.a, k, instance.n) == 1:
            verified = k
            break
    factors = recover_factors(instance.n, instance.a, verified) if verified else None
    return convs, factors, verified
