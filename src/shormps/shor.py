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
sum_c |w_o[c]|^2 R_j[c], with no cross terms.  R is drawn from the forward
counts f[c] = #{x < Q : a^x = c}.  Both counts are closed forms in one
exponent e[c] per residue, a^(e[c]) = c (``residue_counts``), so no count is
carried from gate to gate.  The Fourier transform is semiclassical
(Griffiths & Niu, PRL 76, 3228 (1996)): the most significant unread qubit's
controlled phases from the qubits already read collapse into one
single-site phase ahead of its Hadamard.  A sample therefore costs O(l * r)
and runs no SVD, density read or dense contraction, and every bond's
Schmidt rank is a label count, the same for every sample
(``measure_ranks``).  A gate that doubles R's residue set (``floor(log2
beta) + alpha`` of them) has a shifted identity as its map, and its qubit is
an exact fair coin, read with one comparison and no probability sum
(``graded_fourier``).  Modexp's gates, the exponents, the forward counts
and the ranks are the same for every sample of an instance and for both
layouts, whose chains differ only in their labels, bonds and tally, so
``sample_runs`` computes them once per call, for every layout it is asked
for, and draws its samples together, each array carrying a leading sample
axis, and every float a batch draws is computed up front from its seeds
(``rng.uniforms``); sample k still draws only from its own seed's stream,
so its record does not depend on the batch it is in.

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

    def gate_maps(self) -> list[np.ndarray | slice]:
        """Every recorded gate's multiplier map, in gate order.

        Map k sends the index of each residue reached before gate k to the
        index of its image, ``_where[residues[:D_k] * m_k % n] - 1`` with D_k
        = ``dims[k]`` and m_k = ``mults[k]``.  Gate k's images are in the
        table once it has run (an idle gate's already were), and the table
        never renumbers a residue, so these are the indices the images had
        when gate k ran.  The maps are ``int32``, as the table: at n=16351,
        intp maps held at once raised the peak RSS by 30 MB.

        A gate that doubles R's dimension (D_k to 2 D_k) reaches D_k fresh
        images, which ``extend`` appends in the order of their sources, so
        its map is ``arange(D_k, 2 D_k)``; it is returned as ``slice(D_k, 2
        D_k)``, which indexes as a view and stores nothing, and its qubit is
        a fair coin in the sampler (``graded_fourier``).
        """
        return [slice(d, 2 * d) if after == 2 * d
                else self._where[self.residues[:d] * m % self.n] - 1
                for m, d, after in zip(self.mults, self.dims, _dims_after(self))]


# qubit 0 is read last and is the only site left once the transform ends
QFT_PROFILE = RankProfile(stage="qft", ranks=(), layout=(0,))


@dataclass
class SampleRecord:
    """What one sample draws and derives; the values fixed per call are
    its ``SampleCall``'s."""

    measured_residue: int
    measured_s: int
    convergents: tuple[tuple[int, int], ...]
    verified_r: int | None
    factors: tuple[int, int] | None
    stage_seconds: dict[str, float]


@dataclass
class SampleCall:
    """One layout's view of a ``sample_runs`` call: the values fixed per call
    and layout, held once, and the call's records, one list that the views
    of every layout share.  A record's rank profiles are
    ``modexp_profile``, ``measure_profile`` and ``QFT_PROFILE``, in that
    order, and its element peaks are ``peak_elements``."""

    instance: SemiprimeInstance
    layout: str
    alpha_hat: int | None
    modexp_profile: RankProfile
    measure_profile: RankProfile
    peak_elements: dict[str, int]
    records: list[SampleRecord]


# ----------------------------------------------------------------------- modexp

def _guard(stage: str, needed: int, limit: int) -> None:
    if needed > limit:
        raise MemoryLimitError(stage, needed, limit)


def run_modexp(
    lower: LowerRegisterIndex, instance: SemiprimeInstance, layouts: tuple[str, ...],
    max_elements: int = MAX_ELEMENTS,
) -> dict[str, tuple[int | None, RankProfile, int]]:
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
    grows, so the last one is the peak.  Returns, per layout,
    the number of right-side qubits (the measured two-adic exponent of r;
    None for the static layout), the rank profile and that tally.
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
            lower.record(mult)
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
    return {layout: (right[layout] if layout == "dynamic" else None,
                     RankProfile("modexp", tuple(bonds[layout]), tuple(labels[layout])),
                     tally[layout])
            for layout in layouts}


# --------------------------------------------------------------- graded sampler

def _dims_after(lower: LowerRegisterIndex) -> list[int]:
    # R's dimension after each gate: the dimension before the next one
    return lower.dims[1:] + [lower.dim]


def residue_exponents(lower: LowerRegisterIndex, maps: list[np.ndarray | slice]) -> np.ndarray:
    """e[c] with a^(e[c]) = residue c of ``lower``, reduced mod r = ``lower.dim``.

    ``maps`` are ``lower.gate_maps()``.  The gate of qubit i multiplies by
    a^(2^i), and D is R's dimension before it: a slice(D, 2D) gives e[D:2D]
    = e[:D] + 2^i, an array map P gives e[P[k]] = e[k] + 2^i for each fresh
    image, P[k] >= D, and a gate that keeps D gives nothing.
    """
    r = lower.dim
    e = np.zeros(r, dtype=np.int64)
    for i, perm, d, after in zip(reversed(range(len(maps))), maps, lower.dims, _dims_after(lower)):
        if after == d:
            continue
        step = (1 << i) % r
        if isinstance(perm, slice):
            e[perm] = (e[:d] + step) % r
        else:
            fresh = perm >= d
            e[perm[fresh]] = (e[:d][fresh] + step) % r
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


def measure_ranks(lower: LowerRegisterIndex, e: np.ndarray) -> tuple[int, ...]:
    """Schmidt ranks of the upper-register chain once R has read a residue,
    bonds from qubit 2l-1 down, from ``e = residue_exponents(lower, ...)``.

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
                 for j, size in zip(reversed(range(1, len(lower.dims))), _dims_after(lower)))


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


def graded_fourier(maps: list[np.ndarray | slice], dims: list[int], d: np.ndarray,
                   floats: np.ndarray) -> np.ndarray:
    """Semiclassical Fourier transform of the upper register, graded by residue.

    Reads qubits 2l-1 ... 0, most significant first, as the dense
    reference's ``apply_lnn_qft`` does, keeping one complex weight per
    residue reached by the qubits read so far, for every sample at once:
    ``maps`` are the gates' multiplier maps (``lower.gate_maps()``), ``dims``
    R's dimension after each gate, ``d`` the samples' offsets d_c = (e_t -
    e_c) mod r, from which qubit j's right counts R_j are built as it reads
    them (``residue_counts``), and ``floats`` the samples' uniforms in [0,
    1), axes (sample, measurement order), one per qubit.  Returns the bits,
    axes (sample, measurement order).

    A qubit whose map is a slice(D, 2D) is a fair coin, bit for bit (README,
    "Fair coins"): its bit is u >= 1/2, and its state w followed by +-w
    exp(-i pi phase), with no sums, no normalization and no branch pair.
    Once every remaining map is a slice, no later qubit reads the weights,
    and the remaining bits are u >= 1/2 alone.
    """
    rows = np.arange(floats.shape[0])
    r = d.shape[-1]
    top = len(maps)
    bits = (floats >= 0.5).astype(np.int64)
    # past the last array map every qubit is a fair coin, and no weight is read
    read = max((k + 1 for k, perm in enumerate(maps) if not isinstance(perm, slice)), default=0)
    w = (1.0 / np.sqrt(residue_counts(d[:, :1], top, r))).astype(np.complex128)
    phase = np.zeros(rows.size)  # sum_k b_k / 2^(k-j) over the qubits k > j read so far
    for depth in range(read):
        perm = maps[depth]
        if isinstance(perm, slice):
            bit = bits[:, depth]
            moved = w * ((1 - 2 * bit) * np.exp(-1j * np.pi * phase))[:, None]
            w = np.concatenate((w, moved), axis=-1)
        else:
            j = top - 1 - depth
            right_j = residue_counts(d[:, : dims[depth]], j, r)
            branches, probs = residue_branches(w, perm, right_j, phase)
            bit = bits[:, depth] = draw_outcome(probs, floats[:, depth], where=f"qubit {j}")
            w = branches[rows, bit] / np.sqrt(probs[rows, bit])[:, None]
        phase = (phase + bit) / 2
    return bits


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
    instance: SemiprimeInstance, layouts: tuple[str, ...], seeds: range,
    max_elements: int = MAX_ELEMENTS,
) -> dict[str, SampleCall]:
    """End-to-end samples, one per seed of the range ``seeds``, in order, as
    one view per layout of ``layouts``.

    Modexp runs once for every layout and keeps only R's residue index and
    each layout's labels and bond ranks (``run_modexp``); no site tensor is
    built.  The gates' multiplier maps are then built once per call
    (``gate_maps``; a gate that doubles R's dimension gets a slice, and its
    qubit is a fair coin), and from them the residues' exponents e
    (``residue_exponents``).  R and the Fourier transform are drawn from
    those alone (see the module docstring): R from its forward counts, read
    off e once per call, and each qubit from one complex weight per residue
    and its right counts, built from one row of offsets d_c = (e_t - e_c)
    mod r per sample (``residue_counts``).  The "measure" ranks are the same
    for every sample and both layouts, counted once per call
    (``measure_ranks``); the "qft" chain ends as one site (``QFT_PROFILE``).
    None of this depends on the layout, so the samples are drawn once and
    every layout's view holds the same records; a view holds what is its
    layout's own: the layout, alpha_hat, the "modexp" profile, the "measure"
    labels and ``peak_elements``.

    The samples are drawn in batches, every array carrying a leading sample
    axis.  The sample of seed s draws the first 2l+1 floats of
    ``numpy.random.default_rng(s).random()``, R first and then qubits 2l-1
    ... 0; each batch computes its seeds' floats up front in PCG64 lanes
    (``rng.uniforms``).  A sample's arithmetic is elementwise or along a
    residue axis, so its record is the same whether it is drawn alone or in
    any batch.  ``seeds`` is a range of consecutive seeds.

    Every stage runs on ``instance`` as given.  A stage whose arrays would
    exceed ``max_elements`` raises ``MemoryLimitError``: modexp counts the
    elements each layout's site tensors would hold if stored densely,
    "measure" the forward and right counts of one sample, and "qft" one
    sample's right counts plus its complex residue vector and branch pair.
    These per-sample figures, a view's ``peak_elements``, count every R_j at
    once, an upper bound.  A batch holds max(1, min(BATCH_ELEMENTS,
    max_elements) // E) samples, E being the larger of the "measure" and
    "qft" figures, the same in every layout, so its arrays stay within
    ``max_elements`` too.  Each record's ``stage_seconds`` is its share of
    the stage times: what runs once per call (build, modexp, and the maps,
    exponents, forward counts and ranks of "measure") evenly over all
    samples, the rest evenly over its batch.  The classical post-processing
    of an s runs once per call.  What records repeat they share: the
    records of a batch one ``stage_seconds`` dict, and records with equal s
    one ``convergents`` tuple.
    """
    shared: dict[str, float] = {}
    t0 = time.perf_counter()
    lower = LowerRegisterIndex(instance.n)
    shared["build"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    chains = run_modexp(lower, instance, layouts, max_elements)
    shared["modexp"] = time.perf_counter() - t0

    dims = _dims_after(lower)
    held = sum(dims) + 1  # right counts R_0 ... R_2l
    peaks = {"build": 1}  # R alone, of dimension 1
    peaks["measure"] = lower.dim + held
    _guard("measure", peaks["measure"], max_elements)
    # complex units: the residue vector and its two branches
    peaks["qft"] = held + max(2 * (d_before + 2 * d) for d_before, d in zip(lower.dims, dims))
    _guard("qft", peaks["qft"], max_elements)
    batch = max(1, min(BATCH_ELEMENTS, max_elements) // max(peaks["measure"], peaks["qft"]))

    t0 = time.perf_counter()
    maps = lower.gate_maps()
    e = residue_exponents(lower, maps)
    r_probs = residue_counts(e, 2 * instance.l, lower.dim) / (1 << (2 * instance.l))
    ranks = measure_ranks(lower, e)
    shared["measure"] = time.perf_counter() - t0

    records: list[SampleRecord] = []
    calls = {
        layout: SampleCall(
            instance, layout, alpha_hat, profile,
            RankProfile("measure", ranks,
                        tuple(lab for lab in profile.layout if lab != LOWER_REGISTER)),
            {**peaks, "modexp": tally}, records)
        for layout, (alpha_hat, profile, tally) in chains.items()
    }
    # each batch's stage shares, final once the number of samples, and so
    # the call-wide share, is known
    shares: list[dict[str, float]] = []
    # _classical depends on the instance and the bits alone, and samples of
    # a small r repeat their s often (85 of 100 at n=21, seeds 5000-5099)
    classical: dict[tuple, tuple] = {}
    for start in range(0, len(seeds), batch):
        chunk = seeds[start : start + batch]
        seconds: dict[str, float] = {}
        t0 = time.perf_counter()
        u = uniforms(chunk.start, len(chunk), 2 * instance.l + 1)
        targets = draw_outcome(r_probs, u[:, 0], where="R")
        residues = lower.residues[targets].tolist()
        d = (e[targets][:, None] - e) % lower.dim
        t1 = time.perf_counter()
        bits = graded_fourier(maps, dims, d, u[:, 1:])
        t2 = time.perf_counter()
        seconds["measure"], seconds["qft"] = t1 - t0, t2 - t1
        done = []
        for row in map(tuple, bits.tolist()):
            if row not in classical:
                classical[row] = _classical(instance, row)
            done.append(classical[row])
        seconds["classical"] = time.perf_counter() - t2
        share = {stage: dt / len(chunk) for stage, dt in seconds.items()}
        shares.append(share)
        for residue, (s, convs, verified, factors) in zip(residues, done):
            records.append(SampleRecord(residue, s, convs, verified, factors, share))
    for share in shares:
        for stage, dt in shared.items():
            share[stage] = share.get(stage, 0.0) + dt / len(records)
    return calls


def _classical(instance: SemiprimeInstance, bits):
    """s from the bits, its convergents, the verified order and the factors."""
    s = assemble_s(bits, instance.l)
    convs = tuple(continued_fraction_convergents(s, 1 << (2 * instance.l)))
    verified = None
    for _, k in convs:
        if k > 1 and pow(instance.a, k, instance.n) == 1:
            verified = k
            break
    factors = recover_factors(instance.n, instance.a, verified) if verified else None
    return s, convs, verified, factors
