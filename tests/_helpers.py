"""Shared test utilities: the dense modexp reference, a dict-based residue
index, and bridges from MPS layouts to the canonical dense ordering.

``shor.run_modexp`` keeps only R's residue index and the labels and bond
ranks of the modexp chain.  The functions below build that chain's site
tensors explicitly, gate by gate, in an ``_dense.MpsState``, as an
independent reference for its ranks, tallies, guard and amplitudes, and as
the input of the dense measurement and transform in ``_dense``.
``ReferenceIndex`` is R's residue index kept one residue at a time through a
dict, with every gate's map taken from that dict as the gate runs: the dense
chain's index, and through ``reference_index`` the reference for the
table-based ``shor.LowerRegisterIndex`` and its maps.  ``forward_counts``
and ``right_counts`` are the map recursions of the sampler's integer counts,
and ``graded_ranks`` counts each sample's "measure" ranks from them, as
references for the closed forms ``shor.sample_runs`` reads off the residues'
exponents; ``reference_graded_ranks`` counts the dynamic right block's ranks
by brute force, as a reference for their value in ``graded_ranks``.
``record_dict`` rebuilds a record's schema-1 dict from a ``shor.SampleCall``
and one of its records, and ``reference_sample_report`` builds a ``sample``
report from those dicts as one dict, which one ``json.dumps`` call encodes,
as a reference for the report that ``cli`` assembles from fragments.
``sample_call`` is the view of a ``shor.sample_runs`` call for one layout
alone, and ``sample_run`` draws the sample of one seed and returns its
schema-1 dict, for tests that compare samples one by one.
``reference_sample_runs`` is the sampler as it was before its qubits of
doubling gates became fair coins, its draws PCG64 lanes and its counts
closed forms: full ``int32`` maps, the map recursions, a branch pair and a
draw for every qubit, per-sample ranks, and one ``random()`` call per draw
on numpy ``Generator``s, as the reference for ``shor.sample_runs``; it
shares no count with the code it checks.
"""

import os
from pathlib import Path

import numpy as np

import _dense
from _dense import MpsState
import shormps
from shormps import __version__, cli, shor
from shormps.mps import LOWER_REGISTER, RankProfile, draw_outcome
from shormps.numtheory import SemiprimeInstance
from shormps.oracle import tvd_at_outcomes

# (l, n, a, r, alpha, beta) past the paper's table (README), n = 1451 * 1447
# and 2897 * 2903, and a row with a right block of 16 qubits, n = 7 * 65537
BEYOND_PAPER_ROWS = [
    (22, 2099597, 2, 1048350, 1, 524175),
    (24, 8409991, 2, 2101048, 3, 262631),
    (19, 458759, 3, 196608, 16, 3),
]


def package_env() -> dict:
    """The environment with the package's source directory first in
    ``PYTHONPATH``, so that a child interpreter imports the package under
    test whether or not it is installed."""
    src = str(Path(shormps.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# ------------------------------------------------------------ dense modexp

class ReferenceIndex:
    """R's residues in first-appearance order, in a list and a dict.

    ``gate(mult)`` looks up the image of each residue reached so far in the
    dict, appends it when new, and returns the map from old residue indices
    to the indices of their images as ``int32``, the form
    ``shor.LowerRegisterIndex.gate_maps`` must match byte for byte where it
    returns an array (``assert_gate_map``); ``maps`` keeps every gate's map.
    ``residues``, ``dim`` and ``position`` read as those of
    ``shor.LowerRegisterIndex`` do, so the dense stages take either.
    """

    def __init__(self, n: int):
        self.n = n
        self.order = [1]
        self.index = {1: 0}
        self.maps: list[np.ndarray] = []

    @property
    def residues(self) -> np.ndarray:
        return np.array(self.order, dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.order)

    def position(self, v: int) -> int:
        return self.index.get(v, -1)

    def gate(self, mult: int) -> np.ndarray:
        perm = np.empty(self.dim, dtype=np.int32)
        for j in range(perm.size):
            t = self.order[j] * mult % self.n
            k = self.index.get(t)
            if k is None:
                k = len(self.order)
                self.order.append(t)
                self.index[t] = k
            perm[j] = k
        self.maps.append(perm)
        return perm


def build_initial(instance: SemiprimeInstance) -> tuple[MpsState, ReferenceIndex]:
    """Lower-register qudit alone, in state |1> with effective dimension 1.

    Upper qubits are created lazily as their gates are applied.
    """
    state = MpsState.product_state((1,), (0,), labels=[LOWER_REGISTER])
    return state, ReferenceIndex(instance.n)


def apply_controlled_modexp(
    state: MpsState,
    lower: ReferenceIndex,
    instance: SemiprimeInstance,
    i: int,
    side: str,
    max_elements: int = 1 << 62,
) -> None:
    """Create upper qubit i in |+> next to R and apply controlled U^(2^i).

    The combined insert/gate/split acts directly on R's tensor: the control-1
    block is R's tensor with its residue axis permuted by the multiplier map,
    and the split leaves an identity factor behind.  Side ``"B"`` needs R at
    the right end; the qubit goes left of R and R keeps the identity.  Side
    ``"A"`` puts the qubit right of R, which keeps the gate; the new bond
    between them gets unit weights, and the bond formerly right of R (unit
    weights, since every site there was created this way) now lies right of
    the qubit.  No SVD runs on either side.  The map comes from the dict
    lookup of ``lower.gate``, never from ``shor.LowerRegisterIndex``.
    """
    mult = pow(instance.a, 1 << i, instance.n)
    rpos = state.position_of(LOWER_REGISTER)
    gamma_r = state.gammas[rpos]
    chi_l, d_old, chi_r = gamma_r.shape

    unit = 2 if state.complex_mode else 1
    if side == "B":
        if rpos != state.n_sites - 1:
            raise _dense.PipelineStateError("left-side gate requires R at the right end")
        perm = lower.gate(mult)
        d_new = lower.dim
        shor._guard("modexp",
                    state.elements_live
                    + unit * (2 * chi_l * d_new + d_new * d_new - gamma_r.size),
                    max_elements)
        q = np.zeros((chi_l, 2, d_new), dtype=gamma_r.dtype)
        q[:, 0, :d_old] = gamma_r[:, :, 0] * shor.SQRT_HALF
        q[:, 1, perm] = gamma_r[:, :, 0] * shor.SQRT_HALF
        state.gammas[rpos] = np.eye(d_new, dtype=gamma_r.dtype).reshape(d_new, d_new, 1)
        state.gammas.insert(rpos, q)
        state.labels.insert(rpos, i)
        state.lambdas.insert(rpos, np.ones(d_new))
        state.lortho.insert(rpos, False)
        state.rortho.insert(rpos, False)
        state.lortho[rpos + 1] = False
        state.rortho[rpos + 1] = True  # identity block at the chain end
    elif side == "A":
        perm = lower.gate(mult)
        d_new = lower.dim
        shor._guard(
            "modexp",
            state.elements_live
            + unit * (chi_l * d_new * 2 * chi_r + 4 * chi_r * chi_r - gamma_r.size),
            max_elements,
        )
        r_new = np.zeros((chi_l, d_new, 2 * chi_r), dtype=gamma_r.dtype)
        r_new[:, :d_old, :chi_r] = gamma_r * shor.SQRT_HALF
        r_new[:, perm, chi_r:] = gamma_r * shor.SQRT_HALF
        state.gammas[rpos] = r_new
        state.lambdas.insert(rpos, np.ones(2 * chi_r))
        q = np.eye(2 * chi_r, dtype=gamma_r.dtype).reshape(2 * chi_r, 2, chi_r)
        state.gammas.insert(rpos + 1, q)
        state.labels.insert(rpos + 1, i)
        state.lortho[rpos] = False
        state.rortho[rpos] = False
        state.lortho.insert(rpos + 1, False)
        state.rortho.insert(rpos + 1, True)  # identity block, unit weights beyond
    else:
        raise ValueError(f"unknown side {side!r}")
    state._retally()


def run_dense_modexp(state, lower, instance, layout,
                     max_elements=shor.MAX_ELEMENTS) -> int | None:
    """Controlled multiplications for qubits 2l-1 ... 0, most significant first.

    The static layout creates every qubit left of R and returns None.  The
    dynamic layout flags the plateau after one gate that leaves ``lower.dim``
    unchanged; the first later qubit whose multiplier is not yet a reached
    residue, and every qubit after it, is created right of R.  It returns the
    number of right-side qubits, the measured two-adic exponent of r.
    """
    dynamic = layout == "dynamic"
    plateau = False
    alpha_hat = 0
    for i in reversed(range(2 * instance.l)):
        d_before = lower.dim
        side = "B"
        if dynamic and (alpha_hat or (
                plateau and lower.position(pow(instance.a, 1 << i, instance.n)) < 0)):
            side = "A"
            alpha_hat += 1
        apply_controlled_modexp(state, lower, instance, i, side, max_elements)
        plateau = plateau or lower.dim == d_before
    return alpha_hat if dynamic else None


def dense_modexp(instance, layout, max_elements=shor.MAX_ELEMENTS):
    """The dense modexp chain of ``instance``: (state, lower, alpha_hat)."""
    state, lower = build_initial(instance)
    alpha_hat = run_dense_modexp(state, lower, instance, layout, max_elements)
    return state, lower, alpha_hat


def graded_modexp(instance, layout, max_elements=shor.MAX_ELEMENTS):
    """``shor.run_modexp`` for ``layout`` alone: (lower, alpha_hat, rank
    profile, element tally)."""
    lower = shor.LowerRegisterIndex(instance.n)
    return (lower, *shor.run_modexp(lower, instance, (layout,), max_elements)[layout])


def reference_index(instance):
    """Residues and multiplier maps of a whole modexp, one residue at a time.

    Gates run for qubits 2l-1 ... 0, most significant first, as in either
    layout (the maps do not depend on it), through a ``ReferenceIndex``.
    Returns the residues as a list and the maps as ``int32`` arrays, the form
    ``shor.LowerRegisterIndex`` must match byte for byte.
    """
    index = ReferenceIndex(instance.n)
    for i in reversed(range(2 * instance.l)):
        index.gate(pow(instance.a, 1 << i, instance.n))
    return index.order, index.maps


def assert_gate_map(got, want: np.ndarray, d_after: int) -> None:
    """``got``, a map of ``shor.LowerRegisterIndex.gate_maps``, against the
    reference map ``want`` of a gate after which R has dimension ``d_after``.

    A gate that doubles R's dimension D has the reference map arange(D, 2D),
    and ``gate_maps`` gives it as slice(D, 2D); every other gate's map is the
    reference's, byte for byte.
    """
    d = want.size
    if d_after == 2 * d:
        assert want.tobytes() == np.arange(d, 2 * d, dtype=np.int32).tobytes()
        assert got == slice(d, 2 * d)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.int32
        assert got.tobytes() == want.tobytes()


def forward_counts(lower, maps) -> np.ndarray:
    """f[c] = #{x < Q : a^x = c} over R's residue index, from the gates' maps.

    ``maps`` are ``lower.gate_maps()`` or ``reference_maps(lower)``, arrays or
    slices.  Each gate keeps every exponent (control bit 0) and moves a copy
    through its multiplier map (control bit 1): f <- pad(f) + scatter(f, P).
    The reference for the closed form ``shor.sample_runs`` reads off the
    residues' exponents.
    """
    f = np.ones(1)
    for perm, dim in zip(maps, lower.dims[1:] + [lower.dim]):
        grown = np.zeros(dim)
        grown[: f.size] = f
        grown[perm] += f
        f = grown
    return f


def right_counts(lower, maps, targets) -> list[np.ndarray]:
    """R_j[c] = #{v < 2^j : c * a^v = residue t}, for j = 0 ... 2l.

    ``maps`` are as for ``forward_counts``, and ``targets`` holds the index of
    t in R's residue index, one per sample; each R_j has the axes (sample,
    residue).  R_j runs over the residues reached by the qubits at or above
    j, so its length is R's dimension after gate j.  R_0 is one-hot at t and
    R_{j+1} = R_j[:D_j] + R_j[P_j], P_j being qubit j's multiplier map (an
    array or a slice) and D_j R's dimension before gate j.  The reference
    for the closed form ``shor.graded_fourier`` builds R_j from.
    """
    targets = np.asarray(targets)
    r_0 = np.zeros(targets.shape + (lower.dim,))
    np.put_along_axis(r_0, targets[..., None], 1.0, axis=-1)
    right = [r_0]
    for perm, d in zip(reversed(maps), reversed(lower.dims)):
        r_j = right[-1]
        right.append(r_j[..., :d] + r_j[..., perm])
    return right


def graded_ranks(alpha_hat, right) -> list[tuple[int, ...]]:
    """Schmidt ranks of the upper-register chain once R has read a residue,
    one tuple per sample, counted from the samples' right counts ``right``
    (``right_counts``): the reference for ``shor.measure_ranks``.

    A bond that splits the qubits into U and V has rank #{c in S_U : residue
    / c in S_V}, S_U being the residues a^u over U's bits.  Where U is the
    qubits at or above j, as on the static chain and on every dynamic bond up
    to the right block, that is the support of R_j.  The dynamic right block
    holds qubits 0, 1, ..., alpha-1 from left to right, and each of its
    alpha-1 bonds has rank 1 (``reference_graded_ranks`` counts them).
    """
    alpha = alpha_hat or 0
    top = len(right) - 1
    supports = np.stack([(right[j] > 0).sum(axis=-1)
                         for j in range(top - 1, max(alpha, 1) - 1, -1)], axis=-1)
    ones = (1,) * max(alpha - 1, 0)
    return [tuple(support) + ones for support in supports.tolist()]


def reference_graded_ranks(lower, instance, alpha_hat, residues, right):
    """``graded_ranks`` with the dynamic right block counted by brute force.

    A bond that splits the qubits into U and V has rank #{c in S_U : residue
    / c in S_V}; inside the right block (qubits 0 ... alpha-1, left to right)
    this counts the c over U's bits whose quotient the bits k+1 ... alpha-1
    reach, with O(alpha * 2^alpha) ``pow`` calls per sample.
    """
    alpha = alpha_hat or 0
    top = len(right) - 1
    supports = np.stack([(right[j] > 0).sum(axis=-1)
                         for j in range(top - 1, max(alpha, 1) - 1, -1)], axis=-1)
    n = instance.n
    inv = pow(instance.a, -1, n)
    d_upper = right[alpha].shape[-1]  # residues reached by the qubits >= alpha
    ranks = []
    for support, residue in zip(supports.tolist(), residues):
        for k in range(alpha - 1):
            # U: qubits >= alpha and 0..k; V: qubits k+1..alpha-1
            counted = set()
            for v in range(0, 1 << alpha, 2 << k):
                c = residue * pow(inv, v, n) % n
                if any(lower.position(c * pow(inv, y, n) % n) < d_upper
                       for y in range(2 << k)):
                    counted.add(c)
            support.append(len(counted))
        ranks.append(tuple(support))
    return ranks


# ----------------------------------------------------------------- bridges


def mps_as_canonical_dense(state, lower, instance, cap=1 << 26):
    """Contract an MPS post-modexp state into the dense oracle's axis order.

    The oracle orders axes (q_{2l-1}, ..., q_0, R) with the lower register
    indexed by exponent; the MPS layout and residue order depend on the gate
    schedule, so both get permuted here.
    """
    amps = state.to_state_vector(cap=cap)
    dims = state.dims
    target = list(range(2 * instance.l - 1, -1, -1)) + [LOWER_REGISTER]
    order = [state.labels.index(lab) for lab in target]
    vec = _dense.reorder_axes(_dense.StateVector(amps, dims), order)
    orbit = _dense.residue_orbit(instance.n, instance.a)
    perm = [lower.position(v) for v in orbit]
    t = vec.amps.reshape(-1, len(orbit))[:, perm]
    return _dense.StateVector(t.ravel(), vec.dims)


def rank_oracle_for_bond(labels, instance, bond, r_hint=None):
    """Expected Schmidt rank at a bond of a chain with site ``labels``, from the
    residue-counting oracle (``r_hint``: the order, to stop at saturation)."""
    left = labels[: bond + 1]
    upper = [lab for lab in left if lab != LOWER_REGISTER]
    return _dense.residue_rank_oracle(
        instance, upper, include_lower=LOWER_REGISTER in left, r_hint=r_hint
    )


def identity_split_pair(block):
    """Two-site state from a (d_l, d_r) amplitude block, split as (block, I).

    The bond gets the apparent rank d_r with all-ones weights instead of the
    Schmidt rank: the left site holds the block itself and is in general not
    left-orthonormal, while the right site is an identity and so is
    right-orthonormal.
    """
    block = np.asarray(block)
    d_l, d_r = block.shape
    identity = np.eye(d_r, dtype=block.dtype).reshape(d_r, d_r, 1)
    state = MpsState([block.reshape(1, d_l, d_r), identity], [np.ones(d_r)], [0, 1],
                     np.iscomplexobj(block))
    state.rortho[1] = True
    return state


# ------------------------------------------------------------------ sampling

def sample_call(instance, layout, seeds: range, max_elements=shor.MAX_ELEMENTS):
    """The ``shor.SampleCall`` of a ``shor.sample_runs`` call for ``layout``
    alone."""
    return shor.sample_runs(instance, (layout,), seeds, max_elements)[layout]


def sample_run(instance, layout, seed: int, max_elements=shor.MAX_ELEMENTS) -> dict:
    """The end-to-end sample of ``seed`` as its schema-1 dict: ``shor.sample_runs``
    with one seed, whose records do not depend on how the seeds are batched."""
    call = sample_call(instance, layout, range(seed, seed + 1), max_elements)
    return record_dict(call, call.records[0])


def reference_maps(lower) -> list[np.ndarray]:
    """Every gate's multiplier map of ``lower`` after its modexp as an
    ``int32`` array, doubling gates included, from its residues through a
    lookup table built here."""
    where = np.zeros(lower.n, dtype=np.int32)
    where[lower.residues] = np.arange(lower.dim, dtype=np.int32)
    return [where[lower.residues[:d] * m % lower.n] for m, d in zip(lower.mults, lower.dims)]


def _draws(rngs) -> np.ndarray:
    return np.array([rng.random() for rng in rngs])


def reference_fourier(maps, right, rngs, probs_seen=None) -> np.ndarray:
    """``shor.graded_fourier`` without fair coins, over the right counts
    ``right`` (``right_counts``): every qubit's branch pair and probability
    row, and one ``rngs[k].random()`` per qubit of sample k.  ``probs_seen``,
    when given, collects each qubit's rows, axes (sample, outcome), in
    measurement order."""
    rows = np.arange(len(rngs))
    w = (1.0 / np.sqrt(right[-1])).astype(np.complex128)
    phase = np.zeros(rows.size)
    bits = np.empty((rows.size, len(maps)), dtype=np.int64)
    for depth, (perm, right_j) in enumerate(zip(maps, reversed(right[:-1]))):
        branches, probs = shor.residue_branches(w, perm, right_j, phase)
        if probs_seen is not None:
            probs_seen.append(probs.copy())
        bit = draw_outcome(probs, _draws(rngs), where=f"qubit {len(maps) - 1 - depth}")
        w = branches[rows, bit] / np.sqrt(probs[rows, bit])[:, None]
        phase = (phase + bit) / 2
        bits[:, depth] = bit
    return bits


def reference_sample_runs(instance, layout, rngs, probs_seen=None,
                          max_elements=shor.MAX_ELEMENTS) -> shor.SampleCall:
    """``shor.sample_runs`` for ``layout`` alone, with sample k drawing from
    ``rngs[k]``, a numpy ``Generator``, one ``random()`` call per draw, over
    ``reference_maps``, the map recursions ``forward_counts`` and
    ``right_counts``, and ``reference_fourier``, all samples in one batch and
    with no element guard but modexp's (``max_elements``).  The "measure" ranks are counted per sample (``graded_ranks``),
    and asserted equal for every sample; with no sample, they are those of
    t = 1.  Records carry empty ``stage_seconds``."""
    rngs = list(rngs)
    lower = shor.LowerRegisterIndex(instance.n)
    alpha_hat, modexp_profile, tally = shor.run_modexp(lower, instance, (layout,),
                                                       max_elements)[layout]
    labels = tuple(lab for lab in modexp_profile.layout if lab != LOWER_REGISTER)
    dims = lower.dims[1:] + [lower.dim]
    held = sum(dims) + 1
    peaks = {"build": 1, "modexp": tally, "measure": lower.dim + held,
             "qft": held + max(2 * (d_before + 2 * d) for d_before, d in zip(lower.dims, dims))}
    maps = reference_maps(lower)
    counts = forward_counts(lower, maps)
    targets = draw_outcome(counts / counts.sum(), _draws(rngs), where="R")
    right = right_counts(lower, maps, targets if rngs else [0])
    ranks = graded_ranks(alpha_hat, right)
    assert len(set(ranks)) == 1, ranks
    call = shor.SampleCall(instance, layout, alpha_hat, modexp_profile,
                           RankProfile("measure", ranks[0], labels), peaks, [])
    if not rngs:
        return call
    bits = reference_fourier(maps, right, rngs, probs_seen)
    for residue, row in zip(lower.residues[targets].tolist(), bits.tolist()):
        s, convs, verified, factors = shor._classical(instance, tuple(row))
        call.records.append(shor.SampleRecord(residue, s, convs, verified, factors, {}))
    return call


# -------------------------------------------------------- report reference

def record_dict(call: shor.SampleCall, rec: shor.SampleRecord) -> dict:
    """The schema-1 dict of ``rec``, a record of ``call``, from the call's
    values and the record's."""
    inst = call.instance
    profiles = (call.modexp_profile, call.measure_profile, shor.QFT_PROFILE)
    return {
        "n": inst.n,
        "a": inst.a,
        "l": inst.l,
        "layout": call.layout,
        "alpha_hat": call.alpha_hat,
        "measured_residue": rec.measured_residue,
        "measured_s": rec.measured_s,
        "convergents": rec.convergents,
        "verified_r": rec.verified_r,
        "factors": rec.factors,
        "rank_profiles": [dict(vars(prof)) for prof in profiles],
        "peak_elements": call.peak_elements,
        "stage_seconds": rec.stage_seconds,
    }


def reference_aggregate(records: list[dict], l: int, r: int | None) -> dict:
    """A layout's aggregate, read from its records as dicts."""
    hist: dict[int, int] = {}
    for rec in records:
        hist[rec["measured_s"]] = hist.get(rec["measured_s"], 0) + 1
    successes = sum(1 for rec in records if rec["factors"] is not None)
    peaks: dict[str, int] = {}
    for rec in records:
        for stage, peak in rec["peak_elements"].items():
            peaks[stage] = max(peaks.get(stage, 0), peak)
    agg = {
        "s_histogram": {str(s): hist[s] for s in sorted(hist)},
        "factor_successes": successes,
        "factor_success_rate": successes / len(records),
        "peak_elements_per_stage": peaks,
        "tvd_vs_oracle": None,
    }
    if r is not None:
        agg["tvd_vs_oracle"] = tvd_at_outcomes(l, r, hist)
        agg["order_r"] = r
    return agg


def reference_sample_report(argv: list[str], calls: dict, elapsed_seconds: float) -> dict:
    """The report of ``shor-mps sample`` with ``argv`` (which names ``--a``)
    as one dict, built from each layout's records (layout -> the
    ``SampleCall`` that ``shor.sample_runs`` returned)."""
    args = cli._parse(argv)
    inst = SemiprimeInstance(args.n, args.a, args.p, args.q)
    r = cli._reference_order(inst, args.dense_cap)
    per_layout = {}
    for layout, call in calls.items():
        dicts = [record_dict(call, rec) for rec in call.records]
        per_layout[layout] = {"records": dicts,
                              "aggregate": reference_aggregate(dicts, inst.l, r)}
    return {
        "schema": 1,
        "tool": "shor-mps",
        "version": __version__,
        "command": "sample",
        "instance": cli._instance_echo(inst),
        "lucky_factors_from_draw": [],
        "config": {
            "samples": args.samples,
            "seed": args.seed,
            "layout": args.layout,
            "max_elements": args.max_elements,
            "dense_cap": args.dense_cap,
        },
        "order_profile": cli._order_profile_echo(inst),
        "layouts": per_layout,
        "elapsed_seconds": elapsed_seconds,
    }
