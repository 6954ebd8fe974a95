"""Pipeline stages: modexp layouts, plateau detection, measurement, and the
semiclassical QFT, which measures each qubit as soon as its phase is known."""

from dataclasses import FrozenInstanceError
from math import gcd
from unittest import mock

import numpy as np
import pytest
from _helpers import (
    BEYOND_PAPER_ROWS,
    apply_controlled_modexp,
    assert_gate_map,
    build_initial,
    dense_modexp,
    forward_counts,
    graded_modexp,
    graded_ranks,
    mps_as_canonical_dense,
    rank_oracle_for_bond,
    record_dict,
    reference_graded_ranks,
    reference_index,
    reference_sample_runs,
    right_counts,
    sample_call,
    sample_run,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mps import random_circuit_state

import _dense
from _dense import MpsState
from shormps import cli, mps, oracle, shor
from shormps.mps import LOWER_REGISTER
from shormps.numtheory import (
    SemiprimeInstance,
    is_probable_prime,
    multiplicative_order,
    two_adic_split,
)

ODD_PRIMES = [p for p in range(3, 60) if is_probable_prime(p)]
# the published rows, l = 22 and 24, and the alpha = 16 row (l19)
ROWS = cli.PUBLISHED_ORDER_DATA + BEYOND_PAPER_ROWS
ROW_IDS = [f"l{row[0]}" for row in ROWS]


def seeded(first, count):
    """numpy Generators seeded first, first+1, ..., created as they are read."""
    return (np.random.default_rng(first + k) for k in range(count))


def seeds(first, count):
    """The seed range first, first+1, ..., first+count-1."""
    return range(first, first + count)


def without_timings(*calls):
    """The records of ``calls``, in order, as schema-1 dicts without their
    stage seconds."""
    return [{k: v for k, v in record_dict(call, rec).items() if k != "stage_seconds"}
            for call in calls for rec in call.records]


class TestBuildInitial:
    def test_single_unit_site(self):
        state, lower = build_initial(SemiprimeInstance(21, 2))
        assert state.n_sites == 1 and state.dims == (1,)
        assert lower.residues.tolist() == [1]
        assert state.elements_live == 1
        assert state.to_state_vector() == pytest.approx([1.0])


class TestControlledModexp:
    def test_first_gate_i0(self):
        inst = SemiprimeInstance(21, 2)
        state, lower = build_initial(inst)
        apply_controlled_modexp(state, lower, inst, 0, "B")
        assert lower.residues.tolist() == [1, 2]
        assert state.bond_dims() == (2,)
        assert state.labels == [0, LOWER_REGISTER]

    def test_first_gate_i9_multiplier(self):
        inst = SemiprimeInstance(21, 2)
        state, lower = build_initial(inst)
        apply_controlled_modexp(state, lower, inst, 9, "B")
        # 2^512 mod 21 = 4
        assert lower.residues.tolist() == [1, 4]

    def test_identity_multiplier_keeps_rank(self):
        inst = SemiprimeInstance(15, 14)  # 14^2 = 1 mod 15, so any i >= 1 multiplies by 1
        state, lower = build_initial(inst)
        apply_controlled_modexp(state, lower, inst, 3, "B")
        assert lower.residues.tolist() == [1]
        assert state.bond_dims() == (1,)

    def test_element_guard(self):
        inst = SemiprimeInstance(21, 2)
        state, lower = build_initial(inst)
        with pytest.raises(shor.MemoryLimitError) as err:
            apply_controlled_modexp(state, lower, inst, 9, "B", max_elements=5)
        assert err.value.stage == "modexp"

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("n, a", [(21, 2), (15, 2), (15, 14), (33, 2), (247, 2)])
    def test_modexp_is_pure_index_scatter(self, n, a, layout, monkeypatch):
        # every qubit is created on its final side of R: nothing is moved,
        # contracted or decomposed
        def banned(*args):
            raise AssertionError("SVD, contraction or swap in modexp")

        monkeypatch.setattr(_dense, "svd_truncated", banned)
        monkeypatch.setattr(MpsState, "contract_sites", banned)
        monkeypatch.setattr(MpsState, "swap_sites", banned)
        _, lower, _ = dense_modexp(SemiprimeInstance(n, a), layout)
        assert lower.dim == multiplicative_order(a, n)


@st.composite
def semiprime_and_base(draw, primes=ODD_PRIMES):
    p, q = draw(st.lists(st.sampled_from(primes), min_size=2, max_size=2, unique=True))
    n = p * q
    return n, draw(st.integers(2, n - 1).filter(lambda a: gcd(a, n) == 1))


class TestModexpProperties:
    @settings(max_examples=100, deadline=None)
    @given(semiprime_and_base())
    def test_dynamic_right_block_is_two_adic_exponent(self, case):
        n, a = case
        lower, alpha_hat, profile, _ = graded_modexp(SemiprimeInstance(n, a), "dynamic")
        r = multiplicative_order(a, n)
        assert alpha_hat == two_adic_split(r)[0]
        assert lower.dim == r
        assert len(profile.layout) - 1 - profile.layout.index(LOWER_REGISTER) == alpha_hat

    @settings(max_examples=60, deadline=None)
    @given(semiprime_and_base())
    def test_every_bond_matches_residue_oracle(self, case):
        inst = SemiprimeInstance(*case)
        for layout in ("static", "dynamic"):
            _, _, profile, _ = graded_modexp(inst, layout)
            for bond, rank in enumerate(profile.ranks):
                want = rank_oracle_for_bond(profile.layout, inst, bond)
                assert rank == want, (layout, bond)


def assert_matches_reference_index(lower, reference):
    """``lower`` after a whole modexp equals ``reference_index``'s result byte
    for byte: residues in order, and every map, a slice(D, 2D) where the
    gate doubles R's dimension D (``assert_gate_map``)."""
    residues, maps = reference
    assert lower.residues.dtype == np.int64
    assert lower.residues.tolist() == residues
    got = lower.gate_maps()
    assert len(got) == len(maps)
    dims_after = [perm.size for perm in maps[1:]] + [len(residues)]
    for perm, want, d_after in zip(got, maps, dims_after):
        assert_gate_map(perm, want, d_after)


def assert_skips_only_idle_gates(instance, layout, reference):
    """A whole modexp equals ``reference`` (``reference_index``) byte for
    byte, records every gate's multiplier and R's dimension before it, and
    calls ``extend`` on every gate but the idle ones (no new residue) after
    the first.  Returns (lower, idle gates, gates ``extend`` skipped)."""
    lower = shor.LowerRegisterIndex(instance.n)
    extended = []

    def spy(mult):
        extended.append(mult)
        shor.LowerRegisterIndex.extend(lower, mult)

    lower.extend = spy
    shor.run_modexp(lower, instance, (layout,), 1 << 62)
    residues, maps = reference
    dims = [perm.size for perm in maps]
    idle = [k for k, d in enumerate(dims[1:] + [len(residues)]) if d == dims[k]]
    mults = [pow(instance.a, 1 << i, instance.n)
             for i in reversed(range(2 * instance.l))]
    assert lower.mults == mults and lower.dims == dims
    assert extended == [m for k, m in enumerate(mults) if k not in idle[1:]]
    assert_matches_reference_index(lower, reference)
    return lower, len(idle), len(mults) - len(extended)


class TestResidueIndex:
    @settings(max_examples=100, deadline=None)
    @given(semiprime_and_base())
    def test_matches_dict_reference(self, case):
        inst = SemiprimeInstance(*case)
        reference = reference_index(inst)
        for layout in ("static", "dynamic"):
            lower, idle, skipped = assert_skips_only_idle_gates(inst, layout, reference)
            assert skipped == max(idle - 1, 0)
        where = {v: k for k, v in enumerate(lower.residues.tolist())}
        assert [lower.position(v) for v in range(inst.n)] == [
            where.get(v, -1) for v in range(inst.n)]

    @pytest.mark.parametrize("l, n, a, r, alpha, beta", ROWS, ids=ROW_IDS)
    def test_matches_dict_reference_on_published_rows(self, l, n, a, r, alpha, beta):
        # and past the paper: l = 22, 24 and the alpha = 16 row (l19); the
        # maps do not depend on the layout, so one reference serves both
        inst = SemiprimeInstance(n, a)
        reference = reference_index(inst)
        for layout in ("static", "dynamic"):
            lower, idle, skipped = assert_skips_only_idle_gates(inst, layout, reference)
            assert lower.dim == r
            assert skipped == idle - 1

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    def test_skips_idle_gates_after_the_plateau(self, layout):
        # n=16351 (r = 8036 = 2009 * 2^2): 15 of the 28 gates are idle, and
        # all but the one that flags the plateau skip extend
        inst = SemiprimeInstance(16351, 2)
        _, idle, skipped = assert_skips_only_idle_gates(inst, layout, reference_index(inst))
        assert (idle, skipped) == (15, 14)

    def test_gate_without_new_residue_keeps_the_arrays(self):
        # at n=16351 (r = 8036) 15 of the 28 gates reach no new residue
        inst = SemiprimeInstance(16351, 2)
        lower = shor.LowerRegisterIndex(inst.n)
        idle = 0
        for k, i in enumerate(reversed(range(2 * inst.l))):
            residues = lower.residues
            mult = pow(inst.a, 1 << i, inst.n)
            assert lower.extend(mult) is None
            assert (lower.mults[k], lower.dims[k]) == (mult, residues.size)
            # the residues reached before, then the new images in source order
            img = residues * mult % inst.n
            assert np.array_equal(lower.residues[: residues.size], residues)
            assert np.array_equal(lower.residues[residues.size:],
                                  img[~np.isin(img, residues)])
            if lower.dim == residues.size:
                idle += 1
                assert lower.residues is residues
        assert idle == 15
        for perm, mult, dim in zip(lower.gate_maps(), lower.mults, lower.dims):
            assert np.array_equal(lower.residues[perm], lower.residues[:dim] * mult % inst.n)
        assert_matches_reference_index(lower, reference_index(inst))

    @pytest.mark.parametrize("n", [0, 1, shor.MAX_SIMULATED_MODULUS,
                                   shor.MAX_SIMULATED_MODULUS + 1, 1 << 62])
    def test_refuses_n_outside_the_table_range(self, n):
        # the table's int32 entries and extend's int64 products need n < 2^31
        with pytest.raises(ValueError, match="1 < n < 2\\^31"):
            shor.LowerRegisterIndex(n)


class TestGradedModexp:
    @settings(max_examples=60, deadline=None)
    @given(semiprime_and_base(), st.sampled_from(["static", "dynamic"]), st.data())
    def test_matches_dense_reference(self, case, layout, data):
        # labels, ranks, tally, alpha_hat and the residue index equal the dense
        # chain's, and a limit trips both at the same gate with the same need
        inst = SemiprimeInstance(*case)
        lower, alpha_hat, profile, tally = graded_modexp(inst, layout)
        state, dense_lower, dense_alpha = dense_modexp(inst, layout)
        assert profile == mps.RankProfile("modexp", state.bond_dims(), tuple(state.labels))
        assert tally == state.elements_live == state.elements_peak
        assert alpha_hat == dense_alpha
        assert lower.residues.dtype == dense_lower.residues.dtype
        assert np.array_equal(lower.residues, dense_lower.residues)
        assert_matches_reference_index(lower, (dense_lower.order, dense_lower.maps))

        limit = data.draw(st.integers(1, tally), label="max_elements")
        try:
            graded_modexp(inst, layout, limit)
        except shor.MemoryLimitError as err:
            with pytest.raises(shor.MemoryLimitError) as dense_err:
                dense_modexp(inst, layout, limit)
            dense = dense_err.value
            assert (err.stage, err.needed) == (dense.stage, dense.needed)
        else:
            dense_modexp(inst, layout, limit)

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    def test_sample_and_profile_build_no_mps(self, layout, monkeypatch, tmp_path):
        def banned(*args, **kwargs):
            raise AssertionError("MpsState, SVD or contraction on the production path")

        monkeypatch.setattr(MpsState, "__init__", banned)
        # the package cannot import the dense reference, so ban what it could call
        monkeypatch.setattr(np.linalg, "svd", banned)
        monkeypatch.setattr(np, "einsum", banned)
        rec = sample_run(SemiprimeInstance(247, 2), layout, 0)
        assert rec["peak_elements"]["build"] == 1
        # only the sampler reads the gates' maps
        monkeypatch.setattr(shor.LowerRegisterIndex, "gate_maps", banned)
        out = tmp_path / "p.json"
        assert cli.main(["profile", "--n", "247", "--a", "2", "--layout", layout,
                         "--out", str(out)]) == 0


class TestStaticModexp:
    def test_n21_structure(self):
        lower, _, profile, _ = graded_modexp(SemiprimeInstance(21, 2), "static")
        assert lower.dim == 6
        assert profile.layout == (9, 8, 7, 6, 5, 4, 3, 2, 1, 0, LOWER_REGISTER)
        dims = profile.ranks
        assert dims[-1] == 6  # innermost bond carries the full order
        assert all(x <= y for x, y in zip(dims, dims[1:]))  # nondecreasing toward R

    def test_n15_a7_rank_is_order(self):
        lower, _, profile, _ = graded_modexp(SemiprimeInstance(15, 7), "static")
        assert lower.dim == 4 and profile.ranks[-1] == 4

    def test_matches_dense_oracle(self):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "static")
        got = mps_as_canonical_dense(state, lower, inst)
        want, _ = _dense.dense_modexp_state(inst)
        np.testing.assert_allclose(got.amps, want.amps, atol=1e-10)

    def test_every_bond_matches_residue_oracle(self):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "static")
        for bond, rank in enumerate(state.schmidt_ranks("modexp").ranks):
            assert rank == rank_oracle_for_bond(state.labels, inst, bond)


class TestDynamicModexp:
    def test_n21_structure(self):
        lower, alpha_hat, profile, _ = graded_modexp(SemiprimeInstance(21, 2), "dynamic")
        assert alpha_hat == 1
        assert lower.dim == 6
        rpos = profile.layout.index(LOWER_REGISTER)
        assert rpos == len(profile.layout) - 2  # single right-side qubit
        assert profile.layout[rpos + 1] == 0
        assert profile.ranks[rpos - 1] == 3  # left-block bond to R
        assert profile.ranks[rpos] == 2  # right-block bond

    def test_n15_a14_all_identity_left(self):
        lower, alpha_hat, profile, _ = graded_modexp(SemiprimeInstance(15, 14), "dynamic")
        assert alpha_hat == 1
        assert lower.dim == 2
        assert profile.layout[profile.layout.index(LOWER_REGISTER) + 1] == 0

    def test_n15_a2_two_right_qubits(self):
        lower, alpha_hat, profile, _ = graded_modexp(SemiprimeInstance(15, 2), "dynamic")
        assert alpha_hat == 2 and lower.dim == 4
        rpos = profile.layout.index(LOWER_REGISTER)
        assert sorted(profile.layout[rpos + 1 :]) == [0, 1]
        assert profile.ranks[rpos] == 4 and profile.ranks[rpos + 1] == 2

    def test_matches_dense_oracle(self):
        for n, a in [(21, 2), (15, 7), (15, 2)]:
            inst = SemiprimeInstance(n, a)
            state, lower, _ = dense_modexp(inst, "dynamic")
            got = mps_as_canonical_dense(state, lower, inst)
            want, _ = _dense.dense_modexp_state(inst)
            np.testing.assert_allclose(got.amps, want.amps, atol=1e-10)

    def test_every_bond_matches_residue_oracle(self):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "dynamic")
        for bond, rank in enumerate(state.schmidt_ranks("modexp").ranks):
            assert rank == rank_oracle_for_bond(state.labels, inst, bond)

    @pytest.mark.parametrize("n, a, live", [(21, 2, 182), (33, 2, 564)])
    def test_peak_is_final_state_and_bounded(self, n, a, live):
        # the tally only grows, so the final tally is the peak
        inst = SemiprimeInstance(n, a)
        assert graded_modexp(inst, "dynamic")[3] == live
        graded_modexp(inst, "dynamic", max_elements=live)
        with pytest.raises(shor.MemoryLimitError) as err:
            graded_modexp(inst, "dynamic", max_elements=live - 1)
        assert (err.value.stage, err.value.needed) == ("modexp", live)

    def test_alpha_hat_equals_true_two_adic_exponent(self):
        for n, a in [(21, 2), (15, 7), (15, 2), (15, 14), (21, 5), (247, 2)]:
            _, alpha_hat, _, _ = graded_modexp(SemiprimeInstance(n, a), "dynamic")
            r = multiplicative_order(a, n)
            assert alpha_hat == two_adic_split(r)[0], (n, a)


class TestMeasureLowerRegister:
    def test_probabilities_exact(self):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "dynamic")
        rpos = state.position_of(LOWER_REGISTER)
        state.sweep("right", range(rpos))
        rho = state.reduced_density_local(rpos)
        probs = np.real(np.diag(rho))
        big_q = 1 << (2 * inst.l)
        for idx, residue in enumerate(lower.residues):
            j = _dense.residue_orbit(21, 2).index(residue)
            expected = ((big_q - 1 - j) // 6 + 1) / big_q
            assert probs[idx] == pytest.approx(expected, abs=1e-10)

    def test_dynamic_post_measurement_structure(self, rng):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "dynamic")
        residue = _dense.measure_lower_register(state, lower, rng)
        assert residue in {1, 2, 4, 8, 16, 11}
        assert LOWER_REGISTER not in state.labels
        ranks = state.schmidt_ranks("after-measure").ranks
        assert max(ranks) == 3  # odd part of the order
        assert ranks[-1] == 1  # right-block qubit fully separable

    def test_static_measurement_agrees(self, rng):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "static")
        residue = _dense.measure_lower_register(state, lower, rng)
        assert residue in {1, 2, 4, 8, 16, 11}
        assert max(state.schmidt_ranks("after-measure").ranks) == 3

    def test_forced_residue(self, rng):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "dynamic")
        residue = _dense.measure_lower_register(state, lower, rng, forced_residue=11)
        assert residue == 11

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("n, a", [(21, 2), (247, 2)])
    def test_post_measure_bonds_are_schmidt_ranks(self, n, a, layout):
        inst = SemiprimeInstance(n, a)
        base, lower, _ = dense_modexp(inst, layout)
        for residue in lower.residues:
            state = base.copy()
            got = _dense.measure_lower_register(state, lower, forced_residue=residue)
            assert got == residue
            assert LOWER_REGISTER not in state.labels
            assert state.bond_dims() == state.schmidt_ranks("measure").ranks
            assert abs(state.norm() - 1.0) < 1e-10


class TestLnnQft:
    def test_requires_complex_mode(self, rng):
        state = MpsState.product_state((2, 2), (0, 0), labels=[1, 0])
        with pytest.raises(_dense.PipelineStateError):
            _dense.apply_lnn_qft(state, rng)

    def test_requires_leading_qubit_at_an_end(self, rng):
        state = MpsState.product_state((2,) * 3, (0,) * 3, labels=[0, 2, 1],
                                       complex_mode=True)
        with pytest.raises(_dense.PipelineStateError):
            _dense.apply_lnn_qft(state, rng)

    def test_zero_register_fully_separable(self, rng):
        state = MpsState.product_state((2,) * 4, (0,) * 4, labels=[3, 2, 1, 0],
                                       complex_mode=True)
        bits = _dense.apply_lnn_qft(state, rng)
        assert len(bits) == 4 and set(bits) <= {0, 1}
        assert state.n_sites == 1 and state.bond_dims() == ()

    def test_two_qubit_plus_zero(self, rng):
        # upper state |00> + |10>: the transform supports s in {0, 2} only
        seen = set()
        for _ in range(40):
            state = MpsState.product_state((2, 2), (0, 0), labels=[1, 0],
                                           complex_mode=True)
            state.apply_single_qudit_gate(0, _dense.hadamard())
            bits = _dense.apply_lnn_qft(state, rng)
            s = shor.assemble_s(bits, 1)
            assert s in (0, 2)
            seen.add(s)
        assert seen == {0, 2}

    def test_forced_bits(self):
        state = MpsState.product_state((2,) * 4, (0,) * 4, labels=[3, 2, 1, 0],
                                       complex_mode=True)
        bits = _dense.apply_lnn_qft(state, forced_bits=[1, 0, 1, 1])
        assert bits == [1, 0, 1, 1]

    def test_phase_sign_on_complex_input(self):
        # Shor's post-measure states are real, so only a complex input pins the
        # sign: Pr(s) = |sum_x psi(x) exp(-2 pi i x s / 8)|^2 / 8
        state, _ = random_circuit_state(np.random.default_rng(5), n=3)
        state.labels = [2, 1, 0]
        x = np.arange(8)
        law = np.abs(np.exp(-2j * np.pi * np.outer(x, x) / 8) @ state.to_state_vector())
        law = law**2 / 8
        rng = np.random.default_rng(6)
        draws = 4000
        counts = np.zeros(8)
        for _ in range(draws):
            bits = _dense.apply_lnn_qft(state.copy(), rng)
            counts[sum(b << k for k, b in enumerate(bits))] += 1
        assert 0.5 * np.abs(counts / draws - law).sum() < 0.06

    def test_no_two_site_operation_after_modexp(self, rng, monkeypatch):
        inst = SemiprimeInstance(21, 2)
        state, lower, _ = dense_modexp(inst, "dynamic")

        def banned(*args):
            raise AssertionError("two-site operation after modexp")

        monkeypatch.setattr(MpsState, "apply_two_site_gate", banned)
        monkeypatch.setattr(MpsState, "swap_sites", banned)
        _dense.measure_lower_register(state, lower, rng)
        state.promote_to_complex()
        assert len(_dense.apply_lnn_qft(state, rng)) == 2 * inst.l

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("n, a", [(21, 2), (247, 2)])
    def test_transform_runs_no_svd(self, n, a, layout, rng, monkeypatch):
        # the measurement leaves the chain right-orthonormal, so the static
        # layout reads every qubit locally and no qubit's removal needs an SVD
        inst = SemiprimeInstance(n, a)
        state, lower, _ = dense_modexp(inst, layout)
        _dense.measure_lower_register(state, lower, rng)
        state.promote_to_complex()

        def banned(*args):
            raise AssertionError("SVD or whole-chain read in the transform")

        monkeypatch.setattr(_dense, "svd_truncated", banned)
        if layout == "static":
            monkeypatch.setattr(MpsState, "reduced_density_nonlocal", banned)
        assert len(_dense.apply_lnn_qft(state, rng)) == 2 * inst.l


def dense_reference(inst, layout, rng, forced_residue=None):
    """The dense path: R by a whole-chain read and rank-revealing sweeps, then
    the semiclassical transform on the promoted chain."""
    state, lower, _ = dense_modexp(inst, layout)
    residue = _dense.measure_lower_register(state, lower, rng, forced_residue)
    profile = (state.bond_dims(), tuple(state.labels))
    state.promote_to_complex()
    return residue, profile, shor.assemble_s(_dense.apply_lnn_qft(state, rng), inst.l)


def graded_law(lower):
    """Pr(s), summed over every outcome path of the graded sampler: each R
    residue, then both bits of every qubit, renormalized as the sampler does."""
    maps = lower.gate_maps()
    counts = forward_counts(lower, maps)
    big_q = counts.sum()
    law = np.zeros(int(big_q))
    for t in range(lower.dim):
        right = right_counts(lower, maps, t)
        w = np.full((1, 1), 1.0 / np.sqrt(right[-1][0]), dtype=np.complex128)
        prob = np.array([counts[t] / big_q])
        phase = np.zeros(1)
        s = np.zeros(1, dtype=np.int64)
        for depth, (perm, right_j) in enumerate(zip(maps, reversed(right[:-1]))):
            branches, probs = shor.residue_branches(w, perm, right_j, phase)
            path, bit = np.nonzero(probs > 0)
            w = branches[path, bit] / np.sqrt(probs[path, bit])[:, None]
            prob = prob[path] * probs[path, bit]
            phase = (phase[path] + bit) / 2
            s = s[path] + (bit << depth)
        np.add.at(law, s, prob)
    return law


class TestGradedSampler:
    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("n, a", [(15, 7), (21, 2), (33, 2), (247, 2)])
    def test_same_samples_as_dense_reference(self, n, a, layout):
        # one batch of 20 samples, each against the dense path on its own generator
        inst = SemiprimeInstance(n, a)
        call = sample_call(inst, layout, range(20))
        measure = call.measure_profile
        for seed, rec in enumerate(call.records):
            got = (rec.measured_residue, (measure.ranks, measure.layout), rec.measured_s)
            assert got == dense_reference(inst, layout, np.random.default_rng(seed)), seed

    def test_branch_gate_convention(self):
        # sampled states are real, so only a complex weight pins the phase sign
        w = np.array([0.6, 0.8j])
        right_j = np.array([1.0, 2.0, 3.0])
        branches, probs = shor.residue_branches(w, np.array([1, 2]), right_j, 0.25)
        split = np.array([[0.6, 0.8j, 0.0], [0.0, 0.6, 0.8j]])
        want = _dense.hadamard() @ np.diag([1.0, np.exp(-0.25j * np.pi)]) @ split
        np.testing.assert_allclose(branches, want, atol=1e-15)
        np.testing.assert_allclose(probs, np.abs(want) ** 2 @ right_j, atol=1e-15)

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("n, a", [(21, 2), (247, 2)])
    def test_sample_runs_no_dense_work_after_modexp(self, n, a, layout, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("SVD, contraction, density read or promotion in a sample")

        monkeypatch.setattr(_dense, "svd_truncated", banned)
        for name in ("reduced_density_nonlocal", "reduced_density_local",
                     "promote_to_complex", "measure_qudit", "sweep"):
            monkeypatch.setattr(MpsState, name, banned)
        # the package cannot import the dense reference, so ban what it could call
        monkeypatch.setattr(np.linalg, "svd", banned)
        monkeypatch.setattr(np, "einsum", banned)
        rec = sample_run(SemiprimeInstance(n, a), layout, 3)
        assert rec["rank_profiles"][-1] == {"stage": "qft", "ranks": (), "layout": (0,)}

    def test_counts(self):
        inst = SemiprimeInstance(21, 2)
        lower, _, _, _ = graded_modexp(inst, "static")
        x = np.arange(1 << (2 * inst.l))
        residues = np.array([lower.position(pow(2, int(k), 21)) for k in x])
        maps = lower.gate_maps()
        assert np.array_equal(forward_counts(lower, maps), np.bincount(residues))
        t = lower.position(11)
        right = right_counts(lower, maps, t)
        for j in (0, 3, 2 * inst.l):
            want = [sum(c * pow(2, v, 21) % 21 == 11 for v in range(1 << j))
                    for c in lower.residues[: right[j].size]]
            assert right[j].tolist() == want

    @settings(max_examples=20, deadline=None)
    @given(semiprime_and_base([p for p in ODD_PRIMES if p < 30]).filter(lambda c: c[0] < 128))
    def test_path_sum_is_exact_law(self, case):
        # the sampler reads only modexp's maps, which both layouts share; the
        # enumeration costs O(r * l * Q * r), so n stays below 2^7
        inst = SemiprimeInstance(*case)
        lower = graded_modexp(inst, "static")[0]
        other = graded_modexp(inst, "dynamic")[0]
        maps, other_maps = lower.gate_maps(), other.gate_maps()
        assert len(maps) == len(other_maps)
        assert all(p == q if isinstance(p, slice) else np.array_equal(p, q)
                   for p, q in zip(maps, other_maps))
        r = multiplicative_order(inst.a, inst.n)
        want = oracle.exact_distribution(inst.l, r)
        assert np.max(np.abs(graded_law(lower) - want)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(semiprime_and_base([p for p in ODD_PRIMES if p < 20]), st.data())
    def test_ranks_match_dense_reference(self, case, data):
        inst = SemiprimeInstance(*case)
        for layout in ("static", "dynamic"):
            lower, alpha_hat, _, _ = graded_modexp(inst, layout)
            maps = lower.gate_maps()
            residue = data.draw(st.sampled_from(lower.residues.tolist()))
            (ranks,) = graded_ranks(alpha_hat, right_counts(lower, maps, [lower.position(residue)]))
            _, (want, _), _ = dense_reference(inst, layout, np.random.default_rng(0),
                                              forced_residue=residue)
            assert ranks == want, layout
            # the package's one tuple per call, counted at t = 1
            assert shor.measure_ranks(lower, shor.residue_exponents(lower, maps)) == want

    @settings(max_examples=30, deadline=None)
    @given(semiprime_and_base(ODD_PRIMES), st.data())
    def test_right_block_ranks_match_reference_loop(self, case, data):
        inst = SemiprimeInstance(*case)
        lower, alpha_hat, _, _ = graded_modexp(inst, "dynamic")
        residues = data.draw(st.lists(st.sampled_from(lower.residues.tolist()),
                                      min_size=1, max_size=4))
        right = right_counts(lower, lower.gate_maps(), [lower.position(c) for c in residues])
        assert graded_ranks(alpha_hat, right) == reference_graded_ranks(
            lower, inst, alpha_hat, residues, right)

    @pytest.mark.parametrize("n, a, alpha",
                             [(n, a, alpha) for _, n, a, _, alpha, _ in cli.PUBLISHED_ORDER_DATA]
                             + [(458759, 3, 16)], ids=str)
    def test_right_block_ranks_match_reference_loop_at_scale(self, n, a, alpha):
        # the published rows have alpha = 1 ... 4, and 458759 = 7 * 65537 with
        # a = 3 has r = 2^16 * 3, where the loop makes about 2^20 pow calls
        inst = SemiprimeInstance(n, a)
        lower, alpha_hat, _, _ = graded_modexp(inst, "dynamic", max_elements=1 << 44)
        assert alpha_hat == alpha
        residues = [int(lower.residues[-1])]
        right = right_counts(lower, lower.gate_maps(), [lower.dim - 1])
        ranks = graded_ranks(alpha_hat, right)
        assert ranks == reference_graded_ranks(lower, inst, alpha_hat, residues, right)
        assert ranks[0][len(ranks[0]) - alpha + 1:] == (1,) * (alpha - 1)


def supports_in_closed_form(lower, l, alpha):
    """The "measure" ranks of ``shor.measure_ranks``' docstring: D_j where
    2^j >= r, else 2^(j - min(j, alpha)), for j = 2l-1 ... 1."""
    r = lower.dim
    dims = lower.dims[1:] + [lower.dim]
    return tuple(size if 1 << j >= r else 1 << (j - min(j, alpha))
                 for j, size in zip(range(2 * l - 1, 0, -1), dims))


class TestClosedForms:
    """The exponents, counts and ranks the sampler reads in closed form,
    against the map recursions ``forward_counts`` and ``right_counts`` and
    the per-sample supports ``graded_ranks`` (``tests/_helpers.py``), which
    the package does not share.  Counts are compared bit for bit, which holds
    while Q / r < 2^53; on every instance here Q / r < 2^27."""

    @staticmethod
    def exponents(inst, layout="static"):
        lower, alpha_hat, _, _ = graded_modexp(inst, layout, 1 << 44)
        maps = lower.gate_maps()
        return lower, alpha_hat, maps, shor.residue_exponents(lower, maps)

    @pytest.mark.parametrize("l, n, a, r, alpha, beta", ROWS, ids=ROW_IDS)
    def test_exponents_reach_their_residues(self, l, n, a, r, alpha, beta):
        lower, _, _, e = self.exponents(SemiprimeInstance(n, a))
        # distinct residues have distinct exponents mod r
        assert np.array_equal(np.sort(e), np.arange(r))
        # every residue up to l = 17, and 2,000 of them past it
        picks = range(r) if l <= 17 else np.linspace(0, r - 1, 2000).astype(int).tolist()
        residues = lower.residues.tolist()
        assert all(pow(a, int(e[c]), n) == residues[c] for c in picks)

    @pytest.mark.parametrize("n, a", [(21, 2), (247, 2), (1943, 2), (458759, 3),
                                      (961307, 5), (8409991, 2)])
    def test_counts_equal_the_map_recursions(self, n, a):
        inst = SemiprimeInstance(n, a)
        lower, _, maps, e = self.exponents(inst)
        r = lower.dim
        want = forward_counts(lower, maps)
        assert shor.residue_counts(e, 2 * inst.l, r).tobytes() == want.tobytes()
        for t in sorted({0, 1, r // 3, r - 1}):
            d = (e[[t]][:, None] - e) % r  # as sample_runs builds it for one sample
            for j, want in enumerate(right_counts(lower, maps, [t])):
                got = shor.residue_counts(d[:, : want.shape[-1]], j, r)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (t, j)

    @settings(max_examples=40, deadline=None)
    @given(semiprime_and_base([p for p in ODD_PRIMES if p < 30]),
           st.sampled_from(["static", "dynamic"]))
    def test_ranks_are_the_supports_of_every_residue(self, case, layout):
        inst = SemiprimeInstance(*case)
        lower, alpha_hat, maps, e = self.exponents(inst, layout)
        residues = lower.residues.tolist()
        assert all(pow(inst.a, int(x), inst.n) == c for x, c in zip(e.tolist(), residues))
        ranks = shor.measure_ranks(lower, e)
        right = right_counts(lower, maps, range(lower.dim))
        assert set(graded_ranks(alpha_hat, right)) == {ranks}
        alpha = two_adic_split(lower.dim)[0]
        assert ranks == supports_in_closed_form(lower, inst.l, alpha)

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("l, n, a, r, alpha, beta", cli.PUBLISHED_ORDER_DATA,
                             ids=[f"l{row[0]}" for row in cli.PUBLISHED_ORDER_DATA])
    def test_ranks_are_the_supports_on_published_rows(self, l, n, a, r, alpha, beta, layout):
        lower, alpha_hat, maps, e = self.exponents(SemiprimeInstance(n, a), layout)
        ranks = shor.measure_ranks(lower, e)
        assert ranks == supports_in_closed_form(lower, l, alpha)
        for t in (0, r // 2, r - 1):
            assert graded_ranks(alpha_hat, right_counts(lower, maps, [t])) == [ranks], t


class TestFairCoins:
    """A doubling gate's qubit is an exact fair coin, and the sampler that
    reads it as one, with PCG64 lanes, draws the records of the reference
    sampler (``reference_sample_runs``: full maps, a branch pair for every
    qubit, numpy Generators)."""

    @staticmethod
    def assert_slice_rows_are_fair(inst, layout, first, count):
        lower = graded_modexp(inst, layout, 1 << 44)[0]
        coins = [isinstance(perm, slice) for perm in lower.gate_maps()]
        probs_seen = []
        reference_sample_runs(inst, layout, seeded(first, count), probs_seen, 1 << 44)
        assert len(probs_seen) == len(coins)
        for coin, probs in zip(coins, probs_seen):
            if coin:
                assert np.array_equal(probs[:, 0], probs[:, 1])
        return sum(coins)

    @settings(max_examples=40, deadline=None)
    @given(semiprime_and_base(ODD_PRIMES), st.sampled_from(["static", "dynamic"]),
           st.integers(0, 2**32 - 1))
    def test_slice_rows_are_bitwise_fair(self, case, layout, seed):
        self.assert_slice_rows_are_fair(SemiprimeInstance(*case), layout, seed, 4)

    @pytest.mark.parametrize("l, n, a, r, alpha, beta", ROWS, ids=ROW_IDS)
    def test_slice_rows_are_bitwise_fair_at_scale(self, l, n, a, r, alpha, beta):
        # floor(log2 beta) + alpha fair coins: 7 + 2 of 22 qubits at n=1943,
        # 14 + 4 of 40 at l=20, 1 + 16 at alpha = 16
        coins = self.assert_slice_rows_are_fair(SemiprimeInstance(n, a), "static", 7, 1)
        assert coins == beta.bit_length() - 1 + alpha

    @settings(max_examples=40, deadline=None)
    @given(semiprime_and_base(ODD_PRIMES), st.sampled_from(["static", "dynamic"]),
           st.integers(0, 2**64), st.integers(0, 12), st.data())
    def test_records_equal_the_reference_sampler(self, case, layout, seed, m, data):
        inst = SemiprimeInstance(*case)
        want = without_timings(reference_sample_runs(inst, layout, seeded(seed, m)))
        assert without_timings(sample_call(inst, layout, seeds(seed, m))) == want
        # batches of 1 ... 3 samples give the same records
        per_sample = max(sample_call(inst, layout, seeds(0, 1)).peak_elements[stage]
                         for stage in ("measure", "qft"))
        bound = data.draw(st.integers(1, 4 * per_sample - 1), label="batch elements")
        with mock.patch.object(shor, "BATCH_ELEMENTS", bound):
            assert without_timings(sample_call(inst, layout, seeds(seed, m))) == want

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    @pytest.mark.parametrize("l, n, a, r, alpha, beta", ROWS, ids=ROW_IDS)
    def test_records_equal_the_reference_sampler_at_scale(self, l, n, a, r, alpha, beta,
                                                          layout):
        inst = SemiprimeInstance(n, a)
        want = without_timings(reference_sample_runs(inst, layout, seeded(900, 2),
                                                     max_elements=1 << 44))
        assert without_timings(sample_call(inst, layout, seeds(900, 2), 1 << 44)) == want


class TestAssembleS:
    def test_all_zero(self):
        assert shor.assemble_s([0] * 10, 5) == 0

    def test_all_one(self):
        assert shor.assemble_s([1] * 10, 5) == 2**10 - 1

    def test_first_bit_least_significant(self):
        assert shor.assemble_s([1, 0, 0, 0], 2) == 1
        assert shor.assemble_s([0, 0, 0, 1], 2) == 8

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            shor.assemble_s([0, 1], 5)


class TestSampleRun:
    def test_record_fields_n21(self):
        inst = SemiprimeInstance(21, 2)
        rec = sample_run(inst, "dynamic", 7)
        assert rec["n"] == 21 and rec["a"] == 2 and rec["l"] == 5
        assert rec["alpha_hat"] == 1
        assert rec["measured_residue"] in {1, 2, 4, 8, 16, 11}
        assert 0 <= rec["measured_s"] < 1024
        assert rec["verified_r"] in (None, 6)
        if rec["factors"] is not None:
            assert rec["factors"] == (3, 7)
        assert {"build", "modexp", "measure", "qft"} <= set(rec["peak_elements"])
        assert [p["stage"] for p in rec["rank_profiles"]] == ["modexp", "measure", "qft"]

    def test_factor_recovery_rate(self):
        inst = SemiprimeInstance(21, 2)
        wins = sum(
            sample_run(inst, "dynamic", 1000 + k)["factors"]
            == (3, 7)
            for k in range(20)
        )
        assert wins >= 3

    def test_comb_instance_s_support(self):
        inst = SemiprimeInstance(15, 7)  # order 4 divides 2^(2l): exact four-peak comb
        for k in range(60):
            rec = sample_run(inst, "dynamic", k)
            assert rec["measured_s"] in (0, 256, 512, 768)

    def test_static_layout_end_to_end(self):
        inst = SemiprimeInstance(15, 7)
        for k in range(20):
            rec = sample_run(inst, "static", k)
            assert rec["layout"] == "static" and rec["alpha_hat"] is None
            assert rec["measured_s"] in (0, 256, 512, 768)

    def test_memory_limit_surfaces(self):
        inst = SemiprimeInstance(21, 2)
        with pytest.raises(shor.MemoryLimitError):
            sample_run(inst, "dynamic", 0, max_elements=10)

    @settings(max_examples=40, deadline=None)
    @given(semiprime_and_base([p for p in ODD_PRIMES if p < 40]),
           st.sampled_from(["static", "dynamic"]), st.integers(0, 2**32 - 1),
           st.integers(1, 12))
    def test_memory_guard_is_tight_and_keeps_the_base(self, case, layout, seed, m):
        inst = SemiprimeInstance(*case)

        def run(max_elements=shor.MAX_ELEMENTS):
            return sample_call(inst, layout, seeds(seed, m), max_elements)

        free = run()
        peak = max(free.peak_elements.values())
        tight = run(peak)
        assert tight.instance == inst
        assert without_timings(tight) == without_timings(free)
        with pytest.raises(shor.MemoryLimitError) as err:
            run(peak - 1)
        assert err.value.needed == peak
        # the graded stages hold less than modexp's final chain
        assert err.value.stage == "modexp" and free.peak_elements["modexp"] == peak

    @settings(max_examples=40, deadline=None)
    @given(semiprime_and_base([p for p in ODD_PRIMES if p < 40]),
           st.sampled_from(["static", "dynamic"]), st.integers(0, 2**32 - 1),
           st.integers(1, 12), st.data())
    def test_batches_give_the_records_of_separate_runs(self, case, layout, seed, m, data):
        # sample k draws from seed + k alone, whatever batch or call it is in
        inst = SemiprimeInstance(*case)
        batch = without_timings(sample_call(inst, layout, seeds(seed, m)))
        alone = [sample_call(inst, layout, seeds(s, 1)) for s in seeds(seed, m)]
        assert batch == without_timings(*alone)
        cut = data.draw(st.integers(0, m), label="split")
        first = sample_call(inst, layout, seeds(seed, cut))
        second = sample_call(inst, layout, seeds(seed + cut, m - cut))
        assert without_timings(first, second) == batch
        # a small batch bound cuts one call into batches of 1 ... 3 samples
        per_sample = max(alone[0].peak_elements["measure"], alone[0].peak_elements["qft"])
        bound = data.draw(st.integers(1, 4 * per_sample - 1), label="batch elements")
        with mock.patch.object(shor, "BATCH_ELEMENTS", bound):
            assert without_timings(sample_call(inst, layout, seeds(seed, m))) == batch

    def test_stage_seconds_share_the_call(self):
        inst = SemiprimeInstance(247, 2)
        per_sample = sample_call(inst, "static", seeds(0, 1)).peak_elements
        bound = 2 * max(per_sample["measure"], per_sample["qft"])
        with mock.patch.object(shor, "BATCH_ELEMENTS", bound):
            records = sample_call(inst, "static", seeds(0, 5)).records
        assert [set(rec.stage_seconds) for rec in records] == [
            {"build", "modexp", "measure", "qft", "classical"}] * 5
        # modexp runs once per call and is shared evenly; batches of 2, 2, 1
        assert len({rec.stage_seconds["modexp"] for rec in records}) == 1
        assert records[0].stage_seconds["qft"] == records[1].stage_seconds["qft"]
        assert all(dt >= 0 for rec in records for dt in rec.stage_seconds.values())

    @pytest.mark.parametrize("n, distinct", [(21, 15), (247, 20)])
    def test_classical_runs_once_per_distinct_s(self, n, distinct, monkeypatch):
        # at seed 5000, 85 of 100 samples at n=21 and 10 of 30 at n=247
        # repeat an earlier s
        inst = SemiprimeInstance(n, 2)
        m = 100 if n == 21 else 30
        alone = [sample_call(inst, "static", seeds(s, 1)) for s in seeds(5000, m)]
        calls = []
        classical = shor._classical

        def counted(instance, bits):
            calls.append(tuple(bits))
            return classical(instance, bits)

        monkeypatch.setattr(shor, "_classical", counted)
        call = sample_call(inst, "static", seeds(5000, m))
        assert len(calls) == len(set(calls)) == distinct
        assert len({rec.measured_s for rec in call.records}) == distinct
        assert without_timings(call) == without_timings(*alone)

    @pytest.mark.parametrize("layout", ["static", "dynamic"])
    def test_records_share_what_repeats(self, layout):
        # a sample of n=21 holds 63 elements: batches of 2 samples; the 12
        # of seed 5000 repeat their s
        inst = SemiprimeInstance(21, 2)
        with mock.patch.object(shor, "BATCH_ELEMENTS", 2 * 63):
            call = sample_call(inst, layout, seeds(5000, 12))
        records = call.records
        for k, rec in enumerate(records):
            for j in range(k + 1, len(records)):
                other = records[j]
                # records of one batch share one stage share, of two batches not
                assert (rec.stage_seconds is other.stage_seconds) == (k // 2 == j // 2)
                if rec.measured_s == other.measured_s:
                    assert rec.convergents is other.convergents
        assert len({rec.measured_s for rec in records}) < len(records)
        # what records share is immutable, or frozen
        for rec in records:
            assert isinstance(rec.convergents, tuple)
            assert all(isinstance(pair, tuple) for pair in rec.convergents)
        for profile in (call.modexp_profile, call.measure_profile, shor.QFT_PROFILE):
            with pytest.raises(FrozenInstanceError):
                profile.ranks = ()

    def test_no_generator_no_record(self):
        calls = shor.sample_runs(SemiprimeInstance(21, 2), shor.LAYOUTS, range(0))
        assert [call.records for call in calls.values()] == [[], []]

    def test_determinism(self):
        inst = SemiprimeInstance(21, 2)
        a = sample_call(inst, "dynamic", seeds(42, 1))
        b = sample_call(inst, "dynamic", seeds(42, 1))
        [rec_a], [rec_b] = a.records, b.records
        assert rec_a.measured_s == rec_b.measured_s
        assert rec_a.measured_residue == rec_b.measured_residue
        assert rec_a.convergents == rec_b.convergents
        assert a.modexp_profile == b.modexp_profile
        assert a.measure_profile == b.measure_profile
        assert a.peak_elements == b.peak_elements


class TestEndToEndDistribution:
    def test_tvd_smoke_n21(self):
        inst = SemiprimeInstance(21, 2)
        counts = np.zeros(1024)
        for rec in sample_call(inst, "dynamic", seeds(10_000, 2000)).records:
            counts[rec.measured_s] += 1
        table = oracle.exact_distribution(5, 6)
        assert _dense.tvd(table, counts) < 0.08
