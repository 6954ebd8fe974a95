"""MPS container and operations, cross-checked against dense linear algebra.

The dense helpers below re-derive every quantity from the flat amplitude
vector, independently of the MPS code paths they validate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _dense import MpsState, NotCanonicalError, NotSeparableError, StateTooLargeError
from _helpers import identity_split_pair

from shormps.mps import NormalizationError, draw_outcome

SQ2 = 1.0 / np.sqrt(2.0)
H = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)


# ----------------------------------------------------------------- dense oracle

def dense_apply(amps, dims, g, m, span):
    """Apply gate g over sites m..m+span-1 of a dense vector."""
    before = int(np.prod(dims[:m], dtype=np.int64))
    block = int(np.prod(dims[m : m + span], dtype=np.int64))
    after = int(np.prod(dims[m + span :], dtype=np.int64))
    t = amps.reshape(before, block, after)
    return np.einsum("ab,xby->xay", g, t).reshape(-1)

def dense_rho(amps, dims, m):
    t = np.moveaxis(amps.reshape(dims), m, 0).reshape(dims[m], -1)
    return t @ t.conj().T

def dense_bipartition_sv(amps, dims, cut):
    rows = int(np.prod(dims[: cut + 1], dtype=np.int64))
    return np.linalg.svd(amps.reshape(rows, -1), compute_uv=False)

def haar_unitary(rng, d, complex_mode=True):
    m = rng.standard_normal((d, d))
    if complex_mode:
        m = m + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def bell_pair(complex_mode=False):
    state = MpsState.product_state((2, 2), (0, 0), complex_mode=complex_mode)
    state.apply_single_qudit_gate(0, H.astype(state.dtype))
    state.apply_two_site_gate(0, CNOT.astype(state.dtype))
    return state

def ghz(n, complex_mode=False):
    state = MpsState.product_state((2,) * n, (0,) * n, complex_mode=complex_mode)
    state.apply_single_qudit_gate(0, H.astype(state.dtype))
    for m in range(n - 1):
        state.apply_two_site_gate(m, CNOT.astype(state.dtype))
    return state

def random_circuit_state(rng, n=6, depth=12, complex_mode=True):
    """Same random circuit applied through the MPS and densely; returns both."""
    state = MpsState.product_state((2,) * n, (0,) * n, complex_mode=complex_mode)
    amps = np.zeros(2**n, dtype=state.dtype)
    amps[0] = 1.0
    dims = (2,) * n
    for _ in range(depth):
        m = int(rng.integers(0, n - 1))
        g = haar_unitary(rng, 4, complex_mode)
        state.apply_two_site_gate(m, g)
        amps = dense_apply(amps, dims, g, m, 2)
    return state, amps


# ------------------------------------------------------------------------ tests

class TestProductState:
    def test_bell_basisless(self):
        state = MpsState.product_state((2, 2), (0, 0))
        assert state.bond_dims() == (1,)
        np.testing.assert_array_equal(state.to_state_vector(), [1, 0, 0, 0])

    def test_single_site_one(self):
        state = MpsState.product_state((2,), (1,))
        np.testing.assert_array_equal(state.to_state_vector(), [0, 1])

    def test_three_site_unit_vector(self):
        state = MpsState.product_state((2, 2, 2), (0, 1, 0))
        vec = np.zeros(8)
        vec[2] = 1.0
        np.testing.assert_array_equal(state.to_state_vector(), vec)

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            MpsState.product_state((2, 2), (0, 2))

    @settings(max_examples=40)
    @given(st.lists(st.integers(2, 5), min_size=1, max_size=5), st.data())
    def test_one_hot_at_mixed_radix_index(self, dims, data):
        values = [data.draw(st.integers(0, d - 1)) for d in dims]
        state = MpsState.product_state(dims, values)
        flat = 0
        for d, v in zip(dims, values):
            flat = flat * d + v
        vec = state.to_state_vector()
        assert vec[flat] == 1.0 and np.count_nonzero(vec) == 1


class TestContractDecompose:
    def test_contract_product(self):
        state = MpsState.product_state((2, 2), (0, 0))
        state.contract_sites(0)
        assert state.n_sites == 1 and state.dims == (4,)
        np.testing.assert_array_equal(state.gammas[0].ravel(), [1, 0, 0, 0])

    def test_contract_bell(self):
        state = bell_pair()
        state.contract_sites(0)
        np.testing.assert_allclose(state.gammas[0].ravel(), [SQ2, 0, 0, SQ2], atol=1e-14)

    def test_decompose_bell_site(self):
        g = np.array([SQ2, 0, 0, SQ2]).reshape(1, 4, 1)
        state = MpsState([g], [], ["bell"])
        state.decompose_site(0, (2, 2), labels=(0, 1))
        assert state.bond_dims() == (2,)
        np.testing.assert_allclose(state.lambdas[0], [SQ2, SQ2], atol=1e-12)

    def test_decompose_product_site_rank_one(self):
        state = MpsState.product_state((4,), (1,), labels=["m"])  # |0> x |1>
        state.decompose_site(0, (2, 2), labels=(0, 1))
        assert state.bond_dims() == (1,)

    def test_round_trip_preserves_contraction(self, rng):
        state, amps = random_circuit_state(rng, n=4)
        ref = state.to_state_vector()
        state.contract_sites(1)
        state.decompose_site(1, (2, 2), labels=(1, 2))
        np.testing.assert_allclose(state.to_state_vector(), ref, atol=1e-12)

    def test_trivial_split_apparent_rank(self):
        state = identity_split_pair([[1.0, 0.0], [0.0, 0.0]])  # |00>
        assert state.bond_dims() == (2,)  # apparent, not minimized
        np.testing.assert_array_equal(state.to_state_vector(), [1, 0, 0, 0])


class TestSingleQuditGates:
    def test_hadamard(self):
        state = MpsState.product_state((2,), (0,))
        state.apply_single_qudit_gate(0, H)
        np.testing.assert_allclose(state.to_state_vector(), [SQ2, SQ2], atol=1e-15)

    def test_identity_bit_exact(self, rng):
        state, _ = random_circuit_state(rng, n=3)
        before = state.to_state_vector()
        state.apply_single_qudit_gate(1, np.eye(2, dtype=complex))
        np.testing.assert_array_equal(state.to_state_vector(), before)

    def test_phase_gate(self):
        state = MpsState.product_state((2,), (1,), complex_mode=True)
        phase = np.diag([1.0, np.exp(-1j * np.pi / 2)])
        state.apply_single_qudit_gate(0, phase)
        np.testing.assert_allclose(state.to_state_vector(), [0, -1j], atol=1e-15)

    def test_non_unitary_rejected(self):
        state = MpsState.product_state((2,), (0,))
        with pytest.raises(ValueError):
            state.apply_single_qudit_gate(0, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_flags_preserved(self):
        state = MpsState.product_state((2, 2), (0, 0))
        state.apply_single_qudit_gate(0, H)
        assert all(state.lortho) and all(state.rortho)


class TestTwoSiteGates:
    def test_cnot_makes_bell(self):
        state = bell_pair()
        assert state.bond_dims() == (2,)
        np.testing.assert_allclose(state.to_state_vector(), [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_swap_gate_on_product(self):
        state = MpsState.product_state((2, 2), (0, 1))
        state.apply_two_site_gate(0, SWAP)
        assert state.bond_dims() == (1,)
        np.testing.assert_allclose(state.to_state_vector(), [0, 0, 1, 0], atol=1e-14)

    def test_fused_equals_sequential(self, rng):
        cphase = np.diag([1, 1, 1, np.exp(-1j * np.pi / 4)])
        fused = SWAP.astype(complex) @ cphase
        s1, _ = random_circuit_state(rng, n=3)
        s2 = s1.copy()
        s1.apply_two_site_gate(1, cphase)
        s1.apply_two_site_gate(1, SWAP.astype(complex))
        s2.apply_two_site_gate(1, fused)
        np.testing.assert_allclose(s1.to_state_vector(), s2.to_state_vector(), atol=1e-12)


class TestSwapSites:
    def test_swap_product(self):
        state = MpsState.product_state((2, 2), (0, 1), labels=["a", "b"])
        state.swap_sites(0)
        assert state.labels == ["b", "a"]
        np.testing.assert_allclose(state.to_state_vector(), [0, 0, 1, 0], atol=1e-14)

    def test_double_swap_identity(self, rng):
        state, _ = random_circuit_state(rng, n=4)
        ref = state.to_state_vector()
        state.swap_sites(1)
        state.swap_sites(1)
        np.testing.assert_allclose(state.to_state_vector(), ref, atol=1e-12)

    def test_swap_preserves_rank_across_other_bond(self, rng):
        state = ghz(4)
        ref_sv = dense_bipartition_sv(state.to_state_vector(), (2, 2, 2, 2), 0)
        state.swap_sites(2)
        assert state.schmidt_ranks("x").ranks[0] == int(np.sum(ref_sv > 1e-10))


class TestDensityMatrices:
    def test_bell_nonlocal(self):
        state = bell_pair()
        for m in (0, 1):
            np.testing.assert_allclose(
                state.reduced_density_nonlocal(m), np.eye(2) / 2, atol=1e-12
            )

    def test_product_one(self):
        state = MpsState.product_state((2, 2), (0, 1))
        np.testing.assert_allclose(
            state.reduced_density_nonlocal(1), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_nonlocal_matches_dense_partial_trace(self, rng):
        state, amps = random_circuit_state(rng, n=4)
        for m in range(4):
            np.testing.assert_allclose(
                state.reduced_density_nonlocal(m),
                dense_rho(amps, (2,) * 4, m),
                atol=1e-10,
            )

    def test_local_after_sweep(self):
        state = bell_pair()
        state.canonicalize()
        np.testing.assert_allclose(state.reduced_density_local(0), np.eye(2) / 2, atol=1e-12)

    def test_local_requires_canonical(self):
        state = identity_split_pair(np.diag([SQ2, SQ2]))  # Bell pair
        # the identity split leaves the left factor non-orthonormal
        with pytest.raises(NotCanonicalError):
            state.reduced_density_local(1)
        # ... but the identity right factor still licenses the left site
        np.testing.assert_allclose(state.reduced_density_local(0), np.eye(2) / 2, atol=1e-12)

    def test_local_equals_nonlocal_when_canonical(self, rng):
        for _ in range(5):
            state, _ = random_circuit_state(rng, n=6)
            state.canonicalize()
            for m in range(6):
                np.testing.assert_allclose(
                    state.reduced_density_local(m),
                    state.reduced_density_nonlocal(m),
                    atol=1e-12,
                )

    def test_trace_one_everywhere_after_sweeps(self, rng):
        state, _ = random_circuit_state(rng, n=6)
        state.canonicalize()
        for m in range(6):
            assert abs(np.trace(state.reduced_density_local(m)) - 1) < 1e-10

    def test_density_matrix_type_invariants(self, rng):
        state, _ = random_circuit_state(rng, n=5)
        for m in range(5):
            rho = state.reduced_density_nonlocal(m)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.all(np.real(np.diag(rho)) >= -1e-12)


class TestSweep:
    def test_product_state_unchanged(self):
        state = MpsState.product_state((2, 2, 2), (0, 1, 0))
        state.canonicalize()
        assert state.bond_dims() == (1, 1)

    def test_inflated_bond_restored(self):
        state = identity_split_pair([[1.0, 0.0], [0.0, 0.0]])  # |00>
        assert state.bond_dims() == (2,)
        state.canonicalize()
        assert state.bond_dims() == (1,)

    def test_bell_trivial_then_sweep_keeps_two(self):
        state = identity_split_pair(np.diag([SQ2, SQ2]))  # Bell pair
        state.canonicalize()
        assert state.bond_dims() == (2,)

    def test_canonical_weights_sum_to_one(self, rng):
        state, _ = random_circuit_state(rng, n=6)
        state.canonicalize()
        assert state.is_fully_canonical()
        for lam in state.lambdas:
            assert abs(np.sum(lam**2) - 1.0) < 1e-10

    def test_weights_match_dense_bipartition(self, rng):
        state, amps = random_circuit_state(rng, n=6)
        state.canonicalize()
        for cut in range(5):
            sv = dense_bipartition_sv(amps, (2,) * 6, cut)
            lam = state.lambdas[cut]
            np.testing.assert_allclose(lam, sv[: lam.size], atol=1e-8)

    def test_norm_preserved(self, rng):
        state, _ = random_circuit_state(rng, n=6)
        state.canonicalize()
        assert abs(state.norm() - 1.0) < 1e-10


class TestMeasurement:
    def test_bell_forced_one(self):
        state = bell_pair()
        out = state.measure_qudit(0, forced=1)
        assert out == 1
        assert state.schmidt_ranks("measured").ranks == (1,)
        np.testing.assert_allclose(state.to_state_vector(), [0, 0, 0, 1], atol=1e-12)

    def test_plus_frequencies_5_sigma(self, rng):
        draws = 10_000
        ones = 0
        base = MpsState.product_state((2,), (0,))
        base.apply_single_qudit_gate(0, H)
        for _ in range(draws):
            state = base.copy()
            ones += state.measure_qudit(0, rng)
        sigma = np.sqrt(draws * 0.25)
        assert abs(ones - draws / 2) < 5 * sigma

    def test_ghz3_middle_forced_zero(self):
        state = ghz(3)
        state.measure_qudit(1, forced=0)
        assert state.schmidt_ranks("measured").ranks == (1, 1)
        np.testing.assert_allclose(state.to_state_vector()[0], 1.0, atol=1e-12)

    def test_chi_square_multilevel(self, rng):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        vec = np.sqrt(probs).reshape(1, 4, 1)
        draws = 10_000
        counts = np.zeros(4)
        for _ in range(draws):
            state = MpsState([vec.copy()], [], ["q"])
            counts[state.measure_qudit(0, rng)] += 1
        chi2 = float(np.sum((counts - draws * probs) ** 2 / (draws * probs)))
        assert chi2 < 16.266  # chi^2_{3} at significance 0.001

    def test_draw_rows_are_independent(self):
        # a row's outcome depends on its own probabilities and uniform alone
        probs = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        u = np.array([np.random.default_rng(k).random() for k in range(4)])
        rows = draw_outcome(probs.copy(), u)
        alone = [draw_outcome(probs[k].copy(), u[k : k + 1])[0] for k in range(4)]
        assert rows.tolist() == alone and rows[1] == 0 and rows[3] == 1
        with pytest.raises(NormalizationError, match="mass 0.5 at qubit 3"):
            draw_outcome(np.array([[0.5, 0.5], [0.25, 0.25]]), np.zeros(2), where="qubit 3")

    def test_forced_outcome_needs_positive_probability(self):
        state = MpsState.product_state((2,), (0,))
        with pytest.raises(ValueError, match="zero probability"):
            state.measure_qudit(0, forced=1)
        assert state.measure_qudit(0, forced=0) == 0

    def test_normalization_guard(self):
        g = np.array([1.0, 1.0]).reshape(1, 2, 1)  # unnormalized on purpose
        state = MpsState([g], [], ["q"])
        with pytest.raises(NormalizationError):
            state.measure_qudit(0, forced=0)


class TestStructuralEdits:
    def test_remove_after_measurement(self):
        state = bell_pair()
        state.measure_qudit(0, forced=1)
        state.remove_separable_site(0)
        assert state.n_sites == 1
        np.testing.assert_allclose(np.abs(state.to_state_vector()), [0, 1], atol=1e-12)

    def test_remove_entangled_rejected(self):
        state = bell_pair()
        with pytest.raises(NotSeparableError):
            state.remove_separable_site(0)

    def test_remove_then_contract_matches_dense(self, rng):
        state, amps = random_circuit_state(rng, n=3)
        state.measure_qudit(2, forced=0)
        p = dense_rho(amps, (2,) * 3, 2)[0, 0].real
        expected = amps.reshape(4, 2)[:, 0] / np.sqrt(p)
        state.remove_separable_site(2)
        got = state.to_state_vector()
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_remove_projected_site_at_any_bond_dimension(self, rng, m):
        # the one-hot slice contracts into a neighbour across bonds that keep
        # dimension > 1
        state, amps = random_circuit_state(rng, n=5, depth=16)
        assert min(state.bond_dims()) > 1
        keep = np.array([0.0, 1.0])
        state.gammas[m] = state.gammas[m] * keep[None, :, None]
        state.gammas[m] = state.gammas[m] / state.norm()
        expected = amps.reshape(2**m, 2, -1)[:, 1, :].ravel()
        expected = expected / np.linalg.norm(expected)
        state.remove_separable_site(m)
        state.check_consistent()
        assert state.n_sites == 4 and min(state.bond_dims()) > 1
        np.testing.assert_allclose(state.to_state_vector(), expected, atol=1e-10)

    def test_remove_middle_site_keeps_kept_bond_weight(self):
        # a middle site whose right bond weight is not 1: that weight stays on
        # the bond, so only the deleted bond's weight may fold into the neighbour
        state = MpsState.product_state((2, 2, 2), (0, 1, 0))
        state.lambdas[1] = np.array([2.0])
        state.gammas[2] = state.gammas[2] / 2
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        expected = state.to_state_vector().reshape(2, 2, 2)[:, 1, :].ravel()
        state.remove_separable_site(1)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.to_state_vector(), expected, atol=1e-12)
        state.check_consistent()


class TestScalarMode:
    def test_promote_preserves_amplitudes(self):
        state = bell_pair(complex_mode=False)
        before = state.to_state_vector()
        state.promote_to_complex()
        after = state.to_state_vector()
        assert after.dtype == np.complex128
        np.testing.assert_array_equal(after.real, before)
        np.testing.assert_array_equal(after.imag, np.zeros_like(before))

    def test_tally_doubles_exactly(self):
        state = bell_pair(complex_mode=False)
        live = state.elements_live
        state.promote_to_complex()
        assert state.elements_live == 2 * live

    def test_double_promote_warns(self):
        state = bell_pair(complex_mode=True)
        with pytest.warns(UserWarning):
            state.promote_to_complex()

    def test_complex_gate_on_real_state_rejected(self):
        state = MpsState.product_state((2,), (0,))
        with pytest.raises(ValueError):
            state.apply_single_qudit_gate(0, np.diag([1.0, 1j]))


class TestRankProfile:
    def test_product_all_ones(self):
        state = MpsState.product_state((2, 2, 2), (0, 0, 0))
        assert state.schmidt_ranks("s").ranks == (1, 1)

    def test_bell(self):
        assert bell_pair().schmidt_ranks("s").ranks == (2,)

    def test_ghz4_vs_dense(self):
        state = ghz(4)
        amps = state.to_state_vector()
        expected = tuple(
            int(np.sum(dense_bipartition_sv(amps, (2,) * 4, c) > 1e-10)) for c in range(3)
        )
        assert state.schmidt_ranks("s").ranks == expected == (2, 2, 2)

    def test_profile_records_layout_and_stage(self):
        prof = bell_pair().schmidt_ranks("after-gates")
        assert prof.stage == "after-gates" and prof.layout == (0, 1)


class TestStateVector:
    def test_basis_state(self):
        state = MpsState.product_state((2, 2), (1, 0))
        np.testing.assert_array_equal(state.to_state_vector(), [0, 0, 1, 0])

    def test_random_circuit_matches_dense(self, rng):
        state, amps = random_circuit_state(rng, n=8, depth=24)
        np.testing.assert_allclose(state.to_state_vector(), amps, atol=1e-10)

    def test_cap(self):
        state = MpsState.product_state((2,) * 8, (0,) * 8)
        with pytest.raises(StateTooLargeError):
            state.to_state_vector(cap=100)


class TestNormInvariant:
    def test_every_operation_preserves_norm(self, rng):
        state, _ = random_circuit_state(rng, n=5)
        assert abs(state.norm() - 1) < 1e-10
        state.swap_sites(2)
        assert abs(state.norm() - 1) < 1e-10
        state.contract_sites(0)
        assert abs(state.norm() - 1) < 1e-10
        state.decompose_site(0, (2, 2), labels=(0, 1))
        assert abs(state.norm() - 1) < 1e-10
        state.sweep("right")
        state.sweep("left")
        assert abs(state.norm() - 1) < 1e-10
        state.measure_qudit(3, np.random.default_rng(0))
        assert abs(state.norm() - 1) < 1e-10


class TestAccountant:
    def test_running_tally(self):
        state = MpsState.product_state((2, 2), (0, 0))
        assert state.elements_live == 4
        state.contract_sites(0)
        assert state.elements_live == 4
        state = identity_split_pair([[1.0, 0.0], [0.0, 0.0]])
        assert state.elements_live == 2 * 2 + 2 * 2
        state.contract_sites(0)
        assert state.elements_live == 4
        assert state.elements_peak >= 8

    def test_peak_window_reset(self):
        state = bell_pair()
        state.reset_peak()
        assert state.elements_peak == state.elements_live
