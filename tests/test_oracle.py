"""Dense references: exact distribution values, modexp state, rank oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense
from shormps import oracle
from shormps.numtheory import SemiprimeInstance


def brute_force_dft(l, r):
    # measuring the residue picks class x0 with weight m/Q; each class is an
    # evenly spaced comb whose DFT gives Pr(s | x0)
    big_q = 1 << (2 * l)
    want = np.zeros(big_q)
    for x0 in range(r):
        comb = np.zeros(big_q)
        comb[x0::r] = 1.0
        want += np.abs(np.fft.fft(comb)) ** 2
    return want / float(big_q) ** 2


class TestExactDistribution:
    def test_l5_r6_peak_at_zero(self):
        probs = oracle.exact_distribution(5, 6)
        # Q = 1024 = 170 * 6 + 4: four residue classes of 171 terms, two of 170
        assert probs[0] == pytest.approx(174764 / 1048576, abs=1e-12)

    @pytest.mark.parametrize("l, r", [(4, 4), (5, 6), (5, 7), (6, 10)])
    def test_matches_brute_force_dft(self, l, r):
        np.testing.assert_allclose(oracle.exact_distribution(l, r),
                                   brute_force_dft(l, r), atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 40))
    def test_matches_brute_force_dft_for_random_l_and_r(self, l, r):
        # r may exceed Q = 2^(2l), leaving classes with no exponent at all
        np.testing.assert_allclose(oracle.exact_distribution(l, r),
                                   brute_force_dft(l, r), atol=1e-13)

    def test_comb_when_r_divides(self):
        probs = oracle.exact_distribution(4, 4)
        expected = np.zeros(256)
        expected[[0, 64, 128, 192]] = 0.25
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_r_one(self):
        probs = oracle.exact_distribution(3, 1)
        assert probs[0] == pytest.approx(1.0)
        assert np.all(probs[1:] < 1e-12)

    def test_sums_to_one_and_symmetric(self):
        for l, r in [(4, 3), (5, 6), (5, 7), (6, 12)]:
            probs = oracle.exact_distribution(l, r)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            q = probs.size
            ss = np.arange(1, q)
            np.testing.assert_allclose(probs[ss], probs[q - ss], atol=1e-12)

    def test_phase_sign_invariance(self):
        # conjugating the phase flips s -> -s mod Q; symmetry makes it invariant
        probs = oracle.exact_distribution(4, 6)
        q = probs.size
        flipped = np.concatenate(([probs[0]], probs[:0:-1]))
        np.testing.assert_allclose(probs, flipped, atol=1e-12)

    def test_peaks_near_multiples(self):
        probs = oracle.exact_distribution(5, 6)
        top = np.argsort(probs)[-6:]
        for s in top:
            nearest = round(s * 6 / 1024) * 1024 / 6
            assert abs(s - nearest) <= 1.0


class TestDenseModexp:
    def test_n15_a7(self):
        inst = SemiprimeInstance(15, 7)
        state, residues = _dense.dense_modexp_state(inst)
        assert residues == [1, 7, 4, 13]
        assert state.dims == (2,) * 10 + (4,)
        # amplitude of (i=0, residue 1) is exactly 2^-l
        assert state.amps[0] == pytest.approx(2.0**-5, abs=0)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        inst = SemiprimeInstance(1943, 2)
        with pytest.raises(oracle.DenseCapError):
            _dense.dense_modexp_state(inst, cap=1000)


class TestDenseSchmidtRank:
    def test_bell(self):
        amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert _dense.dense_schmidt_rank(_dense.StateVector(amps, (2, 2)), [0]) == 2

    def test_product(self):
        amps = np.zeros(4)
        amps[1] = 1.0
        assert _dense.dense_schmidt_rank(_dense.StateVector(amps, (2, 2)), [0]) == 1

    def test_modexp_full_cut_is_order(self):
        inst = SemiprimeInstance(21, 2)
        state, _ = _dense.dense_modexp_state(inst)
        # all upper qubits on one side, lower register on the other
        assert _dense.dense_schmidt_rank(state, range(10)) == 6


class TestResidueRankOracle:
    def test_single_qubit_cut(self):
        inst = SemiprimeInstance(21, 2)
        assert _dense.residue_rank_oracle(inst, [9]) == 2  # {1, 2^512 mod 21} = {1, 4}

    def test_all_upper(self):
        inst = SemiprimeInstance(21, 2)
        assert _dense.residue_rank_oracle(inst, range(10)) == 6

    def test_published_instance(self):
        inst = SemiprimeInstance(1943, 2)
        assert _dense.residue_rank_oracle(inst, range(22)) == 924

    def test_agrees_with_dense(self):
        inst = SemiprimeInstance(15, 7)
        state, _ = _dense.dense_modexp_state(inst)
        n_up = 10
        for cut in [range(1), range(3), range(n_up)]:
            axes = [n_up - 1 - j for j in cut]  # qubit j lives on axis 2l-1-j
            assert _dense.dense_schmidt_rank(state, axes) == _dense.residue_rank_oracle(
                inst, cut
            )

    def test_include_lower_complement(self):
        inst = SemiprimeInstance(21, 2)
        state, _ = _dense.dense_modexp_state(inst)
        picked = {0, 3, 7}
        axes = [10 - 1 - j for j in picked] + [10]
        assert _dense.dense_schmidt_rank(state, axes) == _dense.residue_rank_oracle(
            inst, picked, include_lower=True
        )


class TestTvd:
    def test_identical(self):
        t = oracle.exact_distribution(3, 3)
        assert _dense.tvd(t, t * 500) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint(self):
        t = np.array([1.0, 0.0])
        assert _dense.tvd(t, np.array([0, 100])) == pytest.approx(1.0)

    def test_half(self):
        t = np.array([0.5, 0.5])
        assert _dense.tvd(t, np.array([100, 0])) == pytest.approx(0.5)

    def test_empty_counts(self):
        t = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            _dense.tvd(t, np.array([0, 0]))


class TestTvdAtOutcomes:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 60), st.data())
    def test_equals_the_dense_tvd(self, l, r, data):
        big_q = 1 << (2 * l)
        hist = data.draw(st.dictionaries(st.integers(0, big_q - 1), st.integers(1, 50),
                                         min_size=1, max_size=40), label="histogram")
        counts = np.zeros(big_q)
        for s, c in hist.items():
            counts[s] = c
        dense = _dense.tvd(oracle.exact_distribution(l, r), counts)
        assert abs(oracle.tvd_at_outcomes(l, r, hist) - dense) <= 1e-12

    def test_empty_counts(self):
        with pytest.raises(ValueError):
            oracle.tvd_at_outcomes(3, 3, {})

    @pytest.mark.parametrize("l, r", [(20, 3), (20, 479568), (31, 5)])
    def test_products_reduce_exactly_at_large_l(self, l, r):
        # k * (r s mod Q) exceeds 2^63 here; the closed form in Python integers
        big_q = 1 << (2 * l)
        q, t = divmod(big_q, r)
        outcomes = [0, 1, 12345, big_q // r + 1, big_q - 1]

        def fejer(k, u):
            den = np.sin(np.pi / big_q * u) ** 2
            return k * k if u == 0 else np.sin(np.pi / big_q * (k * u % big_q)) ** 2 / den

        want = [(t * fejer(q + 1, r * s % big_q) + (r - t) * fejer(q, r * s % big_q))
                / float(big_q) ** 2 for s in outcomes]
        np.testing.assert_allclose(oracle.outcome_probabilities(l, r, outcomes), want,
                                   rtol=1e-9, atol=0)


class TestReorder:
    def test_axis_permutation(self, rng):
        amps = rng.standard_normal(24)
        state = _dense.StateVector(amps, (2, 3, 4))
        out = _dense.reorder_axes(state, (2, 0, 1))
        assert out.dims == (4, 2, 3)
        np.testing.assert_array_equal(
            out.amps.reshape(4, 2, 3), amps.reshape(2, 3, 4).transpose(2, 0, 1)
        )
