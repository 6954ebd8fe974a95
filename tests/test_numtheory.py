"""Integer-arithmetic layer: examples frozen against naive oracles, plus properties."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shormps import numtheory as nt


def naive_order(a, n):
    x, r = a % n, 1
    while x != 1:
        x = x * a % n
        r += 1
    return r


class TestMultiplicativeOrder:
    def test_iterated_small(self):
        assert nt.multiplicative_order(2, 21) == 6  # 2,4,8,16,11,1

    def test_published_orders(self):
        assert nt.multiplicative_order(2, 1943) == 924
        assert nt.multiplicative_order(10, 8189) == 3870
        assert nt.multiplicative_order(5, 961307) == 479568

    def test_factored_path_agrees(self):
        assert nt.multiplicative_order(2, 1943, p=29, q=67) == 924
        assert nt.multiplicative_order(2, 21, p=3, q=7) == 6
        assert nt.multiplicative_order(7, 15, p=3, q=5) == 4

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            nt.multiplicative_order(6, 21)

    def test_iteration_cap(self):
        with pytest.raises(nt.OrderSearchCapError):
            nt.multiplicative_order(2, 1943, iteration_cap=10)

    @settings(max_examples=60)
    @given(st.integers(15, 9999))
    def test_minimality(self, n):
        if n % 2 == 0:
            n += 1
        a = 2
        while math.gcd(a, n) != 1:
            a += 1
        if a >= n:
            return
        r = nt.multiplicative_order(a, n)
        assert pow(a, r, n) == 1
        assert all(pow(a, m, n) != 1 for m in range(1, min(r, 200)))


class TestTwoAdicSplit:
    def test_examples(self):
        assert nt.two_adic_split(924) == (2, 231)
        assert nt.two_adic_split(3870) == (1, 1935)
        assert nt.two_adic_split(1) == (0, 1)

    @given(st.integers(1, 2**60))
    def test_round_trip(self, r):
        alpha, beta = nt.two_adic_split(r)
        assert beta % 2 == 1
        assert beta << alpha == r


class TestCarmichael:
    def test_examples(self):
        assert nt.carmichael_semiprime(3, 7) == 6
        assert nt.carmichael_semiprime(29, 67) == 924
        assert nt.carmichael_semiprime(3, 5) == 4

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            nt.carmichael_semiprime(7, 7)

    def test_order_divides_lambda_exhaustive(self):
        for p, q in [(3, 7), (3, 5), (5, 7), (7, 11), (13, 19)]:
            n, lam = p * q, nt.carmichael_semiprime(p, q)
            for a in range(2, n):
                if math.gcd(a, n) == 1:
                    assert lam % naive_order(a, n) == 0


class TestAlphaStatistics:
    def test_alpha_bounded_by_max(self):
        # alpha of any order is at most max(d_p, d_q), the two-adic
        # valuations of p-1 and q-1
        for p, q, a in [(3, 7, 2), (29, 67, 2), (13, 19, 2)]:
            r = nt.multiplicative_order(a, p * q, p=p, q=q)
            alpha, _ = nt.two_adic_split(r)
            assert alpha <= max(nt.two_adic_split(p - 1)[0], nt.two_adic_split(q - 1)[0])


class TestConvergents:
    def test_171_over_1024(self):
        convs = nt.continued_fraction_convergents(171, 1024)
        assert (1, 6) in convs
        assert convs[-1] == (171, 1024)

    def test_zero(self):
        assert nt.continued_fraction_convergents(0, 1024) == [(0, 1)]

    def test_half(self):
        assert nt.continued_fraction_convergents(512, 1024) == [(0, 1), (1, 2)]

    @given(st.integers(0, 2**20 - 1))
    def test_properties(self, s):
        denom = 2**20
        convs = nt.continued_fraction_convergents(s, denom)
        x = s / denom
        ks = [k for _, k in convs]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        for h, k in convs:
            assert math.gcd(h, k) == 1 or (h == 0 and k == 1)
            assert abs(x - h / k) < 1 / k**2


class TestRecoverFactors:
    def test_success(self):
        assert nt.recover_factors(21, 2, 6) == (3, 7)

    def test_minus_one_branch(self):
        assert nt.recover_factors(21, 5, 6) is None  # 5^3 = -1 mod 21

    def test_odd_candidate(self):
        assert nt.recover_factors(21, 2, 3) is None

    def test_recovered_pair_multiplies_back(self):
        for p, q in [(3, 7), (5, 13), (13, 19), (29, 67)]:
            n = p * q
            for a in range(2, 60):
                if a >= n or math.gcd(a, n) != 1:
                    continue
                r = naive_order(a, n)
                got = nt.recover_factors(n, a, r)
                if r % 2 == 0 and pow(a, r // 2, n) != n - 1:
                    assert got is not None and got[0] * got[1] == n
                else:
                    assert got is None


class TestRandomCoprime:
    def test_membership(self, rng):
        for _ in range(50):
            a = nt.random_coprime(21, rng, [].append)
            assert 2 <= a < 21 and math.gcd(a, 21) == 1

    def test_lucky_factors_reported(self, rng):
        seen = []
        for _ in range(200):
            nt.random_coprime(21, rng, on_lucky_factor=seen.append)
        assert seen and all(f in (3, 7, 21) for f in seen)

    def test_uniformity_5_sigma(self, rng):
        valid = [a for a in range(2, 21) if math.gcd(a, 21) == 1]
        draws = 10_000
        counts = {a: 0 for a in valid}
        for _ in range(draws):
            counts[nt.random_coprime(21, rng, [].append)] += 1
        p = 1 / len(valid)
        sigma = math.sqrt(draws * p * (1 - p))
        for a in valid:
            assert abs(counts[a] - draws * p) < 5 * sigma


class TestPrimality:
    def test_probable_prime(self):
        for p in (2, 3, 5, 7, 29, 67, 431, 1943, 8189, 21, 961307):
            expected = p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
            assert nt.is_probable_prime(p) == expected

    def test_prime_power(self):
        assert nt.is_prime_power(27) and nt.is_prime_power(121) and nt.is_prime_power(7)
        assert not nt.is_prime_power(21)
        assert not nt.is_prime_power(1)
        # large cases near the width ceiling
        assert nt.is_prime_power(2147483647**2)
        assert nt.is_prime_power((1 << 61) - 1)  # Mersenne prime
        assert not nt.is_prime_power(2147483647 * 2147483629)


class TestRegisterBits:
    @pytest.mark.parametrize(
        "n,l",
        [(15, 5), (21, 5), (247, 8), (1943, 11), (8189, 13), (16351, 14),
         (32663, 15), (56759, 16), (124631, 17), (961307, 20)],
    )
    def test_widths(self, n, l):
        assert nt.register_bits(n) == l


class TestInstance:
    def test_l_derived_from_n(self):
        assert [f.name for f in dataclasses.fields(nt.SemiprimeInstance)] == ["n", "a", "p", "q"]
        assert nt.SemiprimeInstance(21, 2, 3, 7).l == 5
        assert nt.SemiprimeInstance(1943, 2).l == nt.register_bits(1943) == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            nt.SemiprimeInstance(21, 7)  # shares a factor
        with pytest.raises(ValueError):
            nt.SemiprimeInstance(22, 3)  # even
        with pytest.raises(ValueError):
            nt.SemiprimeInstance(21, 2, p=3, q=5)  # wrong product
