import numpy as np
import pytest
from law import ALPHA, GoodnessOfFit, closed_form_law, residue_orbit, two_adic


def dft_law(l, r):
    """Pr(s) by summing the Fourier series of every residue class term by term."""
    big_q = 1 << (2 * l)
    s = np.arange(big_q)
    probs = np.zeros(big_q)
    for x0 in range(r):
        x = np.arange(x0, big_q, r)
        phase = 2 * np.pi * (np.outer(s, x) % big_q) / big_q
        probs += np.cos(phase).sum(axis=1) ** 2 + np.sin(phase).sum(axis=1) ** 2
    return probs / big_q**2


@pytest.mark.parametrize("l, r", [(5, 6), (4, 4), (6, 10), (3, 5), (4, 16)])
def test_closed_form_matches_dft(l, r):
    law = closed_form_law(l, r)
    assert np.max(np.abs(law - dft_law(l, r))) < 2e-14
    assert abs(law.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n, a, r", [(21, 2, 6), (247, 2, 36), (1943, 2, 924), (15, 7, 4)])
def test_power_loop_order(n, a, r):
    orbit = residue_orbit(a, n)
    assert len(orbit) == r
    assert len(set(orbit)) == r
    assert pow(a, r, n) == 1


def test_paper_order_of_16351():
    r = len(residue_orbit(2, 16351))
    assert (r, *two_adic(r)) == (8036, 2, 2009)


@pytest.mark.parametrize("l, r, samples", [(5, 6, 300), (8, 36, 100), (8, 36, 3)])
def test_exact_draws_pass(l, r, samples):
    fit = GoodnessOfFit(l, r)
    law = closed_form_law(l, r)
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert fit.pvalue(rng.choice(law.size, size=samples, p=law)) >= ALPHA


def test_two_far_samples_reject():
    fit = GoodnessOfFit(11, 924)
    assert fit.far_mass ** 2 < ALPHA / 2
    far = np.flatnonzero(fit.abs_offset > fit.window)[:2]
    assert fit.pvalue(far) < ALPHA
