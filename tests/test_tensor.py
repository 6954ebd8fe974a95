"""Decomposition layer: reconstruction, rank revelation, orthonormality."""

import numpy as np
import pytest

from shormps import tensor


def random_matrix(rng, rows, cols, complex_mode):
    m = rng.standard_normal((rows, cols))
    if complex_mode:
        m = m + 1j * rng.standard_normal((rows, cols))
    return m


class TestSvdTruncated:
    def test_identity(self):
        d = tensor.svd_truncated(np.eye(2))
        assert d.rank == 2
        np.testing.assert_allclose(d.weights, [1.0, 1.0])

    def test_rank_one(self):
        d = tensor.svd_truncated(np.ones((2, 2)))
        assert d.rank == 1
        np.testing.assert_allclose(d.weights, [2.0], atol=1e-14)

    def test_noise_floor_truncation(self):
        d = tensor.svd_truncated(np.diag([3.0, 3e-15]))
        assert d.rank == 1
        np.testing.assert_allclose(d.weights, [3.0])

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("shape", [(5, 9), (64, 64), (512, 512)])
    def test_reconstruction_and_orthonormality(self, rng, shape, complex_mode):
        m = random_matrix(rng, *shape, complex_mode)
        d = tensor.svd_truncated(m)
        err = np.linalg.norm(tensor.reconstruct(d) - m) / np.linalg.norm(m)
        assert err <= 1e-10
        np.testing.assert_allclose(d.left.conj().T @ d.left, np.eye(d.rank), atol=1e-10)
        np.testing.assert_allclose(d.right @ d.right.conj().T, np.eye(d.rank), atol=1e-10)
        assert np.all(np.diff(d.weights) <= 0)

    def test_weights_are_gram_eigenvalue_roots(self, rng):
        m = random_matrix(rng, 8, 6, True)
        d = tensor.svd_truncated(m)
        eig = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
        np.testing.assert_allclose(d.weights, np.sqrt(np.clip(eig[: d.rank], 0, None)), atol=1e-8)

    def test_sign_canonicalization_stable(self, rng):
        m = random_matrix(rng, 6, 6, False)
        d = tensor.svd_truncated(m)
        lead = np.abs(d.left).argmax(axis=0)
        assert np.all(d.left[lead, np.arange(d.rank)].real > 0)


class TestSvdRetry:
    """LAPACK non-convergence: one retry on the adjoint, then DecompositionError."""

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)])
    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_retry_on_adjoint_reconstructs(self, rng, monkeypatch, shape, complex_mode):
        svd = np.linalg.svd
        calls = []

        def flaky(a, *args, **kwargs):
            calls.append(a.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        m = random_matrix(rng, *shape, complex_mode)
        monkeypatch.setattr(tensor.np.linalg, "svd", flaky)
        d = tensor.svd_truncated(m)
        assert calls == [shape, shape[::-1]]
        np.testing.assert_allclose(tensor.reconstruct(d), m, atol=1e-12)
        np.testing.assert_allclose(d.left.conj().T @ d.left, np.eye(d.rank), atol=1e-12)
        lead = np.abs(d.left).argmax(axis=0)
        assert np.all(d.left[lead, np.arange(d.rank)].real > 0)

    def test_both_attempts_fail(self, rng, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(tensor.np.linalg, "svd", broken)
        with pytest.raises(tensor.DecompositionError) as err:
            tensor.svd_truncated(random_matrix(rng, 3, 4, False))
        assert (err.value.rows, err.value.cols) == (3, 4)


class TestDensePlumbing:
    """Row-major reshape/transpose/matmul conventions the site algebra relies on."""

    def test_identity_matmul(self, rng):
        m = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(np.eye(4) @ m, m)

    def test_reshape_round_trip(self, rng):
        m = rng.standard_normal((2, 4))
        assert np.array_equal(m.reshape(4, 2).reshape(2, 4), m)

    def test_transpose_of_product(self, rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        np.testing.assert_allclose((a @ b).T, b.T @ a.T, atol=1e-12)
