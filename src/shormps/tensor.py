"""Dense matrix decompositions underlying the tensor-network operations.

Matrices are plain numpy arrays in float64 (real mode) or complex128
(complex mode); the dtype is the runtime scalar tag.  The one decomposition
is a rank-revealing SVD whose truncation only drops numerically-zero singular
values (the simulation is exact, so retained bond dimensions equal true
Schmidt ranks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value floor.  Values below tol * sigma_max are numerical
# zeros; dropping them keeps bond dimensions integer-exact.
DEFAULT_SVD_TOL = 1e-12


class DecompositionError(RuntimeError):
    """SVD failed to converge, also on the adjoint; carries the matrix dimensions."""

    def __init__(self, rows: int, cols: int):
        super().__init__(f"SVD did not converge on a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols


@dataclass
class DecompResult:
    """Factorization M = left @ diag(weights) @ right."""

    left: np.ndarray
    weights: np.ndarray
    right: np.ndarray
    rank: int


def svd_truncated(m: np.ndarray, tol: float = DEFAULT_SVD_TOL) -> DecompResult:
    """Rank-revealing SVD, truncated at the relative floor ``tol``.

    Column signs are canonicalized (largest-magnitude entry of each left
    singular vector made positive real) so serialized outputs are stable
    across backends.  When LAPACK fails to converge on M, the SVD of M^H is
    taken instead and its factors are mapped back: M^H = U S V^H gives
    M = V S U^H.
    """
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            u2, s, vh2 = np.linalg.svd(m.conj().T, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(*m.shape) from exc
        u, vh = vh2.conj().T, u2.conj().T
    rank = max(1, int(np.sum(s > tol * s[0])))
    u, s, vh = u[:, :rank], s[:rank], vh[:rank]
    # sign canonicalization
    lead = np.abs(u).argmax(axis=0)
    phases = u[lead, np.arange(rank)]
    phases = np.where(np.abs(phases) == 0, 1.0, phases / np.abs(phases))
    u = u * phases.conj()[None, :]
    vh = vh * phases[:, None]
    return DecompResult(u, s, vh, rank)


def reconstruct(d: DecompResult) -> np.ndarray:
    """Multiply a decomposition back together (testing aid)."""
    return (d.left * d.weights[None, :]) @ d.right
