"""Rank profiles, outcome draws and the lower-register label of the sampler.

``RankProfile`` is the per-bond rank record that every sample and profile
reports, and ``draw_outcome`` draws one outcome per uniform from rows of
probabilities, for R and for every qubit of the Fourier transform that is
not a fair coin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOWER_REGISTER = "R"


class NormalizationError(RuntimeError):
    """Measurement probabilities failed the unit-mass check."""


@dataclass(frozen=True)
class RankProfile:
    """Per-bond Schmidt ranks captured at a named pipeline stage."""

    stage: str
    ranks: tuple[int, ...]
    layout: tuple


def draw_outcome(probs: np.ndarray, u: np.ndarray, where: str = "") -> np.ndarray:
    """Sample one outcome per uniform in the column ``u`` from rows of unit mass.

    ``probs`` has axes (..., outcome): one row shared by every uniform, or
    one row per uniform.  Tiny negative entries within the floating-point
    floor are clamped to zero in place.  Every row's mass must be 1 within
    1e-6.  Row k scales ``u[k]``, a float in [0, 1), by its mass and takes
    the first outcome whose cumulative probability exceeds it.  The
    arithmetic is elementwise or along the outcome axis, so a row's outcome
    depends on that row and its uniform alone, never on the other rows.
    """
    lowest = probs.min()
    if lowest < 0:
        if lowest < -1e-12:
            raise NormalizationError(f"probabilities at {where} have entries < -1e-12")
        probs[probs < 0] = 0.0
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-6
    if off.any():
        raise NormalizationError(f"probability mass {np.extract(off, total)[0]} at {where}")
    u = u * total
    below = np.cumsum(probs, axis=-1) <= u[:, None]
    return np.minimum(below.sum(axis=-1), probs.shape[-1] - 1)
