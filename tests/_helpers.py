"""Shared test utilities: bridging MPS layouts to the canonical dense ordering."""

import numpy as np

from shormps import oracle
from shormps.mps import LOWER_REGISTER, MpsState


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
    vec = oracle.reorder_axes(oracle.StateVector(amps, dims), order)
    orbit = oracle.residue_orbit(instance.n, instance.a)
    perm = [lower.index[v] for v in orbit]
    t = vec.amps.reshape(-1, len(orbit))[:, perm]
    return oracle.StateVector(t.ravel(), vec.dims)


def rank_oracle_for_bond(state, instance, bond):
    """Expected Schmidt rank at an MPS bond, from the residue-counting oracle."""
    left = state.labels[: bond + 1]
    upper = [lab for lab in left if lab != LOWER_REGISTER]
    return oracle.residue_rank_oracle(
        instance, upper, include_lower=LOWER_REGISTER in left
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
