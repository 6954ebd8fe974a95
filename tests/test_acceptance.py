"""Acceptance battery: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavyweight entries (20k-sample distribution check, the
largest plateau instances) keep the whole battery within the stated runtime
budgets on a single laptop core.
"""

import gc
import json
import time

import numpy as np
import pytest
from _helpers import (
    dense_modexp,
    graded_modexp,
    mps_as_canonical_dense,
    rank_oracle_for_bond,
    sample_call,
    sample_run,
)

import _dense
from shormps import cli, oracle
from shormps.mps import LOWER_REGISTER
from shormps.numtheory import SemiprimeInstance

from test_mps import dense_bipartition_sv, haar_unitary, random_circuit_state


def announce(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} {detail}")
    assert ok


def run_modexp_state(n, a, layout):
    """The dense modexp chain (test reference)."""
    inst = SemiprimeInstance(n, a)
    state, lower, alpha_hat = dense_modexp(inst, layout)
    return inst, state, lower, alpha_hat


def test_criterion_1_published_parameter_verification(tmp_path):
    """Every published (r, alpha, beta) triple is reproduced exactly, < 60 s."""
    out = tmp_path / "verify.json"
    t0 = time.perf_counter()
    code = cli.main(["verify-paper", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    rows = json.loads(out.read_text())["rows"]
    ok = code == 0 and len(rows) == 7 and all(r["pass"] for r in rows) and elapsed < 60
    announce(1, ok, f"(7 instances, {elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence_modexp():
    """MPS contraction equals the dense state for both layouts, max-abs 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    for n, a in [(15, 7), (15, 2), (21, 2), (21, 5), (247, 2)]:
        want = None
        for layout in ("static", "dynamic"):
            inst, state, lower, _ = run_modexp_state(n, a, layout)
            if want is None:
                want, _ = _dense.dense_modexp_state(inst)
            got = mps_as_canonical_dense(state, lower, inst)
            worst = max(worst, float(np.max(np.abs(got.amps - want.amps))))
    elapsed = time.perf_counter() - t0
    announce(2, worst <= 1e-10 and elapsed < 300,
             f"(max-abs {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_rank_profile_exactness():
    """Post-modexp bond ranks equal the residue-counting oracle, both layouts."""
    t0 = time.perf_counter()
    all_ok = True
    for n, a in [(21, 2), (1943, 2)]:
        for layout in ("static", "dynamic"):
            inst = SemiprimeInstance(n, a)
            lower, alpha_hat, profile, _ = graded_modexp(inst, layout)
            ranks = profile.ranks
            for bond, rank in enumerate(ranks):
                want = rank_oracle_for_bond(profile.layout, inst, bond)
                all_ok = all_ok and rank == want
            if n == 1943 and layout == "dynamic":
                rpos = profile.layout.index(LOWER_REGISTER)
                all_ok = all_ok and alpha_hat == 2
                all_ok = all_ok and lower.dim == 924
                all_ok = all_ok and ranks[rpos - 1] == 231
                all_ok = all_ok and set(ranks[rpos:]) == {2, 4}
                # independent check: Schmidt ranks re-derived by SVD sweeps of
                # the dense chain match the graded ranks
                _, state, _, _ = run_modexp_state(n, a, layout)
                all_ok = all_ok and tuple(state.labels) == profile.layout
                all_ok = all_ok and state.schmidt_ranks("x").ranks == ranks
    elapsed = time.perf_counter() - t0
    announce(3, all_ok and elapsed < 600, f"({elapsed:.1f}s)")


def test_criterion_4_plateau_detection_battery():
    """Measured two-adic exponent matches v2(r) across the battery."""
    expected = [(21, 2, 1), (247, 2, 2), (1943, 2, 2), (8189, 10, 1),
                (16351, 2, 2), (32663, 6, 3)]
    t0 = time.perf_counter()
    results = []
    for n, a, alpha in expected:
        _, alpha_hat, _, _ = graded_modexp(SemiprimeInstance(n, a), "dynamic")
        results.append((n, alpha_hat, alpha))
    ok = all(got == want for _, got, want in results)
    announce(4, ok, f"({results}, {time.perf_counter() - t0:.1f}s)")


def test_criterion_5_post_measurement_structure():
    """After the lower measurement: separable right block, max rank beta; the
    interleaved-measurement transform ends fully separable."""
    inst, state, lower, _ = run_modexp_state(21, 2, "dynamic")
    rng = np.random.default_rng(11)
    _dense.measure_lower_register(state, lower, rng)
    ranks = state.schmidt_ranks("post-measure").ranks
    rpos_gone = LOWER_REGISTER not in state.labels
    a_side_ok = ranks[-1] == 1  # the right-block qubit is separable
    beta_ok = max(ranks) == 3
    state.promote_to_complex()
    _dense.apply_lnn_qft(state, rng)
    final_ok = state.n_sites == 1 and all(d == 1 for d in state.bond_dims())
    norm_ok = abs(state.norm() - 1.0) < 1e-10
    announce(5, rpos_gone and a_side_ok and beta_ok and final_ok and norm_ok,
             f"(post-measure ranks {ranks})")


def test_criterion_6_sampling_distribution():
    """20k samples of (21, 2): TVD < 0.03; (15, 7): exact four-peak comb."""
    t0 = time.perf_counter()
    inst = SemiprimeInstance(21, 2)
    # one batched call per instance: the sample of seed k draws the stream of
    # numpy.random.default_rng(k), as a sample_run call of its own would
    counts = np.zeros(1024)
    for s in sample_call(inst, "dynamic", range(20_000)).measured_s:
        counts[s] += 1
    dist = _dense.tvd(oracle.exact_distribution(5, 6), counts)

    comb = SemiprimeInstance(15, 7)
    draws = 4000
    comb_counts = {0: 0, 256: 0, 512: 0, 768: 0}
    stray = 0
    for s in sample_call(comb, "dynamic", range(10**6, 10**6 + draws)).measured_s:
        if s in comb_counts:
            comb_counts[s] += 1
        else:
            stray += 1
    sigma = np.sqrt(draws * 0.25 * 0.75)
    comb_ok = stray == 0 and all(
        abs(c - draws / 4) < 5 * sigma for c in comb_counts.values()
    )
    elapsed = time.perf_counter() - t0
    announce(6, dist < 0.03 and comb_ok and elapsed < 900,
             f"(tvd {dist:.4f}, comb {comb_counts}, {elapsed:.0f}s)")


def test_criterion_7_factor_recovery():
    """At least 10 factor recoveries over 50 seeded runs of (21, 2)."""
    inst = SemiprimeInstance(21, 2)
    wins = sum(sample_run(inst, "dynamic", k)["factors"] == (3, 7) for k in range(50))
    announce(7, wins >= 10, f"({wins}/50 recoveries)")


def test_criterion_8_canonical_form_invariants():
    """Weights = dense singular values (1e-8); local = nonlocal (1e-12);
    operations preserve the norm (1e-10)."""
    ok = True
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        state, amps = random_circuit_state(rng, n=6, depth=14)
        ok = ok and abs(state.norm() - 1.0) < 1e-10
        state.canonicalize()
        ok = ok and abs(state.norm() - 1.0) < 1e-10
        for cut in range(5):
            sv = dense_bipartition_sv(amps, (2,) * 6, cut)
            lam = state.lambdas[cut]
            ok = ok and np.allclose(lam, sv[: lam.size], atol=1e-8)
        for m in range(6):
            local = state.reduced_density_local(m)
            ok = ok and np.allclose(local, state.reduced_density_nonlocal(m), atol=1e-12)
        state.apply_two_site_gate(2, haar_unitary(rng, 4))
        state.swap_sites(3)
        state.measure_qudit(0, rng)
        ok = ok and abs(state.norm() - 1.0) < 1e-10
    announce(8, ok)


def test_criterion_9_space_accounting():
    """Dynamic layout shrinks the boundary-block tensors by >= 10x in aggregate
    (the measured factor is beta^2); scalar-mode accounting is exactly 2:1."""
    tallies = {}
    for layout in ("static", "dynamic"):
        inst, state, lower, _ = run_modexp_state(1943, 2, layout)
        a_labels = {0, 1}  # the two least significant qubits form the right block
        a_elems = sum(g.size for g, lab in zip(state.gammas, state.labels)
                      if lab in a_labels)
        tallies[layout] = {
            "a_block": a_elems,
            "live": state.elements_live,
            "peak": state.elements_peak,
        }
        del state
        gc.collect()
    a_ratio = tallies["static"]["a_block"] / tallies["dynamic"]["a_block"]
    aggregate_ok = a_ratio >= 10  # measured: 231^2
    whole_state_ok = tallies["dynamic"]["live"] < tallies["static"]["live"]

    inst, state, lower, _ = run_modexp_state(21, 2, "dynamic")
    real_live = state.elements_live
    real_bytes = 8 * sum(g.size for g in state.gammas)
    complex_bytes_equiv = 16 * sum(g.size for g in state.gammas)
    half_ok = 2 * real_bytes == complex_bytes_equiv and real_live * 8 == real_bytes
    state.promote_to_complex()
    doubling_ok = state.elements_live == 2 * real_live
    announce(
        9,
        aggregate_ok and whole_state_ok and half_ok and doubling_ok,
        f"(boundary-block ratio {a_ratio:.0f}, live {tallies['dynamic']['live']}"
        f" vs {tallies['static']['live']})",
    )


def test_criterion_10_determinism(tmp_path):
    """Identical reports (modulo timing fields) for identical seeded runs."""
    def strip_timing(obj):
        if isinstance(obj, dict):
            return {
                k: strip_timing(v)
                for k, v in obj.items()
                if k not in ("stage_seconds", "elapsed_seconds")
            }
        if isinstance(obj, list):
            return [strip_timing(x) for x in obj]
        return obj

    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["sample", "--n", "21", "--a", "2", "--samples", "100",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        blobs.append(
            json.dumps(strip_timing(json.loads(out.read_text())), sort_keys=True)
        )
    announce(10, blobs[0].encode() == blobs[1].encode(), "(100 samples, seed 7)")
