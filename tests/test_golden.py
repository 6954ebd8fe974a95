"""Same seeds, same samples: the sample records of a fixed seed set are pinned.

For each instance, the records of ``shor-mps sample --layout both`` over the
seeds below are written as canonical JSON (sorted keys, no whitespace) with
``stage_seconds`` removed, keyed by layout, and hashed with SHA-256.  The
digests were recorded before the sampler drew its samples in batches (those
of n = 961307 and 458759 before it read its counts off residue exponents), so
any change to a sample's residue, outcome, ranks, element peaks, convergents or
factors, or to the RNG stream behind them, shows here.
"""

import hashlib
import json

import pytest

from shormps import cli

# (n, a): (seeds, SHA-256 of the records[, extra arguments])
GOLDEN = {
    (21, 2): (range(300),
              "bd658d6809515d81edb178c5a2805b486ed15a8c2edd6baabe66e8bcfbd9b34a"),
    (15, 7): (range(100),
              "86242958a51ad021a60c7e9b7ebc2cd258445c7cfb02d975c725aeb7d87b9297"),
    (33, 2): (range(100),
              "4bc38eae208753427378108cd307946eabba8bce2d28225e3e7eafb206f52410"),
    (247, 2): (range(100),
              "6d556d26333e04fa6ef31fd059e8ee3478812495af960be523c60e7d1c4124b5"),
    (15, 2): (range(50),
              "61cad4f0abbf9e807ad878d166e9acae623ccf67c0f3b21c76f574802f9ad278"),
    (15, 14): (range(50),
              "5cb2471b8915bc793b5912a820821693d62826ae51d36198b229b6c6e2827889"),
    (1943, 2): ((1000, 2000, 3000),
              "6188c2a2d300651a80e9a5f994d25467d676e7d7791863ed5b1e4fae9880b7c9"),
    # the paper's l=20 row and a right block of 16 qubits; the default
    # --max-elements refuses both
    (961307, 5): (range(2),
              "7ffa1f561b6e8ab392f4f34838ef95e6488e2e760f6e68571d4a031994bbdf2a",
              ("--max-elements", str(2**40))),
    (458759, 3): (range(2),
              "fda165d2150fd08c07c99cbc76829e8e17615b71cc835c735811fd52156436d7",
              ("--max-elements", str(2**40))),
}


def contiguous_runs(seeds):
    """(first seed, count) of each run of consecutive seeds."""
    runs = []
    for s in seeds:
        if runs and runs[-1][0] + runs[-1][1] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return runs


def records_digest(n, a, seeds, tmp_path, extra=()) -> str:
    """The digest of the records of ``sample --layout both`` over ``seeds``,
    with the further command-line arguments ``extra``."""
    records = {"static": [], "dynamic": []}
    out = tmp_path / "r.json"
    for seed, count in contiguous_runs(seeds):
        assert cli.main(["sample", "--n", str(n), "--a", str(a), "--layout", "both",
                         "--seed", str(seed), "--samples", str(count),
                         "--out", str(out), *extra]) == 0
        for layout, block in json.loads(out.read_text())["layouts"].items():
            records[layout] += block["records"]
    for recs in records.values():
        for rec in recs:
            del rec["stage_seconds"]
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("n, a", list(GOLDEN))
def test_records_match_the_pinned_digest(n, a, tmp_path):
    seeds, digest, *extra = GOLDEN[(n, a)]
    assert records_digest(n, a, seeds, tmp_path, *extra) == digest
