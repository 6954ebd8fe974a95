#!/usr/bin/env python3
"""Rank-profile comparison of the static and dynamic layouts.

Runs the modular-exponentiation stage under both layouts for one instance and
prints the per-bond Schmidt ranks next to the residue-counting oracle, plus
the element tallies.  Defaults to the flagship desk-scale example N = 1943.
"""

import argparse

from shormps import oracle, shor
from shormps.mps import LOWER_REGISTER
from shormps.numtheory import SemiprimeInstance


def profile(n: int, a: int) -> None:
    inst = SemiprimeInstance.make(n, a)
    for layout in ("static", "dynamic"):
        lower = shor.LowerRegisterIndex(n)
        cfg = shor.PipelineConfig(layout=layout)
        alpha_hat, prof, tally = shor.run_modexp(lower, inst, cfg)
        labels = prof.layout
        print(f"\n{layout} layout  (lower-register dim {lower.dim}"
              + (f", detected exponent {alpha_hat}" if alpha_hat is not None else "")
              + f", live elements {tally})")
        print(" bond  left-label  right-label  rank  oracle")
        for bond, rank in enumerate(prof.ranks):
            left = labels[: bond + 1]
            upper = [lab for lab in left if lab != LOWER_REGISTER]
            expect = oracle.residue_rank_oracle(
                inst, upper, include_lower=LOWER_REGISTER in left
            )
            mark = "" if expect == rank else "  <-- MISMATCH"
            print(f" {bond:4d}  {str(labels[bond]):>10}"
                  f"  {str(labels[bond + 1]):>11}  {rank:5d}  {expect:5d}{mark}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1943)
    ap.add_argument("--a", type=int, default=2)
    args = ap.parse_args()
    profile(args.n, args.a)
