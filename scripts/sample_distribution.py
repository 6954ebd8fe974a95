#!/usr/bin/env python3
"""Sample end-to-end measurement outcomes and compare against the exact law."""

import argparse

import numpy as np

from shormps import oracle, shor
from shormps.numtheory import SemiprimeInstance, multiplicative_order


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=21)
    ap.add_argument("--a", type=int, default=2)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--layout", choices=("static", "dynamic"), default="dynamic")
    args = ap.parse_args()

    inst = SemiprimeInstance.make(args.n, args.a)
    cfg = shor.PipelineConfig(layout=args.layout)
    rngs = (np.random.default_rng(args.seed + k) for k in range(args.samples))
    records = shor.sample_runs(inst, cfg, rngs)
    counts = np.zeros(1 << (2 * inst.l))
    for rec in records:
        counts[rec.measured_s] += 1
    wins = sum(rec.factors is not None for rec in records)

    r = multiplicative_order(args.a, args.n)
    table = oracle.exact_distribution(inst.l, r)
    print(f"n={args.n} a={args.a} r={r} layout={args.layout}")
    print(f"samples={args.samples}  factor recoveries={wins}")
    print(f"total variation distance vs exact law: {oracle.tvd(table, counts):.4f}")
    top = np.argsort(counts)[-8:][::-1]
    print("most frequent s:", {int(s): int(counts[s]) for s in top if counts[s]})


if __name__ == "__main__":
    main()
