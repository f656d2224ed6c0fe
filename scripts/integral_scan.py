#!/usr/bin/env python3
"""Sample tangent states and summarize the integral structure: conservation
drift, worst pairwise Poisson bracket, and the independence-rank histogram.
"""

import argparse
from collections import Counter

import numpy as np

from nilflow.catalog import build_pair
from nilflow.flow import TangentState, eigenframe, flow_exact_vV, sample_generic_state
from nilflow.integrals import evaluate_integrals, independence_rank, poisson_matrix


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--t", type=float, default=10.0)
    args = ap.parse_args()

    m, _ = build_pair()
    rng = np.random.Generator(np.random.Philox(args.seed))
    drift = 0.0
    bracket = 0.0
    ranks = Counter()
    for _ in range(args.n):
        s = sample_generic_state(m, rng)
        v_t, V_t = flow_exact_vV(eigenframe(m, s.Z), s.v, s.V, args.t)
        moved = evaluate_integrals(TangentState(v_t, s.z, V_t, s.Z))
        drift = max(drift, float(np.max(np.abs(moved - evaluate_integrals(s)))))
        mat = poisson_matrix(m.alg, s)
        bracket = max(bracket, float(np.max(np.abs(mat[np.triu_indices(8, 1)]))))
        ranks[independence_rank(m.alg, s)] += 1
    print(f"states: {args.n}   t = {args.t}")
    print(f"max conservation drift: {drift:.3e}")
    print(f"max pairwise Poisson bracket: {bracket:.3e}")
    print(f"independence ranks: {dict(sorted(ranks.items()))}")


if __name__ == "__main__":
    main()
