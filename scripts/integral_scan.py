#!/usr/bin/env python3
"""Sample tangent states and summarize the integral structure: conservation
drift, worst pairwise Poisson bracket, and the independence-rank histogram.
"""

import argparse
from collections import Counter

import numpy as np

from nilflow.catalog import build_pair
from nilflow.flow import (
    TangentState,
    eigenframe,
    flow_exact_vV,
    sample_generic_state,
)
from nilflow.integrals import evaluate_integrals, independence_rank, poisson_matrix


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--t", type=float, default=10.0)
    args = ap.parse_args()
    if args.n < 1:
        ap.error("--n must be at least 1")

    # draw every state first, then make one batched call per quantity
    m, _ = build_pair()
    rng = np.random.Generator(np.random.Philox(args.seed))
    batch = sample_generic_state(m, rng, args.n)
    v_t, V_t = flow_exact_vV(eigenframe(m, batch.Z), batch.v, batch.V, args.t)
    moved = evaluate_integrals(TangentState(v_t, batch.z, V_t, batch.Z))
    drift = float(np.max(np.abs(moved - evaluate_integrals(batch))))
    mats = poisson_matrix(m.alg, batch)
    iu = np.triu_indices(8, 1)
    bracket = float(np.max(np.abs(mats[:, iu[0], iu[1]])))
    ranks = Counter(independence_rank(m.alg, batch).tolist())
    print(f"states: {args.n}   t = {args.t}")
    print(f"max conservation drift: {drift:.3e}")
    print(f"max pairwise Poisson bracket: {bracket:.3e}")
    print(f"independence ranks: {dict(sorted(ranks.items()))}")


if __name__ == "__main__":
    main()
