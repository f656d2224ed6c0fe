#!/usr/bin/env python3
"""Construct exactly closed geodesics near random targets and show how the
period and lattice multiple respond to the approximation quality epsilon.
"""

import argparse

import numpy as np

from nilflow.catalog import build_pair
from nilflow.flow import sample_generic_state
from nilflow.periodicity import construct_closed_geodesic


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--epsilon", type=float, default=0.1)
    args = ap.parse_args()
    if args.n < 0:
        ap.error("--n must not be negative")

    rng = np.random.Generator(np.random.Philox(args.seed))
    for data in build_pair():
        print(f"== {data.name} ==")
        targets = sample_generic_state(data, rng, args.n)
        for geo in construct_closed_geodesic(data, targets, epsilon=args.epsilon):
            print(
                f"  |c|={geo.norm_c}  c_k/|c|={geo.p}/{geo.q}  m={geo.m}  "
                f"tau/pi={geo.tau_over_pi}  distance={geo.distance:.4f}"
            )


if __name__ == "__main__":
    main()
