#!/usr/bin/env python3
"""Run every verification suite over a range of seeds and summarise each
check.

Usage: run_verification.py [--seed N | --seed A:B]

--seed A:B sweeps the seeds A, A+1, ..., B-1, and --seed N (default 42) is
the sweep N:N+1: one line per seed, then for every check with a numeric
tolerance the range of value / tolerance over the sweep (taken on the
float parts of the value; most checks bound the value from above,
butler_fraction_Mprime bounds it from below), then every failing (seed,
check).  Exit status 1 on any failure.  A sweep verifies a range of
seeds; it is not a way to choose one.
"""

import argparse
import sys
import time

from nilflow.suites import run_suite


def _seeds(text):
    """The seeds A..B-1 of A:B, or N alone for N."""
    lo, sep, hi = text.partition(":")
    seeds = range(int(lo), int(hi) if sep else int(lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _floats(v)


def _sweep(seeds):
    ratios = {}  # check -> [lo, hi] of value / tolerance
    failures = []
    for seed in seeds:
        t0 = time.perf_counter()
        # the "all" report names each check suite.check
        for c in run_suite("all", seed).checks:
            if not c.passed:
                failures.append((seed, c.name))
            tol = c.tolerance
            if isinstance(tol, (int, float)) and not isinstance(tol, bool) \
                    and tol != 0:
                for x in _floats(c.value):
                    lo, hi = ratios.setdefault(c.name, [x / tol, x / tol])
                    ratios[c.name] = [min(lo, x / tol), max(hi, x / tol)]
        bad = sum(1 for s, _ in failures if s == seed)
        status = "pass" if not bad else f"FAIL ({bad} checks)"
        print(f"seed {seed}: {status}  ({time.perf_counter() - t0:.1f}s)")
    print("value / tolerance over the sweep:")
    for check, (lo, hi) in ratios.items():
        print(f"  {check}: {lo:.3g} .. {hi:.3g}")
    for seed, check in failures:
        print(f"FAIL seed {seed}: {check}")
    print(f"overall: {'pass' if not failures else 'FAIL'}  "
          f"seeds: {len(seeds)}  failing checks: {len(failures)}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=_seeds, default="42")
    return _sweep(ap.parse_args().seed)


if __name__ == "__main__":
    sys.exit(main())
