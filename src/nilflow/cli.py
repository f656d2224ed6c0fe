"""Command-line entry point.

Subcommands: verify, flow, closed-geodesic, integrals, poisson, criteria,
cih.  Exit codes: 0 pass, 1 check failure, 2 usage, 3 I/O, 4 degenerate
input, 5 construction failure.

State wire format: whitespace-separated labeled fields
`v: 5 floats; z: 3 floats; V: 5 floats; Z: 3 floats` (4 and 2 for the
deformation family).
"""

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .catalog import get_manifold
from .criteria import (
    MAX_CIH_BOUND,
    butler_nonintegrability_sample,
    check_hr_presentation,
    cih_certificate,
)
from .flow import (
    RK4_STEPS_PER_UNIT,
    DegenerateFrequencyError,
    TangentState,
    flow_exact_state,
    flow_rk4,
    sample_generic_state,
)
from .integrals import INTEGRAL_NAMES, evaluate_integrals, poisson_matrix
from .periodicity import ConstructionError, construct_closed_geodesic
from .report import Report, fmt_value
from .suites import BRACKET_TOL, SUITE_NAMES, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_CONSTRUCTION = 5


def format_state(state):
    f = lambda xs: " ".join(format(float(x), ".17g") for x in xs)
    return (
        f"v: {f(state.v)}; z: {f(state.z)}; "
        f"V: {f(state.V)}; Z: {f(state.Z)}"
    )


def parse_state(alg, text):
    parts = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        label, sep, rest = chunk.partition(":")
        label = label.strip()
        if not sep:
            raise ValueError(f"state chunk {chunk!r} has no 'label:'")
        if label not in ("v", "z", "V", "Z"):
            raise ValueError(f"unknown state field {label!r}")
        if label in parts:
            raise ValueError(f"state field {label!r} given twice")
        parts[label] = [float(x) for x in rest.split()]
        if not all(math.isfinite(x) for x in parts[label]):
            raise ValueError(f"field {label!r} has a non-finite number")
    for label, n in zip("vzVZ", (alg.dim_v, alg.dim_z) * 2):
        if label not in parts:
            raise ValueError(f"state record missing field {label!r}")
        if len(parts[label]) != n:
            raise ValueError(
                f"field {label!r} needs {n} numbers, got {len(parts[label])}"
            )
    return TangentState(parts["v"], parts["z"], parts["V"], parts["Z"])


def _fail(kind, message, code):
    """Print the one stderr line "kind: message", the message cut to 200
    characters ending in "…" (messages quote what was typed, a selector, a
    number, a label or a path, whatever its length); return code."""
    message = str(message)
    message = f"{message[:199]}…" if len(message) > 200 else message
    print(f"{kind}: {message}", file=sys.stderr)
    return code


def _require(ok, message):
    """Reject input the command does not accept: main reports the
    ValueError as a usage error (exit 2)."""
    if not ok:
        raise ValueError(message)


def _read_state_arg(alg, args):
    return parse_state(alg, sys.stdin.read() if args.state is None
                       else args.state)


def _seeded(args):
    """The random stream of --seed."""
    return np.random.Generator(np.random.Philox(args.seed))


def _with_frame(args, lacks):
    """The --manifold, which must have its closed-form frame; lacks words
    what a manifold without one lacks."""
    data = get_manifold(args.manifold)
    _require(data.frame is not None, f"manifold {data.name} {lacks}")
    return data


def _integrals_state(args):
    """(alg, state) of the --manifold, which must carry the eight
    integrals, and the state read from --state or stdin."""
    data = get_manifold(args.manifold)
    _require(data.has_integrals,
             f"the eight integrals are integrals of M, not of {data.name}")
    return data.alg, _read_state_arg(data.alg, args)


# Each command returns (output, passed): the text, or a JSON document as a
# dict, and whether its checks passed; main writes it and maps the verdict.


def cmd_verify(args):
    t0 = time.perf_counter()
    report = run_suite(args.suite, args.seed)
    report.wall_time_s = time.perf_counter() - t0
    return report.to_text(), report.passed


# Past about 1e15 RK4 steps rounding swamps the result: the one-step map's
# computed eigenvalue moduli exceed 1 by about 1e-17, and the error grows
# like exp(1e-17 N).
MAX_RK4_STEPS = 10**15


def _finite(compute, message):
    """compute(), or a usage error with message when its result (an array,
    or a state's flat vector) is not finite: the float powers of the RK4
    one-step map, the t^2 terms of the closed-form z, or the squares in
    the integrals of a huge state.  Each is numpy float arithmetic, which
    overflows to inf rather than raising."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = compute()
    vals = out.flat() if isinstance(out, TangentState) else out
    _require(np.isfinite(vals).all(), message)
    return out


def cmd_flow(args):
    data = (_with_frame(args, "has no closed-form flow; use --method rk4")
            if args.method == "exact" else get_manifold(args.manifold))
    _require(math.isfinite(args.t), f"--t must be finite, got {args.t}")
    state = _read_state_arg(data.alg, args)
    if args.method == "exact":
        end = _finite(lambda: flow_exact_state(data, state, args.t),
                      f"--t={args.t} or the state is too large: the exact "
                      "result is not finite")
    else:
        # compared in floats: default_steps(t) overflows once |t| * 1000 is inf
        _require(abs(args.t) * RK4_STEPS_PER_UNIT <= MAX_RK4_STEPS,
                 f"--t={args.t} needs more than 1e15 RK4 steps at "
                 f"{RK4_STEPS_PER_UNIT} per unit; rounding dominates past that")
        end = _finite(lambda: flow_rk4(data.alg, state, args.t),
                      f"--t={args.t} or the state is too large: the RK4 "
                      "result is not finite")
    return format_state(end), True


def cmd_closed_geodesic(args):
    data = _with_frame(args, "has no closed-geodesic construction")
    if args.target is not None:
        target = parse_state(data.alg, args.target)
    else:
        target = sample_generic_state(data, _seeded(args))
    with np.errstate(over="ignore"):
        size = math.sqrt(target.speed2)
    _require(math.isfinite(size), "the target is too large: its size "
             f"|(V, Z)| = {size:.6g} is not finite")
    _require(not args.epsilon > size, f"--epsilon={args.epsilon} exceeds "
             f"the target's size |(V, Z)| = {size:.6g}")
    try:
        geo = construct_closed_geodesic(data, target, epsilon=args.epsilon)
    except DegenerateFrequencyError as e:
        raise ConstructionError(str(e)) from e
    doc = {
        "manifold": data.name,
        "initial_state": format_state(geo.state),
        "c": fmt_value(list(geo.c)),
        "norm_c": fmt_value(geo.norm_c),
        "p": geo.p, "q": geo.q, "m": geo.m,
        "tau_over_pi": fmt_value(geo.tau_over_pi),
        "a_v": fmt_value(list(geo.a_v)),
        "a_z": fmt_value(list(geo.a_z)),
        "a_in_gamma": "exact_pass" if geo.in_gamma else "fail",
        "rotation_condition": "exact_pass" if geo.rotation_exact else "fail",
    }
    return doc, geo.in_gamma and geo.rotation_exact


def cmd_integrals(args):
    _, state = _integrals_state(args)
    vals = _finite(lambda: evaluate_integrals(state),
                   "the state is too large: the integrals are not finite")
    return {name: fmt_value(float(x))
            for name, x in zip(INTEGRAL_NAMES, vals)}, True


def cmd_poisson(args):
    alg, state = _integrals_state(args)
    mat = _finite(lambda: poisson_matrix(alg, state),
                  "the state is too large: the Poisson brackets are not "
                  "finite")
    rows = []
    worst = 0.0
    for a in range(8):
        for b in range(a + 1, 8):
            val = float(mat[a, b])
            worst = max(worst, abs(val))
            rows.append({
                "pair": f"{{{INTEGRAL_NAMES[a]}, {INTEGRAL_NAMES[b]}}}",
                "bracket": fmt_value(val),
                "tolerance": fmt_value(BRACKET_TOL),
                "pass": abs(val) <= BRACKET_TOL,
            })
    return {"rows": rows, "max_abs": fmt_value(worst)}, worst <= BRACKET_TOL


def cmd_criteria(args):
    t0 = time.perf_counter()
    report = Report("criteria-cmd", args.seed, [args.manifold])
    data = get_manifold(args.manifold)
    cert = check_hr_presentation(data)
    report.add_certificate(cert)
    cert, fraction = butler_nonintegrability_sample(data, 1000, _seeded(args))
    report.add(f"butler_positive_dim_fraction[{data.name}]", cert.passed,
               value=fraction, note=f"regular pairs: {cert.data['regular_pairs']}")
    report.wall_time_s = time.perf_counter() - t0
    return report.to_text(), report.passed


def cmd_cih(args):
    data = _with_frame(args, "has no clean-intersection certificate; cih "
                             "runs on M and Mprime only")
    cert = cih_certificate(data, args.bound, _seeded(args))
    return cert.to_dict(), cert.passed


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one stderr line and exit 2."""

    def error(self, message):
        sys.exit(_fail("usage error", message, EXIT_USAGE))


def _seed(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache  # one parser per process, built on first use
def build_parser():
    p = _Parser(
        prog="nilflow",
        description="verification laboratory for an isospectral pair of "
                    "two-step nilmanifolds with opposite integrability",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, manifold=True, seed=True):
        if seed:
            sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--out", default=None)
        if manifold:
            sp.add_argument("--manifold", default="M")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default="all",
                    choices=("all",) + SUITE_NAMES)
    common(sp, manifold=False)

    sp = sub.add_parser("flow", help="propagate a tangent state")
    common(sp, seed=False)
    sp.add_argument(
        "--t", type=float, default=1.0,
        help="flow time.  rk4 takes ceil(1000 |t|) steps and rejects more "
             "than 1e15 steps (|t| > 1e12), past which rounding dominates; "
             "exact rejects a t whose result overflows (|t| from about 1e154)")
    sp.add_argument("--method", choices=("exact", "rk4"), default="exact")
    sp.add_argument("--state", default=None,
                    help="state record; stdin if omitted")

    sp = sub.add_parser("closed-geodesic",
                        help="construct an exactly closed geodesic")
    common(sp)
    sp.add_argument(
        "--epsilon", type=float, default=0.05,
        help="distance to the target, from 2^-52 |(V, Z)| (the target's "
             "float resolution) to the target's size |(V, Z)|")
    sp.add_argument("--target", default=None,
                    help="target state record; sampled from --seed if omitted")

    sp = sub.add_parser("integrals", help="evaluate the eight integrals")
    common(sp, seed=False)
    sp.add_argument("--state", default=None)

    sp = sub.add_parser("poisson", help="all pairwise Poisson brackets")
    common(sp, seed=False)
    sp.add_argument("--state", default=None)

    sp = sub.add_parser("criteria", help="integrability criteria certificates")
    common(sp)

    sp = sub.add_parser("cih", help="clean-intersection certificate")
    common(sp)
    sp.add_argument("--bound", type=int, default=3,
                    choices=range(MAX_CIH_BOUND + 1), help="coordinate bound")

    return p


COMMANDS = {
    "verify": cmd_verify,
    "flow": cmd_flow,
    "closed-geodesic": cmd_closed_geodesic,
    "integrals": cmd_integrals,
    "poisson": cmd_poisson,
    "criteria": cmd_criteria,
    "cih": cmd_cih,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        output, passed = COMMANDS[args.command](args)
        text = (output if isinstance(output, str)
                else json.dumps(output, indent=2))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return EXIT_PASS if passed else EXIT_CHECK_FAILURE
    except DegenerateFrequencyError as e:
        hint = ("; --method rk4 handles degenerate Z"
                if getattr(args, "method", None) == "exact" else "")
        return _fail("degenerate input", f"{e}{hint}", EXIT_DEGENERATE)
    except ConstructionError as e:
        return _fail("construction failure", e, EXIT_CONSTRUCTION)
    except ValueError as e:
        return _fail("usage error", e, EXIT_USAGE)
    except OSError as e:
        return _fail("I/O error", e, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
