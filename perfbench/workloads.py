"""The three workloads: what one pass runs, the inputs it makes from the
seed, and the checks on the program's outputs.

`certify` and `dynamics` run verification suites; one pass is the suites
in order at one suite seed drawn from (seed, pass), and an operation is one
check of a suite report.
`requests` is a closed loop of one client calling `nilflow.cli.main(argv)`
in-process; one pass is one round of a fixed request mix whose states are
drawn from (seed, round), and an operation is one request.

Every call into nilflow goes through a module attribute looked up at call
time (`cli.main`, not a name imported once), so the tracer's rebinding
reaches it.  Importing this module imports nilflow: the caller puts the
source tree on sys.path first.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import hypot, sqrt
from time import perf_counter

import numpy as np

from nilflow import catalog, cli, integrals, report, suites

# The clock that times the program; the benchmark swaps in one that leaves
# out its own host-speed sampling (hostspeed.HostSpeed.clock).
clock = perf_counter

SUITES = {
    # exact layers: j(Z), Fraction linear algebra, integer kernels,
    # Faddeev-LeVerrier, length spectra, span projectors
    "certify": ("algebra", "spectral", "criteria", "cih"),
    # float layers: RK4, closed-form flow, FD Poisson calculus, closure
    # Jacobian; no Fraction kernels, so the control for certify-side work
    "dynamics": ("flow", "integrals", "periodicity"),
}

# Request times: rk4 runs to t = 1, a short t at which one request takes
# tens of ms; exact flow draws t from [0.5, 10].  Both are assumptions, as
# nothing records the t of real requests.
RK4_T = 1.0
EXACT_T = (0.5, 10.0)
FLOW_TOL = 1e-9  # Z unchanged and |V| conserved, absolute


@dataclass
class Pass:
    """One pass of a workload."""

    wall_s: float
    suite_s: dict = field(default_factory=dict)  # suite -> seconds
    latency_ms: dict = field(default_factory=dict)  # request kind -> [ms]
    attempted: int = 0
    failed: int = 0
    digest: str = ""  # sha256 of report bodies / request outputs
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# suites


def run_suites(workload, seed, tracer=None):
    """Run the workload's suites at the seed; each op is one suite run plus
    the serialization of its report body, as `nilflow verify` does."""
    p = Pass(0.0)
    digest = hashlib.sha256()
    for k, name in enumerate(SUITES[workload]):
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        rep = suites.run_suite(name, seed)
        body = rep.body_text()
        p.suite_s[name] = clock() - t0
        digest.update(body.encode())
        for check in rep.checks:
            p.attempted += 1
            if not check.passed:
                p.failed += 1
                p.failures.append(f"{name}.{check.name}")
    p.wall_s = sum(p.suite_s.values())
    p.digest = digest.hexdigest()
    return p


# ---------------------------------------------------------------------------
# requests: inputs


def _fmt(xs):
    return " ".join(format(float(x), ".17g") for x in xs)


def _state_text(v, z, V, Z):
    return f"v: {_fmt(v)}; z: {_fmt(z)}; V: {_fmt(V)}; Z: {_fmt(Z)}"


def _pair_state(rng):
    """A state on M / Mprime with generic Z: both precession frequencies
    c_k and |c| well away from 0 and from each other, and c_k |c|^2 large
    enough that the transcendental integrals stay alive."""
    while True:
        Z = rng.uniform(-2.0, 2.0, size=3)
        ci, cj, ck = Z
        norm = sqrt(float(Z @ Z))
        if (abs(ck) >= 0.2 and hypot(ci, cj) >= 0.2
                and norm - abs(ck) >= 0.2 and abs(ck) * norm * norm >= 0.1):
            break
    return (rng.uniform(-1.0, 1.0, size=5), rng.uniform(-1.0, 1.0, size=3),
            rng.uniform(-1.0, 1.0, size=5), Z)


def _defo_state(rng):
    while True:
        Z = rng.uniform(-2.0, 2.0, size=2)
        if hypot(*Z) >= 0.2:
            break
    return (rng.uniform(-1.0, 1.0, size=4), rng.uniform(-1.0, 1.0, size=2),
            rng.uniform(-1.0, 1.0, size=4), Z)


@dataclass
class Request:
    kind: str
    argv: list
    state: tuple = None


# One request of each kind per round.  Nothing records how often users
# send each kind, so no kind is weighted over another; per-kind medians are
# reported so that a change to one kind shows whatever the weighting.
# Commands given without a manifold run on the CLI's default, M.
MIX = (
    "flow-exact:M", "flow-exact:Mprime", "flow-rk4:M", "flow-rk4:defo",
    "integrals:M", "poisson:M", "closed-geodesic:M", "closed-geodesic:Mprime",
    "cih:M",
)


def round_requests(seed, rnd):
    """The requests of one round, drawn from (seed, round) and shuffled."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), int(rnd)]))
    )
    reqs = []
    for kind in MIX:
        cmd, manifold = kind.split(":")
        if cmd == "flow-exact":
            state = _pair_state(rng)
            t = float(rng.uniform(*EXACT_T))
            argv = ["flow", "--manifold", manifold, "--method", "exact",
                    "--t", format(t, ".17g"), "--state", _state_text(*state)]
        elif cmd == "flow-rk4":
            if manifold == "defo":
                state = _defo_state(rng)
                selector = (f"defo:{int(rng.integers(1, 6))}/"
                            f"{int(rng.integers(2, 8))}")
            else:
                state = _pair_state(rng)
                selector = manifold
            argv = ["flow", "--manifold", selector, "--method", "rk4",
                    "--t", format(RK4_T, ".17g"),
                    "--state", _state_text(*state)]
        elif cmd in ("integrals", "poisson"):
            state = _pair_state(rng)
            argv = [cmd, "--manifold", manifold,
                    "--state", _state_text(*state)]
        elif cmd == "closed-geodesic":
            state = None
            argv = [cmd, "--manifold", manifold,
                    "--seed", str(int(rng.integers(0, 2**31)))]
        else:  # cih
            state = None
            argv = [cmd, "--manifold", manifold, "--bound", "1",
                    "--seed", str(int(rng.integers(0, 2**31)))]
        reqs.append(Request(kind, argv, state))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# ---------------------------------------------------------------------------
# requests: output checks


def _parse_state_text(text):
    fields = {}
    for chunk in text.strip().split(";"):
        label, _, rest = chunk.partition(":")
        fields[label.strip()] = np.array([float(x) for x in rest.split()])
    return fields["v"], fields["z"], fields["V"], fields["Z"]


def _check_flow(req, out):
    _, _, V0, Z0 = req.state
    _, _, V1, Z1 = _parse_state_text(out)
    if V1.shape != V0.shape or Z1.shape != Z0.shape:
        return "output dimensions differ from the input state"
    if not np.all(np.isfinite(V1)):
        return "V is not finite"
    if np.max(np.abs(Z1 - Z0)) > FLOW_TOL:
        return "Z changed along the flow"
    drift = abs(float(np.linalg.norm(V1)) - float(np.linalg.norm(V0)))
    if drift > FLOW_TOL:
        return f"|V| drifted by {drift:.3g}"
    return None


def _check_integrals(req, out):
    doc = json.loads(out)
    alg = catalog.get_manifold("M").alg
    state = cli.parse_state(alg, req.argv[-1])
    vals = integrals.evaluate_integrals(state)
    want = {
        name: report.fmt_value(float(x))
        for name, x in zip(integrals.INTEGRAL_NAMES, vals)
    }
    return None if doc == want else "values differ from evaluate_integrals"


def _check_poisson(out):
    doc = json.loads(out)
    tol = float(doc["rows"][0]["tolerance"])
    worst = float(doc["max_abs"])
    return None if worst <= tol else f"max_abs {worst:.3g} > {tol:.3g}"


def _check_closed_geodesic(out):
    doc = json.loads(out)
    if doc["a_in_gamma"] != "exact_pass" or \
            doc["rotation_condition"] != "exact_pass":
        return "closure certificate did not pass"
    return None


def _check_cih(out):
    return None if json.loads(out)["pass"] is True else "certificate failed"


def check_request(req, rc, out):
    """None if the request's exit code and output are right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    cmd = req.kind.split(":")[0]
    try:
        if cmd in ("flow-exact", "flow-rk4"):
            return _check_flow(req, out)
        if cmd == "integrals":
            return _check_integrals(req, out)
        if cmd == "poisson":
            return _check_poisson(out)
        if cmd == "closed-geodesic":
            return _check_closed_geodesic(out)
        return _check_cih(out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output: {e!r}"


# ---------------------------------------------------------------------------
# requests: one round


def run_round(seed, rnd, tracer=None):
    """One round of the closed loop: each request is sent after the
    previous one has returned.  wall_s is the time spent inside
    `cli.main`; the client's own checks are not timed."""
    reqs = round_requests(seed, rnd)
    p = Pass(0.0)
    digest = hashlib.sha256()
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.op = rnd * len(reqs) + i
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = clock()
            try:
                rc = cli.main(req.argv)
            except Exception as e:  # an uncaught error is a failed request
                rc = f"uncaught {e!r}"
            dt = clock() - t0
        p.latency_ms.setdefault(req.kind, []).append(dt * 1e3)
        p.wall_s += dt
        p.attempted += 1
        digest.update(f"{rc}\n{out.getvalue()}\n".encode())
        if tracer is not None:
            tracer.paused = True
        try:
            why = check_request(req, rc, out.getvalue())
        finally:
            if tracer is not None:
                tracer.paused = False
        if why is not None:
            p.failed += 1
            p.failures.append(f"{' '.join(req.argv[:3])}: {why}; "
                              f"stderr: {err.getvalue().strip()[:200]}")
    p.digest = digest.hexdigest()
    return p


def pass_seed(seed, index):
    """The suite seed of pass number index, drawn from (seed, index).

    Suite work depends on the suite seed: the periodicity suite's family
    dimension runs exact flows over closed geodesics whose period varies
    about 2x between seeds (and far more on rare seeds).  Passes at
    different suite seeds let a run's median take in more than one input,
    and since the number of passes is fixed, every run at a seed times the
    same suite seeds."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1)[0])


def run_pass(workload, seed, index, tracer=None):
    """Pass number index of the workload; its inputs depend only on
    (seed, index)."""
    if workload == "requests":
        return run_round(seed, index, tracer)
    return run_suites(workload, pass_seed(seed, index), tracer)


# ---------------------------------------------------------------------------
# set-up in a fresh interpreter

SETUP_CODE = {
    "certify": (
        "from fractions import Fraction\n"
        "import nilflow.suites\n"
        "from nilflow.catalog import build_deformation, build_pair\n"
        "build_pair(); build_deformation(Fraction(1, 3))\n"
    ),
    "dynamics": (
        "import nilflow.suites\n"
        "from nilflow.catalog import build_pair\n"
        "build_pair()\n"
    ),
    "requests": (
        "import nilflow.cli\n"
        "from nilflow.catalog import get_manifold\n"
        "for sel in ('M', 'Mprime', 'defo:1/3'):\n"
        "    get_manifold(sel)\n"
    ),
}


def setup_program(workload):
    """Python source that imports nilflow and builds the manifolds the
    workload uses, then prints the seconds taken and its peak resident
    set in MB.  The peak is VmHWM of the interpreter's own address space:
    ru_maxrss would also count the parent's pages that the child held
    before it exec'd."""
    return (
        "import time\n"
        "t0 = time.perf_counter()\n"
        + SETUP_CODE[workload]
        + "t1 = time.perf_counter()\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = next(l for l in fh if l.startswith('VmHWM:')).split()[1]\n"
        "print(repr(t1 - t0), repr(int(kb) / 1024))\n"
    )
