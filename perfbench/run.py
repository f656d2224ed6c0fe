#!/usr/bin/env python3
"""Benchmark of nilflow: one run of one workload.

    python3 perfbench/run.py --workload certify --seed 42 --seconds 36 --trace 0

Run from the root of a source tree holding src/nilflow and BENCHMARK.json.
With --trace 0 the run times a number of passes of the workload untraced
that fills about --seconds at the commit that defined the benchmark, and
reports the end-to-end metrics of BENCHMARK.json.  With --trace 1 it runs
a fixed amount of the workload untraced, then the same inputs under the
span tracer, and reports the per-layer metrics.  Both check the program's
outputs.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A full record
(environment, every pass, every traced function) is written under
perfbench/out/.  Exit code 0 means a result was printed; any other code
means the run could not be made.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed, RunLimit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One compute thread per process: the workloads are single-client, and
# pinned BLAS threads keep runs comparable on a shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh interpreters timed per run, half before and half after the
# workload so that they see more than one phase of a shared machine's load;
# one more before them fills the bytecode cache and is not counted.
SETUP_REPEATS = 8
# Reference computations (hostspeed) timed just before and just after each
# of those interpreters, to scale its set-up time to the reference speed.
SETUP_CALIBRATION = 10
# Round figures near the seconds one pass took when the benchmark was
# defined (2-core x86_64 host, Python 3.11, numpy 2.4), so that a run of
# each workload takes about 40 s there.  An untraced run makes
# --seconds // this many passes, a count that depends on the arguments
# only: a faster or slower commit is timed on the same inputs at a seed.
NOMINAL_PASS_S = {"certify": 30.0, "dynamics": 12.0, "requests": 0.6}
TRACED_ROUNDS = 20  # request rounds in a traced run (fixed: counts repeat)
TAIL_BEYOND = 10  # the tail latency has this many requests beyond it
# A run is cut this long after it starts, so it ends within the 180 s a
# benchmark run may take even at seeds where the program's work is
# unbounded; a cut run reports a failed operation.
RUN_LIMIT_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "dynamics", "requests"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_key():
    """Digest of the program and benchmark sources and the interpreter,
    which identifies runs whose exact counts must agree."""
    import numpy

    h = hashlib.sha256(f"{sys.version}\n{numpy.__version__}\n".encode())
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurements


def setup_samples(workload, setup_program, n):
    """(seconds, scale, MB) from each of n fresh interpreters: the time to
    import nilflow and build the workload's manifolds; the host-speed scale
    from reference computations just before and after it; and the
    interpreter's peak resident set by then."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = HostSpeed(deadline=None)
    out = []
    for _ in range(n):
        cal = len(speed.samples)
        for _ in range(SETUP_CALIBRATION):
            speed.sample()
        res = subprocess.run(
            [sys.executable, "-c", setup_program(workload)], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        for _ in range(SETUP_CALIBRATION):
            speed.sample()
        t, mb = res.stdout.split()
        out.append((float(t), speed.scale(speed.samples[cal:]), float(mb)))
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it, or (max, 100) when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def part_values(passes):
    """Mean seconds per suite, and request latency figures overall and
    median per request kind, over passes."""
    out = {}
    for name in sorted({k for p in passes for k in p.suite_s}):
        out[f"{name}_s"] = statistics.fmean(
            p.suite_s[name] for p in passes if name in p.suite_s)
    by_kind = {}
    for p in passes:
        for kind, lat in p.latency_ms.items():
            by_kind.setdefault(kind, []).extend(lat)
    if by_kind:
        lat = [x for xs in by_kind.values() for x in xs]
        out["req_p50_ms"] = statistics.median(lat)
        out["req_tail_ms"], out["req_tail_pct"] = tail(lat)
        out["req_count"] = len(lat)
        out["req_per_s"] = len(lat) / sum(p.wall_s for p in passes)
        for kind, xs in sorted(by_kind.items()):
            out[f"req_p50_ms[{kind}]"] = statistics.median(xs)
    return out


# ---------------------------------------------------------------------------
# gates


class Gates:
    """Correctness operations beyond the workload's own: each is attempted
    once and fails if its condition does not hold.  A gate that could not
    be checked in this run is recorded as skipped and not attempted."""

    def __init__(self):
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append({"name": name, "status": "pass" if ok else "fail",
                             "detail": detail})

    def skip(self, name, why):
        self.results.append({"name": name, "status": "skipped",
                             "detail": why})

    @property
    def attempted(self):
        return sum(r["status"] != "skipped" for r in self.results)

    @property
    def failed(self):
        return sum(r["status"] == "fail" for r in self.results)


def repeat_gate(gates, workload, seed, key, passes, counters):
    """Compare each pass's output digest, and in a traced run the exact
    counters, with earlier runs at the same seed and sources: pass k has
    the same inputs in every run.  counters is None in an untraced run and
    in a cut traced run."""
    path = OUT / "repeat" / f"{workload}-seed{seed}.json"
    prev = {}
    if path.is_file():
        prev = json.loads(path.read_text())
        if prev.get("key") != key:
            prev = {}
    digests = prev.get("digests", {})
    seen = {str(k): p.digest for k, p in enumerate(passes)}
    common = sorted(set(digests) & set(seen), key=int)
    no_earlier = "no earlier run at this seed and sources"
    if common:
        bad = [k for k in common if digests[k] != seen[k]]
        gates.check("outputs_repeat_across_runs", not bad,
                    f"passes {bad} differ" if bad else "")
    else:
        gates.skip("outputs_repeat_across_runs", no_earlier)
    if counters is None:
        gates.skip("exact_counters_repeat_across_runs",
                   "counted only by a traced run that was not cut")
    elif prev.get("counters") is None:
        gates.skip("exact_counters_repeat_across_runs", no_earlier)
    else:
        diff = {k: (prev["counters"].get(k), v) for k, v in counters.items()
                if prev["counters"].get(k) != v}
        gates.check("exact_counters_repeat_across_runs", not diff,
                    json.dumps(diff) if diff else "")
    rec = {"key": key, "digests": {**digests, **seen},
           "counters": counters if counters is not None else prev.get("counters")}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rec, indent=1))


# ---------------------------------------------------------------------------
# runs


def at_reference(name, value, scale):
    """A value of part_values() or wall_s, measured on the host while its
    scale was scale, at the reference speed."""
    if name == "req_per_s":
        return value / scale
    if name.endswith(("_s", "_ms")) or "_ms[" in name:
        return value * scale
    return value


def untraced_run(wl, args, gates, deadline):
    """Passes 0 .. n-1 of the workload, n fixed by --seconds and
    NOMINAL_PASS_S (at least one), with the host's speed sampled
    throughout.  Times are reported at the reference speed; the measured
    ones are kept under raw.*."""
    n = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    passes = []
    speed = HostSpeed(deadline)
    wl.clock = speed.clock
    t0 = speed.clock()
    try:
        with speed.running():
            for k in range(n):
                passes.append(wl.run_pass(args.workload, args.seed, k))
    except RunLimit:
        gates.check("run_within_time_limit", False,
                    f"cut after {len(passes)} of {n} passes")
    # the mean, not the median: dynamics pass times are bimodal over suite
    # seeds, and the median of a few of them jumps between the modes
    walls = [p.wall_s for p in passes] or [speed.clock() - t0]
    raw = {"wall_s": statistics.fmean(walls)}
    raw.update(part_values(passes))
    scale = speed.scale()
    values = {name: at_reference(name, val, scale)
              for name, val in raw.items()}
    values.update({f"raw.{name}": val for name, val in raw.items()})
    values.update(passes=len(passes), host_scale=scale,
                  host_samples=len(speed.samples))
    return passes, values


def traced_run(wl, args, gates, deadline):
    import layers
    import nilflow
    import nilflow.flow
    from tracer import Tracer

    n = TRACED_ROUNDS if args.workload == "requests" else 1
    tracer = Tracer()
    hooks = layers.make_hooks(lambda t: nilflow.flow.default_steps(t))
    untraced, traced = [], []
    # no sampling here: the handler's time would land in traced spans
    speed = HostSpeed(deadline, calibrate=False)
    try:
        with speed.running():
            for k in range(n):
                untraced.append(wl.run_pass(args.workload, args.seed, k))
            tracer.install(nilflow, layers.FUNCTIONS, hooks,
                           extra_modules=[wl])
            for k in range(n):
                traced.append(
                    wl.run_pass(args.workload, args.seed, k, tracer))
        gates.check("tracing_leaves_outputs_unchanged",
                    [p.digest for p in untraced] == [p.digest for p in traced])
    except RunLimit:
        gates.check("run_within_time_limit", False,
                    f"cut after {len(untraced)} untraced and {len(traced)} "
                    f"traced passes of {n}")

    values = layers.values(tracer)
    parts = dict.fromkeys(
        [f"{s}_s" for names in wl.SUITES.values() for s in names]
        + ["req_p50_ms", "req_tail_ms"], 0.0)  # 0 where the workload has none
    parts.update(part_values(untraced))
    for name, val in parts.items():
        values[f"untraced.{name}"] = val
    # wall_s as an untraced run reports it, over the same passes
    untraced_wall = statistics.fmean(
        [p.wall_s for p in untraced[:len(traced)]] or [0.0])
    traced_wall = statistics.fmean([p.wall_s for p in traced] or [0.0])
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall

    stats = tracer.stats()
    ops = {op for op in tracer.span_op if op >= 0}
    coverage = {
        "spans": len(tracer.span_name),
        "ops": len(ops),
        "ops_calling_get_manifold": len(
            tracer.ops_calling("catalog.get_manifold")),
        "top_self_s": sorted(
            ((s[1], n) for n, s in stats.items()), reverse=True)[:8],
        "top_calls": sorted(
            ((s[0], n) for n, s in stats.items()), reverse=True)[:8],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    extra = {
        "functions": {n: dict(zip(("calls", "self_s", "total_s", "errors"), s))
                      for n, s in stats.items() if s[0]},
        "counts": dict(tracer.counts),
        "coverage": coverage,
    }
    if len(traced) == n:  # a cut run's counts are partial: not compared
        extra["exact"] = {k: values[k] for k in layers.EXACT}
    return untraced, traced, values, extra


def emit(values, section):
    """The metrics BENCHMARK.json lists in a section, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    deadline = time.perf_counter() + RUN_LIMIT_S
    args = parse_args(argv)
    if not (SRC / "nilflow" / "__init__.py").is_file():
        print(f"no nilflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    load_before = os.getloadavg()
    env = environment()
    loaded = load_before[0] >= env["nproc"]

    import workloads as wl

    setup = setup_samples(args.workload, wl.setup_program,
                          1 + SETUP_REPEATS // 2)[1:]
    gates = Gates()
    traced, extra = [], {}
    if args.trace:
        untraced, traced, values, extra = traced_run(
            wl, args, gates, deadline)
    else:
        untraced, values = untraced_run(wl, args, gates, deadline)
    setup += setup_samples(args.workload, wl.setup_program,
                           SETUP_REPEATS - len(setup))
    values["setup_s"] = statistics.median(t * k for t, k, _ in setup)
    values["raw.setup_s"] = statistics.median(t for t, _, _ in setup)
    values["setup_rss_mb"] = statistics.median(mb for _, _, mb in setup)
    values["peak_rss_mb"] = peak_rss_mb()
    repeat_gate(gates, args.workload, args.seed, source_key(), untraced,
                extra.get("exact"))
    passes = untraced + traced

    attempted = sum(p.attempted for p in passes) + gates.attempted
    failed = sum(p.failed for p in passes) + gates.failed
    values["failed_frac"] = failed / attempted
    load_after = os.getloadavg()
    env.update(loadavg_before=load_before, loadavg_after=load_after,
               started_loaded=loaded)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = emit(values, section)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "values": values,
        "gates": gates.results,
        "failures": [f for p in passes for f in p.failures],
        "passes": [{"wall_s": p.wall_s, "attempted": p.attempted,
                    "failed": p.failed, "digest": p.digest} for p in passes],
        **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"env {json.dumps(env)}")
    if loaded:
        print(f"warning: run started under load {load_before[0]:.2f} "
              f">= nproc {env['nproc']}; its timings are suspect")
    for name in sorted(values):
        print(f"  {name} = {values[name]}")
    if "req_tail_pct" in values:
        print(f"  request tail: p{values['req_tail_pct']:.2f} of "
              f"{values['req_count']} requests")
    if "coverage" in extra:
        print(f"coverage {json.dumps(extra['coverage'])}")
    for f in record["failures"]:
        print(f"FAILED {f}")
    for g in gates.results:
        print(f"gate {g['name']}: {g['status']} {g['detail']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
