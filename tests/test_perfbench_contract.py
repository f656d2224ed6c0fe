"""What the benchmark reads of the program: the traced names, the argument
names its counter hooks bind, the certificate checks they read and the
manifolds its set-up builds.  perfbench is loaded from its files and left
unchanged; a refactor that breaks one of these fails here instead of only
in a traced benchmark run."""

import ast
import importlib.util
import inspect
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nilflow
from nilflow import criteria, flow, periodicity, spectral
from nilflow.catalog import build_deformation, build_pair, get_manifold
from nilflow.flow import TangentState, sample_generic_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"
M, MP = build_pair()


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # layers imports tracer by this name
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer")
layers = _load("layers")


def _hooked(fn, *args, **kwargs):
    """Call fn, then its perfbench counter hook the way the tracer does
    (arguments bound by name, defaults applied); returns the counts."""
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    hooks = layers.make_hooks(flow.default_steps)
    result = fn(*args, **kwargs)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counts = {}
    hooks[name](counts, result, lambda: bound.arguments)
    return counts


def test_traced_names_are_public_functions():
    found = tracer.public_functions(tracer.package_modules(nilflow))
    missing = [n for n in layers.FUNCTIONS if n not in found]
    assert missing == []
    assert set(layers.make_hooks(flow.default_steps)) <= set(found)


# what the program runs: the CLI, the suites, and the names perfbench's
# workloads and set-up call
ROOTS = {"cli.main", "suites.run_suite", "catalog.get_manifold",
         "catalog.build_pair", "catalog.build_deformation",
         "integrals.evaluate_integrals", "integrals.INTEGRAL_NAMES",
         "cli.parse_state", "report.fmt_value", "flow.default_steps"}

# the definitions that only perfbench's traced names keep: each is traced
# or reached only from traced names, and goes when the benchmark stops
# tracing it
UNREACHABLE = {
    "lie_core.j_matrix", "lie_core.RationalLattice",
    "linalg_exact.zeros", "linalg_exact.identity", "linalg_exact.mat_mul",
    "linalg_exact.rref", "linalg_exact.rank", "linalg_exact.nullspace",
    "linalg_exact.solve", "linalg_exact.inverse",
    "linalg_exact.clear_denominators",
    "spectral.char_poly_batch_int", "spectral.lattice_intersection",
    "spectral.length_spectrum", "spectral.LengthSpectrumSlice",
}


def _reference_graph():
    """(graph, defs, run) over src/nilflow, every name as "module.name".

    graph maps each top-level name to the names its binding statement
    refers to, resolved per module: a bare name to its module's own
    binding or to the `from .m import n` it came from, and alias.attr on a
    module alias (`from . import m as alias`) to m.attr; any other
    attribute (`frame.rank`) is no reference.  defs are the top-level
    functions and classes; run are the names that the other top-level
    statements (`if __name__ == ...`) refer to."""
    graph, defs, run = {}, set(), set()
    for path in sorted((SRC / "nilflow").glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        names, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        names[a.asname or a.name] = f"{node.module}.{a.name}"
        bound = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound[stmt] = [stmt.name]
                defs.add(f"{mod}.{stmt.name}")
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                bound[stmt] = [n.id for n in ast.walk(stmt) if
                               isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Store)]
        own = {n for ns in bound.values() for n in ns}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            refs = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    refs.add(f"{mod}.{n.id}" if n.id in own
                             else names.get(n.id))
                elif (isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name)
                      and n.value.id in aliases):
                    refs.add(f"{aliases[n.value.id]}.{n.attr}")
            refs.discard(None)
            for name in bound.get(stmt, ()):
                graph.setdefault(f"{mod}.{name}", set()).update(refs)
            if stmt not in bound:
                run |= refs
    return graph, defs, run


def _reached(graph, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def test_unreferenced_code_is_only_traced_names():
    # a definition that neither the program nor the benchmark's calls
    # reach may stay only while the benchmark traces it, or a traced name
    # reaches it; anything else is dead code
    graph, defs, run = _reference_graph()
    assert ROOTS <= set(graph)
    unreachable = defs - _reached(graph, ROOTS | run)
    assert unreachable == UNREACHABLE
    assert unreachable <= _reached(graph, set(layers.FUNCTIONS))


def test_reference_graph_resolves_names_per_module():
    # RationalLattice calls lx.rank, the module alias; length_spectrum reads
    # lat.rank, an attribute of its argument, which is no reference
    graph, _, _ = _reference_graph()
    assert "linalg_exact.rank" in graph["lie_core.RationalLattice"]
    assert "linalg_exact.rank" not in graph["spectral.length_spectrum"]
    assert "linalg_exact.inverse" in graph["spectral.length_spectrum"]
    # a name from `from .m import n`, and a bare name of the module itself
    assert {"lie_core._primitive_rows", "criteria._span_projectors"} <= graph[
        "criteria._cih_table"]


@pytest.mark.parametrize("steps, want", [(None, 1000), (7, 7)])
def test_rk4_hooks_read_steps_and_t(steps, want):
    state = sample_generic_state(M, np.random.default_rng(0))
    counts = _hooked(flow.flow_rk4, M.alg, state, 1.0, steps=steps)
    assert counts == {"flow.flow_rk4.state_steps": want}
    flat = np.stack([state.flat()] * 3)
    counts = _hooked(flow.flow_rk4_many, M.alg, flat, 1.0, steps=steps)
    assert counts == {"flow.flow_rk4_many.state_steps": 3 * want}


def test_closure_jacobian_hook_reads_geo():
    s = sample_generic_state(M, np.random.default_rng(0))
    target = TangentState(s.v, s.z, s.V, np.array([3.0, 0.0, 4.0]))
    geo = periodicity.construct_closed_geodesic(M, target, epsilon=0.45)
    counts = _hooked(periodicity.closure_jacobian, M, geo)
    assert counts == {"periodicity.closure_jacobian.geodesics": 1}


def test_certificate_hooks_find_their_checks():
    counts = _hooked(spectral.gw_certificate, (M, MP), 2)
    assert set(counts) == {"spectral.gw.enumerated", "spectral.gw.points"}
    assert counts["spectral.gw.points"] == 27
    counts = _hooked(criteria.cih_certificate, M, 1, np.random.default_rng(0))
    assert set(counts) == {"criteria.cih.distinct_spans",
                           "criteria.cih.enumerated_V"}
    assert counts["criteria.cih.enumerated_V"] == 3**5


def test_setup_manifolds_build():
    assert get_manifold("defo:3/5").alg.dim_v == 4
    assert build_deformation(Fraction(1, 3)).alg.dim_z == 2


# installs the tracer the way a traced benchmark pass does: every public
# function wrapped and every import site rebound, or TracerError
INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import nilflow, nilflow.flow, layers, tracer, workloads
tracer.Tracer().install(nilflow, layers.FUNCTIONS,
                        layers.make_hooks(nilflow.flow.default_steps),
                        extra_modules=[workloads])
"""


def test_tracer_installs():
    # in a fresh interpreter, so the rebinding does not leak into this
    # session; an original left bound (say, a public function held in a
    # module-level tuple) fails here, not only in a traced benchmark run
    run = subprocess.run(
        [sys.executable, "-c", INSTALL, str(SRC), str(PERFBENCH)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
