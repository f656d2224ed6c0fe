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


def _unreferenced_definitions():
    """The module-level functions and classes of src/nilflow, as
    "module.name", that no Name, Attribute or import alias in src/nilflow
    refers to outside their own definition."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((SRC / "nilflow").glob("*.py"))}
    # the names each top-level statement refers to, by (module, index)
    refs = {(mod, i): {n.id if isinstance(n, ast.Name) else
                       n.attr if isinstance(n, ast.Attribute) else n.name
                       for n in ast.walk(stmt)
                       if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            for mod, tree in trees.items() for i, stmt in enumerate(tree.body)}
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    return {f"{mod}.{stmt.name}"
            for mod, tree in trees.items()
            for i, stmt in enumerate(tree.body) if isinstance(stmt, defs)
            and not any(stmt.name in names for key, names in refs.items()
                        if key != (mod, i))}


def test_unreferenced_code_is_only_traced_names():
    # a function that no src code reaches may stay only while the
    # benchmark traces it by name; anything else unreferenced is dead code
    assert _unreferenced_definitions() <= set(layers.FUNCTIONS)


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
