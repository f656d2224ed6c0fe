"""Translational elements and the exact closed-geodesic construction."""

import time
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm, pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.catalog import build_pair
from nilflow.cli import EXIT_CONSTRUCTION, EXIT_PASS, format_state, main
from nilflow.flow import (
    DegenerateFrequencyError,
    TangentState,
    eigenframe,
    flow_exact_state,
    sample_generic_state,
    state_from_flat,
)
from nilflow import linalg_exact, periodicity, suites
from nilflow.lie_core import bracket_v_np
from nilflow.periodicity import (
    ConstructionError,
    closure_jacobian,
    construct_closed_geodesic,
    rationalize_sphere_direction,
    translational_element,
    translational_element_expanded,
)
import oracles
from oracles import (
    GroupElement,
    group_mul,
    lattice_contains,
    lattice_coordinates,
    manifold_lattices,
)

M, MP = build_pair()

# Z = (3, 0, 4): |c| = 5, c_k/|c| = 4/5, so sigma = 2 pi q / |c| = 2 pi
COMM_Z = np.array([3.0, 0.0, 4.0])
SIGMA = 2.0 * pi


def in_gamma(data, a_v, a_z):
    """Exact a in Gamma through the Fraction coordinates of the oracle."""
    lat_v, lat_z = manifold_lattices(data)
    return lattice_contains(lat_v, a_v) and lattice_contains(lat_z, a_z)


def random_state_with_comm_Z(data, rng):
    while True:
        V = rng.uniform(-1, 1, size=5)
        fr = eigenframe(data, COMM_Z)
        if min(abs(x) for x in fr.components(V)) < 0.05:
            continue
        return TangentState(
            rng.uniform(-1, 1, size=5), rng.uniform(-1, 1, size=3), V, COMM_Z
        )


def test_proof_vs_expanded_forms():
    rng = np.random.default_rng(0)
    for data in (M, MP):
        for _ in range(50):
            s = random_state_with_comm_Z(data, rng)
            a1v, a1z = translational_element(data, s, SIGMA)
            a2v, a2z = translational_element_expanded(data, s, SIGMA)
            assert np.max(np.abs(a1v - a2v)) < 1e-10
            assert np.max(np.abs(a1z - a2z)) < 1e-10


def test_translational_element_vs_flow():
    rng = np.random.default_rng(1)
    for data in (M, MP):
        s = random_state_with_comm_Z(data, rng)
        av, az = translational_element(data, s, SIGMA)
        end = flow_exact_state(data, s, SIGMA)
        ov = end.v - s.v
        oz = end.z - s.z - 0.5 * bracket_v_np(data.alg, end.v, s.v)
        assert np.max(np.abs(av - ov)) < 1e-9
        assert np.max(np.abs(az - oz)) < 1e-9
        # the flow really is tau-periodic in V
        assert np.max(np.abs(end.V - s.V)) < 1e-9


def test_translational_element_composes():
    # a(2 tau) = a(tau) * a(tau) in the group
    rng = np.random.default_rng(2)
    for data in (M, MP):
        s = random_state_with_comm_Z(data, rng)
        av, az = translational_element(data, s, SIGMA)
        av2, az2 = translational_element(data, s, 2 * SIGMA)
        a = GroupElement(data.alg, tuple(av), tuple(az))
        sq = group_mul(a, a)
        assert np.max(np.abs(np.array(sq.v) - av2)) < 1e-9
        assert np.max(np.abs(np.array(sq.z) - az2)) < 1e-9


def _pin_M_closed_form(c, v, al, g_D, g_W):
    """The per-manifold inverse of drift on M that `_pin` replaced: x_i,
    x_j solved from x_i c_i + x_j c_j and x_i c_j - x_j c_i."""
    ci, cj, ck = c[..., 0], c[..., 1], c[..., 2]
    rho2 = ci * ci + cj * cj
    s, d = rho2 / ck * (al[..., 1] - g_D), rho2 * (al[..., 3] - g_W)
    v = np.array(v, float)
    v[..., 0], v[..., 1] = (ci * s + cj * d) / rho2, (cj * s - ci * d) / rho2
    return v


@pytest.mark.parametrize("n", [None, 50], ids=["one", "batch"])
@pytest.mark.parametrize("data, support", [(M, [0, 1]), (MP, [2, 3, 4])],
                         ids=["M", "Mprime"])
def test_pin_is_the_least_change_that_fixes_drift(data, support, n):
    rng = np.random.default_rng(11)
    shape = () if n is None else (n,)
    c = (rng.uniform(0.5, 2.0, size=shape + (3,))
         * rng.choice([-1.0, 1.0], size=shape + (3,)))
    v, al = rng.normal(size=shape + (5,)), rng.normal(size=shape + (5,))
    g_D, g_W = rng.normal(size=(2,) + shape)
    n2 = np.vecdot(c, c)
    pinned = periodicity._pin(data, c, v, al, n2, g_D, g_W)
    assert pinned.shape == v.shape
    assert np.allclose(data.drift(c, pinned, al, n2), (g_D, g_W), rtol=0,
                       atol=1e-12)
    kept = [i for i in range(5) if i not in support]
    assert np.array_equal(pinned[..., kept], v[..., kept])
    # the step lies in the row space of drift's linear part, read off one
    # state at a time by unit steps of v, so it is the least change
    for i in np.ndindex(shape):
        drift = lambda x: np.array(data.drift(c[i], x, al[i], n2[i]))
        jac = np.array([drift(v[i] + e) - drift(v[i]) for e in np.eye(5)])
        step = pinned[i] - v[i]
        coef = np.linalg.lstsq(jac, step, rcond=None)[0]
        assert np.allclose(jac @ coef, step, rtol=0, atol=1e-9)
    if data is M:  # J's two rows are orthogonal on x_i, x_j alone
        assert np.allclose(pinned, _pin_M_closed_form(c, v, al, g_D, g_W),
                           rtol=1e-12, atol=1e-12)


def _sphere(u, bound):
    """The one row of rationalize_sphere_direction at u, as Fractions."""
    (*num, w), = rationalize_sphere_direction(np.array([u], float), bound)
    return tuple(Fraction(x, w) for x in num)


def test_rationalize_sphere_example():
    ui, uj, uk = _sphere([0.6, 0.0, 0.8], 64)
    assert (ui, uj, uk) == (Fraction(3, 5), 0, Fraction(4, 5))


def test_rationalize_sphere_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ui, uj, uk = _sphere(u, 256)
        assert ui * ui + uj * uj + uk * uk == 1  # exact unit
        err = np.linalg.norm(u - np.array([float(ui), float(uj), float(uk)]))
        assert err < 0.05


CONE_EDGES = ([0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [0.6, 0.8, 0])


@pytest.mark.parametrize("bound", range(1, 65))
def test_rationalize_sphere_cone_edges(bound):
    # the poles and the equator points land on the degenerate cone before
    # the one step of 1/(2 bound) that leaves it
    for u in CONE_EDGES:
        ui, uj, uk = _sphere(u, bound)
        assert ui * ui + uj * uj + uk * uk == 1
        assert uk != 0 and (ui, uj) != (0, 0)
        err = np.linalg.norm(np.array(u) - [float(ui), float(uj), float(uk)])
        assert err < 2.0 / bound


@pytest.mark.parametrize("bound", [16, 40, 1000, 2**20, 2**40])
def test_rationalize_sphere_equals_the_fraction_oracle(bound):
    # the integer continued fractions give the Fraction path's exact point,
    # in lowest terms, on 10^4 random directions (unnormalized, and some
    # near the poles and the equator) and on the cone edges
    rng = np.random.default_rng(bound % 1000)
    us = rng.normal(size=(10_000, 3)) * rng.choice([1e-3, 1.0, 1e3], (10_000, 1))
    us[:1000, :2] *= 1e-6
    us[1000:2000, 2] *= 1e-6
    us = np.concatenate([us, np.array(CONE_EDGES, float)])
    rows = rationalize_sphere_direction(us, bound)
    assert len(rows) == len(us)
    for u, (*num, w) in zip(us, rows):
        assert w > 0 and gcd(*num, w) == 1
        assert tuple(Fraction(x, w) for x in num) == \
            oracles.rationalize_sphere_direction(u, bound)


def test_construction_closes_exactly():
    rng = np.random.default_rng(4)
    for data in (M, MP):
        target = sample_generic_state(data, rng)
        geo = construct_closed_geodesic(data, target, epsilon=0.1)
        assert in_gamma(data, geo.a_v, geo.a_z) and geo.in_gamma
        # rotation condition: tau * c_k and tau * |c| in 2 pi Z, exactly
        assert geo.rotation_exact
        # the element reproduces the initial velocity's kernel part: a_v / m
        # = r (0, 0, c) with r = sigma beta
        n2 = sum(x * x for x in geo.c)
        r = sum(a * x for a, x in zip(geo.a_v[2:], geo.c)) / (geo.m * n2)
        beta = float(r) / (2 * pi * geo.q / float(geo.norm_c))
        c = np.array([float(x) for x in geo.c])
        assert geo.state.V @ np.array([0, 0, *c]) / float(n2) == pytest.approx(
            beta, abs=1e-12
        )


def test_constructed_geodesic_flows_home():
    # flow for tau and compare with left translation by a
    rng = np.random.default_rng(5)
    data = M
    target = sample_generic_state(data, rng)
    target = TangentState(target.v, target.z, target.V, COMM_Z.copy())
    geo = construct_closed_geodesic(data, target, epsilon=0.45)
    s = geo.state
    end = flow_exact_state(data, s, geo.tau)
    av = np.array([float(x) for x in geo.a_v])
    az = np.array([float(x) for x in geo.a_z])
    want_v = av + s.v
    want_z = az + s.z + 0.5 * bracket_v_np(data.alg, av, s.v)
    assert np.max(np.abs(end.v - want_v)) < 1e-7
    assert np.max(np.abs(end.z - want_z)) < 1e-7
    assert np.max(np.abs(end.V - s.V)) < 1e-7
    assert np.max(np.abs(end.Z - s.Z)) < 1e-12


def test_closure_jacobian_equals_per_column_stencil(monkeypatch):
    # one batched flow over the 4 x 16 stencil points gives the columns of
    # the fourth-order stencil built one scalar flow at a time
    rng = np.random.default_rng(5)
    for data in (M, MP):
        target = sample_generic_state(data, rng)
        target = TangentState(target.v, target.z, target.V, COMM_Z.copy())
        geo = construct_closed_geodesic(data, target, epsilon=0.45)
        a = np.array([float(x) for x in geo.a_v + geo.a_z])
        x0, h = geo.state.flat(), 1e-4

        def F(flat):
            s = state_from_flat(data.alg, flat)
            end = flow_exact_state(data, s, geo.tau)
            t_z = end.z - s.z - 0.5 * bracket_v_np(data.alg, end.v, s.v)
            return np.concatenate([end.v - s.v - a[:5], t_z - a[5:],
                                   end.V - s.V])

        cols = []
        for i in range(x0.size):
            e = np.zeros(x0.size)
            e[i] = 1.0
            f1, f2, f3, f4 = (F(x0 + k * h * e) for k in (2, 1, -1, -2))
            cols.append((-f1 + 8.0 * f2 - 8.0 * f3 + f4) / (12.0 * h))

        calls = []

        def counting(*args):
            calls.append(args)
            return flow_exact_state(*args)

        monkeypatch.setattr(periodicity, "flow_exact_state", counting)
        steps = [1e-5, h, 1e-6]
        jac = closure_jacobian(data, geo, h)
        jacs = closure_jacobian(data, geo, steps)
        monkeypatch.undo()
        assert len(calls) == 2
        assert np.array_equal(jac, np.stack(cols, axis=1))
        # an array of steps flows all 3 x 4 x 16 points in one call, and
        # each Jacobian is bit for bit the one-step call's
        assert jacs.shape == (3, 13, 16)
        for k, step in enumerate(steps):
            assert np.array_equal(jacs[k], closure_jacobian(data, geo, step))


def test_construction_rejects_degenerate_targets():
    s = TangentState([0] * 5, [0] * 3, [1, 0, 0, 0, 0], [0.0, 0.0, 2.0])
    with pytest.raises(DegenerateFrequencyError):
        construct_closed_geodesic(M, s, epsilon=1e-9)
    s2 = TangentState([0] * 5, [0] * 3, [1, 0, 0, 0, 0], [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateFrequencyError):
        construct_closed_geodesic(M, s2, epsilon=1e-9)


def test_construction_error_surfaces():
    with pytest.raises((ConstructionError, DegenerateFrequencyError)):
        construct_closed_geodesic(
            M,
            TangentState([0] * 5, [0] * 3, [1, 0, 0, 0, 0], [0, 0, 0]),
            epsilon=0.1,
        )


ALONG_Y_C = TangentState([0] * 5, [0] * 3, [0, 0, 0, 0.6, 0.8],
                        [0, 3.0, 4.0])


def test_construction_work_is_bounded_when_v_lies_along_y_c(capsys):
    # V along Y_c leaves V_perp, hence t - sigma and the room for w1, at
    # their least: the grid keeps doubling past 4 / epsilon until the row is
    # within epsilon, each attempt straight-line work
    for epsilon in (5e-4, 5e-6):
        t0 = time.perf_counter()
        geo = construct_closed_geodesic(M, ALONG_Y_C, epsilon=epsilon)
        assert time.perf_counter() - t0 < 1.0
        assert geo.distance <= epsilon and geo.rotation_exact
        assert in_gamma(M, geo.a_v, geo.a_z)
    assert main(["closed-geodesic", "--epsilon", "5e-4",
                 "--target", format_state(ALONG_Y_C)]) == EXIT_PASS
    assert capsys.readouterr().err == ""


def test_construction_out_of_float_reach_is_a_construction_error(capsys):
    # at 1e-7 the grid runs past what the floats resolve before the row is
    # within epsilon: t - sigma no longer holds a grid step of w1, and the
    # construction stops there
    t0 = time.perf_counter()
    with pytest.raises(ConstructionError, match=r"epsilon=1e-07 .*grid") as exc:
        construct_closed_geodesic(M, ALONG_Y_C, epsilon=1e-7)
    assert time.perf_counter() - t0 < 1.0
    assert isinstance(exc.value.__cause__, OverflowError)
    assert "finer than the floats resolve t - sigma" in str(exc.value.__cause__)
    assert "1/(40000000 * 2^29)" in str(exc.value)
    assert main(["closed-geodesic", "--epsilon", "1e-7",
                 "--target", format_state(ALONG_Y_C)]) == EXIT_CONSTRUCTION
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("construction failure: ")


def test_run_periodicity_builds_one_jacobian_per_fd_step(monkeypatch):
    # the FD-step sweep 1e-4 / 1e-5 / 1e-6 on M and Mprime, one call (one
    # batched flow) per manifold, and the 1e-4 Jacobian reused by
    # invariant_fiber_codim on M
    steps = []

    def counting(data, geo, h=1e-4):
        steps.append((data.name, tuple(h)))
        return closure_jacobian(data, geo, h)

    monkeypatch.setattr(periodicity, "closure_jacobian", counting)
    monkeypatch.setattr(suites, "closure_jacobian", counting)
    report = suites.run_periodicity(42)
    assert steps == [(name, (1e-4, 1e-5, 1e-6)) for name in ("M", "Mprime")]
    assert report.passed


def test_run_periodicity_checks_each_closure_once(monkeypatch):
    # one batched construction call per manifold for each block: the six
    # translational targets, the 100 density targets and the family
    # target; the lattice multiple m is integer arithmetic, so no Fraction
    # solve is made
    calls = []

    def constructing(data, targets, **kwargs):
        calls.append((data.name, np.shape(targets.Z)))
        return construct_closed_geodesic(data, targets, **kwargs)

    def solving(*args):
        raise AssertionError("the construction made a Fraction solve")

    monkeypatch.setattr(linalg_exact, "solve", solving)
    monkeypatch.setattr(suites, "construct_closed_geodesic", constructing)
    assert suites.run_periodicity(42).passed
    assert calls == [(name, (k, 3)) for k in (3, 50, 1)
                     for name in ("M", "Mprime")]


def _nice(states):
    """The states with Z set to the suite's integer vectors in turn."""
    cs = suites._NICE_TARGET_CS
    Z = np.array([cs[i % len(cs)] for i in range(len(states.Z))], float)
    return TangentState(states.v, states.z, states.V, Z)


def _row(states, i):
    return TangentState(states.v[i], states.z[i], states.V[i], states.Z[i])


def _fields(geo):
    """Every ClosedGeodesic field, the state as its bytes."""
    return (geo.c, geo.norm_c, geo.p, geo.q, geo.m, geo.tau_over_pi,
            geo.a_v, geo.a_z, geo.state.flat().tobytes(), geo.distance)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([M, MP]),
       st.integers(1, 12), st.sampled_from([0.3, 0.45, 0.1]), st.booleans())
def test_batched_construction_equals_one_call_per_target(seed, data, n,
                                                         epsilon, nice):
    # with the suite's integer Z many rows miss the first grid 1/16 of
    # epsilon 0.3 and 0.45 and are retried at 1/32, 1/64, ...
    rng = np.random.default_rng(seed)
    targets = sample_generic_state(data, rng, n)
    if nice:
        targets = _nice(targets)
    geos = construct_closed_geodesic(data, targets, epsilon=epsilon)
    assert len(geos) == n
    lat_v, lat_z = manifold_lattices(data)
    for i, geo in enumerate(geos):
        one = construct_closed_geodesic(data, _row(targets, i),
                                        epsilon=epsilon)
        assert _fields(geo) == _fields(one)
        assert all(isinstance(x, Fraction) for x in geo.c + geo.a_v + geo.a_z)
        # the integer lattice multiple against the Fraction coordinates
        coords = (lattice_coordinates(lat_v, [x / geo.m for x in geo.a_v])
                  + lattice_coordinates(lat_z, [x / geo.m for x in geo.a_z]))
        assert geo.m == lcm(*(x.denominator for x in coords))
    # a degenerate row anywhere in the batch is named
    bad = int(rng.integers(n))
    Z = targets.Z.copy()
    Z[bad] = (0.0, 0.0, 2.0) if seed % 2 else (1.0, -1.0, 0.0)
    with pytest.raises(DegenerateFrequencyError, match=f"row {bad}: "):
        construct_closed_geodesic(
            data, TangentState(targets.v, targets.z, targets.V, Z),
            epsilon=epsilon)


def test_empty_batch_constructs_nothing():
    targets = sample_generic_state(M, np.random.default_rng(0), 0)
    assert construct_closed_geodesic(M, targets, epsilon=0.1) == []
    with pytest.raises(ValueError, match="epsilon must be positive"):
        construct_closed_geodesic(M, targets, epsilon=0.0)


def test_batched_construction_retries_the_missing_rows():
    # rows that miss epsilon go again as one sub-batch at double the bound;
    # epsilon = 0.45 starts every row at max(16, ceil(4 / epsilon)) = 16,
    # which about half of the suite's integer-Z targets miss
    targets = _nice(sample_generic_state(M, np.random.default_rng(0), 40))
    with mock.patch.object(periodicity, "_construct_once",
                           wraps=periodicity._construct_once) as spy:
        geos = construct_closed_geodesic(M, targets, epsilon=0.45)
    attempts = [(len(call.args[1].Z), call.args[3])
                for call in spy.call_args_list]
    assert len(attempts) >= 2
    assert [b for _, b in attempts] == [16 << k for k in range(len(attempts))]
    sizes = [k for k, _ in attempts]
    assert sizes[0] == 40 and sizes == sorted(sizes, reverse=True)
    assert all(geo.distance <= 0.45 for geo in geos)


@pytest.mark.parametrize("epsilon", [1e20, 1e300])
@pytest.mark.parametrize("kind", ["sampled", "along_y_c"])
def test_huge_epsilon_keeps_the_state_near_the_target(kind, epsilon):
    # the floor on r is capped at the target's size, so an epsilon far past
    # it gives the state of epsilon = |(V, Z)| and no overflow
    if kind == "sampled":
        target = sample_generic_state(M, np.random.default_rng(1))
    else:
        target = TangentState([0] * 5, [0] * 3, [0, 0, 0, 0.6, 0.8],
                              [0, 3.0, 4.0])
    size = np.sqrt(target.speed2)
    geo = construct_closed_geodesic(M, target, epsilon=epsilon)
    assert geo.distance < 0.5 * size and geo.rotation_exact
    capped = construct_closed_geodesic(M, target, epsilon=size)
    assert _fields(geo) == _fields(capped)


@pytest.mark.parametrize("seed", [16, 1770871321])
def test_run_periodicity_passes_where_v_was_pinned_wrong(seed):
    # at these seeds the family-dimension target has V almost orthogonal to
    # Y_c: a kernel coefficient r of one grid unit would give the pinned
    # base point v an O(1) error
    assert suites.run_periodicity(seed).passed


def _perp_target(data, seed, kind):
    """A generic target whose V has no Y_c part at the target's Z: Z one of
    the suite's nice integer vectors or a generic draw."""
    rng = np.random.default_rng(seed)
    s = sample_generic_state(data, rng)
    Z = s.Z if kind == "generic" else np.array(suites._NICE_TARGET_CS[kind])
    y_c = eigenframe(data, Z).rows[4]
    V = s.V - (s.V @ y_c) / (y_c @ y_c) * y_c
    return TangentState(s.v, s.z, V, Z)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([M, MP]),
       st.sampled_from([(0, 0.45), (1, 0.45), (2, 0.45),
                        ("generic", 0.1), ("generic", 0.05)]))
def test_construction_at_v_perp_to_y_c(seed, data, case):
    kind, epsilon = case
    target = _perp_target(data, seed, kind)
    geo = construct_closed_geodesic(data, target, epsilon=epsilon)
    assert geo.distance <= epsilon
    assert geo.rotation_exact
    assert in_gamma(data, geo.a_v, geo.a_z)


def _is_prime(n):
    """Miller-Rabin on the prime bases up to 41, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    """The set of primes dividing n < 3.3e24, by Pollard's rho."""
    primes, todo = set(), [n]
    while todo:
        k = todo.pop()
        if k == 1:
            continue
        if _is_prime(k):
            primes.add(k)
            continue
        d = 2 if k % 2 == 0 else k
        c = 1
        while d == k:
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % k
                y = (y * y + c) % k
                y = (y * y + c) % k
                d = gcd(x - y, k)
            c += 1
        todo += [d, k // d]
    return primes


def test_lattice_multiple_is_minimal():
    # a = m e is in Gamma for the element e and, for each prime p dividing
    # m, a / p = (m / p) e is not
    rng = np.random.default_rng(6)
    for data in (M, MP):
        targets = [sample_generic_state(data, rng) for _ in range(10)]
        geos = [construct_closed_geodesic(data, t, epsilon=0.1)
                for t in targets]
        geos += suites._nice_geodesics(data, rng, suites._NICE_TARGET_CS)
        for geo in geos:
            assert in_gamma(data, geo.a_v, geo.a_z) and geo.in_gamma
            assert geo.m < 3 * 10**24
            for p in _prime_factors(geo.m):
                a_v = tuple(x / p for x in geo.a_v)
                a_z = tuple(x / p for x in geo.a_z)
                assert not in_gamma(data, a_v, a_z)
                assert not replace(geo, a_v=a_v, a_z=a_z).in_gamma
