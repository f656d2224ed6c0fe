"""Translational elements and the exact closed-geodesic construction."""

from fractions import Fraction
from math import pi

import numpy as np
import pytest

from nilflow.catalog import build_pair
from nilflow.flow import (
    DegenerateFrequencyError,
    TangentState,
    eigenframe,
    flow_exact_state,
    sample_generic_state,
    state_from_flat,
)
from nilflow import linalg_exact, periodicity, suites
from nilflow.lie_core import bracket_v_np, lattice_contains
from nilflow.periodicity import (
    ConstructionError,
    closure_jacobian,
    construct_closed_geodesic,
    rationalize_sphere_direction,
    translational_element,
    translational_element_expanded,
)
from oracles import GroupElement, group_mul

M, MP = build_pair()

# Z = (3, 0, 4): |c| = 5, c_k/|c| = 4/5, so sigma = 2 pi q / |c| = 2 pi
COMM_Z = np.array([3.0, 0.0, 4.0])
SIGMA = 2.0 * pi


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


def test_rationalize_sphere_example():
    ui, uj, uk = rationalize_sphere_direction(np.array([0.6, 0.0, 0.8]), 64)
    assert (ui, uj, uk) == (Fraction(3, 5), 0, Fraction(4, 5))


def test_rationalize_sphere_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ui, uj, uk = rationalize_sphere_direction(u, 256)
        assert ui * ui + uj * uj + uk * uk == 1  # exact unit
        err = np.linalg.norm(u - np.array([float(ui), float(uj), float(uk)]))
        assert err < 0.05


def test_construction_closes_exactly():
    rng = np.random.default_rng(4)
    for data in (M, MP):
        target = sample_generic_state(data, rng)
        geo = construct_closed_geodesic(data, target, epsilon=0.1)
        assert lattice_contains(data.lattice_v, geo.a_v)
        assert lattice_contains(data.lattice_z, geo.a_z)
        # rotation condition: tau * c_k and tau * |c| in 2 pi Z, exactly
        assert geo.rotation_exact
        # the defining data reproduce the initial velocity's kernel part
        beta = float(geo.r) / (pi * float(geo.sigma_over_pi))
        c = np.array([float(x) for x in geo.c])
        n2 = float(c @ c)
        assert geo.state.V @ np.array([0, 0, *c]) / n2 == pytest.approx(
            beta, abs=1e-12
        )


def test_constructed_geodesic_flows_home():
    # flow for tau and compare with left translation by a
    rng = np.random.default_rng(5)
    data = M
    target = sample_generic_state(data, rng)
    target = TangentState(target.v, target.z, target.V, COMM_Z.copy())
    geo = construct_closed_geodesic(
        data, target, epsilon=0.45, bound=64, grid=64,
    )
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
        geo = construct_closed_geodesic(data, target, epsilon=0.45, bound=64,
                                        grid=64)
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
        jac = closure_jacobian(data, geo, h)
        monkeypatch.undo()
        assert len(calls) == 1
        assert np.array_equal(jac, np.stack(cols, axis=1))


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


def test_run_periodicity_builds_one_jacobian_per_fd_step(monkeypatch):
    # the FD-step sweep 1e-4 / 1e-5 / 1e-6 on M and Mprime, and the 1e-4
    # Jacobian reused by invariant_fiber_codim on M
    steps = []

    def counting(data, geo, h=1e-4):
        steps.append((data.name, h))
        return closure_jacobian(data, geo, h)

    monkeypatch.setattr(periodicity, "closure_jacobian", counting)
    monkeypatch.setattr(suites, "closure_jacobian", counting)
    report = suites.run_periodicity(42)
    assert sorted(steps) == sorted(
        (name, h) for name in ("M", "Mprime") for h in (1e-4, 1e-5, 1e-6)
    )
    assert report.passed


def test_run_periodicity_checks_each_closure_once(monkeypatch):
    # one exact membership solve for a_v and one for a_z per geodesic,
    # inside the construction; the suite reads its result
    geodesics, solved = [], []
    solve = linalg_exact.solve

    def constructing(*args, **kwargs):
        geodesics.append(construct_closed_geodesic(*args, **kwargs))
        return geodesics[-1]

    def solving(a, b):
        solved.append(tuple(b))
        return solve(a, b)

    monkeypatch.setattr(linalg_exact, "solve", solving)
    monkeypatch.setattr(suites, "construct_closed_geodesic", constructing)
    assert suites.run_periodicity(42).passed
    assert len(geodesics) == 108
    assert solved == [a for g in geodesics for a in (g.a_v, g.a_z)]
