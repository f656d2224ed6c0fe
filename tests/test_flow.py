"""Geodesic flow: eigenframes, closed-form propagation, RK4 cross-checks."""

import math
from math import pi, sqrt

import numpy as np
import pytest

from nilflow import flow
from nilflow.catalog import build_deformation, build_pair, get_manifold
from nilflow.flow import (
    DegenerateFrequencyError,
    TangentState,
    _moments,
    default_steps,
    draw_rows,
    eigenframe,
    flow_exact_state,
    flow_exact_vV,
    flow_rk4,
    flow_rk4_many,
    sample_generic_state,
    state_from_flat,
)
from nilflow.lie_core import j_matrix_np
import oracles
from oracles import flow_exact_quadrature, rk4_loop

M, MP = build_pair()


def test_eigenframe_example_M():
    fr = eigenframe(M, [1.0, 0.0, 1.0])
    u1, u2 = fr.basis[:2]
    assert np.allclose(u1, [1, 0, 0, 0, 0])
    assert np.allclose(u2, [0, 0, 0, 1, 0])
    assert fr.theta[0] == pytest.approx(1.0)
    assert fr.theta[1] == pytest.approx(sqrt(2.0))
    assert np.allclose(fr.basis[4], np.array([0, 0, 1, 0, 1]) / sqrt(2.0))


def test_eigenframe_degenerate_raises():
    with pytest.raises(DegenerateFrequencyError):
        eigenframe(M, [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateFrequencyError):
        eigenframe(MP, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="defo"):
        eigenframe(build_deformation(0.5), [1.0, 1.0])


def test_frame_relations_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        Z = rng.uniform(-2, 2, size=3)
        if abs(Z[2]) < 0.1 or np.hypot(Z[0], Z[1]) < 0.1:
            continue
        for data in (M, MP):
            jm = j_matrix_np(data.alg, Z)
            fr = eigenframe(data, Z)
            u = fr.basis
            for (ua, ub), theta in zip((u[0:2], u[2:4]), fr.theta):
                assert np.allclose(jm @ ua, theta * ub, atol=1e-12)
                assert np.allclose(jm @ ub, -theta * ua, atol=1e-12)
            assert np.allclose(jm @ u[4], 0.0, atol=1e-12)
            # orthonormality of the five frame vectors
            assert np.allclose(u @ u.T, np.eye(5), atol=1e-12)


def test_rotate_matches_expm():
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    for data in (M, MP):
        Z = np.array([0.7, -0.3, 1.1])
        jm = j_matrix_np(data.alg, Z)
        fr = eigenframe(data, Z)
        ts = np.array([0.3, 2.0, -5.0])
        V = rng.uniform(-1, 1, size=5)
        many = fr.rotate(V, ts)
        assert many.shape == (3, 5)
        for t, row in zip(ts, many):
            assert np.allclose(fr.rotate(V, t), expm(t * jm) @ V, atol=1e-10)
            assert np.allclose(row, fr.rotate(V, t), rtol=0, atol=1e-14)


def test_integrate_rotation_is_antiderivative():
    fr = eigenframe(M, [0.5, 0.2, 1.3])
    V = np.array([0.3, -0.8, 0.2, 0.9, -0.4])
    h = 1e-6
    t = 1.7
    deriv = (fr.integrate(V, t + h) - fr.integrate(V, t - h)) / (2 * h)
    assert np.allclose(deriv, fr.rotate(V, t), atol=1e-8)
    assert np.allclose(fr.integrate(V, 0.0), 0.0)
    assert fr.integrate(V, np.array([[t]])).shape == (1, 1, 5)


def test_exact_vs_rk4_short():
    rng = np.random.default_rng(9)
    for data in (M, MP):
        s = sample_generic_state(data, rng)
        end = flow_rk4(data.alg, s, 1.0, 2000)
        fr = eigenframe(data, s.Z)
        v_e, V_e = flow_exact_vV(fr, s.v, s.V, 1.0)
        assert np.max(np.abs(end.v - v_e)) < 1e-9
        assert np.max(np.abs(end.V - V_e)) < 1e-9
        # the closed-form z agrees with RK4 too
        full = flow_exact_state(data, s, 1.0)
        assert np.max(np.abs(end.z - full.z)) < 1e-9


# theta_1 = c_k and theta_2 = |c|: nearly equal on the first Z, nearly
# opposite on the second
NEAR_DEGENERATE_Z = ([1e-7, 0.0, 0.7], [1e-4, 2e-5, -1.3])


@pytest.mark.parametrize("data", [M, MP], ids=["M", "Mprime"])
@pytest.mark.parametrize("t", [0.0, 1e-6, 1.0, 50.0, 128 * pi, 1e4, -50.0])
def test_closed_form_z_matches_quadrature(data, t):
    rng = np.random.default_rng(31)
    generic = [sample_generic_state(data, rng) for _ in range(3)]
    near = [TangentState(s.v, s.z, s.V, np.array(Z))
            for s, Z in zip(generic, NEAR_DEGENERATE_Z)]
    for s in generic + near:
        got = flow_exact_state(data, s, t)
        want = flow_exact_quadrature(data, s, t)
        bound = 1e-10 * max(1.0, float(np.max(np.abs(want.z))))
        assert np.max(np.abs(got.z - want.z)) <= bound, s.Z
        assert np.array_equal(got.v, want.v) and np.array_equal(got.V, want.V)
        assert np.array_equal(got.Z, s.Z)


@pytest.mark.parametrize("data", [M, MP], ids=["M", "Mprime"])
@pytest.mark.parametrize("t", [0.7, 1e3])
def test_batched_frame_and_flow_equal_per_state_calls(data, t):
    rng = np.random.default_rng(37)
    states = [sample_generic_state(data, rng) for _ in range(50)]
    batch = state_from_flat(data.alg, np.stack([s.flat() for s in states]))
    frame = eigenframe(data, batch.Z)
    assert frame.basis.shape == (50, 5, 5) and frame.theta.shape == (50, 2)
    v_b, V_b = flow_exact_vV(frame, batch.v, batch.V, t)
    end = flow_exact_state(data, batch, t)
    for i, s in enumerate(states):
        fr = eigenframe(data, s.Z)
        assert np.array_equal(frame.basis[i], fr.basis)
        assert np.array_equal(frame.theta[i], fr.theta)
        v_e, V_e = flow_exact_vV(fr, s.v, s.V, t)
        assert np.array_equal(v_b[i], v_e) and np.array_equal(V_b[i], V_e)
        one = flow_exact_state(data, s, t)
        assert np.array_equal(end.flat()[i], one.flat())
    # t broadcasts against the batch axes
    ts = np.array([0.5, t])
    v_t, V_t = flow_exact_vV(eigenframe(data, batch.Z[:, None]),
                             batch.v[:, None], batch.V[:, None], ts)
    assert v_t.shape == V_t.shape == (50, 2, 5)
    assert np.array_equal(V_t[:, 1], V_b) and np.array_equal(v_t[:, 1], v_b)


def test_batched_eigenframe_names_first_degenerate_Z():
    Zs = np.array([[0.5, 0.2, 1.3], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(DegenerateFrequencyError, match=r"Z=\[0\.0, 0\.0, 1\.0\]"):
        eigenframe(M, Zs)


@pytest.mark.parametrize("data", [M, MP], ids=["M", "Mprime"])
def test_sampler_draws_as_a_rejection_on_the_eigenframe(data):
    # the states and the RNG stream are those of a rejection on the
    # components
    def reference(rng, min_comp=0.05):
        while True:
            Z = rng.uniform(-2.0, 2.0, size=3)
            V = rng.uniform(-1.0, 1.0, size=5)
            v = rng.uniform(-1.0, 1.0, size=5)
            z = rng.uniform(-1.0, 1.0, size=3)
            if not oracles.generic_z(Z):
                continue
            if np.min(np.abs(eigenframe(data, Z).components(V))) < min_comp:
                continue
            return TangentState(v, z, V, Z)

    got_rng, want_rng = np.random.default_rng(41), np.random.default_rng(41)
    got = sample_generic_state(data, got_rng, 500)
    want = [reference(want_rng) for _ in range(500)]
    assert np.array_equal(got.flat(), np.stack([w.flat() for w in want]))
    assert got_rng.random() == want_rng.random()


def test_generic_Z_mask_matches_the_scalar_rule():
    # np.hypot and math.hypot round these (c_i, c_j) to opposite sides of
    # min_gap = 0.1; the gap test decides such rows, so the mask still
    # agrees with the scalar rule
    gap = [(float.fromhex(a), float.fromhex(b)) for a, b in (
        ("0x1.4f1a33972fda0p-4", "0x1.d713eb3408700p-5"),
        ("0x1.71b7942559c80p-6", "0x1.8f08fa7f8caa0p-4"),
        ("0x1.77ac493b78180p-5", "0x1.6bfdc0d08a0a0p-4"),
    )]
    assert all((np.hypot(a, b) < 0.1) != (math.hypot(a, b) < 0.1) for a, b in gap)
    rows = np.concatenate([
        np.array([[a, b, 1.0] for a, b in gap]),
        np.random.default_rng(8).uniform(-2.0, 2.0, size=(2000, 3)),
    ])
    assert flow._generic_Z(rows).tolist() == [oracles.generic_z(r) for r in rows]


def _replay_cases():
    for data in (M, MP):
        for bits in (np.random.Philox, np.random.PCG64):
            for seed in (16, 42, 1770871321):
                for n in (None, 1, 2, 100, 1000):
                    yield pytest.param(
                        data, bits, seed, n,
                        id=f"{data.name}-{bits.__name__}-{seed}-{n}")


@pytest.mark.parametrize("data,bits,seed,n", list(_replay_cases()))
def test_batched_sampler_replays_the_per_state_stream(data, bits, seed, n):
    got_rng = np.random.Generator(bits(seed))
    want_rng = np.random.Generator(bits(seed))
    got = sample_generic_state(data, got_rng, n)
    want = [oracles.sample_generic_state(data, want_rng)
            for _ in range(1 if n is None else n)]
    for field in "vzVZ":
        rows = np.stack([getattr(w, field) for w in want])
        assert np.array_equal(getattr(got, field), rows[0] if n is None else rows)
    assert np.array_equal(got_rng.random(4), want_rng.random(4))


@pytest.mark.parametrize("index", [False, True], ids=["mask", "index"])
def test_draw_rows_reads_a_prefix_of_the_stream(index):
    # from draw(0), one draw of n rows, then draws of exactly the rows still
    # missing; keep may return a mask or an index array
    sizes, stream = [], np.arange(100)[:, None]

    def draw(k):
        start = sum(sizes)
        sizes.append(k)
        return stream[start:start + k]

    def keep(block):
        mask = block[:, 0] % 3 != 0
        return np.flatnonzero(mask) if index else mask

    rows = draw_rows(10, draw, keep)
    assert rows[:, 0].tolist() == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]
    assert sizes == [0, 10, 4, 1]


def test_sampler_rejects_a_negative_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"\bn\b.*-1"):
        sample_generic_state(M, rng, -1)
    empty = sample_generic_state(M, rng, 0)
    assert empty.V.shape == (0, 5) and empty.Z.shape == (0, 3)
    assert np.array_equal(rng.random(4), np.random.default_rng(0).random(4))


@pytest.mark.parametrize("data", [M, MP], ids=["M", "Mprime"])
def test_sampler_builds_frames_only_for_rows_it_may_keep(data, monkeypatch):
    # a frame is built only for a candidate row whose Z passes, and about
    # 0.7 of the rows that reach the V test are kept
    built, frame = [], flow.eigenframe

    def counting(data, Z):
        built.append(len(Z))
        return frame(data, Z)

    monkeypatch.setattr(flow, "eigenframe", counting)
    sample_generic_state(data, np.random.default_rng(42), 1000)
    assert sum(built) <= 1.5 * 1000


def test_speed2_is_batched():
    states = sample_generic_state(M, np.random.default_rng(3), 50)
    speed2 = states.speed2
    assert speed2.shape == (50,)
    for i in range(50):
        one = TangentState(states.v[i], states.z[i], states.V[i], states.Z[i])
        assert isinstance(one.speed2, float)
        assert one.speed2 == speed2[i] == float(
            states.V[i] @ states.V[i] + states.Z[i] @ states.Z[i])


def test_moments_across_the_series_switch():
    # E_k(x) = int_0^1 u^k e^{ixu} du against 40-node Gauss-Legendre, on
    # both sides of |x| = 1 where the Taylor series hands over
    xs = np.array([0.0, 1e-9, -0.3, 1.0 - 1e-12, -1.0, 1.0 + 1e-12, 2.5, -40.0])
    u, w = np.polynomial.legendre.leggauss(40)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    phase = np.exp(1j * np.multiply.outer(xs, u))
    e0, e1 = _moments(xs)
    assert np.max(np.abs(e0 - phase @ w)) < 1e-14
    assert np.max(np.abs(e1 - phase @ (u * w))) < 1e-14


def test_rk4_is_fourth_order():
    rng = np.random.default_rng(13)
    s = sample_generic_state(M, rng)
    fr = eigenframe(M, s.Z)
    v_true, V_true = flow_exact_vV(fr, s.v, s.V, 1.0)

    def err(steps):
        end = flow_rk4(M.alg, s, 1.0, steps)
        return np.max(np.abs(end.V - V_true))

    ratio = err(20) / err(40)
    assert 11.0 < ratio < 21.0  # ~2^4 for a fourth-order method


def test_flow_conserves_speed_and_Z():
    rng = np.random.default_rng(17)
    for data in (M, MP):
        s = sample_generic_state(data, rng)
        end = flow_rk4(data.alg, s, 3.0, 3000)
        assert end.speed2 == pytest.approx(s.speed2, abs=1e-9)
        assert np.allclose(end.Z, s.Z, atol=1e-12)
        assert np.linalg.norm(end.V) == pytest.approx(
            np.linalg.norm(s.V), abs=1e-9
        )


def test_straight_line_when_Z_zero():
    s = TangentState([0] * 5, [0] * 3, [1, 0, 0, 0, 0], [0, 0, 0])
    end = flow_rk4(M.alg, s, 1.0, 1000)
    assert np.allclose(end.v, [1, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(end.z, 0.0, atol=1e-12)


@pytest.mark.parametrize("selector", ["M", "Mprime", "defo:2/5"])
@pytest.mark.parametrize("t", [1.7, -2.3])
def test_rk4_recurrence_matches_step_loop(selector, t):
    # the closed recurrence is the same discrete scheme as the stage-by-stage
    # loop: odd and even bit patterns of N, single and batched, either sign
    alg = get_manifold(selector).alg
    dv, dz = alg.dim_v, alg.dim_z
    rng = np.random.default_rng(29)
    flats = np.concatenate([
        rng.uniform(-1.0, 1.0, size=(4, 2 * dv + dz)),
        rng.uniform(-2.0, 2.0, size=(4, dz)),
    ], axis=1)
    cut = np.cumsum([dv, dz, dv])
    for steps in (1, 2, 3, 7, 64, 1000, 1023):
        loop = np.concatenate(
            rk4_loop(alg, *np.split(flats, cut, axis=1), t, steps), axis=1)
        tol = 1e-12 * np.max(np.abs(loop))
        batched = flow_rk4_many(alg, flats, t, steps)
        assert np.max(np.abs(batched - loop)) <= tol, steps
        single = flow_rk4(alg, state_from_flat(alg, flats[0]), t, steps)
        assert np.max(np.abs(single.flat() - loop[0])) <= tol, steps
    with pytest.raises(ValueError, match="at least one step"):
        flow_rk4_many(alg, flats, t, 0)


def test_flow_rk4_many_matches_single():
    rng = np.random.default_rng(19)
    states = [sample_generic_state(M, rng) for _ in range(5)]
    flats = np.stack([s.flat() for s in states])
    ends = flow_rk4_many(M.alg, flats, 0.5, 500)
    for s, row in zip(states, ends):
        single = flow_rk4(M.alg, s, 0.5, 500)
        assert np.allclose(row, single.flat(), atol=1e-13)


def test_state_from_flat_roundtrip():
    rng = np.random.default_rng(23)
    s = sample_generic_state(MP, rng)
    t = state_from_flat(MP.alg, s.flat())
    assert np.array_equal(t.v, s.v) and np.array_equal(t.Z, s.Z)
    with pytest.raises(ValueError):
        state_from_flat(MP.alg, np.zeros(7))


def test_plane_and_kernel_parts_reconstruct():
    # V = V_ck + V_abs + V_0 along the planes and the kernel, and the
    # coefficients in the printed (unnormalized) frame rebuild each part
    rng = np.random.default_rng(31)
    for data in (M, MP):
        s = sample_generic_state(data, rng)
        fr = eigenframe(data, s.Z)
        parts = fr.plane_part(s.V, 0), fr.plane_part(s.V, 1), fr.kernel_part(s.V)
        assert np.allclose(sum(parts), s.V, atol=1e-12)
        ci, cj, ck = s.Z
        rho2 = ci * ci + cj * cj
        n2 = rho2 + ck * ck
        e4 = np.array([0, 0, ck * ci, ck * cj, -rho2])
        if data is M:
            e1 = np.array([ci, cj, 0, 0, 0])
            e2 = np.array([0, 0, -cj, ci, 0])
            e3 = sqrt(n2) * np.array([cj, -ci, 0, 0, 0])
        else:
            e1 = np.array([1.0, 0, 0, 0, 0])
            e2 = np.array([0, 1.0, 0, 0, 0])
            e3 = sqrt(n2) * np.array([0, 0, cj, -ci, 0])
        a = fr.printed_coefficients(s.V)
        assert np.allclose(a[0] * e1 + a[1] * e2, parts[0], atol=1e-12)
        assert np.allclose(a[2] * e3 + a[3] * e4, parts[1], atol=1e-12)
        assert np.allclose(a[4] * np.array([0, 0, ci, cj, ck]), parts[2],
                           atol=1e-12)


@pytest.mark.parametrize("data", [M, MP], ids=["M", "Mprime"])
def test_j_inverse_planar_inverts_j_off_the_kernel(data):
    # j(Z) j^{-1}(V) = V less its kernel part, and a batched call equals
    # the one-state calls row by row
    rng = np.random.default_rng(41)
    batch = sample_generic_state(data, rng, 40)
    frame = eigenframe(data, batch.Z)
    inv = frame.j_inverse_planar(batch.V)
    lhs = (j_matrix_np(data.alg, batch.Z) @ inv[..., None])[..., 0]
    rhs = batch.V - frame.kernel_part(batch.V)
    err = np.max(np.abs(lhs - rhs), axis=-1)
    assert np.all(err <= 1e-12 * np.max(np.abs(batch.V), axis=-1))
    for i in range(len(batch.Z)):
        one = eigenframe(data, batch.Z[i]).j_inverse_planar(batch.V[i])
        assert np.array_equal(inv[i], one)


def test_default_steps():
    assert default_steps(2.5) == 2500
    assert default_steps(0.0) == 1
    assert default_steps(-1.0) == 1000
