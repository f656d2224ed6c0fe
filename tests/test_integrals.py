"""The eight integrals: values, gradients, Hamiltonian calculus."""

import numpy as np
import pytest

from nilflow import integrals, suites
from nilflow.catalog import build_pair
from nilflow.flow import TangentState, eigenframe, sample_generic_state, state_from_flat
from nilflow.integrals import (
    INTEGRAL_NAMES,
    evaluate_integrals,
    hamiltonian_field,
    independence_rank,
    left_gradients_all,
    phi,
    poisson_matrix,
)
from nilflow.lie_core import j_matrix_np
from oracles import c_matrix, independence_rank_svd

M, MP = build_pair()


def test_phi_flat_at_zero():
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(np.exp(-1.0))
    assert phi(np.array([0.0, 2.0]))[0] == 0.0
    # derivative flatness: phi(h)/h^k -> 0 for any k
    assert phi(1e-3) / 1e-3 ** 8 < 1e-300 or phi(1e-3) == 0.0


def test_c_matrix_inverts_j_restricted():
    # C(Z) . (x -> y part of j) = Id on the x-coordinates
    rng = np.random.default_rng(2)
    for _ in range(50):
        Z = rng.uniform(-2, 2, size=3)
        if abs(Z[2]) < 0.2 or np.hypot(Z[0], Z[1]) < 0.2:
            continue
        jm = j_matrix_np(M.alg, Z)
        jxy = jm[2:5, 0:2]  # X-columns, Y-rows: j maps x into y on M
        assert np.allclose(c_matrix(Z) @ jxy, np.eye(2), atol=1e-12)
        # f_i, f_j in evaluate_integrals apply the same map inline
        v, V = rng.uniform(-1, 1, size=5), rng.uniform(-1, 1, size=5)
        vals = evaluate_integrals(TangentState(v, np.zeros(3), V, Z))
        bump = phi(Z[2] * float(Z @ Z))
        want = bump * np.sin(2 * np.pi * (v[:2] - c_matrix(Z) @ V[2:]))
        assert np.allclose(vals[6:], want, atol=1e-12)


def test_c_matrix_at_ek():
    cm = c_matrix([0.0, 0.0, 1.0])
    # Y_j -> X_i and Y_i -> -X_j
    assert np.allclose(cm, [[0, 1, 0], [-1, 0, 0]])
    with pytest.raises(ZeroDivisionError):
        c_matrix([1.0, 1.0, 0.0])


def test_zero_branch_on_degenerate_cone():
    s = TangentState([0.3] * 5, [0] * 3, [1, 0.5, 0.2, 0.1, 0.4], [1.0, 0.5, 0.0])
    vals = evaluate_integrals(s)
    assert vals[6] == 0.0 and vals[7] == 0.0
    assert np.all(np.isfinite(vals))
    assert phi(s.Z[2] * float(s.Z @ s.Z)) == 0.0


def test_quadratic_integral_values():
    rng = np.random.default_rng(4)
    s = sample_generic_state(M, rng)
    vals = evaluate_integrals(s)
    assert np.allclose(vals[:3], s.Z, atol=1e-15)
    ci, cj, ck = s.Z
    k_expected = ci * s.V[2] + cj * s.V[3] + ck * s.V[4]
    assert vals[5] == pytest.approx(k_expected, abs=1e-14)
    # h1 + h2/|c|^2-weighted pieces recover |V_perp|^2: check via frames
    fr = eigenframe(M, s.Z)
    v_ck, v_abs = fr.plane_part(s.V, 0), fr.plane_part(s.V, 1)
    rho2 = ci * ci + cj * cj
    n2 = rho2 + ck * ck
    assert vals[3] == pytest.approx(rho2 * float(v_ck @ v_ck), rel=1e-10)
    assert vals[4] == pytest.approx(rho2 * n2 * float(v_abs @ v_abs), rel=1e-10)


def test_q_gradient_exact_structure():
    rng = np.random.default_rng(6)
    s = sample_generic_state(M, rng)
    B, A = left_gradients_all(M.alg, s)
    # q_i = <Z, Z_i>: no base dependence, fiber gradient = Z_i slot
    assert np.allclose(B[0], 0.0, atol=1e-9)
    want = np.zeros(8)
    want[5] = 1.0
    assert np.allclose(A[0], want, atol=1e-9)
    # k = <V, Y_c>: fiber v-part is Y_c, fiber z-part is (V_2, V_3, V_4)
    yc = np.array([0, 0, s.Z[0], s.Z[1], s.Z[2]])
    assert np.allclose(A[5][:5], yc, atol=1e-8)
    assert np.allclose(A[5][5:], s.V[2:], atol=1e-8)


def test_h1_gradient_analytic():
    rng = np.random.default_rng(8)
    s = sample_generic_state(M, rng)
    ci, cj, ck = s.Z
    e1 = np.array([ci, cj, 0, 0, 0])
    e2 = np.array([0, 0, -cj, ci, 0])
    _, A = left_gradients_all(M.alg, s)
    want = 2 * float(s.V @ e1) * e1 + 2 * float(s.V @ e2) * e2
    assert np.allclose(A[3][:5], want, atol=1e-7)


def test_closed_form_gradients_match_the_fd_stencil():
    rng = np.random.default_rng(24)
    s = sample_generic_state(M, rng, 1000)
    fd = np.concatenate(left_gradients_all(M.alg, s, evaluate_integrals), -1)
    gap = np.concatenate(left_gradients_all(M.alg, s), -1) - fd
    rel = np.linalg.norm(gap, axis=-1) / np.linalg.norm(fd, axis=-1)
    assert np.max(rel) <= suites.GRADIENT_TOL


def test_closed_form_f_rows_vanish_at_ck_zero():
    rng = np.random.default_rng(26)
    s = sample_generic_state(M, rng, 100)
    s.Z[:, 2] = 0.0
    B, A = left_gradients_all(M.alg, s)
    assert np.all(B[:, 6:] == 0.0) and np.all(A[:, 6:] == 0.0)
    assert np.any(A[:, :6] != 0.0)


def test_closed_form_gradients_at_z_zero_equal_the_fd_stencil():
    # at c = 0 the h2 row's c e_2 / n2 is 0 / 0; h2 = O(|c|^4), so the
    # true gradient there is 0
    rng = np.random.default_rng(30)
    s = sample_generic_state(M, rng, 100)
    s.Z[:] = 0.0
    with np.errstate(invalid="raise", divide="raise"):
        closed = np.concatenate(left_gradients_all(M.alg, s), -1)
    fd = np.concatenate(left_gradients_all(M.alg, s, evaluate_integrals), -1)
    assert np.isfinite(closed).all()
    assert np.max(np.abs(closed - fd)) <= 1e-9


def test_closed_form_brackets_vanish_bilinearly():
    # {F_a, F_b} = B_a . base_b + A_a . fiber_b on the Hamiltonian fields,
    # with no finite difference anywhere
    rng = np.random.default_rng(28)
    s = sample_generic_state(M, rng, 1000)
    B, A = left_gradients_all(M.alg, s)
    base, fiber = hamiltonian_field(M.alg, s, B, A)
    br = B @ np.swapaxes(base, -1, -2) + A @ np.swapaxes(fiber, -1, -2)
    assert np.max(np.abs(br)) <= 1e-10
    assert np.max(np.abs(br + np.swapaxes(br, -1, -2))) <= 1e-10


def test_energy_field_is_geodesic_field():
    rng = np.random.default_rng(10)
    s = sample_generic_state(M, rng)

    def energy(st):
        speed2 = np.sum(st.V * st.V, -1) + np.sum(st.Z * st.Z, -1)
        return 0.5 * speed2[..., None]

    B, A = left_gradients_all(M.alg, s, fn=energy)
    base, fiber = hamiltonian_field(M.alg, s, B, A)
    # the geodesic equations: v' = V, V' = j(Z) V, Z' = 0
    assert np.allclose(base[0, :5], s.V, atol=1e-10)
    # base z-velocity in the left-invariant frame is Z (the [v,V]/2 term is
    # the coordinate correction applied when moving the base point)
    assert np.allclose(base[0, 5:], s.Z, atol=1e-10)
    assert np.allclose(fiber[0, :5], j_matrix_np(M.alg, s.Z) @ s.V, atol=1e-10)
    assert np.allclose(fiber[0, 5:], 0.0, atol=1e-10)


def test_sanity_bracket_position_momentum():
    rng = np.random.default_rng(12)
    s = sample_generic_state(M, rng)
    mat = poisson_matrix(
        M.alg, s, fn=lambda st: np.stack([st.v[..., 0], st.V[..., 0]], -1)
    )
    assert mat[0, 1] == pytest.approx(1.0, abs=1e-9)  # {x_i, <V, X_i>}
    assert mat[1, 0] == pytest.approx(-1.0, abs=1e-9)


def test_poisson_matrix_antisymmetric():
    rng = np.random.default_rng(14)
    s = sample_generic_state(M, rng)
    mat = poisson_matrix(M.alg, s)
    assert np.max(np.abs(mat + mat.T)) < 2e-6


def test_lattice_invariance():
    # integrals descend to the quotient: left translation by a lattice
    # element (integer v-part) leaves all eight values unchanged
    rng = np.random.default_rng(16)
    s = sample_generic_state(M, rng)
    base = evaluate_integrals(s)
    for _ in range(100):
        av = rng.integers(-5, 6, size=5).astype(float)
        shifted = TangentState(s.v + av, s.z, s.V, s.Z)
        assert np.allclose(evaluate_integrals(shifted), base, atol=1e-12)


def test_independence_rank_generic_and_degenerate():
    rng = np.random.default_rng(18)
    s = sample_generic_state(M, rng)
    assert independence_rank(M.alg, s) == 8
    degen = TangentState(s.v, s.z, s.V, np.array([1.0, 0.7, 0.0]))
    assert independence_rank(M.alg, degen) <= 6


def test_batched_evaluation_matches_scalar():
    rng = np.random.default_rng(20)
    states = [sample_generic_state(M, rng) for _ in range(7)]
    vs = np.stack([s.v for s in states])
    Vs = np.stack([s.V for s in states])
    Zs = np.stack([s.Z for s in states])
    batch = evaluate_integrals(TangentState(vs, np.zeros((7, 3)), Vs, Zs))
    for i, s in enumerate(states):
        assert np.allclose(batch[i], evaluate_integrals(s), atol=1e-15)
    assert len(INTEGRAL_NAMES) == 8


def _sanity_pair(st):
    return np.stack([st.v[..., 0], st.V[..., 0]], -1)


def test_batched_fd_calculus_equals_per_state():
    # states on the degenerate cone c_k = 0 (first, so that a threshold
    # taken from the first state's spectrum would show) plus generic states;
    # the batch runs the same closed form and FD stencils, so every row is
    # bitwise the per-state one
    rng = np.random.default_rng(22)
    states = []
    for _ in range(8):
        ci, cj = rng.uniform(0.5, 2, size=2)
        states.append(TangentState(
            rng.uniform(-1, 1, size=5), rng.uniform(-1, 1, size=3),
            rng.uniform(-1, 1, size=5), np.array([ci, -cj, 0.0]),
        ))
    states += [sample_generic_state(M, rng) for _ in range(24)]
    flats = np.stack([s.flat() for s in states])
    batch = state_from_flat(M.alg, flats)
    B, A = left_gradients_all(M.alg, batch)
    Bf, Af = left_gradients_all(M.alg, batch, evaluate_integrals)
    mats = poisson_matrix(M.alg, batch)
    sanity = poisson_matrix(M.alg, batch, fn=_sanity_pair)
    ranks = independence_rank(M.alg, batch)
    assert B.shape == A.shape == Bf.shape == Af.shape == (32, 8, 8)
    assert mats.shape == (32, 8, 8) and sanity.shape == (32, 2, 2)
    assert ranks.shape == (32,)
    assert list(ranks) == [6] * 8 + [8] * 24
    # a single state is the no-batch-axis case: (k, dim), (k, k) and an int
    # (np.array_equal also compares shapes)
    for i, s in enumerate(states):
        b1, a1 = left_gradients_all(M.alg, s)
        assert np.array_equal(B[i], b1) and np.array_equal(A[i], a1)
        b1, a1 = left_gradients_all(M.alg, s, evaluate_integrals)
        assert np.array_equal(Bf[i], b1) and np.array_equal(Af[i], a1)
        assert np.array_equal(mats[i], poisson_matrix(M.alg, s))
        assert np.array_equal(sanity[i], poisson_matrix(M.alg, s, fn=_sanity_pair))
        rank = independence_rank(M.alg, s)
        assert type(rank) is int and rank == ranks[i]
    # two batch axes are the same rows again
    grid = state_from_flat(M.alg, flats.reshape(4, 8, -1))
    assert np.array_equal(poisson_matrix(M.alg, grid), mats.reshape(4, 8, 8, 8))
    assert np.array_equal(independence_rank(M.alg, grid), ranks.reshape(4, 8))
    # the SVD oracle at a coarse threshold: the generic ranks vary from
    # state to state, which shows that each state is cut against its own
    # largest singular value
    coarse = independence_rank_svd(M.alg, batch, threshold=0.1)
    assert set(coarse[8:]) == {7, 8}
    assert [independence_rank_svd(M.alg, s, threshold=0.1)
            for s in states] == coarse.tolist()


def test_independence_rank_formula_equals_the_svd_oracle():
    # the block-structure formula against the normalized SVD rank on 20 x
    # 1000 generic states (seed 8 holds state 814 in the flat band) and on
    # the c_k = 0 block
    for seed in range(20):
        states = sample_generic_state(M, np.random.default_rng(seed), 1000)
        assert np.array_equal(independence_rank(M.alg, states),
                              independence_rank_svd(M.alg, states))
    rng = np.random.default_rng(20)
    cij = rng.uniform(0.5, 2.0, size=(100, 2)) * rng.choice([-1, 1], (100, 2))
    degen = TangentState(rng.uniform(-1, 1, size=(100, 5)),
                         rng.uniform(-1, 1, size=(100, 3)),
                         rng.uniform(-1, 1, size=(100, 5)),
                         np.pad(cij, ((0, 0), (0, 1))))
    ranks = independence_rank(M.alg, degen)
    assert np.array_equal(ranks, independence_rank_svd(M.alg, degen))
    assert set(ranks) == {6}


def test_flat_band_state_keeps_its_f_rows():
    # x = c_k |c|^2 = -0.050: phi = 6e-174, so the squares of the f rows
    # underflow; the prescale by a power of two keeps the rank at 8 and the
    # gap of the f rows to the FD stencil nonzero
    s = sample_generic_state(M, np.random.default_rng(8), 1000)
    state = TangentState(s.v[814], s.z[814], s.V[814], s.Z[814])
    x = s.Z[814, 2] * (s.Z[814] @ s.Z[814])
    assert -0.051 < x < -0.050 and 0.0 < phi(x) < 1e-154
    assert independence_rank(M.alg, state) == 8
    assert independence_rank_svd(M.alg, state) == 8
    gaps = suites._gradient_gaps(M.alg, state)
    assert np.all(gaps[6:] > 0.0) and np.all(gaps <= suites.GRADIENT_TOL)


def test_run_integrals_batches_every_check(monkeypatch):
    # one evaluation per stencil side over each whole block of states:
    # conservation 2, commutation 2 along the 8 Hamiltonian fields, and the
    # gradient consistency row 2 over all 16 directions of its 100 states;
    # the gradients of the commutation and independence blocks are closed
    # form, and the sanity pair has its own fn; the rows are the per-state
    # ones, e.g. commutation 1000 states x 2 x 8 shifted rows
    rows = []

    def counting(state):
        out = evaluate_integrals(state)
        rows.append(out.size // 8)
        return out

    monkeypatch.setattr(integrals, "evaluate_integrals", counting)
    monkeypatch.setattr(suites, "evaluate_integrals", counting)
    report = suites.run_suite("integrals", 42)
    assert len(rows) == 6
    assert sum(rows) == 1000 * 21 + 1000 * 2 * 8 + 100 * 2 * 16
    assert report.passed


def test_suites_draw_each_block_in_one_call(monkeypatch):
    # flow draws 100 states per manifold, integrals its three blocks of
    # 1000, each in one sampler call (the sanity state is a one-state call)
    blocks = []

    def counting(data, rng, n=None):
        if n is not None:
            blocks.append(n)
        return sample_generic_state(data, rng, n)

    monkeypatch.setattr(suites, "sample_generic_state", counting)
    assert suites.run_suite("flow", 42).passed
    assert blocks == [100, 100]
    blocks.clear()
    assert suites.run_suite("integrals", 42).passed
    assert blocks == [1000, 1000, 1000]


@pytest.mark.parametrize("shape", [(), (1,), (7,), (1000,), (4, 8)])
def test_e_from_entries_equals_the_dense_rows(shape):
    # e = R V summed over the nonzero entries of M's printed rows is bit for
    # bit the einsum over the dense rows that eigenframe scatters them into,
    # and the conservation block's broadcast (one Z per 20 V) too
    rng = np.random.default_rng(len(shape) + sum(shape))
    Z, V = rng.normal(size=shape + (3,)), rng.normal(size=shape + (5,))
    rows = eigenframe(M, Z).rows
    state = TangentState(np.zeros(shape + (5,)), np.zeros(shape + (3,)), V, Z)
    e = np.stack(integrals._parts(state)[4], -1)
    assert np.array_equal(e, np.einsum("...mp,...p->...m", rows, V))
    Zb, Vb = Z[..., None, :], rng.normal(size=shape + (20, 5))
    state = TangentState(np.zeros(Vb.shape), np.zeros(shape + (20, 3)), Vb, Zb)
    e = np.stack(integrals._parts(state)[4], -1)
    assert np.array_equal(e, np.einsum("...mp,...p->...m", rows[..., None, :, :], Vb))
