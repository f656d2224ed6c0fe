"""Characteristic polynomials, kernels, lattice slices, length spectra."""

import dataclasses
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from nilflow import linalg_exact as lx
from nilflow import isometry, spectral
from nilflow.catalog import build_pair
from nilflow.lie_core import RationalLattice, j_kernels, j_matrix
from oracles import (
    char_poly,
    det,
    integer_lattice,
    kernel_rows,
    kernel_subspace,
    manifold_lattices,
)

M, MP = build_pair()


def test_char_poly_2x2():
    assert char_poly([[0, -1], [1, 0]]) == [1, 0, 1]  # l^2 + 1


def test_char_poly_batch_matches_exact():
    # random integer matrices, not skew like j(Z), entries up to 80, and
    # 5x5 ones with every entry +-80
    rng = np.random.default_rng(11)
    batches = [rng.integers(-80, 81, size=(30, d, d)) for d in (1, 2, 4, 5, 6)]
    batches.append(np.random.default_rng(4).choice([-80, 80], size=(20, 5, 5)))
    for mats in batches:
        assert not np.array_equal(mats, -mats.swapaxes(1, 2))
        batch = spectral.char_poly_batch_int(mats)
        for mat, row in zip(mats, batch):
            exact = char_poly([[int(x) for x in r] for r in mat])
            assert [int(x) for x in row] == exact


def test_char_poly_batch_overflow_guard():
    # a 10x10 matrix with entries in [-80, 80] wraps int64 in the recurrence
    # and used to return a wrong polynomial; the guard on d and max|a|
    # rejects it before any work
    with pytest.raises(OverflowError):
        spectral.char_poly_batch_int(np.full((1, 2, 2), 10**9))
    mat = np.random.default_rng(3).integers(-80, 81, size=(1, 10, 10))
    with pytest.raises(OverflowError):
        spectral.char_poly_batch_int(mat)


def test_char_poly_batch_inexact_division_guard():
    # a 10x10 matrix whose wrapped trace is not divisible by k: the guard on
    # d and max|a| rejects it before the floor division could hide that
    mat = np.random.default_rng(0).integers(-80, 81, size=(1, 10, 10))
    with pytest.raises(OverflowError):
        spectral.char_poly_batch_int(mat)


def test_claimed_identity_rational_c():
    # non-integer rational c, exact arithmetic end to end
    c = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    ck2 = c[2] * c[2]
    n2 = sum(x * x for x in c)
    want = (Fraction(1), 0, ck2 + n2, 0, ck2 * n2, 0)
    for alg in (M.alg, MP.alg):
        assert tuple(char_poly(j_matrix(alg, c))) == want


def test_kernel_dimension_case_table():
    # (c_k != 0: kernel = R Y_c), (c_k = 0 != rho: 3-dim), (c = 0: all of v)
    for alg in (M.alg, MP.alg):
        assert len(kernel_subspace(alg, [1, 2, 3])) == 1
        assert len(kernel_subspace(alg, [0, 0, 2])) == 1
        assert len(kernel_subspace(alg, [2, 1, 0])) == 3
        assert len(kernel_subspace(alg, [0, 0, 0])) == 5


def test_kernel_is_Yc_for_generic_c():
    ker = kernel_subspace(M.alg, [1, 2, 3])[0]
    scaled = [x / ker[4] * 3 for x in ker]  # normalize so last coord = 3
    assert scaled == [0, 0, 1, 2, 3]


def test_lattice_intersection_plane():
    lat = integer_lattice(5)
    sub = spectral.lattice_intersection(
        lat, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    )
    assert sub.rank == 2
    got = sorted(tuple(int(x) for x in b) for b in sub.basis)
    assert got == [(0, 1, 0, 0, 0), (1, 0, 0, 0, 0)] or len(got) == 2


def test_lattice_intersection_diagonal_is_saturated():
    # Z^2 intersect span{(1,1)} = Z (1,1), not a proper sublattice of it
    lat = integer_lattice(2)
    sub = spectral.lattice_intersection(lat, [[Fraction(1, 2), Fraction(1, 2)]])
    assert sub.rank == 1
    b = [abs(x) for x in sub.basis[0]]
    assert b == [1, 1]


def test_length_spectrum_z2():
    lat = integer_lattice(2)
    sp = spectral.length_spectrum(lat, 5)
    assert sp.entries == (
        (Fraction(0), 1), (Fraction(1), 4), (Fraction(2), 4),
        (Fraction(4), 4), (Fraction(5), 8),
    )


def test_length_spectrum_scaled():
    half = RationalLattice(1, ((Fraction(1, 2),),))
    sp = spectral.length_spectrum(half, 1)
    assert sp.entries == (
        (Fraction(0), 1), (Fraction(1, 4), 2), (Fraction(1), 2),
    )


def _differing_kernel_pairs(bound):
    pts = spectral._dual_z_points(bound)
    kers, kers_p = j_kernels(M.alg, pts), j_kernels(MP.alg, pts)
    same = spectral._same_saturated_kernels(M.alg, pts, kers[1], *kers_p)
    rows, rows_p = kernel_rows(kers), kernel_rows(kers_p)
    return [(rows[i], rows_p[i]) for i in np.flatnonzero(~same)]


def test_isometric_kernel_lattices_have_equal_slices():
    # the isometry test against the enumeration it replaced, on every
    # differing pair at the suite's dual bound 6
    pairs = _differing_kernel_pairs(6)
    assert len(pairs) == 48
    for ker, ker_p in pairs:
        assert isometry.lattices_isometric(ker, ker_p)
        assert spectral.length_spectrum(RationalLattice(5, ker), 100) == \
            spectral.length_spectrum(RationalLattice(5, ker_p), 100)


def test_equal_determinant_non_isometric_pair_is_rejected():
    # Gram diag(1, 1, 4) against diag(1, 2, 2): both of determinant 4, but
    # four vectors of norm 1 against two
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    b = [[1, 0, 0], [0, 1, 1], [0, 1, -1]]
    assert not isometry.lattices_isometric(a, b)
    assert not isometry.lattices_isometric(b, a)
    assert spectral.length_spectrum(RationalLattice(3, a), 1) != \
        spectral.length_spectrum(RationalLattice(3, b), 1)


def test_isometry_survives_basis_change_and_orthogonal_map():
    # a unimodular change of basis and a signed coordinate permutation give
    # an isometric lattice, and the reduced Gram matrices need not agree
    rng = np.random.default_rng(3)
    for _ in range(30):
        basis = rng.integers(-4, 5, size=(3, 4))
        if lx.rank(basis.tolist()) < 3:
            continue
        unimodular = np.triu(rng.integers(-3, 4, size=(3, 3)), 1) + np.eye(
            3, dtype=int)
        perm = np.eye(4, dtype=int)[rng.permutation(4)]
        signed = perm * rng.choice([-1, 1], size=4)
        image = (unimodular @ basis @ signed)[rng.permutation(3)].tolist()
        assert isometry.lattices_isometric(basis.tolist(), image)
        # a sublattice of index 2 is never isometric to the lattice
        doubled = [[2 * x for x in image[0]]] + image[1:]
        assert not isometry.lattices_isometric(basis.tolist(), doubled)


def _successive_minima(basis):
    """The squared successive minima of a rank-3 integer lattice, by brute
    force over a coordinate box of the inverse-Gram bound."""
    b = np.array(basis)
    gram = b @ b.T
    r2 = max(np.diag(gram))  # some basis vector reaches every minimum
    ginv = lx.inverse(gram.tolist())
    side = [isqrt(int(r2 * ginv[i][i])) for i in range(3)]
    axes = [np.arange(-m, m + 1) for m in side]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
    vecs = coords @ b
    norms = np.einsum("ni,ni->n", vecs, vecs)
    minima, chosen = [], []
    for i in np.argsort(norms, kind="stable"):
        if norms[i] and lx.rank(chosen + [vecs[i].tolist()]) > len(chosen):
            chosen.append(vecs[i].tolist())
            minima.append(int(norms[i]))
            if len(chosen) == 3:
                return minima


def test_greedy_reduction_reaches_the_successive_minima():
    # greedy reduction is Minkowski-reduced in rank 3: the norms of the
    # reduced basis are the successive minima, with the lattice unchanged
    rng = np.random.default_rng(8)
    for _ in range(40):
        basis = rng.integers(-5, 6, size=(3, 4)).tolist()
        if lx.rank(basis) < 3:
            continue
        reduced = isometry._greedy_reduce(basis)
        assert [sum(x * x for x in v) for v in reduced] == \
            _successive_minima(basis)
        columns = [list(c) for c in zip(*basis)]
        assert all(x.denominator == 1
                   for v in reduced for x in lx.solve(columns, v))
        gram = lambda rows: (np.array(rows) @ np.array(rows).T).tolist()
        assert det(gram(reduced)) == det(gram(basis))


def test_gw_certificate_reports_witness_of_non_isometric_kernels(monkeypatch):
    # swap every rank-3 kernel of M' for a lattice of another determinant,
    # which j(Z) does not kill: the first such dual point is the witness
    real = spectral.j_kernels

    def fake(alg, cs):
        basis, dims = real(alg, cs)
        if alg is MP.alg:
            basis = basis.copy()
            basis[dims == 3, :3] = [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0],
                                    [0, 1, -1, 0, 0]]
        return basis, dims

    monkeypatch.setattr(spectral, "j_kernels", fake)
    cert = spectral.gw_certificate((M, MP), 6)
    assert not cert.passed
    check = cert.checks[-1]
    assert check.name == "kernel_lattice_length_spectra" and not check.passed
    assert check.value == {"witness_c": [-6, -6, 0]}


def test_gw_certificate_small():
    cert = spectral.gw_certificate((M, MP), 2)
    assert cert.passed
    names = [c.name for c in cert.checks]
    assert "kernel_lattice_length_spectra" in names


def test_gw_kernel_lattices_are_lattice_intersections():
    # on lattice_v = Z^5, lattice_v meets ker j(Z) in the saturated integer
    # kernel that gw_certificate reads; the Fraction path is the oracle
    pts = spectral._dual_z_points(4)
    for data in (M, MP):
        for c, ker in zip(pts.tolist(), kernel_rows(j_kernels(data.alg, pts))):
            lat = spectral.lattice_intersection(
                manifold_lattices(data)[0], kernel_subspace(data.alg, c))
            assert lx.rref(ker)[0] == lx.rref(list(lat.basis))[0]
    # the integer equality decision against the rref comparison, and the
    # counts that comparison gave at the suite's dual bound 6 and below
    pts = spectral._dual_z_points(6)
    kers, kers_p = j_kernels(M.alg, pts), j_kernels(MP.alg, pts)
    same = spectral._same_saturated_kernels(M.alg, pts, kers[1], *kers_p)
    assert same.tolist() == [lx.rref(a)[0] == lx.rref(b)[0] for a, b in
                             zip(kernel_rows(kers), kernel_rows(kers_p))]
    for bound, counts in ((4, {"enumerated": 24, "identical_lattices": 101}),
                          (6, {"enumerated": 48, "identical_lattices": 295})):
        cert = spectral.gw_certificate((M, MP), bound)
        assert cert.checks[-1].value == counts


def test_same_saturated_kernels_overflow_guard():
    with pytest.raises(OverflowError):
        spectral._same_saturated_kernels(
            M.alg, np.array([[2, 2, 2]]), np.array([1]),
            np.array([[[2**61, 0, 0, 0, 0]]]), np.array([1]))


def test_gw_certificate_needs_integer_lattice_v():
    # lattice_v = 2 Z^5, and by the same guard lattice_z = (Z/4)^3
    for changed in (dict(scale_v=2), dict(scale_z=Fraction(1, 4))):
        with pytest.raises(ValueError, match="gw_certificate needs"):
            spectral.gw_certificate(
                (dataclasses.replace(M, **changed), MP), 2)
