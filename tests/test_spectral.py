"""Characteristic polynomials, kernels, lattice slices, length spectra."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from nilflow import linalg_exact as lx
from nilflow import spectral
from nilflow.catalog import build_pair
from nilflow.lie_core import RationalLattice, j_kernels, j_matrix
from oracles import char_poly, integer_lattice, kernel_subspace

M, MP = build_pair()


def test_char_poly_2x2():
    assert char_poly([[0, -1], [1, 0]]) == [1, 0, 1]  # l^2 + 1


def test_char_poly_batch_matches_exact():
    rng = np.random.default_rng(11)
    mats = rng.integers(-6, 7, size=(40, 4, 4))
    batch = spectral.char_poly_batch_int(mats)
    for mat, row in zip(mats, batch):
        exact = char_poly([[int(x) for x in r] for r in mat])
        assert [int(x) for x in row] == exact


def test_char_poly_batch_overflow_guard():
    with pytest.raises(OverflowError):
        spectral.char_poly_batch_int(np.full((1, 2, 2), 10**3))


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


def test_gw_certificate_small():
    cert = spectral.gw_certificate((M, MP), Fraction(16), 2, None)
    assert cert.passed
    names = [c.name for c in cert.checks]
    assert "kernel_lattice_length_spectra" in names


def test_gw_kernel_lattices_are_lattice_intersections():
    # on lattice_v = Z^5, lattice_v meets ker j(Z) in the saturated integer
    # kernel that gw_certificate reads; the Fraction path is the oracle
    pts = spectral._dual_z_points(4)
    for data in (M, MP):
        for c, ker in zip(pts.tolist(), j_kernels(data.alg, pts)):
            lat = spectral.lattice_intersection(
                data.lattice_v, kernel_subspace(data.alg, c))
            assert lx.rref(ker)[0] == lx.rref(list(lat.basis))[0]
    # the integer equality decision against the rref comparison, and the
    # counts that comparison gave at the suite's dual bound 6 and below
    pts = spectral._dual_z_points(6)
    kers, kers_p = j_kernels(M.alg, pts), j_kernels(MP.alg, pts)
    same = spectral._same_saturated_kernels(M.alg, pts, kers, kers_p)
    assert same.tolist() == [lx.rref(a)[0] == lx.rref(b)[0]
                             for a, b in zip(kers, kers_p)]
    for bound, counts in ((4, {"enumerated": 24, "identical_lattices": 101}),
                          (6, {"enumerated": 48, "identical_lattices": 295})):
        cert = spectral.gw_certificate((M, MP), Fraction(100), bound, None)
        assert cert.checks[-1].value == counts


def test_same_saturated_kernels_overflow_guard():
    with pytest.raises(OverflowError):
        spectral._same_saturated_kernels(
            M.alg, np.array([[2, 2, 2]]), [[[0, 0, 1, 1, 1]]],
            [[[2**61, 0, 0, 0, 0]]])


def test_gw_certificate_needs_integer_lattice_v():
    lat = RationalLattice(5, tuple(
        tuple(2 * int(i == j) for j in range(5)) for i in range(5)
    ))
    with pytest.raises(ValueError):
        spectral.gw_certificate(
            (dataclasses.replace(M, lattice_v=lat), MP), Fraction(16), 2)
