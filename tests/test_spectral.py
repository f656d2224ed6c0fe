"""Characteristic polynomials, kernels, lattice slices, length spectra."""

import dataclasses
from fractions import Fraction
from itertools import permutations
from math import comb, prod

import numpy as np
import pytest

from nilflow import linalg_exact as lx
from nilflow import spectral
from nilflow.catalog import build_pair, get_manifold
from nilflow.lie_core import (
    AlgebraData,
    RationalLattice,
    _j_planes,
    j_kernels,
    j_matrix,
)
from oracles import (
    char_poly,
    integer_lattice,
    kernel_isometries_all_permutations,
    kernel_rows,
    kernel_subspace,
    manifold_lattices,
)
from test_faults import _first_pair_doubled

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


def _planes(mats):
    """Matrices (n, d, d) as the entry planes (d, d, n) of `_j_planes`."""
    return np.ascontiguousarray(np.asarray(mats, np.int64).transpose(1, 2, 0))


def _skew(signs):
    """The skew matrices with the strict upper triangles of signs."""
    upper = np.triu(signs, 1)
    return upper - upper.transpose(0, 2, 1)


def test_skew_char_poly_matches_fraction_oracle():
    # random skew integer matrices of every size 1..6: full ones, rank <= 2
    # ones u v^T - v u^T, ones with a zero row and column, and 0
    rng = np.random.default_rng(32)
    for d in range(1, 7):
        full = _skew(rng.integers(-40, 41, size=(20, d, d)))
        u, v = rng.integers(-6, 7, size=(2, 10, d, 1))
        low = u * v.transpose(0, 2, 1) - v * u.transpose(0, 2, 1)
        holed = _skew(rng.integers(-40, 41, size=(10, d, d)))
        holed[:, 0], holed[:, :, 0] = 0, 0
        mats = np.concatenate([full, low, holed, np.zeros((1, d, d), int)])
        coeffs = spectral._skew_char_poly(_planes(mats))
        assert coeffs.shape == (len(mats), d + 1)
        assert coeffs.dtype == np.int64
        for mat, row in zip(mats.tolist(), coeffs.tolist()):
            assert row == char_poly(mat)


def test_skew_char_poly_of_j_matches_fraction_oracle():
    # j(Z) of both algebras of the pair and of the dim_v = 4 deformation,
    # at generic Z, at Z with last coordinate 0, and at Z = 0
    rng = np.random.default_rng(5)
    for alg in (M.alg, MP.alg, get_manifold("defo:1/3").alg):
        zs = rng.integers(-30, 31, size=(40, alg.dim_z))
        zs[:5, -1], zs[5] = 0, 0
        coeffs = spectral._skew_char_poly(_j_planes(alg, zs))
        assert coeffs.shape == (40, alg.dim_v + 1)
        for z, row in zip(zs.tolist(), coeffs.tolist()):
            assert row == char_poly(j_matrix(alg, z))


def _first_unsafe_entry(d):
    """The least e with C(d, 2k) ((2k-1)!!)^2 e^(2k) >= 2^63 for some k."""
    def unsafe(e):
        return any(comb(d, 2 * k) * prod(range(1, 2 * k, 2)) ** 2
                   * e ** (2 * k) >= 2**63 for k in range(1, d // 2 + 1))
    lo, hi = 0, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if unsafe(mid) else (mid, hi)
    return hi


def test_skew_char_poly_guard_at_first_unsafe_entry(monkeypatch):
    # entries up to e - 1 are exact, against the oracle; one entry of e
    # raises OverflowError before any Pfaffian is formed
    rng = np.random.default_rng(9)
    unsafe = {}
    for d in range(2, 7):
        e = _first_unsafe_entry(d)
        safe = _skew(rng.choice([-1, 1], size=(3, d, d)) * (e - 1))
        coeffs = spectral._skew_char_poly(_planes(safe))
        for mat, row in zip(safe.tolist(), coeffs.tolist()):
            assert row == char_poly(mat)
        unsafe[d] = safe.copy()
        unsafe[d][0, 0, d - 1], unsafe[d][0, d - 1, 0] = e, -e

    def no_work(planes):
        raise AssertionError("Pfaffians formed past the guard")

    monkeypatch.setattr(spectral, "_pfaffians", no_work)
    for mats in unsafe.values():
        with pytest.raises(OverflowError):
            spectral._skew_char_poly(_planes(mats))


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


PERMS = list(permutations(range(5)))


def _permutation_witnesses(bound):
    """The dual points at bound, the saturated kernel rows of j and j' at
    each, and the permutation index of `_kernel_isometries` there."""
    pts = spectral._dual_z_points(bound)
    kers, kers_p = j_kernels(M.alg, pts), j_kernels(MP.alg, pts)
    index = spectral._kernel_isometries(MP.alg, pts, *kers)
    return pts, kernel_rows(kers), kernel_rows(kers_p), index


def test_isometric_kernel_lattices_have_equal_slices():
    # each permutation witness against the enumeration oracle, on every
    # row at the suite's dual bound 6 that needs a permutation
    _, rows, rows_p, index = _permutation_witnesses(6)
    moved = np.flatnonzero(index > 0)
    assert len(moved) == 48
    for i in moved:
        image = [[v[j] for j in PERMS[index[i]]] for v in rows[i]]
        assert lx.rref(image)[0] == lx.rref(rows_p[i])[0]
        assert spectral.length_spectrum(RationalLattice(5, rows[i]), 100) == \
            spectral.length_spectrum(RationalLattice(5, rows_p[i]), 100)


def test_permuted_rows_are_the_points_with_ck_zero():
    # at c_k = 0, j'(Z) = P j(Z) P^T for the swap X_a <-> Y_a; elsewhere,
    # and at c = 0, the kernel lattices are identical
    for bound in (2, 4, 6):
        pts, _, _, index = _permutation_witnesses(bound)
        assert np.all(index >= 0)
        want = (pts[:, 2] == 0) & np.any(pts != 0, axis=1)
        assert (index > 0).tolist() == want.tolist()


@pytest.mark.parametrize("bound", range(2, 9))
def test_kernel_isometries_match_all_permutation_oracle(bound):
    # the chunked search drops each row at its first hit; the oracle tries
    # the permutations in order on every row.  Also on kernels that claim
    # one vector too many, and on rank-3 kernels that no permutation moves
    # into ker j'(Z), whose rows run through every chunk
    pts = spectral._dual_z_points(bound)
    basis, dims = j_kernels(M.alg, pts)
    skewed = basis.copy()
    skewed[dims == 3, :3] = [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0],
                             [0, 1, -1, 0, 0]]
    for kers in ((basis, dims), (basis, dims + 1), (skewed, dims)):
        index = spectral._kernel_isometries(MP.alg, pts, *kers)
        assert index.tolist() == \
            kernel_isometries_all_permutations(MP.alg, pts, *kers).tolist()
    assert np.any(index < 0)


def test_kernel_isometries_need_equal_dims():
    # the same lattice, but its dims claim one more kernel vector than the
    # nullity of j'(Z)
    pts = np.array([[2, 2, 2], [2, 2, 0]])
    basis, dims = j_kernels(M.alg, pts)
    index = spectral._kernel_isometries(MP.alg, pts, basis, dims + 1)
    assert index.tolist() == [-1, -1]
    index = spectral._kernel_isometries(MP.alg, pts, basis, dims)
    assert index[0] == 0 and index[1] > 0


def test_gw_certificate_reports_witness_of_non_isometric_kernels(monkeypatch):
    # swap every rank-3 kernel of M for a lattice that no permutation moves
    # into ker j'(Z): the first such dual point is the witness
    real = spectral.j_kernels

    def fake(alg, cs):
        basis, dims = real(alg, cs)
        if alg is M.alg:
            basis = basis.copy()
            basis[dims == 3, :3] = [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0],
                                    [0, 1, -1, 0, 0]]
        return basis, dims

    pts = spectral._dual_z_points(6)
    index = spectral._kernel_isometries(MP.alg, pts, *fake(M.alg, pts))
    assert np.sum(index < 0) == 36
    monkeypatch.setattr(spectral, "j_kernels", fake)
    cert = spectral.gw_certificate((M, MP), 6)
    assert not cert.passed
    check = cert.checks[-1]
    assert check.name == "kernel_lattice_length_spectra" and not check.passed
    assert check.value == {"witness_c": [-6, -6, 0]}


def test_gw_certificate_holds_kernel_bases_against_j(monkeypatch):
    # the last coordinate of every kernel vector of M negated: a signed
    # permutation of the right basis, which the search alone accepts, but
    # j(Z) moves it at the first dual point whose kernel it changes
    real = spectral.j_kernels

    def flipped(alg, cs):
        basis, dims = real(alg, cs)
        return basis * [1, 1, 1, 1, -1], dims

    pts = spectral._dual_z_points(6)
    assert np.all(spectral._kernel_isometries(MP.alg, pts,
                                              *flipped(M.alg, pts)) >= 0)
    monkeypatch.setattr(spectral, "j_kernels", flipped)
    check = spectral.gw_certificate((M, MP), 6).checks[-1]
    assert check.name == "kernel_lattice_length_spectra" and not check.passed
    assert check.value == {"witness_c": [-6, -6, -6]}


def test_gw_certificate_small():
    cert = spectral.gw_certificate((M, MP), 2)
    assert cert.passed
    # the grid proof and the permutation witnesses: the lattice-bracket
    # rows hold by construction, and the proven identity is not evaluated
    # again on the dual points
    assert [c.name for c in cert.checks] == ["char_poly_identity_grid",
                                             "kernel_lattice_length_spectra"]


def test_char_poly_identity_holds_on_the_dual_points():
    # the grid proof covers every Z; here it is read on the 342 nonzero
    # dual points that gw_certificate enumerates at the suite's bound 6
    pts = spectral._dual_z_points(6)
    pts = pts[np.any(pts != 0, axis=1)]
    assert len(pts) == 342
    for data in (M, MP):
        assert spectral._char_poly_mismatches(data.alg, pts).size == 0


def test_gw_kernel_lattices_are_lattice_intersections():
    # on lattice_v = Z^5, lattice_v meets ker j(Z) in the saturated integer
    # kernel that gw_certificate reads; the Fraction path is the oracle
    pts = spectral._dual_z_points(4)
    for data in (M, MP):
        for c, ker in zip(pts.tolist(), kernel_rows(j_kernels(data.alg, pts))):
            lat = spectral.lattice_intersection(
                manifold_lattices(data)[0], kernel_subspace(data.alg, c))
            assert lx.rref(ker)[0] == lx.rref(list(lat.basis))[0]
    # the identity witness against the rref comparison, and the counts
    # that comparison gave at the suite's dual bound 6 and below
    _, rows, rows_p, index = _permutation_witnesses(6)
    assert (index == 0).tolist() == [lx.rref(a)[0] == lx.rref(b)[0]
                                     for a, b in zip(rows, rows_p)]
    for bound, counts in ((4, {"enumerated": 24, "identical_lattices": 101}),
                          (6, {"enumerated": 48, "identical_lattices": 295})):
        cert = spectral.gw_certificate((M, MP), bound)
        assert cert.checks[-1].value == counts


def _signed_v_copy(data, rng):
    """data written in a V basis that rng permutes and signs: T'[p][q] =
    s_p s_q T[P_p][P_q].  A signed permutation matrix is orthogonal and
    maps Z^5 onto Z^5, so the copy is isometric to data, lattice and all."""
    perm = rng.permutation(data.alg.dim_v)
    sign = rng.choice([-1, 1], data.alg.dim_v)
    table = np.array(data.alg.structure)[perm][:, perm] * \
        np.multiply.outer(sign, sign)[..., None]
    return dataclasses.replace(data, alg=AlgebraData(table.tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_gw_certificate_keeps_its_verdict_on_signed_v_copies(seed):
    # metamorphic: a copy of M' or M in a signed, permuted V basis is
    # isospectral to M, and a copy of the faulty M' still is not.  The Z
    # basis is left as printed, since the claimed polynomial reads c_k as
    # the third coordinate
    rng = np.random.default_rng(seed)
    for pair in ((M, _signed_v_copy(MP, rng)), (M, _signed_v_copy(M, rng)),
                 (_signed_v_copy(M, rng), MP)):
        assert spectral.gw_certificate(pair, 6).passed
    faulty = _signed_v_copy(MP, rng)
    faulty = dataclasses.replace(faulty, alg=_first_pair_doubled(faulty.alg))
    assert not spectral.gw_certificate((M, faulty), 6).passed


def test_signed_v_copies_need_the_signed_permutations():
    # 27 of these 40 copies of M' have kernel lattices that only a signed
    # permutation (an index past 5!) maps onto those of M; an unsigned
    # search rejects them.  The signed indices against the oracle
    rng = np.random.default_rng(0)
    pts = spectral._dual_z_points(6)
    kers = j_kernels(M.alg, pts)
    signed = []
    for _ in range(40):
        copy = _signed_v_copy(MP, rng).alg
        index = spectral._kernel_isometries(copy, pts, *kers)
        assert np.all(index >= 0)
        if np.any(index >= len(PERMS)):
            signed.append((copy, index))
    assert len(signed) == 27
    for copy, index in signed[:3]:
        assert index.tolist() == \
            kernel_isometries_all_permutations(copy, pts, *kers).tolist()


def test_kernel_isometries_overflow_guard():
    with pytest.raises(OverflowError):
        spectral._kernel_isometries(
            MP.alg, np.array([[2, 2, 2]]),
            np.array([[[2**61, 0, 0, 0, 0]]]), np.array([1]))


def test_char_poly_identity_failure_path():
    # M with one antisymmetric pair of structure constants doubled
    p, q, r, _ = M.alg.terms[0]
    t = [[list(row) for row in line] for line in M.alg.structure]
    t[p][q][r] *= 2
    t[q][p][r] *= 2
    bad = AlgebraData(t)
    # the first point of {0..5}^3 where char j(Z_c) misses the claim
    points = spectral._grid(np.arange(6), 3)
    claimed = spectral._claimed_coeffs(points).tolist()
    first = next(tuple(c) for c, want in zip(points.tolist(), claimed)
                 if char_poly(j_matrix(bad, c)) != want)
    assert spectral.char_poly_identity_check(M.alg) == (True, None)
    assert spectral.char_poly_identity_check(bad) == (False, first)
    assert spectral.char_poly_identity_check(M.alg, bad) == (False, first)
    assert spectral.char_poly_identity_check(bad, MP.alg) == (False, first)
    cert = spectral.gw_certificate((M, dataclasses.replace(MP, alg=bad)), 2)
    rows = {check.name: check.passed for check in cert.checks}
    assert rows["char_poly_identity_grid"] is False
