"""Exact rational linear algebra: oracle and property tests."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from nilflow import linalg_exact as lx
from nilflow.criteria import _span_projectors
from oracles import char_poly, det, mat_vec, span_projector

small_int = st.integers(-6, 6)


def int_matrix(n, m):
    return st.lists(
        st.lists(small_int, min_size=m, max_size=m), min_size=n, max_size=n
    )


def test_rref_known():
    r, piv = lx.rref([[1, 2], [2, 4]])
    assert piv == [0]
    assert r[0] == [Fraction(1), Fraction(2)]
    assert all(x == 0 for x in r[1])


def test_rank_identity():
    assert lx.rank(lx.identity(4)) == 4
    assert lx.rank(lx.zeros(3, 5)) == 0


@given(int_matrix(3, 4))
def test_nullspace_annihilates(mat):
    for v in lx.nullspace(mat):
        assert all(
            sum(row[i] * v[i] for i in range(4)) == 0 for row in mat
        )


@given(int_matrix(3, 4))
def test_rank_nullity(mat):
    assert lx.rank(mat) + len(lx.nullspace(mat)) == 4


@given(int_matrix(3, 3), st.lists(small_int, min_size=3, max_size=3))
def test_solve_consistent(mat, x):
    b = [sum(row[i] * x[i] for i in range(3)) for row in mat]
    sol = lx.solve(mat, b)
    assert sol is not None
    got = [sum(row[i] * sol[i] for i in range(3)) for row in mat]
    assert got == [Fraction(v) for v in b]


@given(int_matrix(3, 3))
def test_inverse_or_singular(mat):
    if det(mat) == 0:
        with pytest.raises(ValueError):
            lx.inverse(mat)
    else:
        assert lx.mat_mul(mat, lx.inverse(mat)) == lx.identity(3)


@given(int_matrix(3, 3))
def test_det_vs_numpy_sign_and_charpoly(mat):
    # det = (-1)^n * constant coefficient of the characteristic polynomial
    coeffs = char_poly(mat)
    assert det(mat) == (-1) ** 3 * coeffs[-1]


def test_char_poly_diagonal():
    # (l-1)(l-2)(l-3) = l^3 - 6l^2 + 11l - 6
    mat = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert char_poly(mat) == [1, -6, 11, -6]


@given(int_matrix(3, 5))
@settings(max_examples=50)
def test_integer_kernel_annihilates_and_saturates(mat):
    ker = lx.integer_kernel(mat)
    for v in ker:
        assert all(isinstance(x, int) for x in v)
        assert all(
            sum(row[i] * v[i] for i in range(5)) == 0 for row in mat
        )
    assert len(ker) == len(lx.nullspace(mat))
    if ker:
        assert lx.rank(ker) == len(ker)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_integer_kernel_saturates_against_brute_force(mat):
    # every integer kernel vector in the box {-2..2}^5 has integer
    # coordinates in the returned basis, so the basis spans all of
    # ker(mat) meet Z^5, not a finite-index sublattice of it
    ker = lx.integer_kernel(mat)
    box = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 5, indexing="ij"),
                   -1).reshape(-1, 5)
    points = box[~np.any(box @ np.array(mat).T, axis=1)]
    assert len(ker) == 5 - lx.rank(mat)
    if not ker:
        assert not points.any()
        return
    # coordinates from k columns where the basis is invertible
    cols = next(c for c in combinations(range(5), len(ker))
                if lx.rank([[v[i] for i in c] for v in ker]) == len(ker))
    inv = lx.inverse([[v[i] for v in ker] for i in cols])
    for x in points.tolist():
        coords = mat_vec(inv, [x[i] for i in cols])
        assert all(c.denominator == 1 for c in coords)
        assert [sum(c * v[i] for c, v in zip(coords, ker))
                for i in range(5)] == x


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_complement_projector_matches_fraction_oracle(rank):
    # the closed-form int64 projectors of the cih certificate, one batch
    rng = np.random.default_rng(40 + rank)
    spans = []
    for _ in range(40):
        basis = rng.integers(-9, 10, size=(rank, 3))
        if lx.rank(basis.tolist()) != rank:
            continue
        # dependent rows (integer combinations) and zero rows, shuffled
        combos = rng.integers(-3, 4, size=(4 - rank, rank)) @ basis
        rows = np.concatenate([basis, combos, np.zeros((1, 3), int)])
        spans.append(rng.permutation(rows))
    planes = np.ascontiguousarray(np.array(spans).transpose(1, 2, 0))
    proj, d, ranks, ok = _span_projectors(planes)
    assert ok.all()
    assert (ranks == rank).all()
    for rows, n, den in zip(spans, proj.tolist(), d.tolist()):
        comp, k = span_projector(rows.tolist())
        assert k == rank and den > 0
        assert [[Fraction(x, den) for x in row] for row in n] == comp
        assert lx.mat_mul(n, n) == [[den * x for x in row] for row in n]


def test_clear_denominators():
    ints, den = lx.clear_denominators([[Fraction(1, 2), Fraction(1, 3)]])
    assert den == 6
    assert ints == [[3, 2]]


def test_mat_vec_transpose():
    a = [[1, 2], [3, 4]]
    assert mat_vec(a, [1, 1]) == [3, 7]
    assert mat_vec([list(col) for col in zip(*a)], [1, 1]) == [4, 6]
