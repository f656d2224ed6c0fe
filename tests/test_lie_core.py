"""Group law, j-map duality, and lattice machinery."""

import dataclasses
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import linalg_exact as lx
from nilflow.catalog import build_pair, get_manifold
from nilflow.suites import _expected_j, _expected_jp
from nilflow.lie_core import (
    AlgebraData,
    RationalLattice,
    _j_planes,
    _primitive_rows,
    _skew_matrices,
    bracket_v_np,
    j_kernels,
    j_matrices,
    j_matrix,
    j_matrix_np,
)
from oracles import (
    GroupElement,
    bracket_v,
    brackets_in_twice,
    conjugate,
    dual_lattice,
    group_inv,
    group_mul,
    integer_lattice,
    kernel_rows,
    lattice_contains,
    lattice_coordinates,
    manifold_lattices,
    scaled_lattice,
)

M, MP = build_pair()

coord = st.integers(-4, 4)
vvec = st.lists(coord, min_size=5, max_size=5).map(tuple)
zvec = st.lists(coord, min_size=3, max_size=3).map(tuple)


def elem(alg, v, z):
    return GroupElement(alg, v, z)


@given(vvec, zvec, vvec, zvec, vvec, zvec)
@settings(max_examples=60)
def test_group_associativity(v1, z1, v2, z2, v3, z3):
    alg = M.alg
    a, b, c = elem(alg, v1, z1), elem(alg, v2, z2), elem(alg, v3, z3)
    lhs = group_mul(group_mul(a, b), c)
    rhs = group_mul(a, group_mul(b, c))
    assert lhs.v == rhs.v and lhs.z == rhs.z


@given(vvec, zvec)
def test_group_inverse(v, z):
    alg = MP.alg
    a = elem(alg, v, z)
    e = group_mul(a, group_inv(a))
    assert e.v == (0,) * 5 and e.z == (0,) * 3


@given(vvec, zvec, vvec, zvec)
@settings(max_examples=60)
def test_conjugate_is_ghg_inv(vg, zg, vh, zh):
    alg = M.alg
    g, h = elem(alg, vg, zg), elem(alg, vh, zh)
    direct = conjugate(g, h)
    composed = group_mul(group_mul(g, h), group_inv(g))
    assert direct.v == composed.v and direct.z == composed.z


@given(zvec, vvec, vvec)
@settings(max_examples=60)
def test_j_map_duality(z, x, y):
    # <j(Z)X, Y> = <Z, [X, Y]> on both algebras
    for alg in (M.alg, MP.alg):
        jm = j_matrix(alg, list(z))
        jx = [sum(jm[q][p] * x[p] for p in range(5)) for q in range(5)]
        lhs = sum(jx[q] * y[q] for q in range(5))
        br = bracket_v(alg, x, y)
        rhs = sum(z[r] * br[r] for r in range(3))
        assert lhs == rhs


@given(zvec)
def test_j_skew(z):
    for alg in (M.alg, MP.alg):
        jm = j_matrix(alg, list(z))
        for p in range(5):
            for q in range(5):
                assert jm[p][q] == -jm[q][p]


INTEGER_TENSOR_ALGEBRAS = [
    get_manifold(s).alg for s in ("M", "Mprime", "defo:1/3")
]


@given(st.data())
@settings(max_examples=60)
def test_j_matrices_match_j_matrix(data):
    for alg in INTEGER_TENSOR_ALGEBRAS:
        zs = data.draw(st.lists(
            st.lists(st.integers(-60, 60), min_size=alg.dim_z,
                     max_size=alg.dim_z),
            min_size=1, max_size=6,
        ))
        batch = j_matrices(alg, zs)
        assert batch.shape == (len(zs), alg.dim_v, alg.dim_v)
        assert batch.dtype == np.int64
        assert [m.tolist() for m in batch] == [j_matrix(alg, z) for z in zs]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_j_matrices_equal_the_einsum(seed):
    # the matmul on the (q, p)-transposed tensor gives the int64 matrices
    # of the einsum "pqr,...r->...qp", bit for bit
    rng = np.random.default_rng(seed)
    for alg in INTEGER_TENSOR_ALGEBRAS:
        zs = rng.integers(-10**6, 10**6, size=(4, 7, alg.dim_z))
        want = np.einsum("pqr,...r->...qp", alg.int_tensor, zs)
        got = j_matrices(alg, zs)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(j_matrices(alg, zs[0, 0]), want[0, 0])


def test_j_planes_hold_the_strict_upper_triangle():
    # U holds j(Z) above the diagonal and 0 on and below it, and U - U^T
    # is the printed golden matrix, on the grid {-3..3}^3
    cs = np.array(np.meshgrid(*[np.arange(-3, 4)] * 3)).reshape(3, -1).T
    lower = np.tril(np.ones((5, 5), dtype=bool))
    for alg, golden in ((M.alg, _expected_j), (MP.alg, _expected_jp)):
        planes = _j_planes(alg, cs)
        assert not np.any(planes[lower])
        assert _skew_matrices(planes).tolist() == \
            [golden(c) for c in cs.tolist()]


@pytest.mark.parametrize("scale_v, scale_z", [
    (1, Fraction(1, 2)), (1, 1), (2, 1), (Fraction(1, 2), Fraction(1, 8)),
    (Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 2), Fraction(9, 8)),
    (Fraction(2, 3), Fraction(1, 3)),
])
def test_lattice_brackets_in_twice_matches_membership(scale_v, scale_z):
    # [s_v e_p, s_v e_q] = s_v^2 T[p, q] lies in 2 s_z Z^dim_z exactly when
    # s T is an integer table, s = s_v^2 / (2 s_z): so on the fixed lattice
    # Z^dim_v (+) (1/2) Z^dim_z, where s = 1, the condition is the integer
    # check of AlgebraData, which accepts s T exactly when every bracket of
    # two basis vectors lies in 2 L_z
    s = Fraction(scale_v) ** 2 / (2 * Fraction(scale_z))
    for alg in INTEGER_TENSOR_ALGEBRAS:
        lat_v = scaled_lattice(alg.dim_v, scale_v)
        lat_z = scaled_lattice(alg.dim_z, scale_z)
        scaled = [[[int(x) if x.denominator == 1 else x
                    for x in (s * c for c in row)] for row in line]
                  for line in alg.structure]
        try:
            AlgebraData(scaled)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == brackets_in_twice(alg, lat_v, lat_z)


@given(st.data())
@settings(max_examples=60)
def test_j_kernels_match_integer_kernel(data):
    c = st.integers(-60, 60)
    zs = data.draw(st.lists(
        st.tuples(c, c, st.one_of(st.just(0), c)), min_size=1, max_size=8,
    )) + [(0, 0, 0)]
    for alg in (M.alg, MP.alg):
        mats = j_matrices(alg, zs)
        with mock.patch.object(lx, "integer_kernel",
                               wraps=lx.integer_kernel) as spy:
            kernels = kernel_rows(j_kernels(alg, zs))
        # the Pfaffian line is used exactly where rank j(Z) = 4
        fallbacks = [call.args[0] for call in spy.call_args_list]
        assert fallbacks == [m.tolist() for m in mats
                             if lx.rank(m.tolist()) < 4]
        for m, ker in zip(mats, kernels):
            assert not np.any(m @ np.array(ker).T)
            ref = lx.integer_kernel(m.tolist())
            if len(ref) == 1:
                assert ker in (ref, [[-x for x in ref[0]]])
            else:
                assert lx.rref(ker)[0] == lx.rref(ref)[0]


def _primitive_reference(row):
    """row divided by the gcd of its entries, first nonzero entry
    positive, in Python ints; the zero row stays 0."""
    g = gcd(*row)
    if not g:
        return row
    sign = 1 if next(x for x in row if x) > 0 else -1
    return [sign * x // g for x in row]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_primitive_rows_match_per_row_reference(seed):
    # rows with common factors, leading zeros and zero rows, in C order and
    # with the row axis outermost in memory, as j_kernels passes them
    rng = np.random.default_rng(seed)
    rows = rng.integers(-4, 5, size=(6, 4, 5)) * rng.integers(1, 7, (6, 4, 1))
    rows[0, 0], rows[1, :, :2] = 0, 0
    want = [[_primitive_reference(r) for r in block] for block in rows.tolist()]
    columns = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    for arr in (rows, np.moveaxis(columns, 0, -1)):
        assert _primitive_rows(arr).tolist() == want


def test_j_kernels_contract():
    # int64 bases (n, k, dim_v) padded with zero rows past dims[i], and
    # dims[i] the rank of the integer kernel, on generic, degenerate and
    # zero Z of both dim_v = 5 algebras and the dim_v = 4 deformation
    defo = get_manifold("defo:1/3").alg
    cases = ((M.alg, [[1, 2, 3], [2, 1, 0], [0, 0, 0], [4, -7, 5]], 5),
             (MP.alg, [[0, 0, 1], [3, 0, 0], [-2, 5, 9]], 3),
             (defo, [[1, 2], [0, 3], [0, 0]], 4))
    for alg, zs, k in cases:
        basis, dims = j_kernels(alg, zs)
        assert basis.dtype == np.int64
        assert basis.shape == (len(zs), k, alg.dim_v)
        assert dims.shape == (len(zs),)
        assert np.issubdtype(dims.dtype, np.integer)
        for b, d, m in zip(basis, dims, j_matrices(alg, zs)):
            assert d == len(lx.integer_kernel(m.tolist()))
            assert not np.any(b[d:])
            assert np.all(np.any(b[:d] != 0, axis=1))
    # k = 1 when every Z is generic: the Pfaffian line alone
    basis, dims = j_kernels(M.alg, [[1, 2, 3], [4, -7, 5]])
    assert basis.shape == (2, 1, 5) and dims.tolist() == [1, 1]


def test_j_kernels_batch_shape_and_guards():
    assert kernel_rows(j_kernels(MP.alg, [[0, 0, 1]])) == [[[0, 0, 0, 0, 1]]]
    with pytest.raises(ValueError):
        j_kernels(MP.alg, [0, 0, 1])  # one Z is a batch of one: [[0, 0, 1]]
    assert kernel_rows(j_kernels(M.alg, [[0, 0, 0]]))[0] == \
        lx.integer_kernel([[0] * 5] * 5)
    # dim v = 4: every row goes to integer_kernel
    defo = get_manifold("defo:1/3").alg
    zs = [[1, 2], [0, 3], [0, 0]]
    assert kernel_rows(j_kernels(defo, zs)) == [
        lx.integer_kernel(m.tolist()) for m in j_matrices(defo, zs)
    ]
    with pytest.raises(OverflowError):
        j_kernels(M.alg, [[2**31, 0, 1]])  # j(Z) fits int64, Pfaffians not
    with pytest.raises(OverflowError):
        j_kernels(M.alg, [[2**62, 0, 1]])  # j(Z) itself does not fit


def test_j_guard_reads_the_most_negative_int64():
    # |-2^63| is not an int64 (np.abs wraps it to -2^63): the j(Z) guard
    # rejects it itself, before a wrapped, non-skew j(Z) reaches a caller
    # or the Pfaffian guard
    cs = np.array([[-2**63, 0, 1]], dtype=np.int64)
    for build in (j_matrices, j_kernels):
        with pytest.raises(OverflowError, match="z-vector entries"):
            build(M.alg, cs)


def test_j_matrices_rejects_rational_input():
    assert M.alg.int_tensor.dtype == np.int64
    with pytest.raises(ValueError):
        j_matrices(M.alg, [[0.5, 0.0, 1.0]])
    with pytest.raises(ValueError):
        j_matrices(M.alg, [[1, 2]])  # wrong z-dimension
    # a structure constant 1/2 is rejected when the algebra is built
    table = ((((0,), (Fraction(1, 2),)), ((-Fraction(1, 2),), (0,))))
    with pytest.raises(ValueError, match="integers"):
        AlgebraData(table)


# tables AlgebraData rejects, each with the word its message carries
BAD_STRUCTURES = [
    ([[[0], [1]]], "shape"),
    ([[[0], [1, 0]], [[-1], [0]]], "shape"),
    ([], "shape"),  # empty
    ([[[], []], [[], []]], "shape"),  # dim_z = 0
    ([[[0], [1.0]], [[-1.0], [0]]], "integers"),
    ([[[0], [1]], [[1], [0]]], "antisymmetric"),
    ([[[1], [0]], [[0], [0]]], "antisymmetric"),  # [X, X] != 0
]


def test_structure_tensor_is_validated():
    alg = AlgebraData([[[0], [1]], [[-1], [0]]])
    assert (alg.dim_v, alg.dim_z) == (2, 1)
    assert alg.structure == (((0,), (1,)), ((-1,), (0,)))
    assert alg.terms == ((0, 1, 0, 1), (1, 0, 0, -1))
    for table, word in BAD_STRUCTURES:
        with pytest.raises(ValueError, match=word):
            AlgebraData(table)
    # the structure tensor is the one field; dim_v and dim_z are its shape
    for alg, dims in zip(INTEGER_TENSOR_ALGEBRAS, [(5, 3), (5, 3), (4, 2)]):
        assert [f.name for f in dataclasses.fields(alg)] == ["structure"]
        assert alg.int_tensor.shape == (dims[0],) + dims
        assert (alg.dim_v, alg.dim_z) == dims


def test_exact_bracket_and_j_stay_exact():
    x, y = [Fraction(1, 2), 0, 0, 0, 0], [0, 0, 0, Fraction(1, 3), 0]
    assert bracket_v(M.alg, x, y) == [0, 0, Fraction(1, 6)]
    jm = j_matrix(M.alg, [0, 0, Fraction(1, 2)])
    assert jm[3][0] == Fraction(1, 2) and isinstance(jm[3][0], Fraction)
    assert all(type(x) is int for row in j_matrix(M.alg, [1, 2, 3])
               for x in row)
    with pytest.raises(ValueError):
        bracket_v(M.alg, [1, 0, 0, 0, 0, 0], [0] * 5)  # a full n-vector


def test_float_paths_match_exact():
    rng = np.random.default_rng(3)
    for alg in (M.alg, MP.alg):
        for _ in range(20):
            a = rng.integers(-5, 6, size=5)
            b = rng.integers(-5, 6, size=5)
            z = rng.integers(-5, 6, size=3)
            exact = bracket_v(alg, list(a), list(b))
            assert np.allclose(
                bracket_v_np(alg, a.astype(float), b.astype(float)),
                [float(x) for x in exact],
            )
            jm = j_matrix(alg, list(z))
            assert np.allclose(
                j_matrix_np(alg, z.astype(float)),
                np.array([[float(x) for x in row] for row in jm]),
            )


def test_lattice_membership_and_coordinates():
    lat = manifold_lattices(M)[1]  # (1/2 Z)^3
    assert lattice_contains(lat, [Fraction(3, 2), 0, -2])
    assert not lattice_contains(lat, [Fraction(1, 3), 0, 0])
    coords = lattice_coordinates(lat, [Fraction(3, 2), 0, -2])
    assert coords == [Fraction(3), Fraction(0), Fraction(-4)]
    # membership is exactly integrality of the coordinates
    for w in ([Fraction(1, 2), 1, 0], [Fraction(1, 4), 0, 0], [0, 0, 7]):
        integral = all(x.denominator == 1 for x in lattice_coordinates(lat, w))
        assert lattice_contains(lat, w) == integral


def test_dual_of_half_lattice_is_double_lattice():
    lattice_z = manifold_lattices(M)[1]
    dual = dual_lattice(lattice_z)
    for b in dual.basis:
        assert lattice_contains(
            RationalLattice(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2))), b
        )
    # and <dual_i, basis_j> integer (here: delta_ij)
    for db in dual.basis:
        for lb in lattice_z.basis:
            pairing = sum(a * b for a, b in zip(db, lb))
            assert pairing.denominator == 1


def test_integer_lattice_contains_integers_only():
    lat = integer_lattice(5)
    assert lattice_contains(lat, [1, -2, 3, 0, 4])
    assert not lattice_contains(lat, [Fraction(1, 2), 0, 0, 0, 0])
