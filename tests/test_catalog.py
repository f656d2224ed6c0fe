"""The concrete pair and the deformation family."""

from fractions import Fraction

import pytest

from nilflow import catalog
from nilflow.catalog import build_deformation, build_pair, get_manifold
from nilflow.lie_core import j_matrix
from oracles import bracket_v, brackets_in_twice, manifold_lattices

M, MP = build_pair()

# frozen golden matrices at c = (0, 0, 1) and c = (1, 1, 1); basis order
# (X_i, X_j, Y_i, Y_j, Y_k) / (Z_i, Z_j, Z_k)
GOLDEN_J_EK = [
    [0, 0, 0, -1, 0],
    [0, 0, 1, 0, 0],
    [0, -1, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]
GOLDEN_JP_EK = [
    [0, -1, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 0, 0, -1, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0],
]
GOLDEN_J_111 = [
    [0, 0, 0, -1, 1],
    [0, 0, 1, 0, -1],
    [0, -1, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0],
]
GOLDEN_JP_111 = [
    [0, -1, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 0, 0, -1, 1],
    [0, 0, 1, 0, -1],
    [0, 0, -1, 1, 0],
]


def as_int(mat):
    return [[int(x) for x in row] for row in mat]


def test_golden_matrices_ek():
    assert as_int(j_matrix(M.alg, [0, 0, 1])) == GOLDEN_J_EK
    assert as_int(j_matrix(MP.alg, [0, 0, 1])) == GOLDEN_JP_EK


def test_golden_matrices_111():
    assert as_int(j_matrix(M.alg, [1, 1, 1])) == GOLDEN_J_111
    assert as_int(j_matrix(MP.alg, [1, 1, 1])) == GOLDEN_JP_111


def test_bracket_signs_quaternionic():
    # [X_i, Y_j] = Z_k, [X_j, Y_i] = -Z_k, [X_i, Y_i] = 0 on M
    assert bracket_v(M.alg, [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]) == [0, 0, 1]
    assert bracket_v(M.alg, [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]) == [0, 0, -1]
    assert bracket_v(M.alg, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0]) == [0, 0, 0]
    # [X_i, X_j]' = Z_k, [Y_i, Y_j]' = Z_k, [X, Y]' = 0 on M'
    assert bracket_v(MP.alg, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) == [0, 0, 1]
    assert bracket_v(MP.alg, [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]) == [0, 0, 1]
    assert bracket_v(MP.alg, [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]) == [0, 0, 0]


def test_y_block_abelian_on_M():
    ys = [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    for a in ys:
        for b in ys:
            assert bracket_v(M.alg, a, b) == [0, 0, 0]


def test_lattice_shapes():
    # log Gamma = Z^dim_v (+) (1/2) Z^dim_z on every manifold, and
    # [L_v, L_v] lies in 2 L_z by exact membership of every bracket
    lat_v, lat_z = manifold_lattices(M)
    assert lat_v.rank == 5 and lat_z.rank == 3
    assert lat_z.basis[0] == (Fraction(1, 2), 0, 0)
    for data in (M, MP, build_deformation(Fraction(1, 3))):
        assert brackets_in_twice(data.alg, *manifold_lattices(data))


def test_deformation_family():
    d = build_deformation(Fraction(1, 3))
    assert d.alg.dim_v == 4 and d.alg.dim_z == 2
    assert bracket_v(d.alg, [1, 0, 0, 0], [0, 0, 1, 0]) == [1, 0]
    assert d.frame is None and d.drift is None
    assert not hasattr(d, "pin")


def test_pair_is_built_once():
    assert build_pair() is build_pair()
    assert get_manifold("M") is build_pair()[0]
    assert get_manifold("Mprime") is build_pair()[1]


def test_get_manifold_selectors():
    assert get_manifold("M").name == "M"
    assert get_manifold("Mprime").name == "Mprime"
    assert get_manifold("defo:1/2").alg.dim_v == 4
    with pytest.raises(ValueError):
        get_manifold("bogus")


def test_split_and_integrals_are_manifold_data():
    # (X-block, Y-block, z-functional) of the injective presentation, and
    # whether the manifold carries the eight integrals
    d = get_manifold("defo:1/3")
    assert (M.split, M.has_integrals) == (((0, 1), (2, 3, 4), 2), True)
    assert (MP.split, MP.has_integrals) == (((0, 1), (2, 3, 4), 2), False)
    assert (d.split, d.has_integrals) == (((0, 1), (2, 3), 0), False)
    for data in (M, MP):
        x, y, k = data.split
        letters = [catalog._V_UNITS[i][0] for i in x + y]
        assert letters == ["X"] * len(x) + ["Y"] * len(y)
        assert k == catalog._K
    for data in (M, MP, d):
        x, y, _ = data.split
        assert sorted(x + y) == list(range(data.alg.dim_v))
