"""The concrete manifolds: the isospectral pair (M, M') built from the
quaternion sign table, and the isospectral deformation family.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .lie_core import AlgebraData, RationalLattice, bracket_v

# quaternion products: QUAT[(a, b)] = (sign, c) meaning a*b = sign * c
_I, _J, _K = 0, 1, 2
QUAT = {
    (_I, _J): (1, _K), (_J, _I): (-1, _K),
    (_J, _K): (1, _I), (_K, _J): (-1, _I),
    (_K, _I): (1, _J), (_I, _K): (-1, _J),
}

V_NAMES = ("X_i", "X_j", "Y_i", "Y_j", "Y_k")
Z_NAMES = ("Z_i", "Z_j", "Z_k")

# v-basis index -> (letter, quaternion unit); X_k is omitted by construction
_V_UNITS = [("X", _I), ("X", _J), ("Y", _I), ("Y", _J), ("Y", _K)]


@dataclass
class NilmanifoldData:
    """A compact two-step nilmanifold: algebra plus lattice data.

    lattice_v is the lattice in v, lattice_z the lattice in z.

    frame(Z) -> (rows, theta) is the printed invariant frame of j(Z), batched
    over leading axes of Z: rows (..., 5, dim_v) are the unnormalized
    E1, E2 (plane of frequency theta[..., 0]), E3, E4 (plane of frequency
    theta[..., 1]) and the kernel vector Y_c.  None where no closed form is
    known (the deformation family).
    """

    name: str
    alg: AlgebraData
    lattice_v: RationalLattice
    lattice_z: RationalLattice
    frame: object = None

    def __post_init__(self):
        if self.lattice_v.rank != self.alg.dim_v:
            raise ValueError("v-lattice must have full rank")
        if self.lattice_z.rank != self.alg.dim_z:
            raise ValueError("z-lattice must have full rank")
        # [L_v, L_v] subset 2 L_z, checked exactly on all basis pairs
        from .lie_core import lattice_contains

        twice = RationalLattice(
            self.alg.dim_z,
            tuple(tuple(2 * x for x in b) for b in self.lattice_z.basis),
        )
        for a in self.lattice_v.basis:
            for b in self.lattice_v.basis:
                br = bracket_v(self.alg, a, b)
                if not lattice_contains(twice, br):
                    raise ValueError(
                        f"{self.name}: bracket of lattice vectors leaves 2*L_z"
                    )


def _empty_table(dim_v, dim_z):
    return [[[Fraction(0)] * dim_z for _ in range(dim_v)] for _ in range(dim_v)]


def _set_bracket(table, p, q, zvec):
    table[p][q] = [x for x in zvec]
    table[q][p] = [-x for x in zvec]


def _freeze(table):
    return tuple(tuple(tuple(row) for row in line) for line in table)


def _pair_algebras():
    dim_v, dim_z = 5, 3
    tab = _empty_table(dim_v, dim_z)
    tab_p = _empty_table(dim_v, dim_z)
    for p, (lp, a) in enumerate(_V_UNITS):
        for q, (lq, b) in enumerate(_V_UNITS):
            if a == b:
                continue
            sign, c = QUAT[(a, b)]
            zvec = [Fraction(0)] * dim_z
            zvec[c] = Fraction(sign)
            if lp == "X" and lq == "Y":
                # [X_a, Y_b] = Z_{ab} in M
                _set_bracket(tab, p, q, zvec)
            if lp == lq and p < q:
                # [X_a, X_b]' = [Y_a, Y_b]' = Z_{ab} in M'
                _set_bracket(tab_p, p, q, zvec)
    alg = AlgebraData(dim_v, dim_z, V_NAMES, Z_NAMES, _freeze(tab))
    alg_p = AlgebraData(dim_v, dim_z, V_NAMES, Z_NAMES, _freeze(tab_p))
    return alg, alg_p


def _frame_rows(Z):
    """The rows M and M' share: E4 = c_k (c_i Y_i + c_j Y_j) - (c_i^2 + c_j^2)
    Y_k and Y_c = c_i Y_i + c_j Y_j + c_k Y_k; frequencies (c_k, |c|)."""
    Z = np.asarray(Z, float)
    ci, cj, ck = Z[..., 0], Z[..., 1], Z[..., 2]
    rho2 = ci * ci + cj * cj
    theta = np.empty(Z.shape[:-1] + (2,))
    theta[..., 0] = ck
    theta[..., 1] = np.sqrt(rho2 + ck * ck)
    rows = np.zeros(Z.shape[:-1] + (5, 5))
    rows[..., 3, 2:4] = Z[..., 2:] * Z[..., :2]
    rows[..., 3, 4] = -rho2
    rows[..., 4, 2:] = Z
    return rows, theta


_FLIP = np.array([1.0, -1.0])


def _frame_M(Z):
    """E1 = c_i X_i + c_j X_j, E2 = -c_j Y_i + c_i Y_j,
    E3 = |c| (c_j X_i - c_i X_j)."""
    rows, theta = _frame_rows(Z)
    cji = rows[..., 4, 3:1:-1]  # (c_j, c_i)
    rows[..., 0, :2] = rows[..., 4, 2:4]
    rows[..., 1, 2:4] = cji * -_FLIP
    rows[..., 2, :2] = theta[..., 1:] * cji * _FLIP
    return rows, theta


def _frame_Mprime(Z):
    """E1 = X_i, E2 = X_j, E3 = |c| (c_j Y_i - c_i Y_j)."""
    rows, theta = _frame_rows(Z)
    rows[..., 0, 0] = rows[..., 1, 1] = 1.0
    rows[..., 2, 2:4] = theta[..., 1:] * rows[..., 4, 3:1:-1] * _FLIP
    return rows, theta


def _pair_lattices():
    lat_v = RationalLattice(5, tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(5)) for i in range(5)
    ))
    half = Fraction(1, 2)
    lat_z = RationalLattice(3, tuple(
        tuple(half if i == j else Fraction(0) for j in range(3)) for i in range(3)
    ))
    return lat_v, lat_z


def build_pair():
    """The isospectral pair (M-data, M'-data), built once per process and
    shared read-only (cached in _build_pair: perfbench traces this name)."""
    return _build_pair()


@cache
def _build_pair():
    alg, alg_p = _pair_algebras()
    lat_v, lat_z = _pair_lattices()
    return (
        NilmanifoldData("M", alg, lat_v, lat_z, frame=_frame_M),
        NilmanifoldData("Mprime", alg_p, lat_v, lat_z, frame=_frame_Mprime),
    )


def build_deformation(t):
    """One member of the isospectral deformation family.

    dim v = 4, dim z = 2 with [X_1,Y_1] = [X_2,Y_2] = Z_1, [X_1,Y_2] = Z_2;
    the lattice is generated by (X_1, X_2, Y_1, Y_2 + t*Z_2, Z_1/2, Z_2/2).
    Exact certificates are available only for rational t.
    """
    dim_v, dim_z = 4, 2
    tab = _empty_table(dim_v, dim_z)
    one = Fraction(1)
    _set_bracket(tab, 0, 2, [one, Fraction(0)])  # [X_1, Y_1] = Z_1
    _set_bracket(tab, 1, 3, [one, Fraction(0)])  # [X_2, Y_2] = Z_1
    _set_bracket(tab, 0, 3, [Fraction(0), one])  # [X_1, Y_2] = Z_2
    alg = AlgebraData(
        dim_v, dim_z,
        ("X_1", "X_2", "Y_1", "Y_2"), ("Z_1", "Z_2"),
        _freeze(tab),
    )
    lat_v = RationalLattice(4, tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(4)) for i in range(4)
    ))
    half = Fraction(1, 2)
    lat_z = RationalLattice(2, ((half, Fraction(0)), (Fraction(0), half)))
    return NilmanifoldData(f"defo:{t}", alg, lat_v, lat_z)


def get_manifold(selector):
    """Resolve a CLI selector: "M", "Mprime", or "defo:<t>"."""
    if selector == "M":
        return build_pair()[0]
    if selector == "Mprime":
        return build_pair()[1]
    if selector.startswith("defo:"):
        raw = selector[5:]
        try:
            t = Fraction(raw)
        except ValueError:
            t = float(raw)
        return build_deformation(t)
    raise ValueError(f"unknown manifold selector: {selector!r}")
