"""The concrete manifolds: the isospectral pair (M, M') built from the
quaternion sign table, and the isospectral deformation family.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .lie_core import AlgebraData

# quaternion products: QUAT[(a, b)] = (sign, c) meaning a*b = sign * c
_I, _J, _K = 0, 1, 2
QUAT = {
    (_I, _J): (1, _K), (_J, _I): (-1, _K),
    (_J, _K): (1, _I), (_K, _J): (-1, _I),
    (_K, _I): (1, _J), (_I, _K): (-1, _J),
}

# v-basis index -> (letter, quaternion unit): X_i, X_j, Y_i, Y_j, Y_k (X_k
# is omitted by construction); the z-basis is Z_i, Z_j, Z_k
_V_UNITS = [("X", _I), ("X", _J), ("Y", _I), ("Y", _J), ("Y", _K)]


@dataclass
class NilmanifoldData:
    """A compact two-step nilmanifold: algebra plus the one lattice.

    The lattice is log Gamma = Z^dim_v (+) (1/2) Z^dim_z on every manifold
    here, fixed rather than held: [L_v, L_v] = T lies in 2 L_z = Z^dim_z
    because every structure constant is an integer, which AlgebraData
    enforces, so Gamma is a group.  split = (X-block, Y-block, z-functional)
    indexes the injective presentation: ((0, 1), (2, 3, 4), 2) on the
    pair, ((0, 1), (2, 3), 0) on the deformation family.  has_integrals
    marks the manifold with the eight integrals of `integrals` (M only),
    which `nilflow integrals` and `poisson` require.

    frame(Z) -> (entries, (theta_1, theta_2)) is the printed invariant frame
    of j(Z), batched over leading axes of Z, as a table of the nonzero
    entries (row, column, value) of the unnormalized rows E1, E2 (plane of
    frequency theta_1), E3, E4 (plane of frequency theta_2) and the kernel
    vector Y_c; `flow.eigenframe` scatters it into (..., 5, dim_v) rows.
    drift(c, v, al, n2) -> (g_D, g_W) are the D and W coefficients of the
    translational element over tau beta (the plane term of W left out) at
    base point v, frame coefficients al of V and n2 = |c|^2 as the caller
    computed it, affine in v and batched over axes on the left of every
    argument.  Both are None where no closed form is known (the
    deformation family).
    """

    name: str
    alg: AlgebraData
    split: tuple
    has_integrals: bool = False
    frame: object = None
    drift: object = None


def _pair_algebras():
    """M has [X_a, Y_b] = Z_ab and M' has [X_a, X_b]' = [Y_a, Y_b]' = Z_ab,
    both read off the sign table (antisymmetric because ab = -ba)."""
    m, mp = ([[[0] * 3 for _ in range(5)] for _ in range(5)] for _ in range(2))
    for p, (lp, a) in enumerate(_V_UNITS):
        for q, (lq, b) in enumerate(_V_UNITS):
            if a != b:
                sign, c = QUAT[(a, b)]
                (mp if lp == lq else m)[p][q][c] = sign
    return AlgebraData(m), AlgebraData(mp)


def _shared(Z):
    """(c_i, c_j, c_k, |c|) and the rows M and M' share, E4 = c_k (c_i Y_i
    + c_j Y_j) - (c_i^2 + c_j^2) Y_k and Y_c = c_i Y_i + c_j Y_j + c_k Y_k,
    as nonzero entries (row, column, value) in the order np.einsum sums a
    row's products (columns 2, 4, 3), so a sum over them is bit for bit
    the product with the dense row."""
    ci, cj, ck = np.moveaxis(np.asarray(Z, float), -1, 0)
    rho2 = ci * ci + cj * cj
    return ci, cj, ck, np.sqrt(rho2 + ck * ck), (
        (3, 2, ck * ci), (3, 4, -rho2), (3, 3, ck * cj), (4, 2, ci),
        (4, 4, ck), (4, 3, cj))


def _entries_M(Z):
    """M's printed rows as entries, and the frequencies (c_k, |c|):
    E1 = c_i X_i + c_j X_j, E2 = -c_j Y_i + c_i Y_j, E3 = |c| (c_j X_i -
    c_i X_j), then the shared rows."""
    ci, cj, ck, n, shared = _shared(Z)
    return ((0, 0, ci), (0, 1, cj), (1, 2, -cj), (1, 3, ci), (2, 0, n * cj),
            (2, 1, -(n * ci))) + shared, (ck, n)


def _entries_Mprime(Z):
    """E1 = X_i, E2 = X_j, E3 = |c| (c_j Y_i - c_i Y_j), then the shared
    rows."""
    ci, cj, ck, n, shared = _shared(Z)
    return ((0, 0, 1.0), (1, 1, 1.0), (2, 2, n * cj),
            (2, 3, -(n * ci))) + shared, (ck, n)


def _drift_M(c, v, al, n2):
    """g_D = al_2 - c_k (x_i c_i + x_j c_j) / rho^2 and
    g_W = al_4 - (x_i c_j - x_j c_i) / rho^2, rho^2 = c_i^2 + c_j^2."""
    ci, cj, ck = c[..., 0], c[..., 1], c[..., 2]
    xi, xj = v[..., 0], v[..., 1]
    rho2 = ci * ci + cj * cj
    return (al[..., 1] - ck / rho2 * (xi * ci + xj * cj),
            al[..., 3] - (xi * cj - xj * ci) / rho2)


def _drift_Mprime(c, v, al, n2):
    """g_D = -|c| al_3 + y_k - c_k (y_i c_i + y_j c_j) / rho^2 and
    g_W = al_4 - (y_i c_j - y_j c_i) / rho^2."""
    ci, cj, ck = c[..., 0], c[..., 1], c[..., 2]
    yi, yj = v[..., 2], v[..., 3]
    rho2 = ci * ci + cj * cj
    return (-np.sqrt(n2) * al[..., 2] + v[..., 4]
            - ck / rho2 * (yi * ci + yj * cj),
            al[..., 3] - (yi * cj - yj * ci) / rho2)


def build_pair():
    """The isospectral pair (M-data, M'-data), built once per process and
    shared read-only (cached in _build_pair: perfbench traces this name)."""
    return _build_pair()


@cache
def _build_pair():
    alg, alg_p = _pair_algebras()
    split = ((0, 1), (2, 3, 4), _K)
    return (
        NilmanifoldData("M", alg, split, True, _entries_M, _drift_M),
        NilmanifoldData("Mprime", alg_p, split, False, _entries_Mprime,
                        _drift_Mprime),
    )


def build_deformation(t):
    """One member of the isospectral deformation family.

    dim v = 4, dim z = 2 with [X_1,Y_1] = [X_2,Y_2] = Z_1, [X_1,Y_2] = Z_2
    on the basis X_1, X_2, Y_1, Y_2; the algebra and the lattice are the
    same for every member, so t only names the member ("defo:<t>").
    """
    s = [[[0, 0] for _ in range(4)] for _ in range(4)]
    for p, q, r in ((0, 2, 0), (1, 3, 0), (0, 3, 1)):
        s[p][q][r], s[q][p][r] = 1, -1
    return NilmanifoldData(f"defo:{t}", AlgebraData(s), ((0, 1), (2, 3), 0))


def _deformation_t(raw):
    """The t of a "defo:<t>" selector, p or p/q in integers of at most 30
    digits each (every report prints t in the manifold's name), as a
    Fraction; ValueError for anything else and for q = 0."""
    if re.fullmatch(r"[+-]?\d{1,30}(/\d{1,30})?", raw):
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            pass
    raise ValueError(f"defo:{raw}: t must be p or p/q, integers of at most "
                     "30 digits each, q nonzero")


def get_manifold(selector):
    """Resolve a CLI selector: "M", "Mprime", or "defo:<t>"."""
    if selector == "M":
        return build_pair()[0]
    if selector == "Mprime":
        return build_pair()[1]
    if selector.startswith("defo:"):
        return build_deformation(_deformation_t(selector[5:]))
    raise ValueError(f"unknown manifold selector: {selector!r}")
