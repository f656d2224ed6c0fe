"""Two-step metric Lie algebras, the skew maps j(Z) with their integer
kernels, and rational lattices.

Scalars come in three modes: integers (int64 arrays or Python ints) for
certificates on integer Z, exact fractions.Fraction where a certificate
needs rationals, and IEEE doubles for dynamics.  An algebra is its integer
structure tensor, validated once at construction; the exact bracket and
j(Z) loop over its nonzero constants, and the float and int64 arrays are
built from it on first use.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod
from numbers import Integral

import numpy as np

from . import linalg_exact as lx


@dataclass
class AlgebraData:
    """A two-step metric Lie algebra n = v (+) z with orthonormal bases.

    structure[p][q][r] = <[e_p, e_q], Z_r> for v-basis vectors e_p, e_q, an
    integer, antisymmetric in (p, q), and the one field: dim_v and dim_z are
    read off its shape.  Construction normalizes it to nested tuples of
    Python ints and raises ValueError unless it is a nonempty dim_v x dim_v
    x dim_z box with dim_z > 0, of integers, antisymmetric.  terms holds the
    nonzero constants as (p, q, r, T[p][q][r]).
    """

    structure: tuple

    def __post_init__(self):
        t = self.structure
        dv = len(t)
        dz = len(t[0][0]) if dv and len(t[0]) else 0
        if not dz or any(len(line) != dv for line in t) or any(
                len(row) != dz for line in t for row in line):
            raise ValueError("structure tensor must have a nonempty shape "
                             "(dim_v, dim_v, dim_z)")
        if not all(isinstance(x, Integral) for line in t for row in line
                   for x in row):
            raise ValueError("structure constants must be integers")
        t = tuple(tuple(tuple(int(x) for x in row) for row in line)
                  for line in t)
        if any(t[p][q][r] != -t[q][p][r] for p in range(dv)
               for q in range(dv) for r in range(dz)):
            raise ValueError("structure tensor is not antisymmetric")
        self.structure = t
        self.dim_v, self.dim_z = dv, dz
        self.terms = tuple(
            (p, q, r, c) for p, line in enumerate(t) for q, row in enumerate(line)
            for r, c in enumerate(row) if c
        )

    @property
    def dim(self):
        return self.dim_v + self.dim_z

    @cached_property
    def tensor(self):
        """Float structure tensor T[p, q, r] = <[e_p, e_q], Z_r>."""
        return np.array(self.structure, dtype=float)

    @cached_property
    def int_tensor(self):
        """Integer structure tensor T[p, q, r] = <[e_p, e_q], Z_r> (int64)."""
        return np.array(self.structure, dtype=np.int64)


def bracket_v_np(alg, av, bv):
    """Float bracket of v-vectors, broadcast over leading axes; complex
    vectors give the complex-bilinear extension.

    [a, b]_r = a_p T[p, q, r] b_q as two matmuls: a against the tensor
    flattened to (dim_v, dim_v * dim_z), then b against the result, each one
    row vector per batch entry, so a batch row equals the one-pair call bit
    for bit.
    """
    kind = complex if np.iscomplexobj(av) or np.iscomplexobj(bv) else float
    av, bv = np.asarray(av, kind), np.asarray(bv, kind)
    dv, dz = alg.dim_v, alg.dim_z
    w = (av[..., None, :] @ alg.tensor.reshape(dv, dv * dz)).reshape(
        av.shape[:-1] + (dv, dz))
    return (bv[..., None, :] @ w)[..., 0, :]


def j_matrix(alg, z):
    """The skew map j(Z) on v defined by <j(Z)X, Y> = <Z, [X, Y]>, exact for
    int or Fraction Z."""
    if len(z) != alg.dim_z:
        raise ValueError(f"expected a z-vector of dimension {alg.dim_z}")
    jm = [[0] * alg.dim_v for _ in range(alg.dim_v)]
    for p, q, r, c in alg.terms:
        jm[q][p] += c * z[r]
    return jm


def _abs_max(a):
    """max|a| over an integer array as a Python int, 0 when a is empty."""
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


def _j_entry_bound(t, cs):
    """|j(Z)_qp| <= max|Z| * sum_r |T[p, q, r]|, in Python ints."""
    return _abs_max(cs) * int(np.abs(t).sum(axis=2).max())


def _j_planes(alg, cs):
    """Integer j(Z) for integer Z as entry planes: cs (..., dim_z) -> int64
    (dim_v, dim_v, n), n the number of z-vectors, plane [q, p] holding
    j(Z)_qp = T[p, q] . Z for every Z, built by one signed add of a
    z-coordinate plane per nonzero constant."""
    cs = np.asarray(cs)
    if cs.shape[-1:] != (alg.dim_z,):
        raise ValueError(f"expected z-vectors of dimension {alg.dim_z}")
    if not np.issubdtype(cs.dtype, np.integer):
        raise ValueError("j_matrices takes integer z-vectors")
    if _j_entry_bound(alg.int_tensor, cs) >= 2**62:
        raise OverflowError("z-vector entries too large for int64 j(Z)")
    zt = np.ascontiguousarray(cs.reshape(-1, alg.dim_z).T, dtype=np.int64)
    planes = np.zeros((alg.dim_v, alg.dim_v, zt.shape[1]), dtype=np.int64)
    for p, q, r, c in alg.terms:
        planes[q, p] += c * zt[r]
    return planes


def j_matrices(alg, cs):
    """Integer j(Z) for integer Z, batched: cs (..., dim_z) -> (..., dim_v,
    dim_v) int64, a view of the entry planes of `_j_planes`."""
    planes = _j_planes(alg, cs)
    return planes.transpose(2, 0, 1).reshape(
        np.shape(cs)[:-1] + planes.shape[:2])


def _pfaffians(planes):
    """The Pfaffians of all even principal submatrices of skew integer
    matrices held as entry planes (d, d, n): {S: (n,) int64} over the
    sorted index tuples S of size 2, 4, ..., d, each expanded along its
    first row, Pf(S) = sum_j (-1)^(j+1) a[s_0, s_j] Pf(S without s_0, s_j).

    A Pfaffian of size 2k is a sum of (2k-1)!! signed products of k
    entries, so every partial sum stays below (2k-1)!! e^k for e =
    max|a_ij|; where that reaches 2^63 at the largest k, OverflowError
    before any work.
    """
    d = planes.shape[0]
    top = _abs_max(planes)
    if prod(range(1, 2 * (d // 2), 2)) * top ** (d // 2) >= 2**63:
        raise OverflowError(f"entries up to {top} too large for int64 "
                            f"{d}x{d} Pfaffians")
    pf = {s: planes[s] for s in combinations(range(d), 2)}
    for size in range(4, d + 1, 2):
        for s in combinations(range(d), size):
            acc = planes[s[0], s[1]] * pf[s[2:]]
            for j in range(2, size):
                term = planes[s[0], s[j]] * pf[s[1:j] + s[j + 1:]]
                if j % 2:
                    acc += term
                else:
                    acc -= term
            pf[s] = acc
    return pf


def _primitive_rows(rows):
    """Integer rows (..., dim) divided by the gcd of their entries and
    signed so that the first nonzero entry is positive; zero rows stay 0.
    Column by column, so the work is elementwise over the leading axes."""
    cols = np.moveaxis(rows, -1, 0)
    g = np.maximum(np.gcd.reduce(cols, axis=0), 1)
    first = cols[-1]
    for col in cols[-2::-1]:
        first = np.where(col != 0, col, first)
    return rows // np.where(first < 0, -g, g)[..., None]


def j_kernels(alg, cs):
    """Saturated integer bases of ker j(Z) for integer Z, batched: cs
    (n, dim_z) -> (basis, dims), basis int64 (n, k, dim_v) with the dims[i]
    basis vectors of ker j(Z_i) in row i, then zero rows.

    For dim_v = 5 and rank j(Z) = 4 the kernel is the line (k = 1) of the
    signed 4x4 sub-Pfaffians k_i = (-1)^i Pf(j without row and column i)
    (Buchsbaum & Eisenbud, Amer. J. Math. 99, 1977), read off `_pfaffians`,
    primitive with its first nonzero entry positive.  Rank < 4 makes every
    sub-Pfaffian 0; those rows, and every row when dim_v != 5, go to
    lx.integer_kernel.
    """
    if np.ndim(cs) != 2:
        raise ValueError("j_kernels takes a batch of z-vectors (n, dim_z)")
    planes = _j_planes(alg, cs)
    dv, n = alg.dim_v, planes.shape[2]
    pf = np.zeros((dv, n), dtype=np.int64)
    if dv == 5:
        sub = _pfaffians(planes)
        for i in range(5):
            minor = sub[tuple(r for r in range(5) if r != i)]
            pf[i] = -minor if i % 2 else minor
    pf = _primitive_rows(pf.T)
    fallback = np.flatnonzero(~np.any(pf != 0, axis=1))
    kers = [lx.integer_kernel(planes[:, :, i].tolist())
            for i in fallback.tolist()]
    dims = np.ones(n, dtype=int)
    dims[fallback] = [len(ker) for ker in kers]
    basis = np.zeros((n, dims.max(initial=1), dv), np.int64)
    basis[:, 0] = pf
    for i, ker in zip(fallback.tolist(), kers):
        if ker:
            basis[i, :len(ker)] = ker
    return basis, dims


def j_matrix_np(alg, z):
    """Float j(Z); z may carry batch axes on the left."""
    return np.einsum("pqr,...r->...qp", alg.tensor, np.asarray(z, float))


@dataclass
class RationalLattice:
    """A rank-r lattice in Q^n given by an exact, independent basis."""

    ambient_dim: int
    basis: tuple  # tuple of basis vectors, each a tuple of Fractions

    def __post_init__(self):
        basis = tuple(
            tuple(Fraction(x) for x in vec) for vec in self.basis
        )
        object.__setattr__(self, "basis", basis)
        for vec in basis:
            if len(vec) != self.ambient_dim:
                raise ValueError("basis vector has wrong ambient dimension")
        if basis and lx.rank([list(v) for v in basis]) != len(basis):
            raise ValueError("lattice basis is linearly dependent")

    @property
    def rank(self):
        return len(self.basis)
