"""Two-step metric Lie algebras, the skew maps j(Z) with their integer
kernels, and rational lattices.

Scalars come in three modes: integers (int64 arrays or Python ints) for
certificates on integer Z, exact fractions.Fraction where a certificate
needs rationals, and IEEE doubles for dynamics.  The bracket table is
stored exactly and converted to an integer or float tensor on demand.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx


_UNBUILT = object()  # marks a cached value not built yet (None is a value)


@dataclass
class AlgebraData:
    """A two-step metric Lie algebra n = v (+) z with orthonormal bases.

    bracket_table[p][q] is the z-vector [e_p, e_q] for v-basis vectors
    e_p, e_q; it must be antisymmetric with zero diagonal.
    """

    dim_v: int
    dim_z: int
    v_names: tuple
    z_names: tuple
    bracket_table: tuple  # bracket_table[p][q] -> tuple of dim_z Fractions
    _tensor: np.ndarray = field(default=None, repr=False, compare=False)
    _int_tensor: object = field(default=_UNBUILT, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bracket_table) != self.dim_v:
            raise ValueError("bracket table has wrong v-dimension")
        for p in range(self.dim_v):
            for q in range(self.dim_v):
                row = self.bracket_table[p][q]
                if len(row) != self.dim_z:
                    raise ValueError("bracket table has wrong z-dimension")
                neg = tuple(-x for x in self.bracket_table[q][p])
                if tuple(row) != neg:
                    raise ValueError("bracket table is not antisymmetric")

    @property
    def dim(self):
        return self.dim_v + self.dim_z

    def tensor(self):
        """Float structure tensor T[p, q, r] = <[e_p, e_q], Z_r>."""
        if self._tensor is None:
            t = np.zeros((self.dim_v, self.dim_v, self.dim_z))
            for p in range(self.dim_v):
                for q in range(self.dim_v):
                    t[p, q] = [float(x) for x in self.bracket_table[p][q]]
            self._tensor = t
        return self._tensor

    def int_tensor(self):
        """Integer structure tensor T[p, q, r] = <[e_p, e_q], Z_r> (int64),
        or None when some bracket coefficient is not an integer."""
        if self._int_tensor is _UNBUILT:
            table = self.bracket_table
            integral = all(
                Fraction(x).denominator == 1
                for line in table for row in line for x in row
            )
            self._int_tensor = np.array(
                [[[int(x) for x in row] for row in line] for line in table],
                dtype=np.int64,
            ) if integral else None
        return self._int_tensor


def bracket(alg, a, b):
    """Lie bracket of two full algebra vectors (length dim_v + dim_z).

    Only the v-components contribute; the result lives in z.
    """
    n = alg.dim
    if len(a) != n or len(b) != n:
        raise ValueError(f"expected vectors of dimension {n}")
    out = [0] * alg.dim_z
    for p in range(alg.dim_v):
        ap = a[p]
        if ap == 0:
            continue
        for q in range(alg.dim_v):
            bq = b[q]
            if bq == 0:
                continue
            tab = alg.bracket_table[p][q]
            for r in range(alg.dim_z):
                if tab[r] != 0:
                    out[r] += ap * bq * tab[r]
    return out


def bracket_v(alg, av, bv):
    """Bracket of two v-vectors (length dim_v)."""
    return bracket(alg, list(av) + [0] * alg.dim_z, list(bv) + [0] * alg.dim_z)


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
    w = (av[..., None, :] @ alg.tensor().reshape(dv, dv * dz)).reshape(
        av.shape[:-1] + (dv, dz))
    return (bv[..., None, :] @ w)[..., 0, :]


def j_matrix(alg, z):
    """The skew map j(Z) on v defined by <j(Z)X, Y> = <Z, [X, Y]>."""
    if len(z) != alg.dim_z:
        raise ValueError(f"expected a z-vector of dimension {alg.dim_z}")
    jm = [[0] * alg.dim_v for _ in range(alg.dim_v)]
    for p in range(alg.dim_v):
        for q in range(alg.dim_v):
            tab = alg.bracket_table[p][q]
            jm[q][p] = sum(z[r] * tab[r] for r in range(alg.dim_z))
    return jm


def _j_entry_bound(t, cs):
    """|j(Z)_qp| <= max|Z| * sum_r |T[p, q, r]|, in Python ints."""
    return int(np.abs(cs).max(initial=0)) * int(np.abs(t).sum(axis=2).max())


def j_matrices(alg, cs):
    """Integer j(Z) for integer Z, batched: cs (..., dim_z) -> (..., dim_v,
    dim_v) int64, one einsum over the integer structure tensor."""
    t = alg.int_tensor()
    if t is None:
        raise ValueError("the bracket table is not integral")
    cs = np.asarray(cs)
    if cs.shape[-1:] != (alg.dim_z,):
        raise ValueError(f"expected z-vectors of dimension {alg.dim_z}")
    if not np.issubdtype(cs.dtype, np.integer):
        raise ValueError("j_matrices takes integer z-vectors")
    if _j_entry_bound(t, cs) >= 2**62:
        raise OverflowError("z-vector entries too large for int64 j(Z)")
    return np.einsum("pqr,...r->...qp", t, cs.astype(np.int64))


def j_kernels(alg, cs):
    """Saturated integer basis of ker j(Z) for integer Z, batched: cs
    (n, dim_z) -> the list of the n bases.

    For dim_v = 5 and rank j(Z) = 4 the kernel is the line of the signed
    4x4 sub-Pfaffians k_i = (-1)^i Pf(j without row and column i)
    (Buchsbaum & Eisenbud, Amer. J. Math. 99, 1977), returned primitive
    with its first nonzero entry positive.  Rank < 4 makes every sub-Pfaffian
    0; those rows, and every row when dim_v != 5, go to lx.integer_kernel.
    """
    mats = j_matrices(alg, cs)
    if mats.ndim != 3:
        raise ValueError("j_kernels takes a batch of z-vectors (n, dim_z)")
    pf = np.zeros(mats.shape[:2], dtype=np.int64)
    if alg.dim_v == 5:
        # each Pfaffian is 3 products of two entries of j(Z)
        if 3 * _j_entry_bound(alg.int_tensor(), cs) ** 2 >= 2**62:
            raise OverflowError("z-vector entries too large for int64 Pfaffians")
        for i in range(5):
            a, b, c, d = (r for r in range(5) if r != i)
            pf[:, i] = (-1) ** i * (
                mats[:, a, b] * mats[:, c, d] - mats[:, a, c] * mats[:, b, d]
                + mats[:, a, d] * mats[:, b, c]
            )
        g = np.gcd.reduce(pf, axis=1)
        lead = pf[np.arange(len(pf)), np.argmax(pf != 0, axis=1)]
        pf //= np.where(lead < 0, -g, np.maximum(g, 1))[:, None]
    out = [[row] for row in pf.tolist()]
    for i in np.nonzero(~np.any(pf != 0, axis=1))[0].tolist():
        out[i] = lx.integer_kernel(mats[i].tolist())
    return out


def j_matrix_np(alg, z):
    """Float j(Z); z may carry batch axes on the left."""
    return np.einsum("pqr,...r->...qp", alg.tensor(), np.asarray(z, float))


@dataclass
class RationalLattice:
    """A rank-r lattice in Q^n given by an exact, independent basis."""

    ambient_dim: int
    basis: tuple  # tuple of basis vectors, each a tuple of Fractions
    _gram: tuple = field(default=None, repr=False, compare=False)

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

    def gram(self):
        if self._gram is None:
            g = tuple(
                tuple(sum(a * b for a, b in zip(u, w)) for w in self.basis)
                for u in self.basis
            )
            object.__setattr__(self, "_gram", g)
        return self._gram


def lattice_contains(lat, w):
    """Exact membership: w is an integer combination of the basis."""
    if len(w) != lat.ambient_dim:
        raise ValueError("vector has wrong ambient dimension")
    w = [Fraction(x) for x in w]
    if lat.rank == 0:
        return all(x == 0 for x in w)
    cols = [list(v) for v in zip(*lat.basis)]  # ambient x rank
    x = lx.solve(cols, w)
    if x is None:
        return False
    return all(c.denominator == 1 for c in x)
