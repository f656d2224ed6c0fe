"""Exact spectral machinery: characteristic polynomials, kernels of j(Z),
lattice intersections, and the isospectrality certificate for the pair
(M, M').  Length-spectrum slices stay as the oracle that the tests hold
the certificate's permutation witnesses (`_kernel_isometries`) against.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, isqrt, prod

import numpy as np

from . import linalg_exact as lx
from .lie_core import (AlgebraData, RationalLattice, _abs_max, _j_planes,
                       _pfaffians, _skew_matrices, j_kernels, j_matrices)
from .report import Certificate


def char_poly_batch_int(mats):
    """Faddeev-LeVerrier over int64 for a batch of small integer matrices.
    Kept only as a name the benchmark traces and as a test subject: the
    certificates take characteristic polynomials from `_skew_char_poly`.

    mats: (n, d, d) integer array.  Returns (n, d+1) coefficients, highest
    degree first.  Exact whenever s = max(1, d max|a_ij|) has
    d 2^d s^d < 2^63, else OverflowError before any work: s bounds the row
    sums of |A|, hence every eigenvalue, so |c_i| <= C(d, i) s^i.  Then
    M_k = sum_{i<k} c_i A^{k-1-i} has row sums of |M_k| at most 2^d s^(k-1),
    every partial sum of A M_k is at most 2^d s^k, and every partial trace
    at most d 2^d s^k; for k <= d all of these, and the coefficients, stay
    below d 2^d s^d.
    """
    a = np.asarray(mats, dtype=np.int64)
    n, d, _ = a.shape
    top = _abs_max(a)
    if d * 2**d * max(1, d * top) ** d >= 2**63:
        raise OverflowError(f"{d}x{d} entries up to {top} may overflow int64")
    coeffs = np.zeros((n, d + 1), dtype=np.int64)
    coeffs[:, 0] = 1
    am = np.zeros_like(a)
    diag = np.arange(d)
    for k in range(1, d + 1):
        # M_k = A M_{k-1} + c_{k-1} I; c_k = -tr(A M_k) / k
        am[:, diag, diag] += coeffs[:, k - 1, None]
        am = a @ am
        # the coefficients are integers, so the division is exact
        coeffs[:, k] = -np.trace(am, axis1=1, axis2=2) // k
    return coeffs


def _skew_char_poly(planes):
    """det(l I - A) of skew integer matrices held as entry planes (d, d, n)
    (`_j_planes`): (n, d+1) int64 coefficients, highest degree first.

    A principal minor of a skew matrix is 0 at odd size and the square of
    its Pfaffian at even size, so the coefficient of l^(d-2k) is the sum of
    the squared 2k x 2k principal Pfaffians (`_pfaffians`) and the odd
    coefficients are 0.  Exact whenever e = max|a_ij| has C(d, 2k)
    ((2k-1)!!)^2 e^(2k) < 2^63 for every k, which bounds each partial sum;
    else OverflowError before any work.
    """
    d, _, n = planes.shape
    top = _abs_max(planes)
    if any(comb(d, 2 * k) * prod(range(1, 2 * k, 2)) ** 2 * top ** (2 * k)
           >= 2**63 for k in range(1, d // 2 + 1)):
        raise OverflowError(f"{d}x{d} entries up to {top} may overflow int64")
    coeffs = np.zeros((d + 1, n), dtype=np.int64)
    coeffs[0] = 1
    for s, pf in _pfaffians(planes).items():
        coeffs[len(s)] += pf * pf
    return coeffs.T


def lattice_intersection(lat, subspace_basis):
    """The sublattice of lat lying inside span(subspace_basis), exactly.

    Works through the integer kernel of the orthogonal-complement
    constraints expressed in lattice coordinates.
    """
    if lat.rank == 0 or not subspace_basis:
        return RationalLattice(lat.ambient_dim, ())
    # constraints: x in span(S)  <=>  C^T x = 0 for C a basis of span(S)-perp
    s_rows = [[Fraction(x) for x in v] for v in subspace_basis]
    comp = lx.nullspace(s_rows)  # a basis of span(S)-perp: S w = 0
    if not comp:
        return lat  # subspace is the whole ambient space
    basis_cols = [list(v) for v in lat.basis]  # rank x ambient
    constraint = [
        [sum(c[i] * b[i] for i in range(lat.ambient_dim)) for b in basis_cols]
        for c in comp
    ]  # (#constraints) x rank, rational
    ints, _ = lx.clear_denominators(constraint)
    kernel = lx.integer_kernel(ints)
    new_basis = []
    for coeffs in kernel:
        vec = [Fraction(0)] * lat.ambient_dim
        for c, b in zip(coeffs, lat.basis):
            for i in range(lat.ambient_dim):
                vec[i] += c * b[i]
        new_basis.append(tuple(vec))
    return RationalLattice(lat.ambient_dim, tuple(new_basis))


@dataclass
class LengthSpectrumSlice:
    """All squared lengths <= cutoff, with multiplicities, sorted ascending."""

    cutoff: Fraction
    entries: tuple  # tuple of (squared_length: Fraction, multiplicity: int)


def length_spectrum(lat, r2):
    """Exact enumeration of all lattice vectors with |w|^2 <= r2.

    Integer coordinates are boxed through the diagonal of the inverse Gram
    matrix (exact rationals, no floating square roots); norms are computed
    in scaled integers.
    """
    r2 = Fraction(r2)
    if r2 < 0:
        raise ValueError("cutoff must be nonnegative")
    if lat.rank == 0:
        return LengthSpectrumSlice(r2, ((Fraction(0), 1),))
    ints, den = lx.clear_denominators([list(v) for v in lat.basis])
    b = np.array(ints, dtype=np.int64)  # rank x ambient
    gram = b @ b.T
    gram_frac = [[Fraction(int(x)) for x in row] for row in gram]
    ginv = lx.inverse(gram_frac)
    scaled_r2 = r2 * den * den
    bounds = []
    for i in range(lat.rank):
        # x_i^2 <= scaled_r2 * (G^-1)_ii for any x in the ellipsoid
        lim = scaled_r2 * ginv[i][i]
        bounds.append(isqrt(lim.numerator // lim.denominator))
    counts = {}
    ranges = [np.arange(-m, m + 1, dtype=np.int64) for m in bounds]
    grids = np.meshgrid(*ranges, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    cutoff_times_den = scaled_r2  # Fraction
    chunk = 200_000
    for start in range(0, coords.shape[0], chunk):
        x = coords[start:start + chunk]
        norms = np.einsum("ni,ij,nj->n", x, gram, x)
        limit = cutoff_times_den
        keep = norms * limit.denominator <= int(limit.numerator)
        vals, mult = np.unique(norms[keep], return_counts=True)
        for v, m in zip(vals.tolist(), mult.tolist()):
            key = Fraction(int(v), den * den)
            counts[key] = counts.get(key, 0) + int(m)
    entries = tuple(sorted(counts.items()))
    return LengthSpectrumSlice(r2, entries)


# ---------------------------------------------------------------------------
# isospectrality certificate for the pair


def _dual_z_points(bound):
    """All Z = Z_c in the dual lattice (2Z)^3 with |coordinates| <= bound,
    as an (n, 3) integer array in lexicographic order."""
    return _grid(2 * np.arange(-(bound // 2), bound // 2 + 1), 3)


def _grid(vals, dim):
    """The (n, dim) integer array of all dim-tuples over vals, last axis
    fastest."""
    return vals[np.indices((len(vals),) * dim).reshape(dim, -1).T]


def _claimed_coeffs(cs, k):
    """lambda^5 + (c_k^2 + |c|^2) lambda^3 + c_k^2 |c|^2 lambda for each
    integer row c of cs, with c_k = <Z_c, z_k> its coordinate k, the z
    functional of the manifold's injective presentation (`split[2]`):
    (n, 3) -> (n, 6) coefficients, highest first."""
    cs = np.asarray(cs, dtype=np.int64)
    ck2 = cs[:, k] ** 2
    n2 = np.einsum("ni,ni->n", cs, cs)
    zero = np.zeros_like(n2)
    return np.stack([zero + 1, zero, ck2 + n2, zero, ck2 * n2, zero], axis=1)


def char_poly_identity_check(*manifolds):
    """Exact check that each manifold's j(Z_c) has the claimed characteristic
    polynomial l^5 + (c_k^2 + |c|^2) l^3 + c_k^2 |c|^2 l, with c_k =
    <Z_c, z_k> for k = `split[2]` of the first manifold, the z functional
    of its injective presentation; so on a pair both maps are held against
    one polynomial, and pass only where they share it.  The polynomial is
    invariant under signed permutations of the z basis that carry k along,
    so a copy of a manifold written in such a basis passes as it does.

    On the grid {0..5}^3, which proves it at every c: each coefficient has
    degree <= 4 per coordinate (e_4 = sum Pf^2).  Returns (ok, witness),
    witness the first c of the grid where some manifold misses.  The proof
    runs once per structure tensor and k in a process
    (`_char_poly_witness`).
    """
    k = manifolds[0].split[2]
    bad = {_char_poly_witness(d.alg.structure, k) for d in manifolds} - {None}
    return not bad, min(bad, default=None)


@cache
def _char_poly_witness(structure, k):
    """The first c of the grid {0..5}^3, in its lexicographic order, where
    char j(Z_c) of the algebra with this structure tensor misses the
    claimed polynomial in c_k, as a tuple of ints; None where it holds."""
    points = _grid(np.arange(6), 3)
    miss = _char_poly_mismatches(AlgebraData(structure), k, points)
    return next(map(tuple, points[miss].tolist()), None)


def _char_poly_mismatches(alg, k, cs):
    """Indices of the integer rows c of cs where char j(Z_c) differs from
    the claimed polynomial in c_k."""
    coeffs = _skew_char_poly(_j_planes(alg, cs))
    return np.flatnonzero(np.any(coeffs != _claimed_coeffs(cs, k), axis=1))


# permutations tried per batched product of `_kernel_isometries`
PERM_CHUNK = 12


def _kernel_isometries(alg_p, cs, basis, dims):
    """Per integer row c of cs, the index of the first signed coordinate
    permutation P with j'(Z_c) P b = 0 for every row b of the kernel basis
    (basis, dims) of `j_kernels` for j, where dims equals the nullity of
    j'(Z_c); -1 where none does.  Index t dim_v! + p is (P b)_i = s_i
    b_(p_i) for p the p-th of permutations(range(dim_v)) (the identity
    first) and s the t-th of product((1, -1), repeat=dim_v), so the
    indices below dim_v! are the unsigned permutations.  j'(Z_c) is skew,
    so its nullity is the number of trailing zero coefficients of its
    characteristic polynomial, and no kernel basis of j'(Z_c) is built.

    A hit is an isometry of the kernel lattices: a signed permutation
    matrix P is orthogonal and maps Z^5 onto Z^5; the rows b span ker j,
    so P(ker j) lies in ker j' of the same dimension and equals it, and
    L = ker j ∩ Z^5 gives P(L) = Z^5 ∩ P(ker j) = Z^5 ∩ ker j' = L'; P
    restricts to an isometry L -> L'.  Only the subspace ker j is read,
    so a basis that spans it without being saturated serves.  Index 0
    means L = L'.  A miss says only that no signed coordinate permutation
    maps L onto L'.  The identity is tried on every row; the others are
    tried in order, PERM_CHUNK at a time, only on the rows that no earlier
    one serves, so the signed ones run only on rows that no unsigned one
    serves, and the search stops at the last row's first hit (permutation
    60 of 120 at dual bound 6 on the pair, where no sign is needed).  In
    int64, checked against overflow.
    """
    planes = _j_planes(alg_p, cs)
    mats = _skew_matrices(planes)
    if alg_p.dim_v * _abs_max(mats) * _abs_max(basis) >= 2**62:
        raise OverflowError("kernel vectors too large for int64 products")
    dims_p = np.argmax(_skew_char_poly(planes)[:, ::-1] != 0, axis=1)
    perms = np.array(list(permutations(range(alg_p.dim_v))))
    index = np.where(dims == dims_p, 0, -1)
    moved = np.any(mats @ basis.mT, axis=(1, 2))
    rows = np.flatnonzero(moved & (index == 0))
    index[rows] = -1
    # start is the index of the next signed permutation to try, so a sign
    # vector's permutations begin at start % dim_v!: at 1 for the
    # unsigned ones, whose identity is tried above, else at 0
    start = 1
    for sign in product((1, -1), repeat=alg_p.dim_v):
        for at in range(start % len(perms), len(perms), PERM_CHUNK):
            if not rows.size:
                return index
            # (rows, k, perms, dim_v): every signed, permuted basis vector
            # of those rows, and j' applied to each at once
            permuted = basis[rows][:, :, perms[at:at + PERM_CHUNK]] * sign
            killed = ~np.any(permuted @ mats[rows, None].mT, axis=(1, 3))
            hit = killed.any(axis=1)
            index[rows[hit]] = start + killed[hit].argmax(axis=1)
            rows = rows[~hit]
            start += permuted.shape[2]
    return index


def gw_certificate(pair, dual_bound):
    """Certificate for the isospectrality hypotheses of the pair.

    (a) the claimed characteristic polynomial of j(Z) and of j'(Z), in
        c_k for k = `split[2]` of M, on the grid {0..5}^3 of
        `char_poly_identity_check`: each coefficient has degree <= 4 in
        each coordinate of c, so six points per variable prove the
        identity, and the two polynomials agree, at every Z;
    (b) [M,M] inside 2*Lambda for both brackets holds by construction: on
        the lattice log Gamma = Z^dim_v (+) (1/2) Z^dim_z of every manifold
        it says only that every structure constant is an integer, and
        AlgebraData admits only integer constants;
    (c) for bounded dual-lattice Z, a signed coordinate permutation P
        that maps the kernel lattice of j(Z) onto that of j'(Z)
        (`_kernel_isometries`), an isometry, which makes their length
        spectra equal at every R, so a copy of M' written in a permuted
        and signed V basis passes as M' does; on the pair, j'(Z) = P j(Z)
        P^T at c_k = 0 for the swap X_a <-> Y_a, and the kernel lattices
        are identical elsewhere, so the identity settles every point but
        the 48 with c_k = 0 != c at dual bound 6.
    The dual of (1/2) Z^3 is (2Z)^3, and ker j(Z) meets Z^dim_v in the
    kernel lattice, the saturation of the basis that `j_kernels` gives.
    That basis is held against j(Z) itself, and a point where j(Z) moves
    it fails (c): a sign error in one coordinate of a kernel vector is a
    signed permutation of the right vector, which (c) alone would accept.
    """
    m_data, mp_data = pair
    alg, alg_p = m_data.alg, mp_data.alg
    cert = Certificate("gordon_wilson_isospectrality", f"{m_data.name}/{mp_data.name}")

    ok, witness = char_poly_identity_check(m_data, mp_data)
    cert.add(
        "char_poly_identity_grid",
        ok,
        value=witness,
        note="exact: polynomial identity pinned on the grid {0..5}^3",
    )

    dual_pts = _dual_z_points(dual_bound)
    basis, dims = j_kernels(alg, dual_pts)
    index = _kernel_isometries(alg_p, dual_pts, basis, dims)
    # held against j(Z) as well: a sign error in one kernel coordinate is
    # itself a signed permutation
    index[np.any(j_matrices(alg, dual_pts) @ basis.mT, axis=(1, 2))] = -1
    if np.any(index < 0):
        cert.add(
            "kernel_lattice_length_spectra",
            False,
            value={"witness_c": dual_pts[np.argmax(index < 0)].tolist()},
            note="at witness_c no signed coordinate permutation maps the "
                 "kernel lattice of j onto that of j', or j(Z) moves its "
                 "kernel basis",
        )
        return cert
    cert.add(
        "kernel_lattice_length_spectra",
        True,
        value={
            "enumerated": int(np.sum(index > 0)),
            "identical_lattices": int(np.sum(index == 0)),
        },
        note="exact: at each Z a coordinate permutation P maps L = ker j ∩ "
             "Z^5 into ker j' of the same dimension, so P(L) = Z^5 ∩ ker j' "
             "= L' and P is an isometry L -> L': the length spectra agree "
             "at every R",
    )
    return cert
