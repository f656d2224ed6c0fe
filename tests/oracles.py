"""Independent reference implementations that the tests check production
paths against.  None of this is used by the package itself.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import ceil, hypot, sqrt

import numpy as np

from nilflow import linalg_exact as lx
from nilflow.criteria import _span_projectors
from nilflow.flow import TangentState, eigenframe, flow_exact_vV
from nilflow.integrals import left_gradients_all
from nilflow.lie_core import (
    AlgebraData,
    RationalLattice,
    _primitive_rows,
    bracket_v_np,
    j_matrices,
    j_matrix,
    j_matrix_np,
)


def bracket_v(alg, av, bv):
    """Exact bracket of two v-vectors (length dim_v), int or Fraction."""
    if len(av) != alg.dim_v or len(bv) != alg.dim_v:
        raise ValueError(f"expected v-vectors of dimension {alg.dim_v}")
    out = [0] * alg.dim_z
    for p, q, r, c in alg.terms:
        out[r] += c * av[p] * bv[q]
    return out


def det(mat):
    """Bareiss fraction-free determinant (exact for int or Fraction input)."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def char_poly(mat):
    """Monic characteristic polynomial det(lambda*I - A), highest degree
    first, by the exact Faddeev-LeVerrier recurrence over Fractions (the
    oracle for spectral._skew_char_poly and spectral.char_poly_batch_int)."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("char_poly requires a square matrix")
    a = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    m = lx.zeros(n, n)
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        m = lx.mat_mul(a, m)
        for i in range(n):
            m[i][i] += coeffs[-1]
        coeffs.append(-sum(
            sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n)
        ) / k)
    return coeffs


@dataclass
class GroupElement:
    """An element (v, z) = exp(v + z) of the simply connected group N(j)."""

    alg: AlgebraData
    v: tuple
    z: tuple

    def __post_init__(self):
        if len(self.v) != self.alg.dim_v or len(self.z) != self.alg.dim_z:
            raise ValueError("component dimensions do not match the algebra")


def _is_exact(vec):
    return all(isinstance(x, (int, Fraction)) for x in vec)


def group_mul(a, b):
    """BCH product (v, z)(v', z') = (v + v', z + z' + [v, v']/2)."""
    if a.alg is not b.alg:
        raise ValueError("elements live over different algebras")
    half = Fraction(1, 2) if _is_exact(a.v) and _is_exact(b.v) else 0.5
    corr = bracket_v(a.alg, a.v, b.v)
    v = tuple(x + y for x, y in zip(a.v, b.v))
    z = tuple(x + y + half * c for x, y, c in zip(a.z, b.z, corr))
    return GroupElement(a.alg, v, z)


def conjugate(g, h):
    """g h g^{-1} = (v', z' + [v, v']) for g = (v, z), h = (v', z')."""
    if g.alg is not h.alg:
        raise ValueError("elements live over different algebras")
    corr = bracket_v(g.alg, g.v, h.v)
    return GroupElement(g.alg, tuple(h.v), tuple(x + c for x, c in zip(h.z, corr)))


def group_inv(a):
    """Inverse in exponential coordinates: (v, z)^{-1} = (-v, -z)."""
    return GroupElement(a.alg, tuple(-x for x in a.v), tuple(-x for x in a.z))


def dual_lattice(lat):
    """Dual basis: inverse transpose of the (full-rank) basis matrix."""
    if lat.rank != lat.ambient_dim:
        raise ValueError("dual_lattice requires a full-rank lattice")
    cols = [list(v) for v in zip(*lat.basis)]  # basis vectors as columns
    inv = lx.inverse(cols)
    # rows of inv are the dual basis vectors: <dual_i, b_j> = delta_ij
    return RationalLattice(lat.ambient_dim, tuple(tuple(row) for row in inv))


def scaled_lattice(n, scale):
    """scale Z^n as a RationalLattice basis."""
    return RationalLattice(n, tuple(
        tuple(Fraction(scale) if i == j else 0 for j in range(n))
        for i in range(n)
    ))


def integer_lattice(n):
    return scaled_lattice(n, 1)


def manifold_lattices(data):
    """The manifold's lattices (L_v, L_z) = (Z^dim_v, (1/2) Z^dim_z) as
    RationalLattice bases, the same on every manifold."""
    alg = data.alg
    return (integer_lattice(alg.dim_v),
            scaled_lattice(alg.dim_z, Fraction(1, 2)))


def lattice_coordinates(lat, w):
    """The exact coordinates x of w in the basis (w = sum x_i b_i) by a
    Fraction solve, or None when w is outside the basis's span (the a in
    Gamma oracle for the integer lattice multiple of
    periodicity.construct_closed_geodesic)."""
    if len(w) != lat.ambient_dim:
        raise ValueError("vector has wrong ambient dimension")
    w = [Fraction(x) for x in w]
    if lat.rank == 0:
        return [] if all(x == 0 for x in w) else None
    cols = [list(v) for v in zip(*lat.basis)]  # ambient x rank
    return lx.solve(cols, w)


def lattice_contains(lat, w):
    """Exact membership: w is an integer combination of the basis."""
    x = lattice_coordinates(lat, w)
    return x is not None and all(c.denominator == 1 for c in x)


def brackets_in_twice(alg, lattice_v, lattice_z):
    """Whether [L_v, L_v] lies in 2 L_z, by exact membership of every
    bracket of two basis vectors (the oracle for the integer check of
    lie_core.AlgebraData, which is this condition on the fixed lattice)."""
    twice = RationalLattice(
        alg.dim_z, tuple(tuple(2 * x for x in b) for b in lattice_z.basis))
    return all(lattice_contains(twice, bracket_v(alg, a, b))
               for a in lattice_v.basis for b in lattice_v.basis)


def centralizer_nlambda_bruteforce(alg, Z):
    """n_lambda = {X in n : <Z, [X, e_p]> = 0 for all p} by a direct exact
    linear system over all of n (the oracle for lie_core.j_kernels,
    whose kernel plus z is n_lambda)."""
    Z = [Fraction(x) for x in Z]
    rows = []
    for p in range(alg.dim_v):
        e = [Fraction(1 if t == p else 0) for t in range(alg.dim_v)]
        row = []
        for q in range(alg.dim_v):
            eq = [Fraction(1 if t == q else 0) for t in range(alg.dim_v)]
            br = bracket_v(alg, eq, e)
            row.append(sum(Z[r] * br[r] for r in range(alg.dim_z)))
        rows.append(row + [Fraction(0)] * alg.dim_z)
    return lx.nullspace(rows)


def kernel_subspace(alg, z):
    """Exact rational basis of ker j(Z) by Fraction row reduction (with
    spectral.lattice_intersection, the oracle for the kernel lattices that
    spectral.gw_certificate reads from lie_core.j_kernels)."""
    return lx.nullspace(j_matrix(alg, z))


def kernel_rows(kers):
    """The per-Z bases of a lie_core.j_kernels result (basis, dims),
    saturated (`saturated_rows`), as lists of Python-int rows without the
    zero padding.  j_kernels returns a basis that spans ker j(Z) without
    saturating it."""
    basis, dims = kers
    return [saturated_rows(b[:d].tolist(), basis.shape[2])
            for b, d in zip(basis, dims)]


def saturated_rows(rows, dim):
    """A basis of the integer vectors in the span of independent integer
    rows in Q^dim.  A line is divided by the gcd of its entries, first
    nonzero entry positive (`_primitive_rows`); several rows give the
    Hermite basis lx.integer_kernel of the integer vectors orthogonal to
    them, or the unit vectors where they span all of Q^dim."""
    if len(rows) <= 1:
        line = np.array(rows, np.int64).reshape(-1, dim)
        return _primitive_rows(line).tolist()
    perp = lx.integer_kernel(rows)
    return lx.integer_kernel(perp) if perp else np.eye(dim, dtype=int).tolist()


def kernel_isometries_all_permutations(alg_p, cs, basis, dims):
    """Per integer row c of cs, the index of the first signed coordinate
    permutation with j'(Z_c) (s * b[p]) = 0 for every row b of basis,
    where dims equals the nullity of j'(Z_c) by exact rank; -1 where none
    does.  Sign vector s, the t-th of product((1, -1), repeat=dim_v), and
    permutation p, the p-th of permutations(range(dim_v)), have index t
    dim_v! + p, so the unsigned permutations come first.  One row at a
    time, every permutation of a sign vector at once (the oracle for the
    chunked search of spectral._kernel_isometries)."""
    perms = np.array(list(permutations(range(alg_p.dim_v))))
    index = []
    for m, b, d in zip(j_matrices(alg_p, cs), basis, dims):
        index.append(-1)
        if d != alg_p.dim_v - lx.rank(m.tolist()):
            continue
        for t, s in enumerate(product((1, -1), repeat=alg_p.dim_v)):
            # j'(Z_c) applied to s * b[p] for every row b and every p
            killed = ~np.any((s * b[:, perms]) @ m.T != 0, axis=(0, 2))
            if killed.any():
                index[-1] = t * len(perms) + int(killed.argmax())
                break
    return np.array(index)


def commutator_nonzero(alg, lam, mu):
    """Whether [n_lambda, n_mu] != 0 for integer z-vectors lambda, mu: some
    Fraction bracket of two vectors of the integer kernels of j(lambda) and
    j(mu) is nonzero (the oracle for the batched int64 bracket test of
    criteria.butler_nonintegrability_sample)."""
    ka = lx.integer_kernel(j_matrix(alg, lam))
    kb = lx.integer_kernel(j_matrix(alg, mu))
    return any(any(bracket_v(alg, a, b)) for a in ka for b in kb)


def draw_regular_z(data, rng):
    """An integer Z with |coordinates| <= 50 and coordinate k = split[2] of
    the manifold nonzero, one rng call per candidate (the oracle for the
    batched draw of the Butler sample's `draw_rows`)."""
    while True:
        cand = [int(x) for x in rng.integers(-50, 51, size=data.alg.dim_z)]
        if cand[data.split[2]] != 0:
            return cand


def butler_sample_lists(data, n_samples, rng):
    """The Butler sample with one Python list per kernel, as
    (positive_dim_fraction, regular_pairs, first_flat_witness,
    regular_dim): per-call regular draws, each kernel from
    lx.integer_kernel, the regular dimension the least kernel dimension of
    the sample plus dim_z (None for an empty sample), and one einsum
    bracket over the zipped kernel-vector pairs of the regular pairs (the
    oracle for the padded-array path of
    criteria.butler_nonintegrability_sample)."""
    alg = data.alg
    zs = [draw_regular_z(data, rng) for _ in range(2 * n_samples)]
    kernels = [lx.integer_kernel(j_matrix(alg, z)) for z in zs]
    regular_dim = (min(len(k) for k in kernels) + alg.dim_z
                   if kernels else None)
    dims = np.array([len(k) for k in kernels]).reshape(-1, 2)
    is_regular = np.all(dims + alg.dim_z == regular_dim, axis=1)
    hit = np.zeros(n_samples, dtype=bool)
    rows = [(i, av, bv) for i in np.nonzero(is_regular)[0].tolist()
            for av in kernels[2 * i] for bv in kernels[2 * i + 1]]
    if rows:
        pair, a, b = zip(*rows)
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        nonzero = np.any(
            np.einsum("np,pqr,nq->nr", a, alg.int_tensor, b) != 0, axis=1)
        hit[np.array(pair)[nonzero]] = True
    flat = np.nonzero(is_regular & ~hit)[0]
    witness = None
    if flat.size:
        witness = {"lambda_z": zs[2 * flat[0]], "mu_z": zs[2 * flat[0] + 1]}
    regular = int(is_regular.sum())
    fraction = int(hit.sum()) / regular if regular else 0.0
    return fraction, regular, witness, regular_dim


def generic_z(c, min_ck=0.1, min_gap=0.1, min_prod=0.05):
    """Whether Z = c has well-separated frequencies and c_k |c|^2 bounded
    away from 0, one Z at a time (the oracle for flow._generic_Z)."""
    ci, cj, ck = c
    norm = sqrt(float(c @ c))
    return not (abs(ck) < min_ck or norm - abs(ck) < min_gap
                or hypot(ci, cj) < min_gap or abs(ck) * norm * norm < min_prod)


def sample_generic_state(data, rng, min_comp=0.05):
    """One generic state by a rejection draw on whole candidates: Z, V, v
    and z drawn in that order, one rng call each, then tested (the oracle
    for the batched draw of flow.sample_generic_state)."""
    dv, dz = data.alg.dim_v, data.alg.dim_z
    while True:
        Z = rng.uniform(-2.0, 2.0, size=3)
        V = rng.uniform(-1.0, 1.0, size=dv)
        v = rng.uniform(-1.0, 1.0, size=dv)
        z = rng.uniform(-1.0, 1.0, size=dz)
        if not generic_z(Z):
            continue
        if np.min(np.abs(eigenframe(data, Z).basis @ V)) >= min_comp:
            return TangentState(v, z, V, Z)


def mat_vec(a, v):
    """Exact matrix-vector product of lists (int or Fraction entries)."""
    return [sum(row[t] * v[t] for t in range(len(v))) for row in a]


def cih_records(data, coord_bound, rng, n_records):
    """The eigenvalue records of criteria.cih_certificate one by one in
    Fraction arithmetic, with its covered_elements: per record the span
    drawn over the distinct complement projectors (first V of each, in
    sorted key order, by np.unique), then z as three half-integers in
    [-bound, bound], c = proj z = N z / d and the nonzero theta^2 in
    {c_k^2, |c|^2} for k = split[2] of the manifold, sorted, all printed
    as str."""
    alg, k_z = data.alg, data.split[2]
    vals = np.arange(-coord_bound, coord_bound + 1)
    vs = np.stack(np.meshgrid(*[vals] * alg.dim_v, indexing="ij"),
                  -1).reshape(-1, alg.dim_v)
    spans = np.einsum("np,pqr->nqr", vs, alg.int_tensor)
    proj, dens, _, _ = _span_projectors(
        np.ascontiguousarray(spans.transpose(1, 2, 0)))
    keys = np.concatenate([proj.reshape(-1, 9), dens[:, None]], 1)
    first_v = np.unique(keys, axis=0, return_index=True)[1]
    half = Fraction(1, 2)
    z_vals = [half * k for k in range(-2 * coord_bound, 2 * coord_bound + 1)]
    records = []
    for _ in range(n_records):
        k = first_v[int(rng.integers(0, len(first_v)))]
        z = [z_vals[int(rng.integers(0, len(z_vals)))] for _ in range(3)]
        d = int(dens[k])
        c = [x / d for x in mat_vec(proj[k].tolist(), z)]
        eigs = sorted({c[k_z] * c[k_z], sum(x * x for x in c)} - {Fraction(0)})
        prim = _primitive_rows(spans[k]).tolist()
        span = sorted({tuple(r) for r in prim if any(r)})
        records.append({
            "span": [list(map(str, r)) for r in span],
            "z": [str(x) for x in z],
            "proj_z": [str(x) for x in c],
            "theta_squared": [str(e) for e in eigs],
        })
    return records, len(vs) * len(z_vals) ** 3


def cih_table_full_box(alg, coord_bound):
    """The span table of criteria._cih_table over the whole box of (2
    bound + 1)^dim_v V, with no sign symmetry: (enumerated V, the last V
    whose projector fails its check as a tuple or None, then per distinct
    span in sorted key order N, 2d and the printed primitive rows of its
    first V, found by np.unique) (the oracle for the half box of
    criteria._cih_table)."""
    vals = np.arange(-coord_bound, coord_bound + 1)
    vs = np.stack(np.meshgrid(*[vals] * alg.dim_v, indexing="ij"),
                  -1).reshape(-1, alg.dim_v)
    spans = np.einsum("np,pqr->nqr", vs, alg.int_tensor)
    proj, dens, _, ok = _span_projectors(
        np.ascontiguousarray(spans.transpose(1, 2, 0)))
    keys = np.concatenate([proj.reshape(-1, 9), dens[:, None]], 1)
    first_v = np.unique(keys, axis=0, return_index=True)[1]
    bad = None if ok.all() else tuple(vs[~ok][-1].tolist())
    rows = tuple(
        tuple(tuple(map(str, r)) for r in
              sorted({tuple(r) for r in _primitive_rows(spans[k]).tolist()
                      if any(r)}))
        for k in first_v)
    return len(vs), bad, proj[first_v], 2 * dens[first_v], rows


def span_projector(rows):
    """Exact orthogonal projector onto the complement of the row span in
    Q^3 through a Fraction Gram inverse, with the rank of the span (the
    oracle for the int64 Gram-adjugate criteria._span_projectors)."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    n = 3
    if not rows:
        return lx.identity(n), 0
    rr, pivots = lx.rref(rows)
    b = [rr[i] for i in range(len(pivots))]  # k x 3
    k = len(b)
    gram = [[sum(bi * bj for bi, bj in zip(u, w)) for w in b] for u in b]
    ginv = lx.inverse(gram)
    comp = lx.identity(n)
    for i in range(n):
        for j in range(n):
            comp[i][j] -= sum(
                b[s][i] * ginv[s][t] * b[t][j]
                for s in range(k) for t in range(k)
            )
    return comp, k


def annihilator_check(alg, c):
    """Whether A := j(Z_c)^2 satisfies A (A + c_k^2) (A + |c|^2) = 0, in
    Fraction arithmetic on the Fraction j(Z_c).  This is j p(j) = 0 with
    p(l) = l (l^2 + c_k^2)(l^2 + |c|^2), so by Cayley-Hamilton it follows
    from the char-poly identity that spectral.char_poly_identity_check
    proves; the tests hold that corollary on M and M'."""
    c = [Fraction(x) for x in c]
    jm = j_matrix(alg, c)
    a = lx.mat_mul(jm, jm)
    ck2 = c[2] * c[2]
    n2 = sum(x * x for x in c)
    m1 = [list(row) for row in a]
    for i in range(5):
        m1[i][i] += ck2
    m2 = [list(row) for row in a]
    for i in range(5):
        m2[i][i] += n2
    prod = lx.mat_mul(lx.mat_mul(a, m1), m2)
    return all(x == 0 for row in prod for x in row)


def c_matrix(Z):
    """The 2x3 matrix sending y-coordinates (Y_i, Y_j, Y_k) to
    x-coordinates (X_i, X_j) with C(Z) . j(Z)|_x = Id_x (the kernel-return
    map that integrals.evaluate_integrals applies inline).  Requires
    c_k |c|^2 != 0."""
    ci, cj, ck = (float(x) for x in Z)
    d = ck * (ci * ci + cj * cj + ck * ck)
    if d == 0.0:
        raise ZeroDivisionError("c_matrix undefined when c_k |c|^2 = 0")
    return np.array([
        [-ci * cj, ci * ci + ck * ck, -cj * ck],
        [-(cj * cj + ck * ck), ci * cj, ci * ck],
    ]) / d


def rk4_loop(alg, v, z, V, Z, t, steps):
    """`steps` classic RK4 steps of size t / steps on the geodesic equations,
    one stage at a time (the oracle for the closed recurrence of
    flow._rk4_batch); leading axes are batch axes."""
    # Z is conserved along geodesics (and across RK4 stages, since dZ = 0),
    # so j(Z) is computed once per trajectory batch.
    h = t / steps
    jm_t = np.swapaxes(j_matrix_np(alg, Z), -1, -2)  # V @ jm_t = j(Z) V

    def field(v, V):
        dz = Z + 0.5 * bracket_v_np(alg, v, V)
        dV = np.squeeze(V[..., None, :] @ jm_t, -2)
        return V, dz, dV

    for _ in range(steps):
        a1, b1, c1 = field(v, V)
        a2, b2, c2 = field(v + 0.5 * h * a1, V + 0.5 * h * c1)
        a3, b3, c3 = field(v + 0.5 * h * a2, V + 0.5 * h * c2)
        a4, b4, c4 = field(v + h * a3, V + h * c3)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        z = z + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        V = V + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    return v, z, V, Z


def _gauss_legendre_nodes(t, panels, order=10):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def flow_exact_quadrature(data, state, t):
    """The closed-form flow with z(t) = z_0 + t Z + (1/2) int_0^t [v, V] ds
    by composite Gauss-Legendre on the closed-form integrand, with
    ceil(|t| max theta / 2) panels of 10 nodes (the oracle for the closed
    form of flow.flow_exact_state; its work grows linearly in t)."""
    frame = eigenframe(data, state.Z)
    t = float(t)
    vt, Vt = flow_exact_vV(frame, state.v, state.V, t)
    panels = max(4, ceil(abs(t) * float(np.max(np.abs(frame.theta))) / 2.0))
    nodes, weights = _gauss_legendre_nodes(t, panels)
    vs, Vs = flow_exact_vV(frame, state.v, state.V, nodes)
    integrand = bracket_v_np(data.alg, vs, Vs)
    zt = state.z + t * state.Z + 0.5 * np.einsum("n,nr->r", weights, integrand)
    return TangentState(vt, zt, Vt, state.Z.copy())


RANK_THRESHOLD = 1e-7


def independence_rank_svd(alg, state, threshold=RANK_THRESHOLD):
    """Rank of the eight closed-form left gradients by the SVD of their
    rows, each row first divided by the power of two of its largest entry
    (so its square cannot underflow) and then normalized; a singular value
    counts when it exceeds threshold times the state's largest (the oracle
    for the block-structure formula of integrals.independence_rank)."""
    rows = np.concatenate(left_gradients_all(alg, state), axis=-1)
    rows = np.ldexp(rows, -np.frexp(np.abs(rows).max(-1))[1][..., None])
    norms = np.linalg.norm(rows, axis=-1)
    rows = rows / np.where(norms > 0.0, norms, 1.0)[..., None]
    sv = np.linalg.svd(rows, compute_uv=False)
    ranks = np.sum(sv > threshold * sv[..., :1], axis=-1)
    return ranks if ranks.ndim else int(ranks)


def rationalize_sphere_direction(u, bound):
    """A rational unit vector near the float unit vector u, in Fractions:
    two limit_denominator calls on the stereographic point, one step of
    1/(2 bound) off the pole or the equator, then the inverse projection
    (the oracle for the integer path of
    periodicity.rationalize_sphere_direction)."""
    u = np.asarray(u, float)
    n = float(np.linalg.norm(u))
    u = u / n
    south = u[2] > 0.5
    uk = -u[2] if south else u[2]
    a = Fraction(u[0] / (1.0 - uk)).limit_denominator(bound)
    b = Fraction(u[1] / (1.0 - uk)).limit_denominator(bound)
    s = a * a + b * b
    if s in (0, 1):
        a += Fraction(1, 2 * bound)
        s = a * a + b * b
    uk = (s - 1) / (s + 1)
    return 2 * a / (s + 1), 2 * b / (s + 1), -uk if south else uk
