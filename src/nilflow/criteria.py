"""Integrability/nonintegrability criteria and the clean-intersection
certificate.

Three independent diagnostics that separate the pair:
  * an injective presentation (x, y, c) of the algebra, sufficient for
    integrability of the geodesic flow — the manifolds' split passes on M
    and fails on M';
  * the coadjoint-centralizer condition (positive-dimensional
    [n_lambda, n_mu] for regular lambda, mu), sufficient for
    nonintegrability — holds on M' for almost every sampled pair and
    never on M;
  * rationality of the squared frequencies of j(proj Z) over all lattice
    logarithms, which certifies the clean intersection hypothesis for
    both manifolds (theta^2 rational nonzero implies theta not in pi*Q
    because pi^2 is irrational).
"""

from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg_exact as lx
from .lie_core import _primitive_rows, j_kernels, j_matrix
from .report import Certificate
from .spectral import char_poly_identity_check


def check_hr_presentation(alg, split):
    """Exact certificate for an injective presentation, read off the integer
    structure tensor T on a split (x, y, k), a manifold's `split`:
    [x,x] = 0, [y,y] = 0, and X |-> <Z_k, [X, .]>|_y injective on x."""
    cert = Certificate("hr_injective_presentation", "algebra")
    x, y, k = split
    t = alg.structure

    for name, idx in (("bracket_xx_zero", x), ("bracket_yy_zero", y)):
        # the witness is the last nonzero bracket of the block
        nonzero = [t[a][b] for a in idx for b in idx if any(t[a][b])]
        witness = [str(c) for c in nonzero[-1]] if nonzero else None
        cert.add(name, not nonzero, value=witness)

    rk = lx.rank([[t[a][b][k] for b in y] for a in x])
    cert.add(
        "pairing_rank_equals_dim_x",
        rk == len(x),
        value={"rank": rk, "dim_x": len(x)},
    )
    return cert


# ---------------------------------------------------------------------------
# coadjoint centralizers


def minimal_centralizer_dim(alg, rng):
    """Empirical minimum of dim n_lambda over 64 integer Z drawn from rng."""
    _, dims = j_kernels(alg, rng.integers(-9, 10, size=(64, alg.dim_z)))
    return int(dims.min()) + alg.dim_z


def _draw_regular_zs(alg, rng, n):
    """The first n integer Z with |coordinates| <= 50 and last coordinate
    nonzero in rng's stream of dim_z-vectors, as an (n, dim_z) array: one
    draw of n rows, then draws of exactly the rows rejected so far."""
    zs = np.empty((0, alg.dim_z), dtype=np.int64)
    while len(zs) < n:
        cand = rng.integers(-50, 51, size=(n - len(zs), alg.dim_z))
        zs = np.concatenate([zs, cand[cand[:, -1] != 0]])
    return zs


def butler_nonintegrability_sample(alg, n_samples, rng):
    """Sampled check of the positive-dimensional-commutator condition.

    Draws pairs of integer covectors lambda = <V+Z, .>, mu with c_k != 0,
    requires both centralizers to be regular (minimal dimension), and
    tests dim [n_lambda, n_mu] >= 1.  Statistical evidence for an
    open-dense condition, not a proof of density.
    """
    cert = Certificate("butler_nonintegrability", "sampled")
    min_dim = minimal_centralizer_dim(alg, rng)
    cert.data["minimal_centralizer_dim"] = min_dim
    zs = _draw_regular_zs(alg, rng, 2 * n_samples)
    basis, dims = j_kernels(alg, zs)
    is_regular = np.all((dims + alg.dim_z == min_dim).reshape(-1, 2), axis=1)
    # dim [n_lambda, n_mu] >= 1 iff some kernel-vector bracket is nonzero:
    # one int64 matmul brackets every pair; the zero padding brackets to 0
    dv, k, t = alg.dim_v, basis.shape[1], alg.int_tensor
    pairs = basis.reshape(n_samples, 2, k, dv)[is_regular]
    bound = int(np.abs(pairs).max(initial=0)) ** 2
    if bound * int(np.abs(t).sum(axis=(0, 1)).max()) >= 2**62:
        raise OverflowError("kernel vectors too large for int64 brackets")
    outer = pairs[:, 0, :, None, :, None] * pairs[:, 1, None, :, None, :]
    brackets = outer.reshape(-1, dv * dv) @ t.reshape(dv * dv, alg.dim_z)
    hit = np.zeros(n_samples, dtype=bool)
    hit[is_regular] = np.any(
        brackets.reshape(len(pairs), k * k * alg.dim_z) != 0, axis=1)
    flat = np.nonzero(is_regular & ~hit)[0]
    witness = None
    if flat.size:
        lam, mu = zs.reshape(-1, 2, alg.dim_z)[flat[0]].tolist()
        witness = {"lambda_z": lam, "mu_z": mu}
    regular, hits = int(is_regular.sum()), int(hit.sum())
    fraction = hits / regular if regular else 0.0
    cert.data.update(
        {"samples": n_samples, "regular_pairs": regular,
         "positive_dim_fraction": fraction, "first_flat_witness": witness}
    )
    cert.add("regular_pairs_sampled", regular > 0, value=regular)
    return cert, fraction


# ---------------------------------------------------------------------------
# clean intersection


def _span_keys(spans):
    """One sortable int64 key row per V for the row span of spans[V]
    (n, rows, dim): the distinct nonzero primitive rows, each coded as one
    integer in lexicographic order, sorted and padded with -1, so that key
    rows sort like the tuples of their rows."""
    prim = _primitive_rows(spans)
    nonzero = np.any(prim != 0, axis=2)
    bound = int(np.abs(prim).max(initial=0))
    base = 2 * bound + 1
    if base ** spans.shape[2] >= 2**62:
        raise OverflowError("bracket spans too large for int64 keys")
    codes = (prim + bound) @ (base ** np.arange(spans.shape[2] - 1, -1, -1))
    top = np.iinfo(np.int64).max
    codes = np.sort(np.where(nonzero, codes, top), axis=1)
    codes[:, 1:][codes[:, 1:] == codes[:, :-1]] = top  # drop repeated rows
    codes = np.sort(codes, axis=1)
    codes[codes == top] = -1
    return codes


def _complement_projectors(spans):
    """Orthogonal projectors onto the complements of the row spans of
    integer spans (n, rows, 3), in closed form and exactly in int64:
    (N (n, 3, 3), d (n,)) with P = N / d and d > 0.

    With r the first nonzero primitive row and n the first nonzero
    primitive cross product of two rows: rank 0 gives I / 1, rank 1
    (|r|^2 I - r r^T) / |r|^2, rank 2 n n^T / |n|^2 and rank 3 (some triple
    product nonzero) 0 / 1.  Raises OverflowError before any product could
    leave int64.
    """
    prim = _primitive_rows(np.asarray(spans, dtype=np.int64))
    n, rows, dim = prim.shape
    if dim != 3:
        raise ValueError("closed-form projectors need dim z = 3")
    if rows < 2:  # zero rows change no span, and give a pair to cross
        prim = np.concatenate([prim, np.zeros((n, 2 - rows, 3), np.int64)], 1)
        rows = 2
    bound = int(np.abs(prim).max(initial=0))
    if 2 * bound**2 >= 2**62:
        raise OverflowError("bracket spans too large for int64 projectors")
    a, b = np.triu_indices(rows, 1)
    cross = _primitive_rows(np.cross(prim[:, a], prim[:, b]))
    cbound = int(np.abs(cross).max(initial=0))
    if 3 * max(cbound, bound) ** 2 >= 2**62:
        raise OverflowError("bracket spans too large for int64 projectors")
    nonzero, crossed = np.any(prim != 0, axis=2), np.any(cross != 0, axis=2)
    idx = np.arange(n)
    r = prim[idx, np.argmax(nonzero, axis=1)]
    nrm = cross[idx, np.argmax(crossed, axis=1)]
    rank2 = crossed.any(axis=1)
    r2 = np.einsum("ni,ni->n", r, r)
    eye = np.eye(3, dtype=np.int64)
    proj = np.where(
        rank2[:, None, None],
        nrm[:, :, None] * nrm[:, None, :],
        r2[:, None, None] * eye - r[:, :, None] * r[:, None, :],
    )
    d = np.where(rank2, np.einsum("ni,ni->n", nrm, nrm), r2)
    zero = ~nonzero.any(axis=1)
    full = np.any(np.einsum("npi,nri->npr", cross, prim) != 0, axis=(1, 2))
    proj[zero], d[zero] = eye, 1
    proj[full], d[full] = 0, 1
    return proj, d


def _projectors_exact(proj, d, spans):
    """Whether each N / d is idempotent (N N = d N) and kills every row of
    its span (N r = 0), in int64; OverflowError before a product could
    wrap."""
    spans = np.asarray(spans, dtype=np.int64)
    nb = int(np.abs(proj).max(initial=0))
    sb = int(np.abs(spans).max(initial=0))
    db = int(np.abs(d).max(initial=0))
    if max(3 * nb * nb, db * nb, 3 * nb * sb) >= 2**62:
        raise OverflowError("projectors too large for int64 checks")
    idem = np.all(proj @ proj == d[:, None, None] * proj, axis=(1, 2))
    killed = ~np.any(np.einsum("nij,nrj->nri", proj, spans) != 0, axis=(1, 2))
    return idem & killed


def _annihilator_check(alg, c):
    """Exact check that A := j(Z_c)^2 satisfies A (A + c_k^2) (A + |c|^2) = 0,
    pinning the eigenvalues of -j^2 inside {0, c_k^2, |c|^2}.

    The identity is homogeneous of degree 6 in c, so it is checked on c
    times the lcm of its denominators, in Python ints (exact at any size).
    """
    c = [Fraction(x) for x in c]
    scale = lcm(*(x.denominator for x in c))
    c = [int(x * scale) for x in c]
    jm = j_matrix(alg, c)
    a = lx.mat_mul(jm, jm)
    ck2 = c[2] * c[2]
    n2 = sum(x * x for x in c)
    m1 = [[x + ck2 * (i == j) for j, x in enumerate(row)]
          for i, row in enumerate(a)]
    m2 = [[x + n2 * (i == j) for j, x in enumerate(row)]
          for i, row in enumerate(a)]
    prod = lx.mat_mul(lx.mat_mul(a, m1), m2)
    return all(x == 0 for row in prod for x in row)


def _first_rows(keys):
    """Indices of the first occurrence of each distinct key row, in sorted
    row order (np.unique(keys, axis=0, return_index=True)[1]): a stable
    lexsort over the columns, then the rows where the sorted key changes."""
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    new = np.ones(len(sk), dtype=bool)
    new[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    return order[new]


# cih enumerates (2 bound + 1)^5 V: 13^5 ≈ 3.7e5 at bound 6 (about 1 s and
# 240 MB); bound 10 would be 4.1e6 V and several GB of span arrays.
MAX_CIH_BOUND = 6
CIH_RECORDS = 40


def cih_certificate(data, coord_bound, rng):
    """Certificate of Gornet's clean-intersection criterion on all lattice
    logarithms V + Z with |v-coordinates| <= bound (integers) and
    |z-coordinates| <= bound (half-integers).

    Structure of the argument, each piece exact:
      1. the characteristic polynomial of j(Z_c) is
         l^5 + (c_k^2+|c|^2) l^3 + c_k^2 |c|^2 l identically (pinned on an
         integer grid large enough to determine the coefficients), so the
         nonzero eigenvalues of -j(Z_c)^2 are c_k^2 and |c|^2;
      2. for every bracket span [V, n] occurring among the enumerated V,
         the orthogonal projector onto its complement is an exact rational
         matrix N / d in closed form (idempotence and annihilation of the
         span verified in integers), so proj Z is rational for every
         half-integer Z;
      3. hence every nonzero eigenvalue theta^2 is a positive rational and
         theta is never in pi*Q (pi^2 irrational).
    Explicit eigenvalue records and annihilator checks are kept for
    CIH_RECORDS elements drawn from rng.  A bound outside
    0..MAX_CIH_BOUND raises ValueError before anything is enumerated.
    """
    if not 0 <= coord_bound <= MAX_CIH_BOUND:
        raise ValueError(f"coord_bound must be in 0..{MAX_CIH_BOUND}, got {coord_bound}")
    alg = data.alg
    cert = Certificate("clean_intersection", data.name)

    ok, witness = char_poly_identity_check(alg, alg)
    cert.add("char_poly_structure_identity", ok, value=witness)

    rng_v = np.arange(-coord_bound, coord_bound + 1, dtype=np.int64)
    vs = np.stack(
        np.meshgrid(*([rng_v] * alg.dim_v), indexing="ij"), axis=-1
    ).reshape(-1, alg.dim_v)
    spans = np.einsum("np,pqr->nqr", vs, alg.int_tensor)  # [V, e_q] rows
    first_v = _first_rows(_span_keys(spans))

    # one integer projector N / d per distinct span, in sorted key order
    distinct = spans[first_v]
    proj, dens = _complement_projectors(distinct)
    ok = _projectors_exact(proj, dens, distinct)
    bad = None if ok.all() else vs[first_v[~ok][-1]].tolist()
    cert.add(
        "rational_projectors_for_all_bracket_spans",
        bad is None,
        value={"enumerated_V": int(vs.shape[0]),
               "distinct_spans": len(first_v),
               "witness": bad},
    )

    # sampled explicit eigenvalue records with exact annihilator checks
    half = Fraction(1, 2)
    z_vals = [half * k for k in range(-2 * coord_bound, 2 * coord_bound + 1)]
    records = []
    ann_ok = True
    for _ in range(CIH_RECORDS):
        k = int(rng.integers(0, len(first_v)))
        z = [z_vals[int(rng.integers(0, len(z_vals)))] for _ in range(3)]
        d = int(dens[k])
        c = [x / d for x in lx.mat_vec(proj[k].tolist(), z)]
        eigs = sorted({c[2] * c[2], sum(x * x for x in c)} - {Fraction(0)})
        if not _annihilator_check(alg, c):
            ann_ok = False
        prim = _primitive_rows(distinct[k]).tolist()
        span = sorted({tuple(r) for r in prim if any(r)})
        records.append({
            "span": [list(map(str, r)) for r in span],
            "z": [str(x) for x in z],
            "proj_z": [str(x) for x in c],
            "theta_squared": [str(e) for e in eigs],
        })
        if any(e <= 0 for e in eigs):
            ann_ok = False
    cert.add("sampled_annihilator_checks", ann_ok, value=len(records))
    cert.data["records"] = records
    cert.data["covered_elements"] = int(vs.shape[0]) * len(z_vals) ** 3
    return cert
