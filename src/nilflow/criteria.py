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

from functools import cache
from math import gcd

import numpy as np

from . import linalg_exact as lx
from .flow import draw_rows
from .lie_core import AlgebraData, _abs_max, _primitive_rows, j_kernels
from .report import Certificate
from .spectral import _grid, char_poly_identity_check


def check_hr_presentation(alg, split):
    """Exact certificate for an injective presentation, read off the integer
    structure tensor T on a split (x, y, k), a manifold's `split`:
    [x,x] = 0, [y,y] = 0, and X |-> <Z_k, [X, .]>|_y injective on x.  The
    witness of a block is its last nonzero bracket; the pairing's rank is
    |y| less the dimension of the integer kernel of T[x][y][k], and 0 for
    an empty x block."""
    cert = Certificate("hr_injective_presentation", "algebra")
    x, y, k = split
    t = alg.structure

    for name, idx in (("bracket_xx_zero", x), ("bracket_yy_zero", y)):
        nonzero = [t[a][b] for a in idx for b in idx if any(t[a][b])]
        witness = [str(c) for c in nonzero[-1]] if nonzero else None
        cert.add(name, not nonzero, value=witness)

    # integer_kernel would read an empty x block as a matrix with no columns
    block = [[t[a][b][k] for b in y] for a in x]
    rk = len(y) - len(lx.integer_kernel(block)) if block else 0
    cert.add(
        "pairing_rank_equals_dim_x",
        rk == len(x),
        value={"rank": rk, "dim_x": len(x)},
    )
    return cert


# ---------------------------------------------------------------------------
# coadjoint centralizers


def butler_nonintegrability_sample(alg, n_samples, rng):
    """Sampled check of the positive-dimensional-commutator condition.

    Draws pairs of integer covectors lambda = <V+Z, .>, mu with c_k != 0,
    requires both centralizers to be regular (the least dimension dim
    ker j(Z) + dim_z among the sample's own 2 n_samples kernels), and
    tests dim [n_lambda, n_mu] >= 1.  Statistical evidence for an
    open-dense condition, not a proof of density.

    The integer Z are drawn through `flow.draw_rows`, and their kernels and
    kernel dimensions come from one `j_kernels` call, with no separate
    draw for the regular dimension; an empty sample has no regular pair.
    Each kernel basis is the raw Pfaffian basis of `j_kernels` (at rank 4
    the sub-Pfaffian line k(Z)), which no gcd pass scales: its span alone
    decides dims and whether a bracket of kernel vectors vanishes.  Every
    pair of kernel vectors of the regular pairs is bracketed at once from
    the zero-padded bases, one signed add per nonzero constant.
    """
    cert = Certificate("butler_nonintegrability", "sampled")
    zs = draw_rows(2 * n_samples,
                   lambda k: rng.integers(-50, 51, size=(k, alg.dim_z)),
                   lambda z: z[:, -1] != 0)
    basis, dims = j_kernels(alg, zs)
    # dim n_lambda = dim ker j(Z) + dim_z; its least value over the sample
    # is the regular dimension, which an empty sample does not have
    regular_dim = int(dims.min()) + alg.dim_z if dims.size else None
    is_regular = np.all((dims + alg.dim_z == regular_dim).reshape(-1, 2),
                        axis=1)
    # dim [n_lambda, n_mu] >= 1 iff some kernel-vector bracket is nonzero;
    # the zero padding brackets to 0
    k = basis.shape[1]
    pairs = np.moveaxis(basis.reshape(n_samples, 2, k, alg.dim_v)[is_regular],
                        -1, 0)  # (dim_v, pairs, 2, k)
    bound = _abs_max(pairs) ** 2
    if bound * int(np.abs(alg.int_tensor).sum(axis=(0, 1)).max()) >= 2**62:
        raise OverflowError("kernel vectors too large for int64 brackets")
    lam, mu = pairs[:, :, 0, :, None], pairs[:, :, 1, None, :]
    brackets = np.zeros((alg.dim_z, pairs.shape[1], k, k), dtype=np.int64)
    for p, q, r, c in alg.terms:
        brackets[r] += c * lam[p] * mu[q]
    hit = np.zeros(n_samples, dtype=bool)
    hit[is_regular] = np.any(brackets != 0, axis=(0, 2, 3))
    flat = np.nonzero(is_regular & ~hit)[0]
    witness = None
    if flat.size:
        lam, mu = zs.reshape(-1, 2, alg.dim_z)[flat[0]].tolist()
        witness = {"lambda_z": lam, "mu_z": mu}
    regular, hits = int(is_regular.sum()), int(hit.sum())
    fraction = hits / regular if regular else 0.0
    cert.data.update(
        {"samples": n_samples, "regular_dim": regular_dim,
         "regular_pairs": regular,
         "positive_dim_fraction": fraction, "first_flat_witness": witness}
    )
    cert.add("regular_pairs_sampled", regular > 0, value=regular)
    return cert, fraction


# ---------------------------------------------------------------------------
# clean intersection


def _gram_adjugate(planes):
    """The Gram matrix G = A^T A of integer spans A held as entry planes
    (rows, 3, n), its adjugate and det G, as int64 planes (3, 3, n), (3, 3,
    n) and (n,).  Raises OverflowError before any product could leave
    int64, and ValueError unless the spans lie in a 3-dimensional z."""
    rows, dim, n = planes.shape
    if dim != 3:
        raise ValueError("closed-form projectors need dim z = 3")
    if rows * _abs_max(planes) ** 2 >= 2**62:
        raise OverflowError("bracket spans too large for int64 Gram matrices")
    g = np.empty((3, 3, n), dtype=np.int64)
    for i in range(3):
        for j in range(i, 3):
            g[i, j] = g[j, i] = np.sum(planes[:, i] * planes[:, j], axis=0)
    gb = _abs_max(g)
    if 2 * gb**2 >= 2**62:
        raise OverflowError("Gram matrices too large for int64 adjugates")
    # adj G is the transposed cofactor matrix; G is symmetric, so is adj G
    adj = np.empty_like(g)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(i, 3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[i, j] = adj[j, i] = (g[i1, j1] * g[i2, j2]
                                     - g[i1, j2] * g[i2, j1])
    if 3 * gb * _abs_max(adj) >= 2**62:
        raise OverflowError("Gram matrices too large for int64 determinants")
    det = g[0, 0] * adj[0, 0] + g[0, 1] * adj[0, 1] + g[0, 2] * adj[0, 2]
    return g, adj, det


def _projectors_exact(proj, d, rank, spans):
    """Whether each N / d is the orthogonal projector onto the complement
    of its span of the given rank: N symmetric, N N = d N, tr N = d (3 -
    rank) and N r = 0 for every row r, in int64.  A symmetric idempotent
    that kills the rows and has that trace has kernel exactly the span.
    OverflowError before a product could wrap."""
    spans = np.asarray(spans, dtype=np.int64)
    nb, sb, db = _abs_max(proj), _abs_max(spans), _abs_max(d)
    if max(3 * nb * nb, db * nb, 3 * nb * sb, 3 * db) >= 2**62:
        raise OverflowError("projectors too large for int64 checks")
    sym = np.all(proj == proj.transpose(0, 2, 1), axis=(1, 2))
    idem = np.all(proj @ proj == d[:, None, None] * proj, axis=(1, 2))
    trace = np.trace(proj, axis1=1, axis2=2) == d * (3 - rank)
    killed = ~np.any(proj @ spans.transpose(0, 2, 1) != 0, axis=(1, 2))
    return sym & idem & trace & killed


def _span_projectors(planes):
    """Orthogonal projectors onto the complements of the spans of integer
    rows held as entry planes (rows, 3, n), exactly in int64 from the Gram
    matrix G = A^T A and its adjugate alone (`_gram_adjugate`, one pass
    for every span): (N (n, 3, 3), d (n,), rank (n,), ok (n,)) with P = N /
    d in lowest terms (gcd of N and d is 1, d > 0), so that (N, d) is a
    canonical key of the span, and ok from `_projectors_exact`.

    det G != 0 gives rank 3 and 0 / 1, for which every check of
    `_projectors_exact` reads 0 = 0; only the det G = 0 rows go further.
    G and adj G are positive semidefinite, so there tr adj G > 0 gives rank
    2 and adj G / tr adj G; else tr G > 0 rank 1 and (tr G I - G) / tr G;
    else G = 0, rank 0 and I / 1.  Raises OverflowError before any product
    could leave int64.
    """
    n = planes.shape[2]
    g, adj, det = _gram_adjugate(planes)
    low = np.flatnonzero(det == 0)
    g, adj = g[:, :, low].transpose(2, 0, 1), adj[:, :, low].transpose(2, 0, 1)
    tr_g = np.trace(g, axis1=1, axis2=2)
    tr_adj = np.trace(adj, axis1=1, axis2=2)
    two = tr_adj > 0
    d = np.maximum(tr_g, 1)  # G = 0 (rank 0): d = 1 and N = I
    proj = d[:, None, None] * np.eye(3, dtype=np.int64) - g
    proj[two], d[two] = adj[two], tr_adj[two]
    div = np.gcd(np.gcd.reduce(proj.reshape(-1, 9), axis=1), d)
    proj //= div[:, None, None]
    d //= div
    rank = np.select([two, tr_g > 0], [2, 1])
    spans = planes[:, :, low].transpose(2, 0, 1)
    proj_all = np.zeros((n, 3, 3), dtype=np.int64)
    dens, ranks, ok = np.ones(n, np.int64), np.full(n, 3), np.ones(n, bool)
    proj_all[low], dens[low], ranks[low] = proj, d, rank
    ok[low] = _projectors_exact(proj, d, rank, spans)
    return proj_all, dens, ranks, ok


def _first_rows(keys):
    """Indices of the first occurrence of each distinct key row, in sorted
    row order (np.unique(keys, axis=0, return_index=True)[1]): a stable
    lexsort over the columns, then the rows where the sorted key changes."""
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    new = np.ones(len(sk), dtype=bool)
    new[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    return order[new]


# cih enumerates (2 bound + 1)^5 V and projects half of them: 13^5 ≈ 3.7e5
# at bound 6 (about 0.07 s and 100 MB peak for `nilflow cih --bound 6` on a
# 2-core x86_64 host); bound 10 would be 4.1e6 V and GBs of span arrays.
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
      2. for every enumerated V, the orthogonal projector onto the
         complement of the bracket span [V, n] is an exact rational matrix
         N / d, read off the Gram matrix G of the span.  [-V, n] = [V, n],
         so each V with first nonzero coordinate < 0 has the projector and
         checks of -V, and only the half box {V : first nonzero coordinate
         > 0} ∪ {0} is projected (`_cih_table`).  Where det G != 0
         the span is all of z and N = 0, d = 1, for which symmetry,
         idempotence, trace 3 - rank = 0 and annihilation of the span all
         read 0 = 0; on the rows with det G = 0 (a sixth of them at bound
         3) N / d comes from adj G or G and those four checks run in
         integers; so proj Z is rational for every half-integer Z;
      3. hence every nonzero eigenvalue theta^2 is a positive rational and
         theta is never in pi*Q (pi^2 irrational).
    N / d in lowest terms is the span's key: `distinct_spans` counts the
    distinct keys (148 on each manifold of the pair at bound 3).  Steps 1
    and 2 do not depend on rng and are cached in the process: step 1 once
    per structure tensor (`char_poly_identity_check`), step 2 once per
    structure tensor and bound (`_cih_table`).  Explicit eigenvalue records
    (span, z, proj z, theta^2) are kept as data for CIH_RECORDS elements
    drawn from rng over the spans in one `rng.integers` call, computed at
    once from int64 numerators and printed as p/q from Python ints
    (`_ratio`, with no Fraction).  A bound outside 0..MAX_CIH_BOUND raises
    ValueError before anything is enumerated.
    """
    if not 0 <= coord_bound <= MAX_CIH_BOUND:
        raise ValueError(f"coord_bound must be in 0..{MAX_CIH_BOUND}, got {coord_bound}")
    cert = Certificate("clean_intersection", data.name)
    cert.add("char_poly_structure_identity",
             *char_poly_identity_check(data.alg))
    n_v, bad, proj, dens2, spans = _cih_table(data.alg.structure,
                                              coord_bound)
    cert.add(
        "rational_projectors_for_all_bracket_spans",
        bad is None,
        value={"enumerated_V": n_v, "distinct_spans": len(spans),
               "witness": bad},
    )

    # eigenvalue records over the spans: one draw of (k, 2z + 2 bound) per
    # record, all records at once; then, in integers, proj z = N (2z) / 2d
    # and theta^2 = c_k^2, |c|^2 over (2d)^2
    sizes = (len(spans),) + (4 * coord_bound + 1,) * 3
    draws = rng.integers(0, sizes, size=(CIH_RECORDS, 4))
    ks, z2 = draws[:, 0], draws[:, 1:] - 2 * coord_bound
    num = np.einsum("nij,nj->ni", proj[ks], z2).tolist()
    cert.data.update(records=[{
        "span": [list(r) for r in spans[k]],
        "z": [_ratio(x, 2) for x in z],
        "proj_z": [_ratio(x, d) for x in n],
        "theta_squared": [_ratio(e, d * d) for e in
                          sorted({n[2] * n[2], sum(x * x for x in n)} - {0})],
    } for k, n, d, z in zip(ks.tolist(), num, dens2[ks].tolist(),
                            z2.tolist())],
        covered_elements=n_v * sizes[1] ** 3)
    return cert


def _ratio(p, q):
    """str(Fraction(p, q)) for ints p and q > 0: p/q in lowest terms, the
    integer alone when that denominator is 1."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}".removesuffix("/1")


@cache
def _cih_table(structure, coord_bound):
    """The seed-free part of `cih_certificate` for the algebra with this
    structure tensor: (number of enumerated V, the last V whose projector
    fails its check as a tuple or None, then per distinct span in sorted
    key order N (n, 3, 3), 2d (n,) and the span's primitive nonzero rows,
    sorted, printed).  Only the distinct spans are kept, not the (2 bound +
    1)^dim_v bracket planes.

    The sign symmetry is an exact step: [-V, n] = [V, n] as a span, since
    its rows are those of V negated, so -V has the same G, adj G, N / d and
    checks, and only the half box {V : first nonzero coordinate > 0} ∪ {0}
    is projected ((7^5 + 1) / 2 = 8,404 of 16,807 V at bound 3).  In the
    box's lexicographic order that half is the upper half, and negation
    reverses the order; so the last failing V of the half is the last of
    the box, and each span's rows are printed from its last V in the half,
    minus the first V of the box, whose primitive rows are the same.

    Every call at the key gets the same objects: the witness and the rows
    are tuples, and callers read the two arrays only through index arrays,
    which copy.  So a process that certifies many seeds, as
    `scripts/run_verification.py --seed A:B` does, pays for the table once
    per manifold and bound, and a `perfbench --trace 1` run, whose traced
    passes follow its untraced ones, times it warm."""
    alg = AlgebraData(structure)
    vs = _grid(np.arange(-coord_bound, coord_bound + 1, dtype=np.int64),
               alg.dim_v)
    n_v = len(vs)
    vs = vs[n_v // 2:]  # V = 0, then the V after it in the order
    # the [V, e_q] rows as planes (dim_v, dim_z, n)
    planes = np.zeros((alg.dim_v, alg.dim_z, len(vs)), dtype=np.int64)
    for p, q, r, c in alg.terms:
        planes[q, r] += c * vs[:, p]
    proj, dens, rank, ok = _span_projectors(planes)
    # one V per span, the last in the half, in sorted key order: the
    # rank-3 spans share one key, so the rank-deficient V and the last
    # rank-3 V hold every last V; reversed, the first rows are the last
    heads = rank < 3
    heads[-1 - np.argmax(rank[::-1] == 3)] = True  # all heads without rank 3
    heads = np.flatnonzero(heads)[::-1]
    last_v = heads[_first_rows(np.concatenate(
        [proj[heads].reshape(-1, 9), dens[heads, None]], 1))]
    bad = None if ok.all() else tuple(vs[~ok][-1].tolist())
    prims = _primitive_rows(planes[:, :, last_v].transpose(2, 0, 1))
    spans = tuple(tuple(tuple(map(str, r)) for r in
                        sorted({tuple(r) for r in prim if any(r)}))
                  for prim in prims.tolist())
    return n_v, bad, proj[last_v], 2 * dens[last_v], spans
