"""Integrability/nonintegrability criteria and the clean-intersection
certificate.

Three independent diagnostics that separate the pair:
  * an injective presentation (x, y, c) of the algebra, sufficient for
    integrability of the geodesic flow — the canonical split passes on M
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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx
from .lie_core import bracket_v, j_matrix
from .report import Certificate
from .spectral import char_poly_identity_check


@dataclass
class PresentationSplit:
    """A candidate split v = x (+) y with a distinguished functional
    <candidate_c, .> on z."""

    x_basis: tuple
    y_basis: tuple
    candidate_c: tuple

    def __post_init__(self):
        self.x_basis = tuple(tuple(Fraction(t) for t in b) for b in self.x_basis)
        self.y_basis = tuple(tuple(Fraction(t) for t in b) for b in self.y_basis)
        self.candidate_c = tuple(Fraction(t) for t in self.candidate_c)
        rows = [list(b) for b in self.x_basis + self.y_basis]
        if lx.rank(rows) != len(rows) or len(rows) != len(rows[0]):
            raise ValueError("x and y must be complementary subspaces of v")


def canonical_split(alg):
    """x = the X-block, y = the Y-block; the distinguished functional is
    Z_k for the pair and Z_1 for the deformation family."""
    nx = sum(1 for n in alg.v_names if n.startswith("X"))
    e = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(alg.dim_v))
    if alg.dim_z == 3:
        c = (Fraction(0), Fraction(0), Fraction(1))
    else:
        c = (Fraction(1),) + (Fraction(0),) * (alg.dim_z - 1)
    return PresentationSplit(
        tuple(e(i) for i in range(nx)),
        tuple(e(i) for i in range(nx, alg.dim_v)),
        c,
    )


def check_hr_presentation(alg, split):
    """Exact certificate for an injective presentation: [x,x] = 0,
    [y,y] = 0, and X |-> <c, [X, .]>|_y injective on x."""
    cert = Certificate("hr_injective_presentation", "algebra")

    def block_abelian(basis):
        worst = None
        for a in basis:
            for b in basis:
                br = bracket_v(alg, a, b)
                if any(t != 0 for t in br):
                    worst = [str(t) for t in br]
        return worst is None, worst

    ok, witness = block_abelian(split.x_basis)
    cert.add("bracket_xx_zero", ok, value=witness)
    ok, witness = block_abelian(split.y_basis)
    cert.add("bracket_yy_zero", ok, value=witness)

    c = split.candidate_c
    pairing = [
        [
            sum(c[r] * br[r] for r in range(alg.dim_z))
            for yb in split.y_basis
            for br in [bracket_v(alg, xb, yb)]
        ]
        for xb in split.x_basis
    ]
    rk = lx.rank(pairing)
    cert.add(
        "pairing_rank_equals_dim_x",
        rk == len(split.x_basis),
        value={"rank": rk, "dim_x": len(split.x_basis)},
    )
    return cert


# ---------------------------------------------------------------------------
# coadjoint centralizers


def _int_kernel_v(alg, z_int):
    """Saturated integer basis of ker j(Z) for an integer Z (fast path:
    no rational arithmetic)."""
    jm = j_matrix(alg, [Fraction(int(x)) for x in z_int])
    return lx.integer_kernel([[int(x) for x in row] for row in jm])


def minimal_centralizer_dim(alg, rng):
    """Empirical minimum of dim n_lambda over a deterministic sample."""
    best = alg.dim
    for _ in range(64):
        Z = [int(x) for x in rng.integers(-9, 10, size=alg.dim_z)]
        best = min(best, len(_int_kernel_v(alg, Z)) + alg.dim_z)
    return best


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
    hits = 0
    regular = 0
    witness = None
    for _ in range(n_samples):
        zs = []
        while len(zs) < 2:
            cand = [int(x) for x in rng.integers(-50, 51, size=alg.dim_z)]
            if cand[-1] != 0:
                zs.append(cand)
        nl = _int_kernel_v(alg, zs[0])
        nm = _int_kernel_v(alg, zs[1])
        if len(nl) + alg.dim_z != min_dim or len(nm) + alg.dim_z != min_dim:
            continue
        regular += 1
        brackets = []
        for av in nl:
            for bv in nm:
                brackets.append(bracket_v(alg, av, bv))
        dim = lx.rank(brackets) if brackets else 0
        if dim >= 1:
            hits += 1
        elif witness is None:
            witness = {"lambda_z": zs[0], "mu_z": zs[1]}
    fraction = hits / regular if regular else 0.0
    cert.data.update(
        {"samples": n_samples, "regular_pairs": regular,
         "positive_dim_fraction": fraction, "first_flat_witness": witness}
    )
    cert.add("regular_pairs_sampled", regular > 0, value=regular)
    return cert, fraction


# ---------------------------------------------------------------------------
# clean intersection


def _span_projector(rows):
    """Exact orthogonal projector onto the complement of the row span."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    n = 3
    if not rows:
        return lx.identity(n), 0
    rr, pivots = lx.rref(rows)
    basis = [rr[i] for i in range(len(pivots))]
    b = basis  # k x 3
    k = len(b)
    gram = [[sum(bi * bj for bi, bj in zip(u, w)) for w in b] for u in b]
    ginv = lx.inverse(gram)
    proj = lx.zeros(n, n)
    for i in range(n):
        for j in range(n):
            proj[i][j] = sum(
                b[s][i] * ginv[s][t] * b[t][j] for s in range(k) for t in range(k)
            )
    comp = [
        [
            (Fraction(1 if i == j else 0)) - proj[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return comp, k


def _annihilator_check(alg, c):
    """Exact check that A := j(Z_c)^2 satisfies A (A + c_k^2) (A + |c|^2) = 0,
    pinning the eigenvalues of -j^2 inside {0, c_k^2, |c|^2}."""
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


def cih_certificate(data, coord_bound, rng=None, record_cap=40):
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
         matrix (idempotence and annihilation of the span verified), so
         proj Z is rational for every half-integer Z;
      3. hence every nonzero eigenvalue theta^2 is a positive rational and
         theta is never in pi*Q (pi^2 irrational).
    Explicit eigenvalue records and annihilator checks are kept for a
    deterministic sample of elements.
    """
    alg = data.alg
    cert = Certificate("clean_intersection", data.name)

    ok, witness = char_poly_identity_check(alg, alg, 6, 0, None)
    cert.add("char_poly_structure_identity", ok, value=witness)

    tensor = np.zeros((alg.dim_v, alg.dim_v, alg.dim_z), dtype=np.int64)
    for p in range(alg.dim_v):
        for q in range(alg.dim_v):
            tensor[p, q] = [int(x) for x in alg.bracket_table[p][q]]
    rng_v = np.arange(-coord_bound, coord_bound + 1, dtype=np.int64)
    vs = np.stack(
        np.meshgrid(*([rng_v] * alg.dim_v), indexing="ij"), axis=-1
    ).reshape(-1, alg.dim_v)
    spans = np.einsum("np,pqr->nqr", vs, tensor)  # [V, e_q] rows, per V

    cache = {}
    bad = None
    for n_idx in range(vs.shape[0]):
        rows = spans[n_idx]
        key_rows = []
        for row in rows:
            g = int(np.gcd.reduce(np.abs(row))) if np.any(row) else 0
            if g:
                r = tuple(int(x) // g for x in row)
                if r < tuple(-x for x in r):  # canonical sign
                    r = tuple(-x for x in r)
                key_rows.append(r)
        key = tuple(sorted(set(key_rows)))
        if key in cache:
            continue
        frac_rows = [[Fraction(int(x)) for x in row] for row in rows]
        comp, span_dim = _span_projector(frac_rows)
        # verify: projector kills the span and is idempotent
        killed = all(
            all(x == 0 for x in lx.mat_vec(comp, list(r)))
            for r in frac_rows
        )
        idem = lx.mat_mul(comp, comp) == comp
        if not (killed and idem):
            bad = [int(x) for x in vs[n_idx]]
        cache[key] = (comp, span_dim)
    cert.add(
        "rational_projectors_for_all_bracket_spans",
        bad is None,
        value={"enumerated_V": int(vs.shape[0]),
               "distinct_spans": len(cache),
               "witness": bad},
    )

    # sampled explicit eigenvalue records with exact annihilator checks
    half = Fraction(1, 2)
    z_vals = [half * k for k in range(-2 * coord_bound, 2 * coord_bound + 1)]
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    records = []
    ann_ok = True
    keys = sorted(cache.keys())
    for i in range(record_cap):
        key = keys[int(rng.integers(0, len(keys)))]
        comp, span_dim = cache[key]
        z = [z_vals[int(rng.integers(0, len(z_vals)))] for _ in range(3)]
        c = lx.mat_vec(comp, z)
        eigs = sorted({c[2] * c[2], sum(x * x for x in c)} - {Fraction(0)})
        if not _annihilator_check(alg, c):
            ann_ok = False
        if len(records) < record_cap:
            records.append({
                "span": [list(map(str, r)) for r in key],
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
