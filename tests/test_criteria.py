"""Integrability criteria and the clean-intersection certificate."""

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import linalg_exact as lx
from nilflow.catalog import build_deformation, build_pair, get_manifold
from nilflow import cli, criteria, lie_core
from nilflow.criteria import (
    CIH_RECORDS,
    MAX_CIH_BOUND,
    _first_rows,
    _projectors_exact,
    _span_projectors,
    butler_nonintegrability_sample,
    check_hr_presentation,
    cih_certificate,
)
from nilflow.flow import draw_rows
from nilflow.lie_core import AlgebraData, _primitive_rows, j_kernels
from nilflow.suites import run_suite
from oracles import (
    annihilator_check,
    butler_sample_lists,
    centralizer_nlambda_bruteforce,
    cih_records,
    cih_table_full_box,
    commutator_nonzero,
    draw_regular_z,
    mat_vec,
    span_projector,
)

M, MP = build_pair()


def test_hr_presentation_separates_the_pair():
    assert check_hr_presentation(M.alg, M.split).passed
    cert = check_hr_presentation(MP.alg, MP.split)
    assert not cert.passed
    assert cert.first_failure().name == "bracket_xx_zero"


def test_hr_presentation_deformation():
    d = build_deformation(Fraction(1, 2))
    assert check_hr_presentation(d.alg, d.split).passed


def test_centralizer_example_Mprime_Zk():
    # n_lambda for Z = Z_k on M': ker j'(Z_k) = R Y_k, plus all of z
    basis, dims = j_kernels(MP.alg, [[0, 0, 1]])
    assert dims.tolist() == [1] and basis[0, :1].tolist() == [[0, 0, 0, 0, 1]]
    basis = centralizer_nlambda_bruteforce(MP.alg, [0, 0, 1])
    assert len(basis) == 4
    yk = [0, 0, 0, 0, 1, 0, 0, 0]
    aug = [list(b) for b in basis] + [yk]
    assert lx.rank(aug) == 4  # Y_k already in the span


def test_centralizer_matches_bruteforce():
    rng = np.random.default_rng(21)
    for alg in (M.alg, MP.alg):
        for _ in range(50):
            Z = [int(x) for x in rng.integers(-9, 10, size=3)]
            # the production kernel of j(Z), extended by all of z
            basis, dims = j_kernels(alg, [Z])
            a = [v + [0] * 3 for v in basis[0, :dims[0]].tolist()]
            a += [[0] * 5 + [int(r == s) for s in range(3)] for r in range(3)]
            b = centralizer_nlambda_bruteforce(alg, Z)
            assert len(a) == len(b)
            assert lx.rank(a + [list(v) for v in b]) == len(a)


def test_centralizer_dim_case_table():
    # c_k != 0: 1 + 3; c_k = 0 != rho: 3 + 3; c = 0: 5 + 3
    for alg in (M.alg, MP.alg):
        _, dims = j_kernels(alg, [[1, 2, 3], [2, 1, 0], [0, 0, 0]])
        assert (dims + 3).tolist() == [4, 6, 8]


def test_butler_sample_separates_the_pair():
    rng = np.random.default_rng(33)
    cert, frac_mp = butler_nonintegrability_sample(MP.alg, 300, rng)
    assert frac_mp >= 0.99
    assert cert.data["regular_dim"] == 4
    _, frac_m = butler_nonintegrability_sample(M.alg, 300, rng)
    assert frac_m == 0.0


def test_butler_sample_matches_list_oracle():
    # the padded-array sample against the list-based one, kernel by kernel
    # from integer_kernel, on the pair and the dim_v = 4 deformation; the
    # regular dimension, the least dim ker j(Z) + dim_z over the sample, is
    # a line plus z on the pair and ker 0 plus z on the deformation
    for name, regular_dim in (("M", 4), ("Mprime", 4), ("defo:1/3", 2)):
        alg = get_manifold(name).alg
        for seed in (0, 3, 42, 90210):
            rng = np.random.Generator(np.random.Philox(seed))
            ref = np.random.Generator(np.random.Philox(seed))
            cert, frac = butler_nonintegrability_sample(alg, 500, rng)
            assert cert.data["regular_dim"] == regular_dim
            assert (frac, cert.data["regular_pairs"],
                    cert.data["first_flat_witness"],
                    cert.data["regular_dim"]) == \
                butler_sample_lists(alg, 500, ref)
            assert cert.data["positive_dim_fraction"] == frac
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


class _AxisDraws:
    """An rng whose integer draws have every coordinate but the last set to
    0: Z = (0, 0, c_k), where the raw sub-Pfaffian line is c_k^2 e_5 up to
    sign, the most a saturated line is scaled down."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, *args, size):
        zs = self.rng.integers(*args, size=size)
        zs[:, :-1] = 0
        return zs


def _butler_data(alg, n, rng):
    cert, frac = butler_nonintegrability_sample(alg, n, rng)
    return frac, {k: cert.data[k] for k in
                  ("regular_dim", "regular_pairs", "first_flat_witness")}


def test_butler_raw_lines_match_saturated_lines(monkeypatch):
    # the sample reads raw sub-Pfaffian kernel lines; with them saturated
    # it must report the same fraction, regular dimension, regular pairs
    # and witness.  On the pair and on Z = (0, 0, c_k) draws; on the
    # deformation and R^2 (+) so(3) the kernels have several raw Pfaffian
    # vectors, each divided by its gcd here
    so3 = _algebra_5(3, {(2, 3): 2, (3, 4): 0, (4, 2): 1})
    cases = [(M.alg, np.random.default_rng), (MP.alg, np.random.default_rng),
             (M.alg, _AxisDraws), (MP.alg, _AxisDraws),
             (get_manifold("defo:1/3").alg, np.random.default_rng),
             (so3, np.random.default_rng)]
    raw = [_butler_data(alg, 400, gen(seed)) for alg, gen in cases
           for seed in (0, 7, 42, 90210)]
    real = criteria.j_kernels

    def saturated(alg, cs):
        basis, dims = real(alg, cs)
        return _primitive_rows(basis), dims

    monkeypatch.setattr(criteria, "j_kernels", saturated)
    assert raw == [_butler_data(alg, 400, gen(seed)) for alg, gen in cases
                   for seed in (0, 7, 42, 90210)]
    assert raw[0][0] == 0.0 and raw[4][0] > 0.99  # M, then M'


def test_certify_kernels_skip_the_work_they_never_read(monkeypatch):
    # the Butler sample makes no gcd pass over its kernel lines, and the
    # CIH span table projects only the half box, (7^5 + 1) / 2 V at bound 3
    gcd_passes, spans = [], []

    def counting_rows(rows):
        gcd_passes.append(rows.shape)
        return _primitive_rows(rows)

    def counting_spans(planes):
        spans.append(planes.shape[2])
        return _span_projectors(planes)

    monkeypatch.setattr(lie_core, "_primitive_rows", counting_rows)
    monkeypatch.setattr(criteria, "_primitive_rows", counting_rows)
    monkeypatch.setattr(criteria, "_span_projectors", counting_spans)
    for alg in (M.alg, MP.alg):
        butler_nonintegrability_sample(alg, 1000, np.random.default_rng(1))
    assert gcd_passes == []
    criteria._cih_table.cache_clear()
    try:
        for data in (M, MP):
            cih_certificate(data, 3, np.random.default_rng(0))
    finally:
        criteria._cih_table.cache_clear()
    assert spans == [(7**5 + 1) // 2] * 2
    assert gcd_passes  # the span table's printed rows do make the pass


def test_certify_pass_reaches_hermite_only_for_the_hr_pairing_ranks():
    # every kernel of j(Z) comes from the Pfaffians; integer_kernel is left
    # to the three injective-presentation pairing ranks (M, M' and the
    # deformation) of a certify pass at seed 42
    calls, real = [], lx.integer_kernel

    def counting_kernel(mat):
        calls.append(mat)
        return real(mat)

    criteria._cih_table.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lx, "integer_kernel", counting_kernel)
            for suite in ("algebra", "spectral", "criteria", "cih"):
                assert run_suite(suite, 42).passed
    finally:
        criteria._cih_table.cache_clear()
    assert len(calls) == 3


def test_butler_empty_sample_has_no_regular_pair():
    for name in ("M", "Mprime", "defo:1/3"):
        alg = get_manifold(name).alg
        rng = np.random.default_rng(5)
        cert, frac = butler_nonintegrability_sample(alg, 0, rng)
        assert frac == 0.0 and not cert.passed
        assert [(c.name, c.passed, c.value) for c in cert.checks] == [
            ("regular_pairs_sampled", False, 0)]
        assert cert.data == {"samples": 0, "regular_dim": None,
                             "regular_pairs": 0, "positive_dim_fraction": 0.0,
                             "first_flat_witness": None}
        assert butler_sample_lists(alg, 0, rng) == (0.0, 0, None, None)
        # an empty sample draws nothing
        assert rng.integers(0, 2**62) == \
            np.random.default_rng(5).integers(0, 2**62)


def _algebra_5(dim_z, brackets):
    """dim v = 5 algebra with [X_p, X_q] = Z_r for each (p, q): r given."""
    table = [[[0] * dim_z for _ in range(5)] for _ in range(5)]
    for (p, q), r in brackets.items():
        table[p][q][r], table[q][p][r] = 1, -1
    return AlgebraData(table)


def test_butler_sample_brackets_every_kernel_vector_pair():
    # regular kernels of dimension 3 (rank j(Z) = 2, so no Pfaffian line):
    # on R^2 (+) so(3) only the rotation axes of the two kernels bracket
    # (the last kernel basis vector, not the first), on heisenberg (+) R^3
    # nothing does
    so3 = _algebra_5(3, {(2, 3): 2, (3, 4): 0, (4, 2): 1})
    heis = _algebra_5(1, {(0, 1): 0})
    for alg, n in ((so3, 60), (heis, 40)):
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        cert, frac = butler_nonintegrability_sample(alg, n, rng)
        assert cert.data["regular_dim"] == alg.dim_z + 3
        pairs = [(draw_regular_z(alg, ref), draw_regular_z(alg, ref))
                 for _ in range(n)]
        hits = [commutator_nonzero(alg, lam, mu) for lam, mu in pairs]
        flat = [p for p, h in zip(pairs, hits) if not h]
        assert cert.data["regular_pairs"] == n
        assert frac == sum(hits) / n
        assert cert.data["first_flat_witness"] == (
            {"lambda_z": flat[0][0], "mu_z": flat[0][1]} if flat else None)
    assert frac == 0.0  # heisenberg (+) R^3


def test_batched_regular_draw_matches_per_call_oracle(monkeypatch):
    # the sampler's batched draw must consume rng's stream exactly as one
    # call per candidate does; a numpy change to the stream fails here first
    drawn = []

    def recording(*args):
        drawn.append(draw_rows(*args))
        return drawn[-1]

    monkeypatch.setattr(criteria, "draw_rows", recording)
    gens = (lambda s: np.random.Generator(np.random.Philox(s)),
            np.random.default_rng)
    for seed, gen in itertools.product((0, 3, 7, 11, 90210), gens):
        for name, n in (("M", 300), ("Mprime", 57), ("defo:1/3", 500)):
            alg = get_manifold(name).alg
            rng, ref = gen(seed), gen(seed)
            cert, _ = butler_nonintegrability_sample(alg, n, rng)
            want = [draw_regular_z(alg, ref) for _ in range(2 * n)]
            assert drawn.pop().tolist() == want
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
            # on M every regular pair is flat, so the first flat witness
            # is the oracle's first pair
            if name == "M":
                assert cert.data["first_flat_witness"] == {
                    "lambda_z": want[0], "mu_z": want[1]}


def test_annihilator_identity():
    # A (A + c_k^2)(A + |c|^2) = 0 for A = j(Z_c)^2 is j p(j) = 0 with
    # p(l) = l (l^2 + c_k^2)(l^2 + |c|^2), Cayley-Hamilton for the char-poly
    # identity that the certificates prove; here in Fraction arithmetic
    rng = np.random.default_rng(35)
    for alg in (M.alg, MP.alg):
        for _ in range(20):
            c = [Fraction(int(x), int(d)) for x, d in
                 zip(rng.integers(-9, 10, size=3), rng.integers(1, 4, size=3))]
            assert annihilator_check(alg, c)


def test_cih_certificate_small_bound():
    for data in (M, MP):
        cert = cih_certificate(data, 1, np.random.default_rng(1))
        assert cert.passed
        by_name = {c.name: c for c in cert.checks}
        assert by_name["rational_projectors_for_all_bracket_spans"].value[
            "enumerated_V"
        ] == 3 ** 5
        assert [c.name for c in cert.checks] == [
            "char_poly_structure_identity",
            "rational_projectors_for_all_bracket_spans"]
        assert len(cert.data["records"]) == 40
        # every record's nonzero eigenvalues are positive rationals
        for rec in cert.data["records"]:
            for s in rec["theta_squared"]:
                assert Fraction(s) > 0


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_cih_records_match_fraction_oracle(bound):
    # the int64 records equal the per-record Fraction loop on the same
    # draws, and both leave the stream at the same place
    for data in (M, MP):
        for seed in (0, 1, 3, 7, 90210):
            rng = np.random.Generator(np.random.Philox(seed))
            rng_o = np.random.Generator(np.random.Philox(seed))
            cert = cih_certificate(data, bound, rng)
            records, covered = cih_records(data.alg, bound, rng_o,
                                           CIH_RECORDS)
            assert cert.data["records"] == records
            assert cert.data["covered_elements"] == covered
            assert rng.integers(0, 2**62) == rng_o.integers(0, 2**62)


def _assert_same_table(got, want):
    assert got[:2] == want[:2] and got[4] == want[4]
    assert np.array_equal(got[2], want[2])
    assert np.array_equal(got[3], want[3])


def _sparse_algebra(seed):
    """A dim v = 5, dim z = 3 algebra with each bracket [X_p, X_q] (p < q)
    set, with probability 0.4, to a random vector in {-1, 0, 1}^3."""
    rng = np.random.default_rng(seed)
    t = np.zeros((5, 5, 3), dtype=int)
    for p, q in itertools.combinations(range(5), 2):
        if rng.random() < 0.4:
            t[p, q] = rng.integers(-1, 2, size=3)
            t[q, p] = -t[p, q]
    return AlgebraData(t.tolist())


# on the pair every rank-deficient span prints the same rows from each of
# its V; on these two it does not, so they fix which V prints them
SPARSE_ALGEBRAS = [_sparse_algebra(seed) for seed in (3, 8)]


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_cih_table_matches_the_full_box(bound):
    # the half box with the sign symmetry against the whole box: the same
    # enumerated V, spans, N, 2d and printed rows
    for alg in (M.alg, MP.alg, *SPARSE_ALGEBRAS):
        _assert_same_table(criteria._cih_table.__wrapped__(
            alg.structure, bound), cih_table_full_box(alg, bound))


def test_cih_table_witness_matches_the_full_box(monkeypatch):
    # a check that fails every rank-2 span: the last failing V of the half
    # box is the last of the whole box
    real = criteria._projectors_exact
    monkeypatch.setattr(criteria, "_projectors_exact",
                        lambda proj, d, rank, spans:
                        real(proj, d, rank, spans) & (rank != 2))
    for data in (M, MP):
        got = criteria._cih_table.__wrapped__(data.alg.structure, 2)
        assert got[1] is not None
        _assert_same_table(got, cih_table_full_box(data.alg, 2))


def test_cih_certificate_rejects_a_bound_above_the_cap():
    for bound in (MAX_CIH_BOUND + 1, -1):
        with pytest.raises(ValueError, match="coord_bound"):
            cih_certificate(M, bound, np.random.default_rng(0))


# distinct bracket spans [V, n] over |V coordinates| <= bound, on M and M'
# alike; bound 1 is counted by the Fraction oracle below, bounds 2 and 3
# through one oracle projector per span
CIH_SPANS = {0: 1, 1: 16, 2: 52, 3: 148}


def _cih_spans(alg, bound):
    rng_v = np.arange(-bound, bound + 1)
    vs = np.stack(np.meshgrid(*[rng_v] * 5, indexing="ij"), -1).reshape(-1, 5)
    return np.einsum("np,pqr->nqr", vs, alg.int_tensor)


def _projectors(spans):
    """`_span_projectors` of spans given as (n, rows, 3) row sets."""
    spans = np.asarray(spans, dtype=np.int64)
    return _span_projectors(np.ascontiguousarray(spans.transpose(1, 2, 0)))


def test_distinct_spans_counts_spans():
    for data in (M, MP):
        for bound, want in CIH_SPANS.items():
            cert = cih_certificate(data, bound, np.random.default_rng(0))
            value = cert.checks[1].value
            assert value["distinct_spans"] == want
        oracle = {tuple(map(tuple, span_projector(rows)[0]))
                  for rows in _cih_spans(data.alg, 1).tolist()}
        assert len(oracle) == CIH_SPANS[1]


# sha256 of json.dumps(cih_certificate(...).to_dict(), indent=2) with the
# rng Generator(Philox(0)): the report keeps only a certificate's check
# count, so these pin its records, first-span order and distinct_spans
CIH_SHA256 = {
    ("M", 1): "4eb496ea82f83f6655f53401f01ce72b03f4ecaade08603bb4a01c5a2206b41e",
    ("M", 3): "5ad6a3aab0dd65811eaca13aba99fd49f5758078bc23f19d7a4875233f71c797",
    ("Mprime", 1):
        "93b9b7c99191aa7a5476fe68780500d9e78f493d04890393a6441e2ee94ee7de",
    ("Mprime", 3):
        "d1bf5adf73c3e4c6d03fcdda16c44038481d550ab029a77b83a2c7227d375523",
}


def _cih_sha256(name, bound, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    cert = cih_certificate(get_manifold(name), bound, rng)
    return hashlib.sha256(json.dumps(cert.to_dict(), indent=2).encode()
                          ).hexdigest()


@pytest.mark.parametrize("name,bound", sorted(CIH_SHA256))
def test_cih_certificate_outputs_are_pinned(name, bound):
    # cold: the span table built by this call; warm: read back after a
    # call at another bound and seed filled the cache further
    criteria._cih_table.cache_clear()
    assert _cih_sha256(name, bound) == CIH_SHA256[name, bound]
    _cih_sha256(name, 2, seed=5)
    assert _cih_sha256(name, bound) == CIH_SHA256[name, bound]


def test_cih_span_table_is_built_once_per_bound(monkeypatch):
    calls = []

    def counting(planes):
        calls.append(planes.shape)
        return _span_projectors(planes)

    monkeypatch.setattr(criteria, "_span_projectors", counting)
    criteria._cih_table.cache_clear()
    try:
        for seed in ("0", "1"):
            assert cli.main(["cih", "--bound", "1", "--seed", seed]) == 0
    finally:
        criteria._cih_table.cache_clear()
    assert len(calls) == 1


def test_cih_records_share_nothing_with_the_cache():
    first = cih_certificate(M, 1, np.random.default_rng(3))
    want = json.dumps(cih_certificate(M, 1, np.random.default_rng(3)
                                      ).to_dict())
    for rec in first.data["records"]:
        for row in rec["span"]:
            row.append("x")
        for field in rec.values():
            field.append("x")
    again = cih_certificate(M, 1, np.random.default_rng(3))
    assert json.dumps(again.to_dict()) == want


def test_ratio_prints_as_fraction():
    assert all(criteria._ratio(x, d) == str(Fraction(x, d))
               for x in range(-50, 51) for d in range(1, 61))


@pytest.mark.parametrize("name", ["M", "Mprime"])
def test_projectors_of_all_bound_3_spans_check(name):
    # all 16,807 V at bound 3: every projector passes its integer check, and
    # the 14,112 rank-3 spans, which skip it, all carry N = 0, d = 1
    proj, d, rank, ok = _projectors(_cih_spans(get_manifold(name).alg, 3))
    assert ok.shape == (16_807,) and ok.all()
    full = rank == 3
    assert np.count_nonzero(full) == 14_112
    assert not proj[full].any() and (d[full] == 1).all()


def _assert_projector(rows, n, d, rank):
    """N / d equals the Fraction oracle entry by entry, with its rank,
    N N = d N, N r = 0 and d > 0, all in Python ints."""
    comp, k = span_projector(rows)
    assert d > 0 and k == rank
    assert [[Fraction(x, d) for x in row] for row in n] == comp
    assert lx.mat_mul(n, n) == [[d * x for x in row] for row in n]
    assert all(not any(mat_vec(n, r)) for r in rows)


@st.composite
def integer_row_sets(draw, entry=st.integers(-40, 40)):
    """Rows in Z^3 spanning rank 0-3, with integer combinations of the
    spanning rows and zero rows mixed in, in any order."""
    rank = draw(st.integers(0, 3))
    vec = st.lists(entry, min_size=3, max_size=3)
    basis = draw(st.lists(vec, min_size=rank, max_size=rank))
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank,
                                    max_size=rank), max_size=3))
    combos = [[sum(c * b[i] for c, b in zip(cs, basis)) for i in range(3)]
              for cs in coeffs]
    zeros = [[0, 0, 0]] * draw(st.integers(0 if basis + combos else 1, 2))
    return draw(st.permutations(basis + combos + zeros))


@given(integer_row_sets())
@settings(max_examples=300, deadline=None)
def test_closed_form_projector_matches_oracle(rows):
    proj, d, rank, ok = _projectors([rows])
    assert ok.all()
    _assert_projector(rows, proj[0].tolist(), int(d[0]), int(rank[0]))


@given(st.integers(1, 63), st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_projector_never_wraps(bits, data):
    # entries of up to `bits` bits: an exact projector or OverflowError,
    # never a silently wrapped int64 result
    entry = st.integers(-(2 ** bits - 1), 2 ** bits - 1)
    rows = data.draw(integer_row_sets(entry))
    try:
        proj, d, rank, ok = _projectors([rows])
    except OverflowError:
        return
    assert ok.all()
    _assert_projector(rows, proj[0].tolist(), int(d[0]), int(rank[0]))


def test_closed_form_projector_overflow_guard():
    # one case per guard, each tripping one step below the product it
    # protects: rows max|a|^2, 2 max|G|^2, 3 max|G| max|adj|, then the
    # check's products on a rank-2 span
    for rows, guard in (
            ([[2**31, 0, 0]], "int64 Gram"),
            ([[2**16, 0, 0]], "int64 adjugates"),
            ([[2**11, 0, 0], [0, 2**10, 0], [0, 0, 2**10]],
             "int64 determinants"),
            ([[2**10 + 1, 7, 3], [5, 2**10 - 1, 2]], "int64 checks")):
        with pytest.raises(OverflowError, match=guard):
            _projectors([rows])


def test_projector_check_reads_the_most_negative_int64():
    # |-2^63| wraps to -2^63 under np.abs; the check's guard must still see
    # a span entry that large and refuse rather than wrap N r
    rows = np.array([[[-2**63, 0, 0]]])
    proj = np.diag([0, 1, 1]).astype(np.int64)[None]
    one = np.ones(1, dtype=np.int64)
    with pytest.raises(OverflowError, match="int64 checks"):
        _projectors_exact(proj, one, one, rows)


def test_projector_check_rejects_a_too_small_projector():
    # N = 0 and diag(0, 1, 0) are idempotent and kill the rank-1 span, but
    # their traces 0 and 1 are not 3 - 1; a non-symmetric idempotent fails
    rows = np.array([[[1, 0, 0], [2, 0, 0]]] * 3)
    proj = np.array([np.zeros((3, 3)), np.diag([0, 1, 0]),
                     [[0, 1, 0], [0, 1, 0], [0, 0, 1]]], dtype=np.int64)
    d, rank = np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64)
    assert not _projectors_exact(proj, d, rank, rows).any()
    assert _projectors(rows)[3].all()


@pytest.mark.parametrize("name,bound", [("M", 2), ("Mprime", 3)])
def test_projectors_of_all_cih_spans_match_oracle(name, bound):
    # the check on every V, the oracle at one V per span: pairwise distinct
    # oracle projectors, so the keys count spans
    spans = _cih_spans(get_manifold(name).alg, bound)
    proj, d, rank, ok = _projectors(spans)
    assert ok.all()
    first = _first_rows(np.concatenate([proj.reshape(-1, 9), d[:, None]], 1))
    assert len(first) == CIH_SPANS[bound]
    comps = set()
    for i in first.tolist():
        rows = spans[i].tolist()
        _assert_projector(rows, proj[i].tolist(), int(d[i]), int(rank[i]))
        comps.add(tuple(map(tuple, span_projector(rows)[0])))
    assert len(comps) == len(first)


def test_first_rows_is_unique_return_index():
    rng = np.random.default_rng(12)
    for n, k, hi in ((1, 3, 2), (50, 1, 3), (400, 4, 3), (2000, 5, 40)):
        keys = rng.integers(-1, hi, size=(n, k))
        want = np.unique(keys, axis=0, return_index=True)[1]
        assert np.array_equal(_first_rows(keys), want)
