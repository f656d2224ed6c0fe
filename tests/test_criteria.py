"""Integrability criteria and the clean-intersection certificate."""

from fractions import Fraction

import numpy as np

from nilflow import linalg_exact as lx
from nilflow.catalog import build_deformation, build_pair, get_manifold
from nilflow.criteria import (
    _annihilator_check,
    _draw_regular_zs,
    butler_nonintegrability_sample,
    canonical_split,
    check_hr_presentation,
    cih_certificate,
    minimal_centralizer_dim,
)
from nilflow.lie_core import AlgebraData, j_kernels
from oracles import (
    centralizer_nlambda_bruteforce,
    commutator_nonzero,
    draw_regular_z,
)

M, MP = build_pair()


def test_hr_presentation_separates_the_pair():
    assert check_hr_presentation(M.alg, canonical_split(M.alg)).passed
    cert = check_hr_presentation(MP.alg, canonical_split(MP.alg))
    assert not cert.passed
    assert cert.first_failure().name == "bracket_xx_zero"


def test_hr_presentation_deformation():
    d = build_deformation(Fraction(1, 2))
    assert check_hr_presentation(d.alg, canonical_split(d.alg)).passed


def test_canonical_split_shape():
    sp = canonical_split(M.alg)
    assert len(sp.x_basis) == 2 and len(sp.y_basis) == 3
    assert sp.candidate_c == (0, 0, 1)


def test_centralizer_example_Mprime_Zk():
    # n_lambda for Z = Z_k on M': ker j'(Z_k) = R Y_k, plus all of z
    assert j_kernels(MP.alg, [[0, 0, 1]])[0] == [[0, 0, 0, 0, 1]]
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
            a = [list(v) + [0] * 3 for v in j_kernels(alg, [Z])[0]]
            a += [[0] * 5 + [int(r == s) for s in range(3)] for r in range(3)]
            b = centralizer_nlambda_bruteforce(alg, Z)
            assert len(a) == len(b)
            assert lx.rank(a + [list(v) for v in b]) == len(a)


def test_centralizer_dim_case_table():
    # c_k != 0: 1 + 3; c_k = 0 != rho: 3 + 3; c = 0: 5 + 3
    for alg in (M.alg, MP.alg):
        assert len(j_kernels(alg, [[1, 2, 3]])[0]) + 3 == 4
        assert len(j_kernels(alg, [[2, 1, 0]])[0]) + 3 == 6
        assert len(j_kernels(alg, [[0, 0, 0]])[0]) + 3 == 8
        rng = np.random.default_rng(0)
        assert minimal_centralizer_dim(alg, rng) == 4


def test_butler_sample_separates_the_pair():
    rng = np.random.default_rng(33)
    cert, frac_mp = butler_nonintegrability_sample(MP.alg, 300, rng)
    assert frac_mp >= 0.99
    assert cert.data["minimal_centralizer_dim"] == 4
    _, frac_m = butler_nonintegrability_sample(M.alg, 300, rng)
    assert frac_m == 0.0


def _algebra_5(dim_z, brackets):
    """dim v = 5 algebra with [X_p, X_q] = Z_r for each (p, q): r given."""
    table = [[[0] * dim_z for _ in range(5)] for _ in range(5)]
    for (p, q), r in brackets.items():
        table[p][q][r], table[q][p][r] = 1, -1
    return AlgebraData(
        5, dim_z, tuple(f"X{p}" for p in range(5)),
        tuple(f"Z{r}" for r in range(dim_z)),
        tuple(tuple(tuple(row) for row in line) for line in table),
    )


def test_butler_sample_brackets_every_kernel_vector_pair():
    # regular kernels of dimension 3 (rank j(Z) = 2, so no Pfaffian line):
    # on R^2 (+) so(3) only the rotation axes of the two kernels bracket
    # (the last integer_kernel basis vector, not the first), on
    # heisenberg (+) R^3 nothing does
    so3 = _algebra_5(3, {(2, 3): 2, (3, 4): 0, (4, 2): 1})
    heis = _algebra_5(1, {(0, 1): 0})
    for alg, n in ((so3, 60), (heis, 40)):
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        cert, frac = butler_nonintegrability_sample(alg, n, rng)
        assert minimal_centralizer_dim(alg, ref) == alg.dim_z + 3
        pairs = [(draw_regular_z(alg, ref), draw_regular_z(alg, ref))
                 for _ in range(n)]
        hits = [commutator_nonzero(alg, lam, mu) for lam, mu in pairs]
        flat = [p for p, h in zip(pairs, hits) if not h]
        assert cert.data["regular_pairs"] == n
        assert frac == sum(hits) / n
        assert cert.data["first_flat_witness"] == (
            {"lambda_z": flat[0][0], "mu_z": flat[0][1]} if flat else None)
    assert frac == 0.0  # heisenberg (+) R^3


def test_batched_regular_draw_matches_per_call_oracle():
    # the batched draw must consume rng's stream exactly as one call per
    # candidate does; a numpy change to the stream fails here first
    for seed in (0, 3, 7, 11, 90210):
        for name, n in (("M", 300), ("Mprime", 57), ("defo:1/3", 500)):
            alg = get_manifold(name).alg
            rng = np.random.Generator(np.random.Philox(seed))
            ref = np.random.Generator(np.random.Philox(seed))
            zs = _draw_regular_zs(alg, rng, 2 * n)
            assert zs.tolist() == [draw_regular_z(alg, ref)
                                   for _ in range(2 * n)]
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
            # and through the sampler: on M every regular pair is flat, so
            # the first flat witness is the oracle's first pair
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            cert, _ = butler_nonintegrability_sample(alg, n, rng)
            minimal_centralizer_dim(alg, ref)
            pairs = [(draw_regular_z(alg, ref), draw_regular_z(alg, ref))
                     for _ in range(n)]
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
            if name == "M":
                assert cert.data["first_flat_witness"] == {
                    "lambda_z": pairs[0][0], "mu_z": pairs[0][1]}


def test_annihilator_identity():
    rng = np.random.default_rng(35)
    for alg in (M.alg, MP.alg):
        for _ in range(20):
            c = [Fraction(int(x), int(d)) for x, d in
                 zip(rng.integers(-9, 10, size=3), rng.integers(1, 4, size=3))]
            assert _annihilator_check(alg, c)


def test_cih_certificate_small_bound():
    for data in (M, MP):
        cert = cih_certificate(data, 1, np.random.default_rng(1), record_cap=5)
        assert cert.passed
        by_name = {c.name: c for c in cert.checks}
        assert by_name["rational_projectors_for_all_bracket_spans"].value[
            "enumerated_V"
        ] == 3 ** 5
        assert len(cert.data["records"]) == 5
        # every record's nonzero eigenvalues are positive rationals
        for rec in cert.data["records"]:
            for s in rec["theta_squared"]:
                assert Fraction(s) > 0
