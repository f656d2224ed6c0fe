"""Integrability criteria and the clean-intersection certificate."""

from fractions import Fraction

import numpy as np

from nilflow import linalg_exact as lx
from nilflow.catalog import build_deformation, build_pair
from nilflow.criteria import (
    _annihilator_check,
    _int_kernel_v,
    butler_nonintegrability_sample,
    canonical_split,
    check_hr_presentation,
    cih_certificate,
    minimal_centralizer_dim,
)
from oracles import centralizer_nlambda_bruteforce

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
    assert _int_kernel_v(MP.alg, [0, 0, 1]) == [[0, 0, 0, 0, 1]]
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
            a = [list(v) + [0] * 3 for v in _int_kernel_v(alg, Z)]
            a += [[0] * 5 + [int(r == s) for s in range(3)] for r in range(3)]
            b = centralizer_nlambda_bruteforce(alg, Z)
            assert len(a) == len(b)
            assert lx.rank(a + [list(v) for v in b]) == len(a)


def test_centralizer_dim_case_table():
    # c_k != 0: 1 + 3; c_k = 0 != rho: 3 + 3; c = 0: 5 + 3
    for alg in (M.alg, MP.alg):
        assert len(_int_kernel_v(alg, [1, 2, 3])) + 3 == 4
        assert len(_int_kernel_v(alg, [2, 1, 0])) + 3 == 6
        assert len(_int_kernel_v(alg, [0, 0, 0])) + 3 == 8
        rng = np.random.default_rng(0)
        assert minimal_centralizer_dim(alg, rng) == 4


def test_butler_sample_separates_the_pair():
    rng = np.random.default_rng(33)
    cert, frac_mp = butler_nonintegrability_sample(MP.alg, 300, rng)
    assert frac_mp >= 0.99
    assert cert.data["minimal_centralizer_dim"] == 4
    _, frac_m = butler_nonintegrability_sample(M.alg, 300, rng)
    assert frac_m == 0.0


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
