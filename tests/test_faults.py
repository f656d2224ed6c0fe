"""Fault injection over the report: each named fault must fail exactly
its set of rows at seed 42.

A fault of the manifold data replaces `catalog._build_pair`, which every
suite reads through `build_pair`; a fault of the code wraps one function
(the lattice multiple m, the integrals or their closed-form gradients,
the CIH projectors, the Pfaffians).  The suites then run one at a time,
with the seed-free lemmas that the program caches per structure tensor
cleared before and after, so no cached result hides a fault.
A row that no fault can turn false shows nothing, so every row that none
of these faults moves is listed with the reason it cannot fail here.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nilflow import (catalog, criteria, integrals, lie_core, periodicity,
                     spectral, suites)
from nilflow.lie_core import AlgebraData
from nilflow.suites import SUITE_NAMES, run_suite

SEED = 42
M, MP = catalog.build_pair()


def _pair(build):
    """The fault that makes build() the manifold pair."""
    return lambda mp: mp.setattr(catalog, "_build_pair", build)


def _first_pair_doubled(alg):
    """alg with its first nonzero constant T[p][q][r] and its antisymmetric
    partner T[q][p][r] doubled."""
    p, q, r, _ = alg.terms[0]
    s = [[list(row) for row in line] for line in alg.structure]
    s[p][q][r] *= 2
    s[q][p][r] *= 2
    return AlgebraData(s)


def _drift_offset(drift, off):
    def shifted(c, v, al, n2):
        g_d, g_w = drift(c, v, al, n2)
        return g_d + off, g_w
    return shifted


def _theta_scaled(frame, scale):
    def scaled(Z):
        entries, theta = frame(Z)
        return entries, tuple(x * scale for x in theta)
    return scaled


def _m_plus_one(mp):
    """Each closed geodesic built with the multiple m + 1 for the least m
    that puts a in Gamma: tau and a scale with m, so the geodesic still
    closes, but a leaves Gamma (the valid multiples are those of m, and
    every m built at SEED is at least 8)."""
    real = periodicity._closed_geodesic

    def wrong(*args):
        geo = real(*args)
        s = Fraction(geo.m + 1, geo.m)
        return replace(geo, m=geo.m + 1, tau_over_pi=geo.tau_over_pi * s,
                       a_v=tuple(s * x for x in geo.a_v),
                       a_z=tuple(s * x for x in geo.a_z))
    mp.setattr(periodicity, "_closed_geodesic", wrong)


def _gradient_f_j(grad):
    """The fault that replaces the closed-form gradient row of f_j
    (`integrals._gradients`) by grad(state, B, A) -> (b, a)."""
    def apply(mp):
        real = integrals._gradients

        def wrong(state):
            B, A = real(state)
            B[..., 7, :], A[..., 7, :] = grad(state, B, A)
            return B, A
        mp.setattr(integrals, "_gradients", wrong)
    return apply


def _integral_f_j(f_j, grad):
    """The fault that replaces the integral f_j of evaluate_integrals by
    f_j(state, values), and its closed-form gradient by the replacement's
    own, grad as in `_gradient_f_j`."""
    def apply(mp):
        real = integrals.evaluate_integrals

        def wrong(state):
            out = np.array(real(state))
            out[..., 7] = f_j(state, out)
            return out
        mp.setattr(integrals, "evaluate_integrals", wrong)
        mp.setattr(suites, "evaluate_integrals", wrong)
        _gradient_f_j(grad)(mp)
    return apply


def _sin_v_j_gradient(state, B, A):
    """The left gradient of sin(2 pi v[1]): only dv[1] is nonzero."""
    b = np.zeros_like(B[..., 7, :])
    b[..., 1] = 2 * np.pi * np.cos(2 * np.pi * state.v[..., 1])
    return b, 0.0


def _f_i_gradient(state, B, A):
    return B[..., 6, :], A[..., 6, :]


def _adjugate_perturbed(mp):
    """adj G off by one in its first entry, so every rank-2 projector N =
    adj G read off it is wrong."""
    real = criteria._gram_adjugate

    def wrong(planes):
        g, adj, det = real(planes)
        adj = adj.copy()
        adj[0, 0] += 1
        return g, adj, det
    mp.setattr(criteria, "_gram_adjugate", wrong)


def _pfaffian_sign_flipped(mp):
    """Pf(0, 1, 2, 3) with the wrong sign, as from an odd reordering of its
    indices: the kernel line of j(Z) gets a wrong last entry, while every
    squared Pfaffian, hence every characteristic polynomial, is right."""
    real = lie_core._pfaffians

    def wrong(planes):
        pf = real(planes)
        if (0, 1, 2, 3) in pf:
            pf[0, 1, 2, 3] = -pf[0, 1, 2, 3]
        return pf
    mp.setattr(lie_core, "_pfaffians", wrong)


def _pfaffian_04_sign_flipped(mp):
    """Pf(0, 4), the entry j(Z)_04, with the wrong sign after every larger
    Pfaffian is built from the right one: the kernel bases of the rank-2
    j(Z) on M read it, and are wrong at the 36 dual points with c_i, c_j
    != 0 = c_k, while every squared Pfaffian, and every rank-4 kernel
    line, is right."""
    real = lie_core._pfaffians

    def wrong(planes):
        pf = real(planes)
        pf[0, 4] = -pf[0, 4]
        return pf
    mp.setattr(lie_core, "_pfaffians", wrong)


FAULTS = {
    "M_first_pair_doubled": (
        _pair(lambda: (replace(M, alg=_first_pair_doubled(M.alg)), MP)),
        {"algebra.golden_j_matrices", "spectral.char_poly_identity",
         "spectral.gordon_wilson_isospectrality[M/Mprime]",
         "flow.exact_vs_rk4[M]", "integrals.poisson_commutation",
         "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle",
         "cih.clean_intersection[M]"}),
    "Mprime_first_pair_doubled": (
        _pair(lambda: (M, replace(MP, alg=_first_pair_doubled(MP.alg)))),
        {"algebra.golden_j_matrices", "spectral.char_poly_identity",
         "spectral.gordon_wilson_isospectrality[M/Mprime]",
         "flow.exact_vs_rk4[Mprime]",
         "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle",
         "cih.clean_intersection[Mprime]"}),
    "M_drift_offset_1e-3": (
        _pair(lambda: (replace(M, drift=_drift_offset(M.drift, 1e-3)), MP)),
        {"periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle"}),
    "M_theta_scaled_1e-9": (
        _pair(lambda: (replace(M, frame=_theta_scaled(M.frame, 1.0 + 1e-9)),
                       MP)),
        {"flow.exact_vs_rk4[M]", "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle"}),
    "algebras_swapped": (
        _pair(lambda: (replace(M, alg=MP.alg), replace(MP, alg=M.alg))),
        {"algebra.golden_j_matrices", "flow.exact_vs_rk4[M]",
         "flow.exact_vs_rk4[Mprime]", "integrals.poisson_commutation",
         "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle",
         "periodicity.family_dimension[M]",
         "periodicity.family_dimension[Mprime]",
         "periodicity.invariant_fiber_codim[M]",
         "criteria.hr_presentation_M_passes",
         "criteria.hr_presentation_Mprime_fails_canonical_split",
         "criteria.butler_fraction_Mprime", "criteria.butler_fraction_M"}),
    # tau scales with m, so only the a in Gamma test of the density rows sees
    # it
    "lattice_multiple_m_plus_one": (
        _m_plus_one, {"periodicity.density_construction"}),
    # f_j = sin(2 pi v[1]): not conserved, and alive at c_k = 0
    "integral_f_j_not_conserved": (
        _integral_f_j(lambda s, out: np.sin(2 * np.pi * s.v[..., 1]),
                      _sin_v_j_gradient),
        {"integrals.conservation_drift", "integrals.poisson_commutation",
         "integrals.independence_rank_degenerate",
         "periodicity.invariant_fiber_codim[M]"}),
    # f_j = f_i: conserved and in involution, but dependent
    "integral_f_j_is_f_i": (
        _integral_f_j(lambda s, out: out[..., 6], _f_i_gradient),
        {"integrals.independence_rank_generic"}),
    # the closed form alone says grad f_j = grad f_i, while the values of
    # f_j are right
    "gradient_f_j_is_f_i": (
        _gradient_f_j(_f_i_gradient),
        {"integrals.gradient_forms_agree",
         "integrals.independence_rank_generic"}),
    "projector_adjugate_perturbed": (
        _adjugate_perturbed,
        {"cih.clean_intersection[M]", "cih.clean_intersection[Mprime]"}),
    "pfaffian_sign_flipped": (
        _pfaffian_sign_flipped,
        {"spectral.gordon_wilson_isospectrality[M/Mprime]"}),
    "pfaffian_04_sign_flipped": (
        _pfaffian_04_sign_flipped,
        {"spectral.gordon_wilson_isospectrality[M/Mprime]"}),
}

# the rows that none of the faults above fails, each with the reason
UNMOVED = {
    "integrals.poisson_sanity_pair":
        "{v[0], V[0]} = 1 is the canonical pairing of T*N, the same for "
        "every algebra and read off coordinate functions, not the integrals",
    "criteria.hr_presentation_deformation_passes":
        "the deformation is built by build_deformation, apart from the pair "
        "that the data faults replace, and its split is exact in its "
        "integer constants (test_criteria::test_hr_presentation_deformation)",
}


def _clear_seed_free_caches():
    """Forget the seed-free lemmas cached per structure tensor, so that a
    fault of the code they run is not hidden by a result computed before
    it, nor left behind in one computed under it."""
    criteria._cih_table.cache_clear()
    spectral._char_poly_witness.cache_clear()


def _rows(fault):
    """{suite.row: passed} over every suite at SEED under fault (None: no
    fault), with the seed-free caches cleared on the way in and out."""
    _clear_seed_free_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if fault is not None:
                fault(mp)
            return {f"{suite}.{c.name}": c.passed for suite in SUITE_NAMES
                    for c in run_suite(suite, SEED).checks}
    finally:
        _clear_seed_free_caches()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_exactly_its_rows(fault):
    apply, want = FAULTS[fault]
    rows = _rows(apply)
    assert {name for name, ok in rows.items() if not ok} == want


def test_fault_of_a_cached_lemma_fails_after_a_warm_run():
    # the cih suite fills the span table first; the perturbed adjugate must
    # still fail both cih rows, not read the table computed without it
    assert run_suite("cih", SEED).passed
    apply, want = FAULTS["projector_adjugate_perturbed"]
    rows = _rows(apply)
    assert {name for name, ok in rows.items() if not ok} == want
    assert run_suite("cih", SEED).passed


def test_faults_leave_only_the_listed_rows_unmoved():
    rows = _rows(None)
    assert all(rows.values())
    moved = set().union(*(want for _, want in FAULTS.values()))
    assert moved <= rows.keys()
    assert rows.keys() - moved == UNMOVED.keys()
