"""Fault injection over the report: each named fault of the manifold data
must fail exactly its set of rows at seed 42.

A fault replaces `catalog._build_pair`, which every suite reads through
`build_pair`, and the suites then run one at a time.  A row that no fault
can turn false shows nothing, so the rows that none of these faults moves
are pinned too, as the list still to be given a fault or a reason.
"""

from dataclasses import replace

import pytest

from nilflow import catalog
from nilflow.lie_core import AlgebraData
from nilflow.suites import SUITE_NAMES, run_suite

SEED = 42
M, MP = catalog.build_pair()


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
        rows, theta = frame(Z)
        return rows, theta * scale
    return scaled


FAULTS = {
    "M_first_pair_doubled": (
        lambda: (replace(M, alg=_first_pair_doubled(M.alg)), MP),
        {"algebra.golden_j_matrices", "spectral.char_poly_identity",
         "spectral.gordon_wilson_isospectrality[M/Mprime]",
         "flow.exact_vs_rk4[M]", "integrals.poisson_commutation",
         "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle",
         "cih.clean_intersection[M]"}),
    "Mprime_first_pair_doubled": (
        lambda: (M, replace(MP, alg=_first_pair_doubled(MP.alg))),
        {"algebra.golden_j_matrices", "spectral.char_poly_identity",
         "spectral.gordon_wilson_isospectrality[M/Mprime]",
         "flow.exact_vs_rk4[Mprime]",
         "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle",
         "cih.clean_intersection[Mprime]"}),
    "M_drift_offset_1e-3": (
        lambda: (replace(M, drift=_drift_offset(M.drift, 1e-3)), MP),
        {"periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle"}),
    "M_theta_scaled_1e-9": (
        lambda: (replace(M, frame=_theta_scaled(M.frame, 1.0 + 1e-9)), MP),
        {"flow.exact_vs_rk4[M]", "periodicity.translational_forms_agree",
         "periodicity.translational_vs_flow_oracle"}),
    "algebras_swapped": (
        lambda: (replace(M, alg=MP.alg), replace(MP, alg=M.alg)),
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
}

# the rows that none of the faults above fails
UNMOVED = {
    "integrals.conservation_drift",
    "integrals.independence_rank_generic",
    "integrals.independence_rank_degenerate",
    "integrals.poisson_sanity_pair",
    "periodicity.density_construction",
    "criteria.hr_presentation_deformation_passes",
}


def _rows(pair):
    """{suite.row: passed} over every suite at SEED, with pair as the
    manifolds (None: the real pair)."""
    with pytest.MonkeyPatch.context() as mp:
        if pair is not None:
            mp.setattr(catalog, "_build_pair", lambda: pair)
        return {f"{suite}.{c.name}": c.passed for suite in SUITE_NAMES
                for c in run_suite(suite, SEED).checks}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_exactly_its_rows(fault):
    build, want = FAULTS[fault]
    rows = _rows(build())
    assert {name for name, ok in rows.items() if not ok} == want


def test_faults_leave_only_the_listed_rows_unmoved():
    rows = _rows(None)
    assert all(rows.values())
    moved = set().union(*(want for _, want in FAULTS.values()))
    assert moved <= rows.keys()
    assert rows.keys() - moved == UNMOVED
