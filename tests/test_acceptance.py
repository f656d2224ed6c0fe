"""Acceptance criteria: one test per criterion, one printed pass/fail line.

Every criterion runs at seed 42 through the same suite runners the CLI
uses; suite reports are computed once per session and shared.
"""

import hashlib
import json
import time

import pytest

from nilflow.cli import main
from nilflow.suites import RUNNERS, run_suite

SEED = 42

# per-suite wall-clock budget = sum of the budgets of the criteria it hosts:
# 4x the worst time measured (the cold first run at seed 42 in fresh
# interpreters and warm sweeps over seeds 0-149, on a 2-core x86_64 host),
# rounded up to the next 0.1 s; spectral, criteria and cih to the next
# 0.01 s (worst of 50 cold runs 23.4, 25.3 and 11.0 ms)
BUDGETS = {
    "algebra": 0.1,       # criterion 1
    "spectral": 0.1,      # criteria 2 + 3
    "flow": 0.2,          # criterion 7
    "integrals": 0.2,     # criteria 4 + 5 + 6
    "periodicity": 0.2,   # criteria 8 + 9 + 10
    "criteria": 0.11,     # criterion 11
    "cih": 0.05,          # criterion 12
}


class SuiteCache:
    def __init__(self):
        self.reports = {}
        self.times = {}

    def get(self, name):
        if name not in self.reports:
            t0 = time.perf_counter()
            self.reports[name] = RUNNERS[name](SEED)
            self.times[name] = time.perf_counter() - t0
        return self.reports[name]


@pytest.fixture(scope="session")
def suites():
    return SuiteCache()


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {label}: {status}{extra}")


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _within_budget(suites, suite):
    return suites.times[suite] <= BUDGETS[suite]


def test_criterion_01_golden_matrices(suites):
    rep = suites.get("algebra")
    c = _check(rep, "golden_j_matrices")
    ok = c.passed and _within_budget(suites, "algebra")
    _line(1, "golden j/j' matrices exact at e_i, e_j, e_k, (1,1,1)", ok,
          f"{suites.times['algebra']:.2f}s")
    assert c.passed
    assert _within_budget(suites, "algebra")


def test_criterion_02_char_poly_identity(suites):
    rep = suites.get("spectral")
    c = _check(rep, "char_poly_identity")
    ok = c.passed
    _line(2, "char poly of j and j' = l^5+(ck^2+|c|^2)l^3+ck^2|c|^2 l, "
             "6^3 grid + 10^4 random rational c (exact)", ok)
    assert ok
    assert _within_budget(suites, "spectral")


def test_criterion_03_isospectrality_hypotheses(suites):
    rep = suites.get("spectral")
    c = _check(rep, "gordon_wilson_isospectrality[M/Mprime]")
    ok = c.passed
    _line(3, "char poly identity proved on the grid {0..5}^3; kernel "
             "lattices matched by coordinate-permutation witnesses, so "
             "length spectra equal at every R, dual coords {-6..6} (exact)",
          ok, f"{suites.times['spectral']:.1f}s")
    assert ok
    assert _within_budget(suites, "spectral")


def test_criterion_04_conservation(suites):
    rep = suites.get("integrals")
    c = _check(rep, "conservation_drift")
    _line(4, "8 integrals drift <= 1e-8 along exact flow, t in [0,20], "
             "10^3 unit-speed generic states", c.passed,
          f"max drift {c.value:.3g}")
    assert c.passed
    assert _within_budget(suites, "integrals")


def test_criterion_05_poisson_commutation(suites):
    rep = suites.get("integrals")
    c1 = _check(rep, "poisson_commutation")
    c2 = _check(rep, "poisson_sanity_pair")
    ok = c1.passed and c2.passed
    _line(5, "max |{f_a,f_b}| over 28 pairs x 10^3 states <= 1e-6 "
             "(FD step 1e-6); |sanity pair - 1| <= 1e-6", ok,
          f"max {c1.value:.3g}, sanity off by {c2.value:.3g}")
    assert ok
    assert _within_budget(suites, "integrals")


def test_criterion_06_functional_independence(suites):
    rep = suites.get("integrals")
    c1 = _check(rep, "independence_rank_generic")
    c2 = _check(rep, "independence_rank_degenerate")
    ok = c1.passed and c2.passed
    _line(6, "rank 8 at >= 99% of 10^3 generic states; rank <= 6 at "
             "10^2 states with c_k = 0", ok,
          f"rank8 at {c1.value['rank8_count']}/1000")
    assert ok
    assert _within_budget(suites, "integrals")


def test_criterion_07_flow_oracle(suites):
    rep = suites.get("flow")
    cm = _check(rep, "exact_vs_rk4[M]")
    cp = _check(rep, "exact_vs_rk4[Mprime]")
    ok = cm.passed and cp.passed
    _line(7, "exact (v,V) vs RK4 step 1e-3 at t=10 <= 1e-8, 100 states, "
             "both manifolds", ok,
          f"M {cm.value:.3g}, M' {cp.value:.3g}; {suites.times['flow']:.1f}s")
    assert ok
    assert _within_budget(suites, "flow")


def test_criterion_08_translational_elements(suites):
    rep = suites.get("periodicity")
    c1 = _check(rep, "translational_forms_agree")
    c2 = _check(rep, "translational_vs_flow_oracle")
    ok = c1.passed and c2.passed
    _line(8, "proof vs expanded translational element <= 1e-10; both vs "
             "flow oracle <= 1e-9, constructed geodesics on M and M'", ok,
          f"forms {c1.value:.3g}, flow {c2.value:.3g}")
    assert ok
    assert _within_budget(suites, "periodicity")


def test_criterion_09_density_construction(suites):
    rep = suites.get("periodicity")
    c = _check(rep, "density_construction")
    _line(9, "100/100 random targets, eps = 0.1: exact a in Gamma, exact "
             "rotation condition, initial vector within eps", c.passed,
          f"{c.value['successes']}/100, worst {c.value['worst_distance']:.3f}")
    assert c.passed
    assert _within_budget(suites, "periodicity")


def test_criterion_10_family_dimension(suites):
    rep = suites.get("periodicity")
    cm = _check(rep, "family_dimension[M]")
    cp = _check(rep, "family_dimension[Mprime]")
    cf = _check(rep, "invariant_fiber_codim[M]")
    ok = cm.passed and cp.passed and cf.passed
    _line(10, "closure-constraint nullity 9 (FD steps 1e-4/1e-5/1e-6) on "
              "both manifolds; invariant fiber codim 1 on M, q-projections "
              "< 1e-6", ok,
          f"M {cm.value}, M' {cp.value}, "
          f"q-proj {cf.value['q_gradient_projection']:.3g}")
    assert ok
    assert _within_budget(suites, "periodicity")


def test_criterion_11_criteria_separation(suites):
    rep = suites.get("criteria")
    names = [
        "hr_presentation_M_passes",
        "hr_presentation_Mprime_fails_canonical_split",
        "butler_fraction_Mprime",
        "butler_fraction_M",
    ]
    checks = {n: _check(rep, n) for n in names}
    ok = all(c.passed for c in checks.values())
    _line(11, "HR presentation passes on M / fails on M' (canonical "
              "split); Butler fraction >= 0.999 on M' and = 0 on M over "
              "10^4 samples", ok,
          f"M' fraction {checks['butler_fraction_Mprime'].value}, "
          f"M fraction {checks['butler_fraction_M'].value}")
    assert ok
    assert _within_budget(suites, "criteria")


def test_criterion_12_cih_certificates(suites):
    rep = suites.get("cih")
    cm = _check(rep, "clean_intersection[M]")
    cp = _check(rep, "clean_intersection[Mprime]")
    ok = cm.passed and cp.passed
    _line(12, "clean-intersection certificate: every nonzero eigenvalue "
              "of -j(proj Z)^2 a positive rational, lattice logs with "
              "coordinate bound 3, both manifolds", ok,
          f"{suites.times.get('cih', 0):.1f}s")
    assert ok
    assert _within_budget(suites, "cih")


def _verify_all(path):
    """`verify --suite all` at SEED: (exit code, body text as written by
    Report.body_text)."""
    code = main(["verify", "--suite", "all", "--seed", str(SEED),
                 "--out", str(path)])
    return code, json.dumps(json.loads(path.read_text())["body"], indent=2)


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    return [_verify_all(out / f"r{i}.json") for i in (1, 2)]


def test_criterion_13_determinism(verify_runs):
    (code1, b1), (code2, b2) = verify_runs
    ok = code1 == 0 and code2 == 0 and b1 == b2
    _line(13, "verify --suite all --seed 42 twice: byte-identical report "
              "bodies, exit 0", ok)
    assert code1 == 0 and code2 == 0
    assert b1 == b2


# sha256 of run_suite("all", 42).body_text(): a change that moves a report
# value lists the moved values and records the new hash here and in
# ROADMAP.md.
BODY_SHA256_SEED_42 = (
    "a2d13024fad420a45ea8c12f47aabcf066ce6811b3fd9bdda99ba25f8f031fc8"
)


def test_report_body_hash_is_pinned(verify_runs):
    body = verify_runs[0][1]
    assert hashlib.sha256(body.encode()).hexdigest() == BODY_SHA256_SEED_42


# the same hash at two more seeds, so that a change cannot move a value
# that seed 42 happens not to reach
BODY_SHA256_SEED_7 = (
    "4f640b1f6ee4779e5b00b9404a4fb58ebebd46b012b13caaa891facc83c5b825"
)
BODY_SHA256_SEED_90210 = (
    "7afc489bf1758629c5bdf9d4c6f63ce3ea7001d8a7101d7e4c15113c6027f169"
)


# the test ids name the seed only, so a recorded hash keeps the test's name
@pytest.mark.parametrize("seed, want", [(7, BODY_SHA256_SEED_7),
                                        (90210, BODY_SHA256_SEED_90210)],
                         ids=["7", "90210"])
def test_report_body_hash_is_pinned_at_more_seeds(seed, want):
    body = run_suite("all", seed).body_text()
    assert hashlib.sha256(body.encode()).hexdigest() == want


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("bogus", 1)


def test_periodicity_work_is_bounded_at_seed_16():
    # suite seed 16 draws a family-dimension target with V almost
    # orthogonal to Y_c; it passes within the same budget as seed 42
    t0 = time.perf_counter()
    report = run_suite("periodicity", 16)
    assert time.perf_counter() - t0 <= BUDGETS["periodicity"]
    assert report.passed
