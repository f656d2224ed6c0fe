"""Verification suites: one runner per module area, shared between the
CLI `verify` command and the acceptance tests.

Each runner returns a Report whose body is byte-reproducible for a fixed
seed (all randomness flows through a counter-based Philox generator keyed
by (seed, suite)).
"""

from fractions import Fraction

import numpy as np

from . import spectral
from .catalog import build_deformation, build_pair
from .criteria import (
    butler_nonintegrability_sample,
    check_hr_presentation,
    cih_certificate,
)
from .flow import (
    TangentState,
    draw_rows,
    eigenframe,
    flow_exact_vV,
    flow_rk4_many,
    sample_generic_state,
    state_from_flat,
)
from .integrals import (
    evaluate_integrals,
    independence_rank,
    left_gradients_all,
    poisson_matrix,
)
from .lie_core import j_matrices
from .periodicity import (
    closure_jacobian,
    construct_closed_geodesic,
    family_kernel,
    flow_translation,
    invariant_fiber_codim,
    translational_element,
    translational_element_expanded,
)
from .report import Report


# acceptance numbers of the integrals suite; `nilflow poisson` uses the
# same bracket tolerance
CONSERVATION_TOL = 1e-8
BRACKET_TOL = 1e-6
# the closed-form gradients against the FD stencil: 5x the worst gap over
# seeds 0-399 (3.9e-5 at seed 59, the FD error of a flat f row near
# c_k |c|^2 = 0.05)
GRADIENT_TOL = 2e-4


def _rng(seed, suite):
    idx = SUITE_NAMES.index(suite)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), idx]))
    )


# ---------------------------------------------------------------------------
# algebra


def _expected_j(c):
    ci, cj, ck = c
    return [
        [0, 0, 0, -ck, cj],
        [0, 0, ck, 0, -ci],
        [0, -ck, 0, 0, 0],
        [ck, 0, 0, 0, 0],
        [-cj, ci, 0, 0, 0],
    ]


def _expected_jp(c):
    ci, cj, ck = c
    return [
        [0, -ck, 0, 0, 0],
        [ck, 0, 0, 0, 0],
        [0, 0, 0, -ck, cj],
        [0, 0, ck, 0, -ci],
        [0, 0, -cj, ci, 0],
    ]


def run_algebra(seed):
    report = Report("algebra", seed, ["M", "Mprime"])
    m, mp = build_pair()
    cs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    ok = (j_matrices(m.alg, cs).tolist() == [_expected_j(c) for c in cs]
          and j_matrices(mp.alg, cs).tolist() == [_expected_jp(c) for c in cs])
    report.add(
        "golden_j_matrices",
        ok,
        value={"c_values": cs},
        note="exact equality with the printed 5x5 matrices",
    )
    return report


# ---------------------------------------------------------------------------
# spectral


def _random_rational_cs(rng, n):
    """n random rational c-vectors, each times the lcm of its denominators
    but not divided by its gcd ((2, 2, 2) stays); the char-poly identity is
    scale covariant, so clearing denominators loses nothing."""
    num = rng.integers(-5, 6, size=(n, 3))
    den = rng.integers(1, 5, size=(n, 3))
    scale = np.lcm.reduce(den, axis=1)
    return num * (scale[:, None] // den)


def run_spectral(seed):
    report = Report("spectral", seed, ["M", "Mprime"])
    rng = _rng(seed, "spectral")
    m, mp = build_pair()

    ok, witness = spectral.char_poly_identity_check(m.alg, mp.alg)
    cs = _random_rational_cs(rng, 10_000)
    rand_ok = all(spectral._char_poly_mismatches(a, cs).size == 0
                  for a in (m.alg, mp.alg))
    report.add(
        "char_poly_identity",
        ok and rand_ok,
        value={"grid": "6x6x6", "random_samples": 10_000, "witness": witness},
        note="exact: equals l^5+(ck^2+|c|^2)l^3+ck^2|c|^2 l for both maps",
    )

    cert = spectral.gw_certificate((m, mp), 6)
    report.add_certificate(cert)
    return report


# ---------------------------------------------------------------------------
# flow


def run_flow(seed):
    report = Report("flow", seed, ["M", "Mprime"])
    rng = _rng(seed, "flow")
    m, mp = build_pair()
    t = 10.0
    for data in (m, mp):
        states = sample_generic_state(data, rng, 100)
        ends = state_from_flat(data.alg,
                               flow_rk4_many(data.alg, states.flat(), t))
        v_e, V_e = flow_exact_vV(eigenframe(data, states.Z), states.v, states.V, t)
        worst = max(
            float(np.max(np.abs(v_e - ends.v))),
            float(np.max(np.abs(V_e - ends.V))),
        )
        report.add_bounded(
            f"exact_vs_rk4[{data.name}]", worst, 1e-8,
            note="(v, V) at t=10, 100 generic states, rk4 step 1e-3",
        )
    return report


# ---------------------------------------------------------------------------
# integrals


def _gradient_gaps(alg, states):
    """|closed form - FD| / |FD| per gradient row, both over the power of
    two of FD's largest entry, so a flat f row's norm does not underflow."""
    fd = np.concatenate(left_gradients_all(alg, states, evaluate_integrals), -1)
    gap = np.concatenate(left_gradients_all(alg, states), -1) - fd
    exp = -np.frexp(np.abs(fd).max(-1))[1][..., None]
    norm = lambda x: np.linalg.norm(np.ldexp(x, exp), axis=-1)
    return norm(gap) / np.maximum(norm(fd), np.finfo(float).tiny)


def run_integrals(seed):
    report = Report("integrals", seed, ["M"])
    rng = _rng(seed, "integrals")
    m, _ = build_pair()
    alg = m.alg

    # conservation along exact trajectories, unit speed; each block of
    # states is drawn in one call and then evaluated in one batched call
    ts = np.arange(1.0, 21.0)
    s = sample_generic_state(m, rng, 1000)
    scale = 1.0 / np.sqrt(s.speed2)[:, None]
    starts = TangentState(s.v, s.z, scale * s.V, scale * s.Z)
    vs, Vs = flow_exact_vV(eigenframe(m, starts.Z[:, None]), starts.v[:, None],
                           starts.V[:, None], ts)
    vals = evaluate_integrals(
        TangentState(vs, starts.z[:, None], Vs, starts.Z[:, None])
    )
    worst = float(np.max(np.abs(vals - evaluate_integrals(starts)[:, None])))
    report.add_bounded(
        "conservation_drift", worst, CONSERVATION_TOL,
        note="8 integrals, 10^3 unit-speed generic states, t in 1..20",
    )

    # Poisson commutation of all 28 pairs + a nonzero sanity pair
    states = sample_generic_state(m, rng, 1000)
    mat = poisson_matrix(alg, states)
    iu = np.triu_indices(8, k=1)
    worst = float(np.max(np.abs(mat[:, iu[0], iu[1]])))
    report.add_bounded(
        "poisson_commutation", worst, BRACKET_TOL,
        note="max |{f_a, f_b}| over 28 pairs, 10^3 generic states",
    )
    # the closed-form gradients against the FD stencil of the values, on
    # the first 10^2 commutation states (no new draw)
    head = TangentState(states.v[:100], states.z[:100], states.V[:100],
                        states.Z[:100])
    worst = float(np.max(_gradient_gaps(alg, head)))
    report.add_bounded(
        "gradient_forms_agree", worst, GRADIENT_TOL,
        note="max |closed form - FD| / |FD| per gradient row, FD step "
             "1e-6, 10^2 generic states",
    )
    s = sample_generic_state(m, rng)
    sanity = poisson_matrix(
        alg, s, fn=lambda st: np.stack([st.v[..., 0], st.V[..., 0]], -1)
    )[0, 1]
    off = abs(sanity - 1.0)
    report.add_bounded(
        "poisson_sanity_pair", off, BRACKET_TOL,
        note="{x_i coordinate, <V, X_i>} = 1",
    )

    # functional independence
    states = sample_generic_state(m, rng, 1000)
    ranks = independence_rank(alg, states)
    full = int(np.sum(ranks == 8))
    report.add(
        "independence_rank_generic",
        full >= 990,
        value={"rank8_count": full, "samples": 1000},
        tolerance="≥ 99%",
    )
    # c_k = 0 and |(c_i, c_j)| >= 1/2
    cij = draw_rows(100, lambda k: rng.uniform(-2, 2, size=(k, 2)),
                    lambda c: np.vecdot(c, c) >= 0.25)
    degen = TangentState(
        rng.uniform(-1, 1, size=(100, 5)), rng.uniform(-1, 1, size=(100, 3)),
        rng.uniform(-1, 1, size=(100, 5)), np.pad(cij, ((0, 0), (0, 1))),
    )
    ranks = independence_rank(alg, degen)
    worst_rank = int(np.max(ranks))
    report.add(
        "independence_rank_degenerate",
        worst_rank <= 6,
        value={"max_rank": worst_rank, "samples": 100},
        note="c_k = 0 collapses the transcendental pair",
    )
    return report


# ---------------------------------------------------------------------------
# periodicity


_NICE_TARGET_CS = ((3.0, 0.0, 4.0), (0.0, 3.0, 4.0), (2.0, 1.0, 2.0))


def _nice_geodesics(data, rng, c_bars):
    """Closed geodesics with small period, one per integer target Z in
    c_bars (|c| and c_k/|c| rational), from one draw and one construction
    call: epsilon = 0.45 starts the grid at 1/16, doubled only on a miss, so
    it stays dyadic and keeps the lattice multiple m (hence tau) small."""
    t = sample_generic_state(data, rng, len(c_bars))
    targets = TangentState(t.v, t.z, t.V, np.array(c_bars))
    return construct_closed_geodesic(data, targets, epsilon=0.45)


def run_periodicity(seed):
    report = Report("periodicity", seed, ["M", "Mprime"])
    rng = _rng(seed, "periodicity")
    m, mp = build_pair()

    # translational elements: proof form vs expanded form vs flow oracle
    worst_forms = 0.0
    worst_flow = 0.0
    for data in (m, mp):
        for geo in _nice_geodesics(data, rng, _NICE_TARGET_CS):
            s = geo.state
            a1v, a1z = translational_element(data, s, geo.tau)
            a2v, a2z = translational_element_expanded(data, s, geo.tau)
            worst_forms = max(
                worst_forms,
                float(np.max(np.abs(a1v - a2v))),
                float(np.max(np.abs(a1z - a2z))),
            )
            # both match the flow oracle and the exact rational element
            exact = (np.array(geo.a_v, float), np.array(geo.a_z, float))
            for o_v, o_z in (flow_translation(data, s, geo.tau)[:2], exact):
                worst_flow = max(worst_flow, float(np.max(np.abs(a1v - o_v))),
                                 float(np.max(np.abs(a1z - o_z))))
    report.add_bounded("translational_forms_agree", worst_forms, 1e-10)
    report.add_bounded("translational_vs_flow_oracle", worst_flow, 1e-9)

    # density: 100 random targets per the open-dense construction, one
    # draw of 50 and one construction call per manifold
    eps = 0.1
    geos = [g for data in (m, mp) for g in construct_closed_geodesic(
        data, sample_generic_state(data, rng, 50), epsilon=eps)]
    worst_eps = max(geo.distance for geo in geos)
    successes = sum(geo.in_gamma and geo.rotation_exact and geo.distance <= eps
                    for geo in geos)
    report.add(
        "density_construction",
        successes == 100,
        value={"successes": successes, "worst_distance": worst_eps},
        tolerance=eps,
        note="exact a in Gamma and exact rotation condition, 100 targets",
    )

    # family dimension and invariant fibers
    for data in (m, mp):
        geo, = _nice_geodesics(data, rng, _NICE_TARGET_CS[:1])
        kernels = [family_kernel(jac)
                   for jac in closure_jacobian(data, geo, (1e-4, 1e-5, 1e-6))]
        dims = [len(k) for k in kernels]
        report.add(
            f"family_dimension[{data.name}]",
            dims == [9, 9, 9],
            value=dims,
            note="nullity across FD steps 1e-4/1e-5/1e-6",
        )
        if data is m:
            rank, q_proj = invariant_fiber_codim(data, geo, kernels[0])
            tol = 1e-6
            report.add(
                "invariant_fiber_codim[M]",
                rank == 1 and q_proj <= tol,
                value={"rank": rank, "q_gradient_projection": q_proj},
                tolerance=tol,
            )
    return report


# ---------------------------------------------------------------------------
# criteria and clean intersection


def run_criteria(seed):
    report = Report("criteria", seed, ["M", "Mprime"])
    rng = _rng(seed, "criteria")
    m, mp = build_pair()

    defo = build_deformation(Fraction(1, 3))
    cert_m, cert_mp, cert_defo = (check_hr_presentation(d.alg, d.split)
                                  for d in (m, mp, defo))
    report.add("hr_presentation_M_passes", cert_m.passed)
    report.add(
        "hr_presentation_Mprime_fails_canonical_split", not cert_mp.passed,
        note=(cert_mp.first_failure().name if not cert_mp.passed else ""),
    )
    report.add("hr_presentation_deformation_passes", cert_defo.passed)

    samples, least = 10_000, 0.999
    cert, frac_mp = butler_nonintegrability_sample(mp.alg, samples, rng)
    report.add(
        "butler_fraction_Mprime",
        frac_mp >= least,
        value=frac_mp,
        tolerance=least,
        note=f"regular pairs: {cert.data['regular_pairs']}",
    )
    cert, frac_m = butler_nonintegrability_sample(m.alg, samples, rng)
    report.add(
        "butler_fraction_M",
        frac_m == 0.0,
        value=frac_m,
        note="the Y-block is abelian, commutators of centralizers vanish",
    )
    return report


def run_cih(seed):
    report = Report("cih", seed, ["M", "Mprime"])
    rng = _rng(seed, "cih")
    for data in build_pair():
        cert = cih_certificate(data, 3, rng)
        report.add_certificate(cert)
    return report


RUNNERS = {
    "algebra": run_algebra,
    "spectral": run_spectral,
    "flow": run_flow,
    "integrals": run_integrals,
    "periodicity": run_periodicity,
    "criteria": run_criteria,
    "cih": run_cih,
}
# the suites in run order; _rng seeds each suite by its index here
SUITE_NAMES = tuple(RUNNERS)


def run_suite(name, seed):
    if name == "all":
        combined = Report("all", seed, ["M", "Mprime"])
        for sub in SUITE_NAMES:
            rep = RUNNERS[sub](seed)
            for check in rep.checks:
                check.name = f"{sub}.{check.name}"
                combined.checks.append(check)
        return combined
    if name not in RUNNERS:
        raise KeyError(name)
    return RUNNERS[name](seed)
