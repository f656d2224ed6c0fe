"""Per-layer metrics of nilflow from a traced run: the functions reported
by name, the counters recorded at their boundaries, the per-module
aggregates, and the ratios of useful work to attempts.
"""

from tracer import TracerError

# Reported as <module>.<function>.{calls,self_s,total_s}.  Each row names
# the end-to-end figure it should move (see perfbench/README.md).
FUNCTIONS = (
    # spectral_s and criteria_s on certify
    "lie_core.j_matrix", "linalg_exact.integer_kernel",
    # spectral_s on certify
    "spectral.char_poly_batch_int", "spectral.length_spectrum",
    "spectral.lattice_intersection", "spectral.gw_certificate",
    # cih_s and criteria_s on certify
    "criteria.cih_certificate", "criteria.butler_nonintegrability_sample",
    "linalg_exact.rref", "linalg_exact.inverse", "linalg_exact.mat_mul",
    "linalg_exact.rank", "linalg_exact.solve",
    # flow_s on dynamics, request tail on requests
    "flow.flow_rk4_many", "flow.flow_rk4",
    # periodicity_s on dynamics, request median on requests
    "flow.flow_exact_state", "flow.eigenframe", "lie_core.bracket_v_np",
    "periodicity.closure_jacobian",
    # integrals_s on dynamics, request median on requests
    "integrals.evaluate_integrals", "integrals.left_gradients_all",
    "integrals.poisson_matrix", "integrals.independence_rank",
    # request median and set-up on requests
    "catalog.get_manifold", "catalog.build_pair",
    "cli.main", "cli.parse_state", "cli.format_state",
    # periodicity_s on dynamics, closed-geodesic latency on requests
    "periodicity.construct_closed_geodesic",
    "periodicity.rationalize_sphere_direction",
)

# Reported as <module>.{calls,self_s}, summed over every traced function of
# the module (all public functions, not only the ones named above).
LAYERS = (
    "linalg_exact", "lie_core", "catalog", "spectral", "flow", "integrals",
    "periodicity", "criteria", "report", "cli",
)

# Work counters reported as metrics.
COUNTERS = (
    "spectral.char_poly_batch_int.matrices",
    "flow.flow_rk4_many.state_steps",
    "flow.flow_rk4.state_steps",
    "integrals.evaluate_integrals.rows",
)

RATIOS = (
    "periodicity.attempts_per_geodesic",
    "periodicity.closure_jacobian.calls_per_geodesic",
    "criteria.butler.regular_frac",
    "criteria.cih.distinct_span_frac",
    "spectral.gw.enumerated_frac",
)

# Counts that depend only on the seed: two traced runs at one seed must
# agree on them exactly.
EXACT = (
    "lie_core.j_matrix.calls",
    "spectral.char_poly_batch_int.matrices",
    "flow.flow_rk4_many.state_steps",
    "integrals.evaluate_integrals.rows",
    "periodicity.closure_jacobian.calls",
) + RATIOS


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + int(n)


def _check_value(cert, check_name, keys):
    """The value dict of a named certificate check, which must carry keys."""
    for check in cert.checks:
        if check.name == check_name and isinstance(check.value, dict) \
                and all(k in check.value for k in keys):
            return check.value
    raise TracerError(f"certificate has no check {check_name!r} with {keys}")


def make_hooks(default_steps):
    """Counter hooks keyed by traced name.  default_steps resolves the RK4
    step count when a caller leaves it to the program."""

    def steps_of(arguments):
        args = arguments()
        steps = args["steps"]
        return steps if steps is not None else default_steps(args["t"])

    def rk4_many(counts, result, arguments):
        _add(counts, "flow.flow_rk4_many.state_steps",
             len(result) * steps_of(arguments))

    def rk4(counts, result, arguments):
        _add(counts, "flow.flow_rk4.state_steps", steps_of(arguments))

    def char_poly(counts, result, arguments):
        _add(counts, "spectral.char_poly_batch_int.matrices", len(result))

    def integrals_rows(counts, result, arguments):
        _add(counts, "integrals.evaluate_integrals.rows",
             result.size // result.shape[-1])

    seen_geodesics = {}

    def closure(counts, result, arguments):
        geo = arguments()["geo"]
        if id(geo) not in seen_geodesics:
            seen_geodesics[id(geo)] = geo  # the reference keeps ids unique
            _add(counts, "periodicity.closure_jacobian.geodesics", 1)

    def butler(counts, result, arguments):
        cert, _ = result
        _add(counts, "criteria.butler.regular_pairs",
             cert.data["regular_pairs"])
        _add(counts, "criteria.butler.samples", cert.data["samples"])

    def cih(counts, result, arguments):
        val = _check_value(result, "rational_projectors_for_all_bracket_spans",
                           ("enumerated_V", "distinct_spans"))
        _add(counts, "criteria.cih.distinct_spans", val["distinct_spans"])
        _add(counts, "criteria.cih.enumerated_V", val["enumerated_V"])

    def gw(counts, result, arguments):
        val = _check_value(result, "kernel_lattice_length_spectra",
                           ("enumerated", "identical_lattices"))
        _add(counts, "spectral.gw.enumerated", val["enumerated"])
        _add(counts, "spectral.gw.points",
             val["enumerated"] + val["identical_lattices"])

    return {
        "flow.flow_rk4_many": rk4_many,
        "flow.flow_rk4": rk4,
        "spectral.char_poly_batch_int": char_poly,
        "integrals.evaluate_integrals": integrals_rows,
        "periodicity.closure_jacobian": closure,
        "criteria.butler_nonintegrability_sample": butler,
        "criteria.cih_certificate": cih,
        "spectral.gw_certificate": gw,
    }


def _ratio(num, den):
    return num / den if den else 0.0  # 0 where the workload has no attempts


def values(tracer):
    """Every per-layer value the traced run measured, by metric name."""
    # install() rejects a missing name, so a name is absent here only when
    # the run was cut before the tracer was installed
    stats = tracer.stats()
    zero = (0, 0.0, 0.0, 0)
    out = {}
    for name in FUNCTIONS:
        calls, self_s, total_s, _ = stats.get(name, zero)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.total_s"] = total_s
    for layer in LAYERS:
        rows = [s for n, s in stats.items() if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in rows)
        out[f"{layer}.self_s"] = sum(r[1] for r in rows)
    c = tracer.counts
    for key in COUNTERS:
        out[key] = c.get(key, 0)
    out["periodicity.attempts_per_geodesic"] = _ratio(
        out["periodicity.rationalize_sphere_direction.calls"],
        out["periodicity.construct_closed_geodesic.calls"])
    out["periodicity.closure_jacobian.calls_per_geodesic"] = _ratio(
        out["periodicity.closure_jacobian.calls"],
        c.get("periodicity.closure_jacobian.geodesics", 0))
    out["criteria.butler.regular_frac"] = _ratio(
        c.get("criteria.butler.regular_pairs", 0),
        c.get("criteria.butler.samples", 0))
    out["criteria.cih.distinct_span_frac"] = _ratio(
        c.get("criteria.cih.distinct_spans", 0),
        c.get("criteria.cih.enumerated_V", 0))
    out["spectral.gw.enumerated_frac"] = _ratio(
        c.get("spectral.gw.enumerated", 0), c.get("spectral.gw.points", 0))
    return out
