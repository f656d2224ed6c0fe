"""Closed geodesics: translational elements, exact constructions dense in
the unit tangent bundle, and the dimension of the continuous families they
sit inside.

The key commensurability fact: for generic Z = Z_c the precession
frequencies are c_k and |c|, so a common rotation period exists exactly
when c_k/|c| = p/q is rational, with minimal period sigma = 2 pi q / |c|.
Choosing c = rho * u with u a *rational point of the unit sphere* makes
both |c| and c_k/|c| rational at once; stereographic projection preserves
rationality, which is what makes such c dense.

Exactness split: the returned lattice element a and the period as a
multiple of pi are exact rationals; the initial state itself is a float
vector (its defining data r, t, P_D, P_W are the exact rationals stored on
the result).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, hypot, inf, isinf, lcm, pi, sqrt

import numpy as np

from .flow import (
    DegenerateFrequencyError,
    TangentState,
    eigenframe,
    flow_exact_state,
    state_from_flat,
)
from .integrals import left_gradients_all
from .lie_core import bracket_v_np, lattice_coordinates


class ConstructionError(RuntimeError):
    """The exact closed-geodesic construction could not meet its target."""


# ---------------------------------------------------------------------------
# translational elements


def translational_element(data, state, tau):
    """a = gamma(tau) gamma(0)^{-1} for a rotation period tau, from the
    structure of the flow: only the kernel part of V survives in the
    v-component, and the z-component collects the precession areas.

    Valid when e^{tau j(Z)} = Id; the caller is responsible for tau.
    """
    frame = eigenframe(data, state.Z)
    V = state.V
    v0 = frame.kernel_part(V)
    v_ck = frame.plane_part(V, 0)
    v_nm = frame.plane_part(V, 1)
    vperp = v_ck + v_nm
    jinv = frame.j_inverse_planar
    br = lambda a, b: bracket_v_np(data.alg, a, b)
    a_v = tau * v0
    a_z = (
        tau * state.Z
        + tau * br(state.v, v0)
        + tau * br(v0, jinv(vperp))
        + 0.5 * tau * br(jinv(v_ck), v_ck)
        + 0.5 * tau * br(jinv(v_nm), v_nm)
    )
    return a_v, a_z


def translational_element_expanded(data, state, tau):
    """The same element in closed form, `_exact_element` with r =
    tau beta, t = tau (1 + |V_perp|^2 / (2 |c|^2)), P_D = tau beta g_D and
    P_W = tau (-|V_ck|^2 / (2 c_k |c|^2) + beta g_W)."""
    c = tuple(float(x) for x in state.Z)
    ci, cj, ck = c
    n2 = ci * ci + cj * cj + ck * ck
    frame = eigenframe(data, state.Z)
    al, sq = frame.printed_coefficients(state.V), frame.sq
    beta = al[4]
    v_ck2 = al[0] ** 2 * sq[0] + al[1] ** 2 * sq[1]
    vperp2 = v_ck2 + al[2] ** 2 * sq[2] + al[3] ** 2 * sq[3]
    g_d, g_w = data.drift(c, state.v, al, n2)
    a_v, a_z = _exact_element(
        c, tau * beta, tau * (1.0 + vperp2 / (2.0 * n2)), tau * beta * g_d,
        tau * (-v_ck2 / (2.0 * ck * n2) + beta * g_w))
    return np.array(a_v, float), np.array(a_z, float)


def flow_translation(data, state, tau):
    """(t_v, t_z, end): the translation gamma(tau) gamma(0)^{-1} read off
    the exact flow from state (batched over its leading axes), and the end
    state itself."""
    end = flow_exact_state(data, state, tau)
    t_v = end.v - state.v
    t_z = end.z - state.z - 0.5 * bracket_v_np(data.alg, end.v, state.v)
    return t_v, t_z, end


# ---------------------------------------------------------------------------
# rational points of the sphere


def rationalize_sphere_direction(u, bound):
    """A rational unit vector near the float unit vector u.

    Stereographic projection preserves rationality, so rounding the
    projected point gives an exactly-unit rational vector.  When the
    rounding lands on the degenerate cone (the pole, s = 0, or the equator,
    s = 1) one step of 1/(2 bound) leaves it: a has denominator <= bound,
    so the stepped s is 0 only at a = -1/(2 bound) and 1 only at
    a = -1/(4 bound), neither of which can occur.
    """
    u = np.asarray(u, float)
    n = float(np.linalg.norm(u))
    if n == 0.0:
        raise DegenerateFrequencyError("cannot rationalize the zero direction")
    u = u / n
    south = u[2] > 0.5  # project from the pole far from u
    uk = -u[2] if south else u[2]
    a = Fraction(u[0] / (1.0 - uk)).limit_denominator(bound)
    b = Fraction(u[1] / (1.0 - uk)).limit_denominator(bound)
    if a * a + b * b in (0, 1):
        a += Fraction(1, 2 * bound)
    s = a * a + b * b
    uk = (s - 1) / (s + 1)
    return 2 * a / (s + 1), 2 * b / (s + 1), -uk if south else uk


def _approx(x, bound):
    """x rounded onto the grid (1/bound) Z, so every denominator divides
    bound (keeps the lattice multiple m, hence the period, small)."""
    return Fraction(round(float(x) * bound), bound)


# ---------------------------------------------------------------------------
# the exact construction


@dataclass
class ClosedGeodesic:
    """An exactly-certified closed geodesic.

    a_v, a_z are exact rationals: m times the element with data (r, t,
    P_D, P_W), m the least multiple whose coordinates in the manifold's
    lattices are integers, so a is in Gamma by construction, as is the
    rotation condition tau c_k, tau |c| in 2 pi Z (rotation_exact).
    distance is the largest of |Z - Z_target|, |V - V_target| and
    |v - v_target|.
    """

    c: tuple  # exact rational Z with rational norm
    norm_c: Fraction
    p: int
    q: int
    m: int
    r: Fraction
    t: Fraction
    P_D: Fraction
    P_W: Fraction
    tau_over_pi: Fraction
    a_v: tuple
    a_z: tuple
    state: TangentState
    distance: float

    @property
    def tau(self):
        return pi * float(self.tau_over_pi)

    @property
    def sigma_over_pi(self):
        return Fraction(2 * self.q) / self.norm_c

    @property
    def rotation_exact(self):
        """Whether tau c_k / 2 pi and tau |c| / 2 pi are integers, exactly."""
        return ((self.tau_over_pi * self.c[2] / 2).denominator == 1
                and (self.tau_over_pi * self.norm_c / 2).denominator == 1)


def _exact_element(c, r, t, P_D, P_W):
    """The translational element with data (r, t, P_D, P_W) in the
    z-basis (Z_c, D, W), D = -c_j Z_i + c_i Z_j and W = c_k (c_i Z_i +
    c_j Z_j) - (c_i^2 + c_j^2) Z_k; on Fractions or on floats."""
    ci, cj, ck = c
    rho2 = ci * ci + cj * cj
    a_v = (Fraction(0), Fraction(0), r * ci, r * cj, r * ck)
    zc = (ci, cj, ck)
    d = (-cj, ci, Fraction(0))
    w = (ck * ci, ck * cj, -rho2)
    a_z = tuple(t * zc[i] + P_D * d[i] + P_W * w[i] for i in range(3))
    return a_v, a_z


def construct_closed_geodesic(data, target, epsilon=0.05, bound=None):
    """An exactly closed geodesic on the manifold within epsilon of the
    target state, with its element a in Gamma by construction.

    The data |c|, r, t, P_D, P_W are rounded onto the grid (1/bound) Z
    (bound defaults to max(16, ceil(4 / epsilon))) and the direction of c
    to a rational point of the sphere with denominators <= bound; a miss
    of epsilon doubles bound, up to seven times, before ConstructionError.
    The kernel coefficient r is kept at least epsilon sigma / (4 |c|) away
    from 0, which moves V by at most about epsilon / 4 and bounds the
    error of the pinned base point v by (1 / bound) / |r|.

    target: a TangentState with generic Z (c_k != 0, (c_i, c_j) != 0) and
    any v, z, V.  The free coordinates (z, and the v-coordinates not pinned
    by the construction) are taken from the target unchanged.

    Degenerate targets (on the cone c_k |c| (|c| - |c_k|) = 0) are
    rejected since no commensurable precession exists nearby in a
    quantitative sense.
    """
    zt = np.asarray(target.Z, float)
    if np.linalg.norm(zt) < 1e-9 or hypot(zt[0], zt[1]) < 1e-9 or abs(zt[2]) < 1e-9:
        raise DegenerateFrequencyError(
            "target Z lies on the degenerate cone; no generic closed geodesic "
            "construction applies"
        )
    if not 0 < epsilon < inf or isinf(4.0 / epsilon):
        raise ValueError(f"epsilon must be > 0 and finite, with 4 / epsilon "
                         f"finite, got {epsilon}")
    if bound is None:
        bound = max(16, ceil(4.0 / epsilon))
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    for _ in range(7):
        try:
            return _construct_once(data, target, epsilon, bound)
        except ConstructionError as e:
            last_err = e
        bound *= 2
    raise ConstructionError(
        f"could not reach epsilon={epsilon} (last: {last_err})"
    )


def _construct_once(data, target, epsilon, bound):
    """One attempt on the grid (1/bound) Z: the closed geodesic within
    epsilon of target, or ConstructionError naming the distance reached."""
    unit = Fraction(1, bound)
    zt = np.asarray(target.Z, float)
    ui, uj, uk = rationalize_sphere_direction(zt, bound)
    norm_c = max(unit, _approx(np.linalg.norm(zt), bound))
    c = (norm_c * ui, norm_c * uj, norm_c * uk)
    p, q = uk.numerator, uk.denominator  # c_k / |c| in lowest terms
    c_f = np.array([float(x) for x in c])
    sigma = 2.0 * pi * q / float(norm_c)
    frame = eigenframe(data, c_f)

    Vt = np.asarray(target.V, float)
    ck_f, n2 = c_f[2], float(c_f @ c_f)
    y_c = frame.rows[4]
    beta_bar = frame.printed_coefficients(Vt)[4]
    r = _approx(beta_bar * sigma, bound)
    r_min = max(unit, _approx(epsilon * sigma / (4.0 * float(norm_c)), bound))
    if abs(r) < r_min:
        r = r_min if beta_bar >= 0 else -r_min

    # |V_perp|^2 = 2 |c|^2 (t / sigma - 1) and |V_ck|^2 = 2 c_k |c|^2 w1 /
    # sigma, so c_k w1 must lie in (0, t - sigma); t is raised to the first
    # grid point with t - sigma > |c_k| / bound, which leaves that interval
    # a grid point for w1, and w1 is its rounded target clamped into it
    vperp_t = Vt - beta_bar * y_c
    vperp2_bar = float(vperp_t @ vperp_t)
    t = max(_approx(sigma * (1.0 + vperp2_bar / (2.0 * n2)), bound),
            Fraction(floor(sigma * bound + abs(ck_f)) + 1, bound))
    vperp2 = 2.0 * n2 * (float(t) / sigma - 1.0)

    v_ck_t = frame.plane_part(Vt, 0)
    vck2_bar = float(v_ck_t @ v_ck_t)
    k_max = ceil((float(t) - sigma) * bound / abs(ck_f)) - 1
    k = min(max(round(sigma * vck2_bar / (2.0 * abs(ck_f) * n2) * bound), 1),
            k_max)
    w1 = Fraction(k if ck_f > 0 else -k, bound)
    vck2 = 2.0 * ck_f * n2 * float(w1) / sigma
    vnm2 = vperp2 - vck2

    def _unit(vec, fallback):
        nrm = float(np.linalg.norm(vec))
        return vec / nrm if nrm > 1e-9 else fallback

    d1 = _unit(v_ck_t, frame.basis[0])
    d2 = _unit(frame.plane_part(Vt, 1), frame.basis[2])
    beta = float(r) / sigma
    V = beta * y_c + sqrt(vck2) * d1 + sqrt(vnm2) * d2

    # pin the base coordinates so the D and W coefficients of a_z become
    # the exact rationals P_D = r g_D and P_W = -w1 + r g_W
    al = frame.printed_coefficients(V)
    gD_bar, gW_bar = data.drift(c_f, target.v, al, n2)
    P_D = _approx(float(r) * gD_bar, bound)
    P_W = _approx(-float(w1) + float(r) * gW_bar, bound)
    v = data.pin(c_f, target.v, al, n2, float(P_D) / float(r),
                 (float(P_W) + float(w1)) / float(r))

    # closeness to the target
    distance = max(
        float(np.linalg.norm(c_f - zt)),
        float(np.linalg.norm(V - Vt)),
        float(np.linalg.norm(v - np.asarray(target.v, float))),
    )
    if not distance <= epsilon:
        raise ConstructionError(
            f"distance {distance} > epsilon={epsilon} at bound {bound}")

    # the least m clearing the element's coordinates in both lattices
    a_v, a_z = _exact_element(c, r, t, P_D, P_W)
    coords = (lattice_coordinates(data.lattice_v, a_v)
              + lattice_coordinates(data.lattice_z, a_z))
    m = lcm(*(x.denominator for x in coords))
    a_v, a_z = tuple(m * x for x in a_v), tuple(m * x for x in a_z)
    tau_over_pi = Fraction(2 * m * q) / norm_c

    state = TangentState(v, np.asarray(target.z, float), V, c_f)
    return ClosedGeodesic(
        c, norm_c, p, q, m, r, t, P_D, P_W, tau_over_pi, a_v, a_z, state,
        distance,
    )


# ---------------------------------------------------------------------------
# family dimension and invariant fibers


def _closure_constraints(data, geo):
    a_v = np.array([float(x) for x in geo.a_v])
    a_z = np.array([float(x) for x in geo.a_z])
    tau = geo.tau

    def F(flat):
        s = state_from_flat(data.alg, flat)
        t_v, t_z, end = flow_translation(data, s, tau)
        return np.concatenate([t_v - a_v, t_z - a_z, end.V - s.V], axis=-1)

    return F


def closure_jacobian(data, geo, h=1e-4):
    """Fourth-order central-difference Jacobian of the 13 closure
    constraints (translational element fixed: 8; velocity rotation: 5)
    with respect to the 16 phase-space coordinates.  All 4 x 16 stencil
    points x0 + k h e_i, k in (2, 1, -1, -2), flow in one batched call."""
    F = _closure_constraints(data, geo)
    x0 = geo.state.flat()
    steps = np.array([2.0, 1.0, -1.0, -2.0])[:, None, None] * h * np.eye(x0.size)
    f = F(x0 + steps)  # (4, column, constraint)
    return ((-f[0] + 8.0 * f[1] - 8.0 * f[2] + f[3]) / (12.0 * h)).T


NULL_THRESHOLD = 1e-6


def family_kernel(jac):
    """Orthonormal rows spanning the kernel of a closure Jacobian
    (`closure_jacobian`) at a closed geodesic; their number is the
    dimension of the continuous family through it (counted in the full
    16-dimensional phase space).  A singular value at most NULL_THRESHOLD
    times the largest counts as zero, and so does each column past the
    rows of a wide matrix."""
    _, sv, vt = np.linalg.svd(jac)
    return vt[np.concatenate([sv <= NULL_THRESHOLD * sv[0],
                              np.ones(vt.shape[0] - sv.size, bool)])]


def invariant_fiber_codim(data, geo, null_rows):
    """Rank of the integral gradients restricted to the family's tangent
    space, spanned by `family_kernel` rows null_rows at geo; 1 means the
    family is a one-parameter stack of invariant level sets.  Also returns
    the largest projection of the three exact central integrals q_W, which
    must vanish on the family."""
    # no integral reads z, so the left gradients (B, A) are the plain
    # coordinate gradients in the (v, z, V, Z) order of the Jacobian columns
    grads = np.concatenate(left_gradients_all(data.alg, geo.state), axis=-1)
    norms = np.linalg.norm(grads, axis=1)
    grads = grads / np.where(norms > 0, norms, 1.0)[:, None]
    proj = grads @ null_rows.T  # (8, nullity)
    psv = np.linalg.svd(proj, compute_uv=False)
    rank = int(np.sum(psv > 1e-3 * max(psv[0], 1e-30)))
    q_proj = float(np.max(np.abs(proj[:3])))
    return rank, q_proj, psv
