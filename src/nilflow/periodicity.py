"""Closed geodesics: translational elements, exact constructions dense in
the unit tangent bundle, and the dimension of the continuous families they
sit inside.

The key commensurability fact: for generic Z = Z_c the precession
frequencies are c_k and |c|, so a common rotation period exists exactly
when c_k/|c| = p/q is rational, with minimal period sigma = 2 pi q / |c|.
Choosing c = rho * u with u a *rational point of the unit sphere* makes
both |c| and c_k/|c| rational at once; stereographic projection preserves
rationality, which is what makes such c dense.

Exactness split: the construction rounds floats, batched over targets in
numpy, onto the grid (1/bound) Z as Python-int numerators; from them each
row's lattice element a, lattice multiple and period over pi are exact (in
Python ints, stored as Fractions), and whether a lies in Gamma is read off
them (`ClosedGeodesic.in_gamma`).  The initial state is a float vector.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm, pi

import numpy as np

from .flow import (
    DegenerateFrequencyError,
    TangentState,
    eigenframe,
    flow_exact_state,
    state_from_flat,
)
from .integrals import left_gradients_all
from .lie_core import bracket_v_np


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
    c = np.asarray(state.Z, float)
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
    state itself; the oracle of the translational element and the
    closure constraints read it."""
    end = flow_exact_state(data, state, tau)
    t_v = end.v - state.v
    t_z = end.z - state.z - 0.5 * bracket_v_np(data.alg, end.v, state.v)
    return t_v, t_z, end


# ---------------------------------------------------------------------------
# rational points of the sphere


def _limit_denominator(x, bound):
    """(p, q) of Fraction(x).limit_denominator(bound), by its continued
    fraction on the ints of x.as_integer_ratio()."""
    n, d = x.as_integer_ratio()
    if d <= bound:
        return n, d
    p0, q0, p1, q1, den = 0, 1, 1, 0, d
    while q0 + (a := n // d) * q1 <= bound:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (bound - q0) // q1
    # p1/q1 is nearer iff d/(q1 den) <= half the gap 1/(q1 (q0 + k q1))
    near = 2 * d * (q0 + k * q1) <= den
    return (p1, q1) if near else (p0 + k * p1, q0 + k * q1)


def rationalize_sphere_direction(us, bound):
    """Rational unit vectors near the float directions us (n, 3): per row
    the ints (N_i, N_j, N_k, W) in lowest terms, u = N / W exactly.

    Stereographic projection preserves rationality, so rounding the
    projected point (a, b) in ints gives an exactly-unit rational vector.
    When the rounding lands on the degenerate cone (s = a^2 + b^2 = 0 or 1)
    one step of 1/(2 bound) leaves it: a has denominator <= bound, so the
    stepped s is 0 only at a = -1/(2 bound) and 1 only at a = -1/(4
    bound), neither of which can occur.  The best approximation is the
    continued fraction on the ints of each float, so an exact Pythagorean
    direction such as (3/5, 0, 4/5) comes back exactly.
    """
    u = us / _norm(us)[:, None]
    south = u[:, 2] > 0.5  # project from the pole far from u
    out = []
    for (x, y), flip in zip((u[:, :2] / (1.0 - np.where(
            south, -u[:, 2], u[:, 2]))[:, None]).tolist(), south.tolist()):
        (pa, qa), (pb, qb) = (_limit_denominator(x, bound),
                              _limit_denominator(y, bound))
        A, B, Q = pa * qb, pb * qa, qa * qb  # a = A / Q, b = B / Q
        if A * A + B * B in (0, Q * Q):
            A, B, Q = 2 * bound * A + Q, 2 * bound * B, 2 * bound * Q
        r2, q2 = A * A + B * B, Q * Q  # u = (2 a, 2 b, s - 1) / (s + 1)
        row = (2 * A * Q, 2 * B * Q, q2 - r2 if flip else r2 - q2, r2 + q2)
        out.append(tuple(x // gcd(*row) for x in row))
    return out


def _norm(x):
    """Norms over the last axis, each row's double that of np.linalg.norm."""
    return np.sqrt(np.vecdot(x, x))


# ---------------------------------------------------------------------------
# the exact construction


@dataclass
class ClosedGeodesic:
    """An exactly-certified closed geodesic.

    a_v, a_z are exact rationals: m times the element that the
    construction puts on its grid, m the least multiple with a_v in
    Z^dim_v and a_z in (1/2) Z^dim_z.  in_gamma (a in Gamma) and
    rotation_exact (tau c_k, tau |c| in 2 pi Z) read the exact fields.
    distance is the largest of |Z - Z_target|, |V - V_target| and
    |v - v_target|.  The grid values r, t, P_D and P_W are not kept: a / m
    is the element they define.
    """

    c: tuple  # exact rational Z with rational norm
    norm_c: Fraction
    p: int
    q: int
    m: int
    tau_over_pi: Fraction
    a_v: tuple
    a_z: tuple
    state: TangentState
    distance: float

    @property
    def tau(self):
        return pi * float(self.tau_over_pi)

    @property
    def rotation_exact(self):
        """Whether tau c_k / 2 pi and tau |c| / 2 pi are integers, exactly."""
        return ((self.tau_over_pi * self.c[2] / 2).denominator == 1
                and (self.tau_over_pi * self.norm_c / 2).denominator == 1)

    @property
    def in_gamma(self):
        """Whether a is in log Gamma = Z^dim_v (+) (1/2) Z^dim_z, exactly."""
        return (all(x.denominator == 1 for x in self.a_v)
                and all(x.denominator in (1, 2) for x in self.a_z))


def _exact_element(c, r, t, P_D, P_W):
    """The translational element with data (r, t, P_D, P_W) in the
    z-basis (Z_c, D, W), D = -c_j Z_i + c_i Z_j and W = c_k (c_i Z_i +
    c_j Z_j) - (c_i^2 + c_j^2) Z_k; on ints, Fractions or floats."""
    ci, cj, ck = c
    rho2 = ci * ci + cj * cj
    a_v = (0, 0, r * ci, r * cj, r * ck)
    d = (-cj, ci, 0)
    w = (ck * ci, ck * cj, -rho2)
    a_z = tuple(t * c[i] + P_D * d[i] + P_W * w[i] for i in range(3))
    return a_v, a_z


def _closed_geodesic(u, ks, bound, state, distance):
    """One row's ClosedGeodesic in Python ints, from its sphere point u =
    (N, W) and the grid numerators ks of (|c|, r, t, P_D, P_W): with c =
    k_c N / D, D = bound W, a_v = N_v / (bound D) and a_z = N_z / (bound
    D^2), times the least m that puts a in log Gamma = Z^dim_v (+) (1/2)
    Z^dim_z.  Only the fields are Fractions."""
    k_c, k_r, k_t, k_d, k_w = ks
    C, D, g = [k_c * x for x in u[:3]], bound * u[3], gcd(u[2], u[3])
    n_v, n_z = _exact_element(C, k_r, k_t * D, k_d * D, k_w)
    q_v, q_z = bound * D, bound * D * D
    # m clears a_v into Z^dim_v and 2 a_z into Z^dim_z: m x / q is an
    # integer for every numerator x exactly when q / gcd(q, every x) | m
    m = lcm(q_v // gcd(q_v, *n_v), q_z // gcd(q_z, *(2 * x for x in n_z)))
    return ClosedGeodesic(
        tuple(Fraction(x, D) for x in C), Fraction(k_c, bound), u[2] // g,
        u[3] // g, m, Fraction(2 * m * (u[3] // g) * bound, k_c),
        tuple(Fraction(m * x, q_v) for x in n_v),
        tuple(Fraction(m * x, q_z) for x in n_z), state, distance)


def construct_closed_geodesic(data, targets, epsilon):
    """Exactly closed geodesics within epsilon of the targets, each with
    its element a in Gamma.

    targets: a TangentState with generic Z (c_k != 0, (c_i, c_j) != 0), one
    state (returns one ClosedGeodesic) or n states along a leading axis
    (returns a list of n; row i is the one-state result for target i, bit
    for bit).  z and the v-coordinates not pinned are taken from the
    target.

    An attempt is one pass over the rows: the float rounding in numpy on
    one `EigenFrame`, whose printed rows give V's coefficients, the exact
    element per row in Python ints.  |c|, r, t, P_D, P_W are rounded onto
    the grid (1/bound) Z, the direction of c to a rational point of the
    sphere with denominators <= bound, both in ints (no Fraction arithmetic
    before the result's fields).  Every row starts at bound = max(16,
    ceil(4 / epsilon)), and the rows that miss epsilon are tried again as
    one batch at double the bound until all are within it; a value that the
    floats cannot hold, or a grid finer than the floats resolve t - sigma,
    ends the doubling with ConstructionError, naming epsilon, the first
    missing row and the last grid.  epsilon must be positive and at least
    2^-52 |(V, Z)|, the float resolution of the targets; an empty batch
    returns [].  r is kept at least e sigma / (4 |c|) from 0, e the smaller
    of epsilon and the target's size |(V, Z)|: this moves V by at most
    about e / 4, so a huge epsilon still gives a state near the target, and
    bounds the error of the pinned base point v by (1 / bound) / (|r| s), s
    the least singular value of drift's linear part in v.

    Degenerate targets (on the cone c_k |c| (|c| - |c_k|) = 0) are
    rejected, naming the first such row: no commensurable precession
    exists nearby in a quantitative sense.
    """
    one = np.ndim(targets.Z) == 1
    flat = np.atleast_2d(targets.flat())
    zs = state_from_flat(data.alg, flat).Z
    row = lambda i: "" if one else f"row {i}: "
    bad = np.flatnonzero((np.hypot(zs[:, 0], zs[:, 1]) < 1e-9)
                         | (np.abs(zs[:, 2]) < 1e-9))
    if bad.size:
        raise DegenerateFrequencyError(
            f"{row(bad[0])}target Z={zs[bad[0]].tolist()} lies on the "
            "degenerate cone; no generic closed geodesic construction applies")
    floor_eps = 2.0 ** -52 * np.sqrt(np.max(targets.speed2, initial=0.0))
    if not (epsilon > 0 and epsilon >= floor_eps):
        raise ValueError(f"epsilon must be positive and at least 2^-52 "
                         f"|(V, Z)| = {floor_eps:.3g}, the float resolution "
                         f"of the target, got {epsilon}")
    start = bound = max(16, ceil(4.0 / epsilon))
    geos, todo = [None] * len(zs), np.arange(len(zs))
    while todo.size:
        try:
            built, distance = _construct_once(
                data, state_from_flat(data.alg, flat[todo]), epsilon, bound)
        except OverflowError as e:
            raise ConstructionError(
                f"could not reach epsilon={epsilon} ({row(todo[0])}the floats "
                f"run out at the grid 1/({start} * 2^"
                f"{(bound // start).bit_length() - 1}))") from e
        for i, geo in zip(todo, built):
            geos[i] = geo
        todo = todo[~(distance <= epsilon)]
        bound *= 2
    return geos[0] if one else geos


def _pin(data, c, v, al, n2, g_D, g_W):
    """v moved by the least change that makes data.drift return (g_D, g_W),
    batched over axes on the left of every argument.  drift is affine in v,
    so its linear part J (..., 2, dim_v) is drift at the unit vectors less
    drift at 0 (one batched call), and the least change is J^T (J J^T)^-1 r
    for the residual r = (g_D, g_W) - drift(v); it leaves the coordinates
    that drift does not read as they are."""
    dim = v.shape[-1]
    ends = np.stack(data.drift(c[..., None, :], np.eye(dim + 1, dim),
                               np.zeros_like(al[..., None, :]),
                               np.asarray(n2)[..., None]), -2)
    jac = ends[..., :dim] - ends[..., dim:]
    r = np.stack([g_D, g_W], -1) - np.stack(data.drift(c, v, al, n2), -1)
    return v + (jac.mT @ np.linalg.solve(jac @ jac.mT, r[..., None]))[..., 0]


@np.errstate(over="ignore", invalid="ignore")
def _construct_once(data, target, epsilon, bound):
    """One attempt on the grid (1/bound) Z for a batch of targets: their
    closed geodesics, None where a row misses epsilon, and the distances.
    The base point is the target's, moved by the least change (`_pin`)
    that makes drift return the grid values P_D / r and (P_W + w1) / r.
    t is raised, if needed, to the first grid point with t - sigma >
    |c_k| / bound, and w1 clamped into c_k w1 in (0, t - sigma).  Grid
    values are Python-int numerators k (object arrays, exact at any
    size), read in floats as k / bound; OverflowError where the floats
    cannot hold a value or resolve t - sigma to a grid step of w1."""
    def ints(x, f=round):
        if not np.isfinite(x).all():
            raise OverflowError("a grid value is not a finite float")
        return np.array([f(y) for y in x.tolist()], object)
    floats = lambda k: (k / bound).astype(float)
    zt, Vt, vt = target.Z, target.V, target.v
    sphere = rationalize_sphere_direction(zt, bound)
    k_c = np.maximum(ints(_norm(zt) * bound), 1)
    # c = k_c N / (bound W), int true division rounding once; c_k/|c| = p/q
    c_f = np.array([[k * x / (bound * u[3]) for x in u[:3]] for k, u in
                    zip(k_c.tolist(), sphere)], float).reshape(-1, 3)
    q = np.array([u[3] // gcd(u[2], u[3]) for u in sphere], float)
    norm_f = floats(k_c)
    sigma = 2.0 * pi * q / norm_f
    frame = eigenframe(data, c_f)

    ck_f, n2 = c_f[:, 2], np.vecdot(c_f, c_f)
    y_c = frame.rows[:, 4]
    beta_bar = frame.printed_coefficients(Vt)[:, 4]
    reach = np.minimum(epsilon, np.sqrt(target.speed2))
    k_min = np.maximum(ints(reach * sigma / (4.0 * norm_f) * bound), 1)
    k_r = ints(beta_bar * sigma * bound)
    k_r = np.where(np.abs(k_r) >= k_min, k_r,
                   np.where(beta_bar >= 0, k_min, -k_min))
    r_f = floats(k_r)

    # |V_perp|^2 = 2 |c|^2 (t / sigma - 1) and |V_ck|^2 = 2 c_k |c|^2 w1 /
    # sigma, so c_k w1 must lie in (0, t - sigma); t - sigma > |c_k| / bound
    # leaves that interval a grid point for w1
    vperp_t = Vt - beta_bar[:, None] * y_c
    k_t = np.maximum(
        ints(sigma * (1.0 + np.vecdot(vperp_t, vperp_t) / (2.0 * n2)) * bound),
        ints(sigma * bound + np.abs(ck_f), floor) + 1)
    t_f = floats(k_t)
    v_ck_t = frame.plane_part(Vt, 0)
    k_max = ints((t_f - sigma) * bound / np.abs(ck_f), ceil) - 1
    # k_max >= 1 in exact arithmetic, so only rounding of t - sigma breaks it
    if (k_max < 1).any():
        raise OverflowError("the grid is finer than the floats resolve t - sigma")
    k_w1 = np.minimum(np.maximum(ints(sigma * np.vecdot(v_ck_t, v_ck_t)
                                      / (2.0 * np.abs(ck_f) * n2) * bound), 1),
                      k_max)
    k_w1 = np.where(ck_f > 0, k_w1, -k_w1)
    w1_f = floats(k_w1)
    # c_k w1 < t - sigma, so only rounding can make |V_nm|^2 negative
    vnm2 = np.maximum(2.0 * n2 * (t_f / sigma - 1.0)
                      - 2.0 * ck_f * n2 * w1_f / sigma, 0.0)
    unit = lambda x, e: np.where(_norm(x)[:, None] > 1e-9,
                                 x / np.maximum(_norm(x), 1e-9)[:, None], e)
    V = ((r_f / sigma)[:, None] * y_c
         + np.sqrt(2.0 * ck_f * n2 * w1_f / sigma)[:, None]
         * unit(v_ck_t, frame.basis[:, 0])
         + np.sqrt(vnm2)[:, None] * unit(frame.plane_part(Vt, 1),
                                         frame.basis[:, 2]))

    # pin the base coordinates so the D and W coefficients of a_z become
    # the exact rationals P_D = r g_D and P_W = -w1 + r g_W
    al = frame.printed_coefficients(V)
    gD_bar, gW_bar = data.drift(c_f, vt, al, n2)
    k_d, k_w = ints(r_f * gD_bar * bound), ints((-w1_f + r_f * gW_bar) * bound)
    v = _pin(data, c_f, vt, al, n2, floats(k_d) / r_f,
             (floats(k_w) + w1_f) / r_f)

    # closeness to the target
    distance = np.max([_norm(c_f - zt), _norm(V - Vt), _norm(v - vt)], axis=0)
    ks = zip(k_c, k_r, k_t, k_d, k_w)
    return [
        _closed_geodesic(sphere[i], k, bound,
                         TangentState(v[i], target.z[i], V[i], c_f[i]), d)
        if d <= epsilon else None
        for i, (d, k) in enumerate(zip(distance.tolist(), ks))
    ], distance


# ---------------------------------------------------------------------------
# family dimension and invariant fibers


def closure_jacobian(data, geo, h=1e-4):
    """Fourth-order central-difference Jacobian of the 13 closure
    constraints (translational element fixed: 8; velocity rotation: 5)
    with respect to the 16 phase-space coordinates, shape h.shape + (13,
    16).  All 4 x 16 stencil points x0 + k h e_i, k in (2, 1, -1, -2), of
    every step h flow in one batched call."""
    a_v = np.array([float(x) for x in geo.a_v])
    a_z = np.array([float(x) for x in geo.a_z])
    x0, h = geo.state.flat(), np.asarray(h, float)
    hs = h.reshape(-1, 1, 1)
    steps = np.array([2.0, 1.0, -1.0, -2.0])[:, None, None, None] * hs
    s = state_from_flat(data.alg, x0 + steps * np.eye(x0.size))
    t_v, t_z, end = flow_translation(data, s, geo.tau)
    # the constraints at every stencil point: (4, step, column, constraint)
    f = np.concatenate([t_v - a_v, t_z - a_z, end.V - s.V], axis=-1)
    jac = ((-f[0] + 8.0 * f[1] - 8.0 * f[2] + f[3]) / (12.0 * hs)).mT
    return jac.reshape(h.shape + jac.shape[1:])


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
    """Rank of the closed-form integral gradients of `integrals` restricted
    to the family's tangent space, spanned by `family_kernel` rows
    null_rows at geo; 1 means the family is a one-parameter stack of
    invariant level sets.  Also returns the largest projection of the three
    exact central integrals q_W, which must vanish on the family: (rank,
    q_proj)."""
    # no integral reads z, so the left gradients (B, A) are the plain
    # coordinate gradients in the (v, z, V, Z) order of the Jacobian columns
    grads = np.concatenate(left_gradients_all(data.alg, geo.state), axis=-1)
    # over each row's power of two first: exact, and no square underflows
    grads = np.ldexp(grads, -np.frexp(np.abs(grads).max(-1))[1][:, None])
    norms = np.linalg.norm(grads, axis=1)
    grads = grads / np.where(norms > 0, norms, 1.0)[:, None]
    proj = grads @ null_rows.T  # (8, nullity)
    psv = np.linalg.svd(proj, compute_uv=False)
    rank = int(np.sum(psv > 1e-3 * max(psv[0], 1e-30)))
    q_proj = float(np.max(np.abs(proj[:3])))
    return rank, q_proj
