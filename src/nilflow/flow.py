"""Geodesic flow on the two-step groups, in left-trivialized coordinates.

A tangent state is (v, z, V, Z): base point (v, z) in exponential
coordinates and velocity (V, Z) read in the left-invariant orthonormal
frame.  The geodesic equations are

    v' = V,   z' = Z + [v, V]/2,   V' = j(Z) V,   Z' = 0,

so V precesses by the one-parameter orthogonal group e^{t j(Z)} while Z is
conserved.  For the isospectral pair the precession splits into two
invariant planes (frequencies c_k and |c|) plus the kernel line R Y_c,
which gives a closed-form flow: V(t) is trigonometric in t, v(t) adds a
linear drift along the kernel line, and z(t) is a fixed table of integrals
of s^k e^{i gamma s} (k = 0, 1) in sinc form, so its cost does not depend
on t.  Classic fixed-step RK4 covers every algebra and serves as an
independent cross-check.  With Z conserved the (v, V) equations are
linear, so N RK4 steps are one matrix power and the z increments one
quadratic form in the initial (v, V); both are summed exactly by binary
doubling, in O(log N) batched matmuls instead of N stage evaluations.
Generic states for the checks are drawn by rejection on whole rows of
uniform doubles (`draw_rows`), so n states at once equal n one-state draws.
"""

from dataclasses import dataclass
from math import ceil, factorial

import numpy as np

from .lie_core import bracket_v_np, j_matrix_np


@dataclass
class TangentState:
    v: np.ndarray
    z: np.ndarray
    V: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, float)
        self.z = np.asarray(self.z, float)
        self.V = np.asarray(self.V, float)
        self.Z = np.asarray(self.Z, float)

    def flat(self):
        return np.concatenate([self.v, self.z, self.V, self.Z], axis=-1)

    @property
    def speed2(self):
        """|V|^2 + |Z|^2: a float for one state, an array over batch axes."""
        sq = np.vecdot(self.V, self.V) + np.vecdot(self.Z, self.Z)
        return float(sq) if sq.ndim == 0 else sq


def state_from_flat(alg, flat):
    flat = np.asarray(flat, float)
    dv, dz = alg.dim_v, alg.dim_z
    if flat.shape[-1] != 2 * (dv + dz):
        raise ValueError(f"expected {2 * (dv + dz)} components")
    return TangentState(
        flat[..., :dv],
        flat[..., dv:dv + dz],
        flat[..., dv + dz:2 * dv + dz],
        flat[..., 2 * dv + dz:],
    )


class DegenerateFrequencyError(ValueError):
    """Raised when the requested Z has collapsed precession frequencies."""


@dataclass
class EigenFrame:
    """Orthonormal invariant frame of j(Z), with batch axes (...) on the left.

    basis rows (u1, u2, u3, u4, u0), shape (..., 5, dim_v): j(Z) u_a =
    theta u_b and j(Z) u_b = -theta u_a on the planes (u1, u2) and (u3, u4),
    whose frequencies are theta[..., 0] and theta[..., 1]; u0 spans the
    kernel.  rows are the manifold's printed (unnormalized) frame rows
    (E_1, E_2, E_3, E_4, Y_c) with squared lengths sq, so u = rows /
    sqrt(sq).  V and t broadcast against the batch axes, and every product
    with the basis is made once per batch entry, so a batch row equals the
    one-state call bit for bit.

    V is read in the frame along one path: `components` (or, in the printed
    frame, `printed_coefficients`).  Every map the frame diagonalizes
    (rotate, integrate, plane_part, kernel_part, j_inverse_planar) is one
    `_combine` of those components with per-plane weights (x, y) and a
    kernel weight w.
    """

    basis: np.ndarray
    theta: np.ndarray
    rows: np.ndarray
    sq: np.ndarray

    def components(self, V):
        """Coefficients (a1, b1, a2, b2, a0) of V in the frame."""
        return (self.basis @ np.asarray(V, float)[..., None])[..., 0]

    def printed_coefficients(self, V):
        """Coefficients (alpha_1..alpha_4, beta) of V in the printed frame,
        V = sum alpha_m E_m + beta Y_c."""
        return (self.rows @ np.asarray(V, float)[..., None])[..., 0] / self.sq

    def _combine(self, V, x, y, w):
        """Per plane (a x - b y) u_a + (a y + b x) u_b, plus w a0 u0; x and y
        broadcast against shape (..., 2), w against the batch shape."""
        a = self.components(V)
        pa, pb = a[..., 0:4:2], a[..., 1:4:2]
        ca, cb = pa * x - pb * y, pa * y + pb * x
        coef = np.empty(ca.shape[:-1] + (5,))
        coef[..., 0:4:2], coef[..., 1:4:2], coef[..., 4] = ca, cb, a[..., 4] * w
        return (coef[..., None, :] @ self.basis)[..., 0, :]

    def rotate(self, V, t):
        """e^{t j(Z)} V in closed form; a one-Z frame and an array t give
        t.shape + (dim_v,)."""
        t = np.asarray(t, float)
        wt = t[..., None] * self.theta
        return self._combine(V, np.cos(wt), np.sin(wt), np.ones_like(t))

    def integrate(self, V, t):
        """int_0^t e^{s j(Z)} V ds in closed form; broadcasts like rotate."""
        t = np.asarray(t, float)
        wt = t[..., None] * self.theta
        return self._combine(
            V, np.sin(wt) / self.theta, (1.0 - np.cos(wt)) / self.theta, t
        )

    def j_inverse_planar(self, V):
        """Apply j(Z)^{-1} plane by plane; the kernel component is dropped.

        On a plane, j(a U_a + b U_b) = theta (a U_b - b U_a), so
        j^{-1}(a U_a + b U_b) = (b U_a - a U_b) / theta.
        """
        return self._combine(V, 0.0, -1.0 / self.theta, 0.0)

    def plane_part(self, V, which):
        return self._combine(V, np.eye(2)[which], 0.0, 0.0)

    def kernel_part(self, V):
        return self._combine(V, 0.0, 0.0, 1.0)


def eigenframe(data, Z):
    """The manifold's printed invariant frame of j(Z), its entry table
    (`NilmanifoldData.frame`) scattered into rows and normalized; Z may
    carry batch axes on the left.

    Requires a generic Z: both |plane frequencies| and every frame row
    length above 1e-12 (on the pair: c_k != 0 and (c_i, c_j) != 0, so the
    frequencies c_k and |c| are distinct and the kernel is the line R Y_c).
    A degenerate Z anywhere in the batch raises, naming the first one.
    """
    if data.frame is None:
        raise ValueError(f"manifold {data.name} has no closed-form invariant frame")
    Z = np.asarray(Z, float)
    entries, (t1, t2) = data.frame(Z)
    theta = np.empty(t2.shape + (2,))
    theta[..., 0], theta[..., 1] = t1, t2
    rows = np.zeros(t2.shape + (5, data.alg.dim_v))
    for r, col, x in entries:
        rows[..., r, col] = x
    sq = np.einsum("...ij,...ij->...i", rows, rows)
    norms = np.sqrt(sq)
    bad = ~np.all(np.concatenate([np.abs(theta), norms], axis=-1) > 1e-12,
                  axis=-1)
    if np.any(bad):
        raise DegenerateFrequencyError(
            f"degenerate precession for Z={Z[bad][0].tolist()}: need c_k != 0 "
            "and (c_i, c_j) != 0"
        )
    return EigenFrame(rows / norms[..., None], theta, rows, sq)


# ---------------------------------------------------------------------------
# integrators


RK4_STEPS_PER_UNIT = 1000


def default_steps(t):
    """RK4 steps for flow time t: step size at most 1 / RK4_STEPS_PER_UNIT."""
    return max(1, ceil(abs(float(t)) * RK4_STEPS_PER_UNIT))


def _rk4_batch(alg, v, z, V, Z, t, steps=None):
    """`steps` classic RK4 steps of size h = t / steps, summed in closed form;
    steps=None takes `default_steps(t)`.

    With Z fixed, x = (v, V) obeys the linear system x' = L x with
    L = [[0, I], [0, j(Z)]], so the stage inputs are P_i x with P_1 = I,
    P_2 = I + M/2, P_3 = I + M P_2/2, P_4 = I + M P_3 (M = hL), one step is
    x -> A x with A = I + M (P_1 + 2 P_2 + 2 P_3 + P_4)/6, and z gains
    hZ + x^T Q_r x with Q_r = (h/12) sum_i w_i P_i^T E_r P_i, where
    w = (1, 2, 2, 1) and E_r pairs the v block with the V block through the
    structure tensor.  After N steps x_N = A^N x_0 and
    z_N = z_0 + N h Z + x_0^T S_N x_0 with S_N = sum_{k<N} (A^k)^T Q A^k;
    both are summed by binary doubling over the bits of N, so the work is
    O(log N) batched (2 dim_v)-square matmuls.  Leading axes of the
    arguments are batch axes.
    """
    if steps is None:
        steps = default_steps(t)
    if steps < 1:
        raise ValueError(f"RK4 needs at least one step, got {steps}")
    h = t / steps
    dv, dz = alg.dim_v, alg.dim_z
    n = 2 * dv
    eye = np.eye(n)
    m = np.zeros(np.shape(Z)[:-1] + (n, n))
    m[..., :dv, dv:] = h * np.eye(dv)
    m[..., dv:, dv:] = h * j_matrix_np(alg, Z)
    p2 = eye + 0.5 * m
    p3 = eye + 0.5 * (m @ p2)
    p4 = eye + m @ p3
    a = eye + m @ (eye + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
    e = np.zeros((dz, n, n))
    e[:, :dv, dv:] = np.moveaxis(alg.tensor, -1, 0)
    q = (h / 12.0) * sum(
        w * (np.swapaxes(p, -1, -2)[..., None, :, :] @ e @ p[..., None, :, :])
        for w, p in ((1.0, eye), (2.0, p2), (2.0, p3), (1.0, p4))
    )

    # (a, q) is the block of 2^i steps; x has taken the lower bits of N so far
    x = np.concatenate([v, V], axis=-1)
    z = z + (steps * h) * Z
    while True:
        if steps & 1:
            z = z + np.einsum("...i,...rij,...j->...r", x, q, x)
            x = np.squeeze(a @ x[..., None], -1)
        steps >>= 1
        if not steps:
            return x[..., :dv], z, x[..., dv:], Z
        q = q + np.swapaxes(a, -1, -2)[..., None, :, :] @ q @ a[..., None, :, :]
        a = a @ a


def flow_rk4(alg, state, t, steps=None):
    """Classic RK4 with a fixed step; works for every algebra."""
    return TangentState(*_rk4_batch(alg, state.v, state.z, state.V, state.Z,
                                    float(t), steps))


def flow_rk4_many(alg, states, t, steps=None):
    """RK4 a stack of flat states, shape (n, 2*(dim_v + dim_z)), in lockstep."""
    s = state_from_flat(alg, states)
    return TangentState(*_rk4_batch(alg, s.v, s.z, s.V, s.Z, float(t), steps)).flat()


def flow_exact_vV(frame, v0, V0, t):
    """Closed-form (v(t), V(t)): V precesses, v integrates the precession."""
    return np.asarray(v0, float) + frame.integrate(V0, t), frame.rotate(V0, t)


# E_1 Taylor coefficients 1 / (n! (n + 2)); 18 terms reach 1e-17 on |x| < 1
_E1_SERIES = np.array([1.0 / (factorial(n) * (n + 2)) for n in range(18)])


def _moments(x):
    """(E_0(x), E_1(x)) with E_k(x) = int_0^1 u^k e^{i x u} du, elementwise.

    E_0(x) = e^{ix/2} sin(x/2) / (x/2) is the sinc form, which does not
    cancel at any x.  E_1(x) = (e^{ix} - E_0(x)) / (ix) cancels as x -> 0,
    so |x| < 1 sums its Taylor series sum_n (ix)^n / (n! (n + 2)) instead.
    """
    x = np.asarray(x, float)
    e0 = np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))
    small = np.abs(x) < 1.0
    xs = np.where(small, x, 0.0)
    series = (1j * xs[..., None]) ** np.arange(_E1_SERIES.size) @ _E1_SERIES
    e1 = np.where(
        small, series, (np.exp(1j * x) - e0) / (1j * np.where(small, 1.0, x))
    )
    return e0, e1


def flow_exact_state(data, state, t):
    """Closed-form flow of a full state on a manifold with an invariant frame.

    v, V and z(t) = z_0 + t Z + (1/2) int_0^t [v(s), V(s)] ds are exact
    closed-form expressions.  With frame
    components (a_1, b_1, a_2, b_2, a_0) of V_0 and the complex vectors
    W_p = (a_p + i b_p)(u_pa - i u_pb) of the planes p = 1, 2,

        V(s) = Re sum_p W_p e^{i theta_p s} + a_0 u_0,
        v(s) = v_0 + Re sum_p W_p alpha_p(s) + a_0 s u_0,
        alpha_p(s) = (e^{i theta_p s} - 1) / (i theta_p),

    and [Re A, Re B] = Re([A, B] + [A, conj B]) / 2, so the integral is
    [v_0, int_0^t V] plus frame brackets [W_p, W_q], [W_p, conj W_q] and
    [u_0, W_p] times integrals of s^k e^{i gamma s}, k in {0, 1} and
    gamma in {0, +-theta_p, theta_p +- theta_q}.  Each is
    t^{k+1} E_k(gamma t) (see `_moments`), so the cost does not depend on
    t.  The t^2 terms overflow from about |t| = 1e154.  The state may carry
    batch axes on the left; t is one number.
    """
    frame = eigenframe(data, state.Z)
    t = float(t)
    iV = frame.integrate(state.V, t)
    br = lambda a, b: bracket_v_np(data.alg, a, b)
    a, u, th = frame.components(state.V), frame.basis, frame.theta
    w = (a[..., 0:4:2] + 1j * a[..., 1:4:2])[..., None] * (
        u[..., 0:4:2, :] - 1j * u[..., 1:4:2, :])
    # rows p, columns q: theta_p + theta_q, theta_p - theta_q, theta_q, -theta_q
    tp, tq = th[..., :, None], th[..., None, :]
    m0, m1 = _moments(t * np.stack(np.broadcast_arrays(tp + tq, tp - tq, tq, -tq)))
    # int_0^t alpha_p(s) e^{+-i theta_q s} ds
    same = t * (m0[0] - m0[2]) / (1j * tp)
    conj = t * (m0[1] - m0[3]) / (1j * tp)
    wp, wq = w[..., :, None, :], w[..., None, :, :]
    planes = (br(wp, wq) * same[..., None]
              + br(wp, wq.conj()) * conj[..., None])
    # int_0^t s e^{i theta_p s} ds - int_0^t alpha_p(s) ds, times [u_0, W_p]
    kern = t * t * m1[2][..., 0, :] - t * (m0[2][..., 0, :] - 1.0) / (1j * th)
    area = (
        br(state.v, iV)
        + 0.5 * planes.sum(axis=(-3, -2)).real
        + a[..., 4, None] * (br(u[..., 4:, :], w) * kern[..., None]).sum(axis=-2).real
    )
    zt = state.z + t * state.Z + 0.5 * area
    return TangentState(state.v + iV, zt, frame.rotate(state.V, t),
                        state.Z.copy())


# ---------------------------------------------------------------------------
# sampling


def _generic_Z(c):
    """Mask of the rows c = (c_i, c_j, c_k) with well-separated frequencies
    (|c_k|, |c| - |c_k| and |(c_i, c_j)| all at least 0.1) and c_k |c|^2 at
    least 0.05, so the transcendental integrals stay numerically alive."""
    norm = np.sqrt(np.vecdot(c, c))
    ack = np.abs(c[..., 2])
    # np.hypot may round differently from math.hypot in the last bit, but a
    # row with rho near 0.1 and |c_k| >= 0.1 fails the gap test:
    # |c| - |c_k| = rho^2 / (|c| + |c_k|) <= 0.05 there
    rho = np.hypot(c[..., 0], c[..., 1])
    return ((ack >= 0.1) & (norm - ack >= 0.1) & (rho >= 0.1)
            & (ack * norm * norm >= 0.05))


def draw_rows(n, draw, keep):
    """The first n rows that keep (a mask or index array over a block)
    accepts from the stream that draw(k) continues: one draw of n rows,
    then of exactly the rows still missing, from draw(0).  The rows read
    are a prefix of the stream, so n rows at once equal n one-row draws."""
    rows = draw(0)
    while len(rows) < n:
        block = draw(n - len(rows))
        rows = np.concatenate([rows, block[keep(block)]])
    return rows


def sample_generic_state(data, rng, n=None):
    """Random tangent states with generic Z and V hitting every unit frame
    direction by at least 0.05: one state with no batch axis when n is
    None, else n states along a leading axis.

    A candidate is one row of rng.uniform(-1, 1) doubles laid out as
    (Z / 2, V, v, z), so Z is uniform on [-2, 2]^3 (doubling is exact).  A
    row is kept (`draw_rows`) when `_generic_Z` holds and V meets every
    unit frame row by at least 0.05; frames (`eigenframe`) are built only
    for the rows whose Z passes, so its degeneracy check never fires.
    """
    if n is not None and n < 0:
        raise ValueError(f"n must be None or a count of states >= 0, got {n}")
    dv = data.alg.dim_v
    width = 3 + 2 * dv + data.alg.dim_z

    def keep(cand):  # the kept rows of a block, as indices
        Z = 2.0 * cand[:, :3]
        ok = np.flatnonzero(_generic_Z(Z))
        unit = eigenframe(data, Z[ok]).basis
        comp = np.abs(unit @ cand[ok, 3:3 + dv, None]).min(axis=(-2, -1))
        return ok[comp >= 0.05]

    rows = draw_rows(1 if n is None else n,
                     lambda k: rng.uniform(-1.0, 1.0, size=(k, width)), keep)
    row = rows[0] if n is None else rows
    return TangentState(row[..., 3 + dv:3 + 2 * dv], row[..., 3 + 2 * dv:],
                        row[..., 3:3 + dv], 2.0 * row[..., :3])
