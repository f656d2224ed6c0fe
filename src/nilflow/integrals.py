"""The eight first integrals of the geodesic flow on M and their Poisson
calculus.

Integral order everywhere: (q_i, q_j, q_k, h1, h2, k, f_i, f_j) where
q_W = <Z, W>, h1/h2 are the squared plane components of V in the
(unnormalized) invariant frame of j(Z), k = <V, Y_c>, and f_i, f_j are the
transcendental integrals built from the flat bump factor
phi(x) = exp(-1/x^2) at x = c_k |c|^2 and the kernel-return map C(Z).

Gradients are *left* gradients: the base part B differentiates along
right-multiplication by exp(h e) (so it is frame-covariant), the fiber
part A is the plain velocity-space gradient.  The eight integrals have
them in closed form (`_gradients`), which the Hamiltonian fields of
`poisson_matrix` read; any other function gets them from one
central-difference stencil; the suite row `gradient_forms_agree` ties the
closed form to that stencil.  The brackets are the same stencil, step
FD_STEP, of the values along the Hamiltonian fields.  The rank is read
off the closed form's blocks, 3 + [amp_i != 0] + [amp_j != 0] + [(e_0,
e_1) != 0] + [(e_2, e_3) != 0] + [c != 0]: 8 off a proper analytic set.
"""

import numpy as np

from .catalog import _entries_M
from .flow import TangentState
from .lie_core import bracket_v_np, j_matrix_np

INTEGRAL_NAMES = ("q_i", "q_j", "q_k", "h1", "h2", "k", "f_i", "f_j")


def phi(x):
    """The flat bump exp(-1/x^2), extended by 0 at x = 0 (all derivatives
    vanish there, which is what makes f_i, f_j smooth through c_k = 0).
    Returns an array of x's shape, 0-d for a scalar x."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    nz = x != 0.0
    with np.errstate(over="ignore", under="ignore"):
        out[nz] = np.exp(-1.0 / (x[nz] * x[nz]))
    return out


def _parts(state):
    """What the integrals and their gradients share, batched like the
    state: c = (c_i, c_j, c_k), n2 = |c|^2, the printed rows R of M as
    their nonzero entries and |c|, the list e = R V (summed over the
    entries), x = c_k |c|^2 and phi(x), the live mask (phi does not
    underflow), d = x on it and 1 off it, and the pair cx = C(Z) V_Y = N /
    d and arg = (v_i, v_j) - cx of f_i, f_j."""
    v, V, Z = state.v, state.V, state.Z
    ci, cj, ck = Z[..., 0], Z[..., 1], Z[..., 2]
    n2 = ci * ci + cj * cj + ck * ck
    # <V, E_m> and <V, Y_c> in the printed frame of M
    at, (_, norm), e = *_entries_M(Z), [None] * 5
    for m, p, r in at:
        e[m] = r * V[..., p] if e[m] is None else e[m] + r * V[..., p]
    x = ck * n2
    bump = phi(x)
    live = bump > 0.0
    d = np.where(live, x, 1.0)
    yi, yj, yk = V[..., 2], V[..., 3], V[..., 4]
    cx = np.stack(
        [(-ci * cj * yi + (ci * ci + ck * ck) * yj - cj * ck * yk) / d,
         (-(cj * cj + ck * ck) * yi + ci * cj * yj + ci * ck * yk) / d], -1)
    return (ci, cj, ck), n2, at, norm, e, bump, live, d, cx, v[..., :2] - cx


def evaluate_integrals(state):
    """All eight integrals at a TangentState, batched over the leading axes
    of its arrays (z is not read).

    Returns shape (..., 8).  The transcendental pair is evaluated on its
    zero branch (exactly 0) wherever phi(c_k |c|^2) underflows, which
    keeps the values finite through the degenerate cone c_k = 0.
    """
    c, _, _, _, e, bump, live, _, _, arg = _parts(state)
    f = np.where(live[..., None], bump[..., None] * np.sin(2.0 * np.pi * arg),
                 0.0)
    return np.stack(
        [np.broadcast_to(w, e[4].shape) for w in c]
        + [e[0] * e[0] + e[1] * e[1], e[2] * e[2] + e[3] * e[3], e[4],
           f[..., 0], f[..., 1]],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# left gradients and the symplectic calculus


FD_STEP = 1e-6


def _central(alg, fn, state, base, fiber):
    """Central differences of fn along each row of (base, fiber), shape
    (..., k, dim) or (k, dim): the base moves by right multiplication with
    exp(+-h base), (v, z) -> (v +- h b_v, z +- (h b_z + h [v, b_v] / 2)),
    the fiber linearly, h = FD_STEP.  fn values (..., k, n) give
    derivatives (..., n, k)."""
    h = FD_STEP
    dv = alg.dim_v
    bv, bz = base[..., :dv], base[..., dv:]
    v, z = state.v[..., None, :], state.z[..., None, :]
    V, Z = state.V[..., None, :], state.Z[..., None, :]
    # the bracket term is the same for +h and -h
    br = bracket_v_np(alg, v, bv)

    def shifted(s):
        return fn(TangentState(v + s * bv, z + s * bz + 0.5 * s * br,
                               V + s * fiber[..., :dv],
                               Z + s * fiber[..., dv:]))

    return np.swapaxes(shifted(h) - shifted(-h), -1, -2) / (2.0 * h)


def _gradients(state):
    """Closed-form left gradients (B, A) of the eight integrals, shapes
    (..., 8, 8) each.

    No integral reads z, so B = (dF/dv, 0), and only f_i, f_j read v.  h1,
    h2 and k are read off e = R V, R the printed rows of M, so de/dV = R
    and only dR/dZ V is written out.  f = phi(x) sin(2 pi arg)
    with phi' = 2 phi / x^3, and the rational parts (arg and x) are
    + - x / only.  The f rows are 0 where phi underflows, the zero branch
    of `evaluate_integrals`.
    """
    (ci, cj, ck), n2, at, norm, e, bump, live, d, cx, arg = _parts(state)
    x0, x1, y0, y1, y2 = np.moveaxis(state.V, -1, 0)
    B = np.zeros(n2.shape + (8, 8))
    A = np.zeros(n2.shape + (8, 8))
    A[..., (0, 1, 2), (5, 6, 7)] = 1.0
    # h1, h2 = sums of e_m^2 over a plane's pair m, k = e_4; the two rows
    # of a plane have disjoint supports, so each entry is one product
    te = [2.0 * x for x in e]
    for m, p, r in at:
        A[..., 3 + m // 2, p] = r if m == 4 else te[m] * r
    A[..., 3, 5] = te[0] * x0 + te[1] * y1
    A[..., 3, 6] = te[0] * x1 - te[1] * y0
    # e_2 = |c| (c_j x_0 - c_i x_1): de_2/dZ = c e_2 / n2 + |c| (-x_1, x_0, 0),
    # and h2 = O(|c|^4), so its gradient is 0 at c = 0
    q = te[2] * e[2] / np.where(n2 > 0.0, n2, 1.0)
    u, w = te[2] * norm, te[3]
    A[..., 4, 5] = q * ci - u * x1 + w * (ck * y0 - 2.0 * ci * y2)
    A[..., 4, 6] = q * cj + u * x0 + w * (ck * y1 - 2.0 * cj * y2)
    A[..., 4, 7] = q * ck + w * (ci * y0 + cj * y1)
    A[..., 5, 5:] = state.V[..., 2:]
    # arg = (v_i, v_j) - N / d with N = P (y_0, y_1, y_2); dn and dx are
    # the Z-gradients of N and x
    pair = n2.shape + (2, 3)
    p = np.stack([-ci * cj, ci * ci + ck * ck, -cj * ck,
                  -(cj * cj + ck * ck), ci * cj, ci * ck], -1).reshape(pair)
    dn = np.stack([-cj * y0 + 2.0 * ci * y1, -ci * y0 - ck * y2,
                   2.0 * ck * y1 - cj * y2, cj * y1 + ck * y2,
                   -2.0 * cj * y0 + ci * y1, -2.0 * ck * y0 + ci * y2],
                  -1).reshape(pair)
    dx = np.stack([2.0 * ck * ci, 2.0 * ck * cj, n2 + 2.0 * ck * ck], -1)
    amp = np.where(live[..., None], 2.0 * np.pi * bump[..., None]
                   * np.cos(2.0 * np.pi * arg), 0.0)
    slope = np.where(live[..., None], (2.0 * bump / (d * d * d))[..., None]
                     * np.sin(2.0 * np.pi * arg), 0.0)
    ad = (amp / d[..., None])[..., None]
    B[..., (6, 7), (0, 1)] = amp
    A[..., 6:, 2:5] = -ad * p
    A[..., 6:, 5:] = (slope[..., None] * dx[..., None, :]
                      - ad * (dn - cx[..., None] * dx[..., None, :]))
    return B, A


def left_gradients_all(alg, state, fn=None):
    """Left gradients (B, A) of the functions fn evaluates, shapes
    (..., k, dim) each for a state with batch axes (...).

    With fn None they are the closed-form gradients of the eight integrals
    (`_gradients`).  Otherwise fn maps a batched TangentState to values of
    shape (..., n, k), and the gradients are central differences: one
    stencil over the 2 dim unit directions, base rows first, so 2 batched
    evaluations total, whatever the batch.
    """
    if fn is None:
        return _gradients(state)
    eye = np.eye(2 * alg.dim)
    grads = _central(alg, fn, state, eye[:, :alg.dim], eye[:, alg.dim:])
    return grads[..., :alg.dim], grads[..., alg.dim:]


def hamiltonian_field(alg, state, B, A):
    """Hamiltonian vector fields of functions with left gradients (B, A),
    one per row; B, A have shape (..., k, dim) for a state with batch axes
    (...).

    Base velocity is the fiber gradient A (as a left-invariant vector);
    fiber velocity is -B plus the coadjoint correction j(Z) A_v acting on
    the V components.
    """
    dv = alg.dim_v
    fiber = -B
    jt = np.swapaxes(j_matrix_np(alg, state.Z), -1, -2)
    fiber[..., :dv] += A[..., :dv] @ jt
    return A, fiber


def poisson_matrix(alg, state, fn=None):
    """All brackets {F_a, F_b} = dF_a(X_{F_b}) of the functions fn
    evaluates (default: the eight integrals), shape (..., k, k) for a state
    with batch axes (...).

    The fields are built from the gradients (closed form for the
    integrals, the FD stencil for fn); the stencil along the k Hamiltonian
    fields is then two batched evaluations.
    """
    B, A = left_gradients_all(alg, state, fn)
    return _central(alg, evaluate_integrals if fn is None else fn, state,
                    *hamiltonian_field(alg, state, B, A))


def independence_rank(alg, state):
    """Rank of the eight closed-form left gradients as vectors in R^16: an
    int for a single state, an int array of shape (...) for a state with
    batch axes (...).

    Read off the block structure, no SVD: the q rows are [0 | 0, I_3], B
    is nonzero only at (f_i, v_i) and (f_j, v_j), amp = 2 pi phi cos(2 pi
    arg), and on V the h1, h2, k rows are 2 (e_0 E_1 + e_1 E_2), 2 (e_2 E_3
    + e_3 E_4) and Y_c, from mutually orthogonal rows.  So rank = 3 + [amp_i
    != 0] + [amp_j != 0] + [(e_0, e_1) != 0] + [(e_2, e_3) != 0] + [c != 0],
    each an exact test on entries (no square to underflow): 8 off the
    proper analytic set c_k cos(2 pi arg_i) cos(2 pi arg_j) h1 h2 = 0, at
    most 6 on c_k = 0 (and, in floats, where phi underflows).
    """
    B, A = left_gradients_all(alg, state)
    ranks = (3 + (B[..., 6, 0] != 0.0) + (B[..., 7, 1] != 0.0)
             + np.sum(np.any(A[..., 3:6, :5] != 0.0, axis=-1), axis=-1))
    return ranks if ranks.ndim else int(ranks)
