"""The eight first integrals of the geodesic flow on M and their Poisson
calculus.

Integral order everywhere: (q_i, q_j, q_k, h1, h2, k, f_i, f_j) where
q_W = <Z, W>, h1/h2 are the squared plane components of V in the
(unnormalized) invariant frame of j(Z), k = <V, Y_c>, and f_i, f_j are the
transcendental integrals built from the flat bump factor
phi(x) = exp(-1/x^2) at x = c_k |c|^2 and the kernel-return map C(Z).

Gradients are *left* gradients: the base part B differentiates along
right-multiplication by exp(h e) (so it is frame-covariant), the fiber
part A is the plain velocity-space gradient.
"""

import numpy as np

from .catalog import _frame_M
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


def evaluate_integrals(state):
    """All eight integrals at a TangentState, batched over the leading axes
    of its arrays (z is not read).

    Returns shape (..., 8).  The transcendental pair is evaluated on its
    zero branch (exactly 0) wherever phi(c_k |c|^2) underflows, which
    keeps the values finite through the degenerate cone c_k = 0.
    """
    v, V, Z = state.v, state.V, state.Z
    ci, cj, ck = Z[..., 0], Z[..., 1], Z[..., 2]
    n2 = ci * ci + cj * cj + ck * ck
    # <V, E_m> and <V, Y_c> in the printed frame of M
    e = np.einsum("...mp,...p->...m", _frame_M(Z)[0], V)
    h1 = e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1]
    h2 = e[..., 2] * e[..., 2] + e[..., 3] * e[..., 3]
    kk = e[..., 4]

    bump = phi(ck * n2)
    live = bump > 0.0
    d = np.where(live, ck * n2, 1.0)
    yi, yj, yk = V[..., 2], V[..., 3], V[..., 4]
    cx_i = (-ci * cj * yi + (ci * ci + ck * ck) * yj - cj * ck * yk) / d
    cx_j = (-(cj * cj + ck * ck) * yi + ci * cj * yj + ci * ck * yk) / d
    arg_i = v[..., 0] - cx_i
    arg_j = v[..., 1] - cx_j
    f_i = np.where(live, bump * np.sin(2.0 * np.pi * arg_i), 0.0)
    f_j = np.where(live, bump * np.sin(2.0 * np.pi * arg_j), 0.0)

    return np.stack(
        [np.broadcast_to(ci, h1.shape), np.broadcast_to(cj, h1.shape),
         np.broadcast_to(ck, h1.shape), h1, h2, kk, f_i, f_j],
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


def left_gradients_all(alg, state, fn=None):
    """Central-difference left gradients of the functions fn evaluates.

    fn maps a batched TangentState to values of shape (..., n, k); it
    defaults to the eight integrals.  The state may carry batch axes on the
    left of its arrays.  Returns (B, A) with shapes (..., k, dim) each: one
    stencil over the 2 dim unit directions, base rows first, so 2 batched
    evaluations total, whatever the batch.
    """
    if fn is None:
        fn = evaluate_integrals
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

    Gradients are batched; the stencil along the k Hamiltonian fields is
    then two more batched evaluations.
    """
    if fn is None:
        fn = evaluate_integrals
    B, A = left_gradients_all(alg, state, fn)
    return _central(alg, fn, state, *hamiltonian_field(alg, state, B, A))


RANK_THRESHOLD = 1e-7


def independence_rank(alg, state):
    """Rank of the eight left gradients as vectors in R^16: an int for a
    single state, an int array of shape (...) for a state with batch axes
    (...).

    Rows are normalized to unit length first (zero rows stay zero) so the
    flat factor phi cannot mask directions that are genuinely present; a
    singular value counts when it exceeds RANK_THRESHOLD times the largest.
    """
    B, A = left_gradients_all(alg, state)
    rows = np.concatenate([B, A], axis=-1)
    norms = np.linalg.norm(rows, axis=-1)
    scale = np.where(norms > 0.0, norms, 1.0)
    rows = rows / scale[..., None]
    sv = np.linalg.svd(rows, compute_uv=False)
    ranks = np.sum(sv > RANK_THRESHOLD * sv[..., :1], axis=-1)
    return ranks if ranks.ndim else int(ranks)
