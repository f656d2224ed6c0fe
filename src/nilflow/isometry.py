"""Exact isometry of integer lattices, in Python ints: greedy reduction
and a complete search for a basis with a given Gram matrix.  The
isospectrality certificate (`spectral.gw_certificate`) decides with it
whether two kernel lattices have the same length spectrum.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _gram(basis):
    return [[_dot(u, v) for v in basis] for u in basis]


def _det(mat):
    """Exact determinant of a square integer matrix (Bareiss, Python ints)."""
    m = [list(row) for row in mat]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _box(gram, center, r2):
    """Integer coordinate vectors x that may satisfy (x - center)^T gram
    (x - center) <= r2: the box |x_i - center_i|^2 <= r2 (gram^-1)_ii, the
    same exact bound as `spectral.length_spectrum`, with (gram^-1)_ii a
    ratio of integer determinants.  The caller filters."""
    d = _det(gram)
    ranges = []
    for i, c in enumerate(center):
        minor = [row[:i] + row[i + 1:] for k, row in enumerate(gram) if k != i]
        w = r2 * Fraction(_det(minor), d)
        s = isqrt(w.numerator // w.denominator)
        lo, hi = floor(c) - s - 1, ceil(c) + s + 1
        ranges.append([x for x in range(lo, hi + 1) if (x - c) ** 2 <= w])
    return product(*ranges)


def _shorten(t, prefix):
    """t minus its closest vector in the lattice spanned by prefix.

    The real coordinates y of the projection of t solve G y = rhs (Cramer's
    rule, G the Gram matrix of prefix), and |t - x prefix|^2 = |t|^2 -
    rhs.y + (x - y)^T G (x - y): the minimum is taken over the exact box of
    that ellipsoid through the rounded y."""
    gram = _gram(prefix)
    rhs = [_dot(b, t) for b in prefix]
    d = _det(gram)
    y = [Fraction(_det([row[:i] + [r] + row[i + 1:]
                        for row, r in zip(gram, rhs)]), d)
         for i in range(len(gram))]

    def residual(x):
        return [ti - sum(xi * b[j] for xi, b in zip(x, prefix))
                for j, ti in enumerate(t)]

    best = residual([round(c) for c in y])
    best_n = _dot(best, best)
    r2 = best_n - _dot(t, t) + _dot(rhs, y)
    for x in _box(gram, y, r2) if r2 else ():  # r2 = 0: y is integral
        r = residual(x)
        if _dot(r, r) < best_n:
            best, best_n = r, _dot(r, r)
    return best


def _greedy_reduce(basis):
    """Greedy reduction of an integer basis (Nguyen & Stehle, ACM Trans.
    Algorithms 5(4), 2009), in Python ints: keep the vectors sorted by norm,
    and replace each by its difference from the closest vector of the
    lattice spanned by the shorter ones; a vector that becomes shorter than
    its predecessors moves down and the pass resumes behind it.  In rank
    <= 4 the result is Minkowski-reduced."""
    b = sorted((list(v) for v in basis), key=lambda v: _dot(v, v))
    k = 1
    while k < len(b):
        v = _shorten(b[k], b[:k])
        n = _dot(v, v)
        i = next(j for j in range(k + 1) if j == k or _dot(b[j], b[j]) > n)
        del b[k]
        b.insert(i, v)
        k = i + 1
    return b


def lattices_isometric(basis_a, basis_b):
    """Whether the integer lattices spanned by the rows of basis_a and
    basis_b are isometric, exactly (Python ints).

    Both bases are reduced greedily; equal Gram matrices decide at once.
    Otherwise a complete backtracking search looks, among the vectors of
    the second lattice no longer than the first reduced basis, for vectors
    with the first basis's Gram matrix.  With equal Gram determinants such
    vectors span an index-1 sublattice, that is a basis, and they exist iff
    the lattices are isometric."""
    a, b = _greedy_reduce(basis_a), _greedy_reduce(basis_b)
    if len(a) != len(b):
        return False
    ga, gb = _gram(a), _gram(b)
    if ga == gb:
        return True
    if _det(ga) != _det(gb):
        return False
    # coordinates x (in the reduced b) of the candidates, with gb x
    by_norm = {ga[i][i]: [] for i in range(len(a))}
    for x in _box(gb, [0] * len(b), max(by_norm)):
        gx = [_dot(row, x) for row in gb]
        if _dot(x, gx) in by_norm:
            by_norm[_dot(x, gx)].append((x, gx))

    def extend(chosen):
        i = len(chosen)
        if i == len(a):
            return True
        return any(
            all(_dot(x, gy) == ga[i][j] for j, (_, gy) in enumerate(chosen))
            and extend(chosen + [(x, gx)])
            for x, gx in by_norm[ga[i][i]]
        )

    return extend([])
