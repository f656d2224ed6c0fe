"""Exact linear algebra on small dense matrices.

Matrices are lists of lists of fractions.Fraction or Python ints; the
integer routine integer_kernel stays in ints.
Everything is pure and allocation-happy, which is fine at the 5x5 / 8x8
sizes used here.
"""

from fractions import Fraction

Mat = list  # list[list[Fraction]]
Vec = list  # list[Fraction]


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for j in range(m):
            s = 0
            for t in range(k):
                s += ai[t] * b[t][j]
            out[i][j] = s
    return out


def rref(mat):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(mat):
    return len(rref(mat)[1])


def nullspace(mat):
    """Exact basis of the right kernel, one vector per free column."""
    if not mat:
        return []
    r, pivots = rref(mat)
    ncols = len(mat[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][fc]
        basis.append(v)
    return basis


def solve(mat, b):
    """Solve mat @ x = b exactly; returns x or None if inconsistent.

    For full-column-rank systems the solution is unique; otherwise free
    variables are set to zero.
    """
    aug = [list(row) + [bb] for row, bb in zip(mat, b)]
    r, pivots = rref(aug)
    ncols = len(mat[0])
    if ncols in pivots:  # pivot in the RHS column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][ncols]
    return x


def inverse(mat):
    n = len(mat)
    aug = [list(row) + ident_row for row, ident_row in zip(mat, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def integer_kernel(mat):
    """Basis of {x in Z^m : mat @ x = 0} for an integer matrix.

    Column-style Hermite reduction with a unimodular transform: columns of U
    corresponding to zeroed columns of A*U span the kernel lattice (saturated,
    not just a finite-index sublattice).
    """
    a = [[int(x) for x in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col(mtx, j):
        return [mtx[i][j] for i in range(len(mtx))]

    def addmul_col(mtx, dst, src, f):
        for i in range(len(mtx)):
            mtx[i][dst] += f * mtx[i][src]

    def swap_col(mtx, j1, j2):
        for i in range(len(mtx)):
            mtx[i][j1], mtx[i][j2] = mtx[i][j2], mtx[i][j1]

    row = 0
    pivot_col = 0
    for row in range(nrows):
        # euclidean reduction across columns pivot_col..ncols-1 on this row
        while True:
            nz = [j for j in range(pivot_col, ncols) if a[row][j] != 0]
            if len(nz) <= 1:
                break
            j_min = min(nz, key=lambda j: abs(a[row][j]))
            for j in nz:
                if j == j_min:
                    continue
                f = a[row][j] // a[row][j_min]
                if f:
                    addmul_col(a, j, j_min, -f)
                    addmul_col(u, j, j_min, -f)
        nz = [j for j in range(pivot_col, ncols) if a[row][j] != 0]
        if nz:
            if nz[0] != pivot_col:
                swap_col(a, nz[0], pivot_col)
                swap_col(u, nz[0], pivot_col)
            pivot_col += 1
        if pivot_col == ncols:
            break
    kernel_cols = [
        j
        for j in range(ncols)
        if all(a[i][j] == 0 for i in range(nrows))
    ]
    return [col(u, j) for j in kernel_cols]


def clear_denominators(vectors):
    """Scale rational vectors to a common-denominator integer matrix.

    Returns (int_vectors, denominator) with vec = int_vec / denominator.
    """
    from math import lcm

    den = 1
    for v in vectors:
        for x in v:
            den = lcm(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in v] for v in vectors]
    return ints, den
