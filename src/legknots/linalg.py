"""Small exact linear-algebra helpers (integer determinants, Fraction solves).

numpy is deliberately not used: every quantity downstream (framings, rotation
numbers, d3 terms) must stay exact, and the matrices involved are tiny.  The
invariants layer calls these once per knot, to build and check its integer
kernel; the tests use them as the per-presentation oracle.
"""

from fractions import Fraction


def det_bareiss(mat) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    All intermediate divisions are exact, so the result is an exact int even
    for badly conditioned inputs.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_fraction(mat, rhs) -> list[Fraction]:
    """Solve mat @ x == rhs exactly by Gauss-Jordan elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(mat, rhs)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


def signature_symmetric(mat) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric matrix.

    Works by congruence diagonalization over the rationals, which preserves
    the signature; zero diagonals with a nonzero row use the hyperbolic-pair
    trick (add the partner row/column to create a usable pivot).
    """
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    idx = list(range(n))
    sig = 0
    while idx:
        piv = next((i for i in idx if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in idx for j in idx if j > i and a[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        d = a[piv][piv]
        sig += 1 if d > 0 else -1
        idx.remove(piv)
        for i in idx:
            f = a[i][piv] / d
            if f == 0:
                continue
            for t in range(n):
                a[i][t] -= f * a[piv][t]
            for t in range(n):
                a[t][i] -= f * a[t][piv]
    return sig
