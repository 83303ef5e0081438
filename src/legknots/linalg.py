"""Exact integer linear algebra: two fraction-free eliminations.

numpy is deliberately not used: every quantity downstream (framings, rotation
numbers, d3 terms) must stay exact, and the matrices involved are tiny.
``adjugate`` builds each knot's invariant kernel in one integer pass;
``det_bareiss`` (with pivoting) is the independent route that checks it.
The Fraction routines the tests compare against live in the tests.
"""


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
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(mat) -> tuple[int, list[list[int]], tuple[int, ...]]:
    """(det, adj, (D_1, ..., D_n)) of a square integer matrix, D_k its k-th
    leading principal minor, so that mat @ adj == det * I.

    Fraction-free Gauss-Jordan on [mat | I] without pivoting (Bareiss 1968):
    the k-th pivot is D_k, every division is exact, and the left block ends
    as D_n * I with adj on the right.  A zero pivot raises ArithmeticError.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    minors = []
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise ArithmeticError(f"leading minor D_{k + 1} is zero")
        for i in range(n):
            f = a[i][k]
            if i != k:
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        minors.append(pivot)
        prev = pivot
    return prev, [row[n:] for row in a], tuple(minors)
