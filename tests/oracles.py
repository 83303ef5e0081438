"""Exact Fraction oracles the tests compare the integer runtime against.

None of these is on the runtime path: the library computes the same facts
with integer eliminations and continuants.
"""

from fractions import Fraction

from legknots.invariants import _linking, rotation_vector
from legknots.linalg import det_bareiss


def eval_neg_cf(entries) -> Fraction:
    """Evaluate [a0, ..., as] = a0 - 1/(a1 - ...) exactly."""
    if not entries:
        raise ValueError("empty continued fraction")
    x = Fraction(entries[-1])
    for a in entries[-2::-1]:
        x = a - 1 / x
    return x


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


def _d3_terms(mat, r):
    """(<r, mat^-1 r> - 3 sig - 2 chi) / 4 + 2, by a Fraction solve."""
    csq = sum(ri * xi for ri, xi in zip(r, solve_fraction(mat, r)))
    return (csq - 3 * signature_symmetric(mat) - 2 * (1 + len(mat))) / 4 + 2


def invariants_oracle(pres):
    """tb, rot, d3 and surgered d3 from the determinant ratio and Fraction
    solves on each presentation's own matrices."""
    mat, lk = _linking(pres.p, pres.q)
    r = rotation_vector(pres)
    rot0 = pres.stab_pos - pres.stab_neg

    def bordered(corner):
        return [row + [l] for row, l in zip(mat, lk)] + [lk + [corner]]

    tb = -1 - pres.level + Fraction(det_bareiss(bordered(0)), det_bareiss(mat))
    rot = rot0 - sum(ri * xi for ri, xi in zip(r, solve_fraction(mat, lk)))
    d3 = _d3_terms(mat, r) + Fraction(1, 2)
    surgered = _d3_terms(bordered(-2 - pres.level), r + [rot0])
    return tb, rot, d3, surgered
