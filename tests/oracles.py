"""Exact oracles the tests compare the runtime against.

None of these is on the runtime path: the library computes the same facts
with integer eliminations and continuants, and reads the Floer towers off
the staircase and two columns of its differential per tower, where the
oracles here take ranks over F_2 and the Smith normal form over F_2[U].
"""

import heapq
from fractions import Fraction

from legknots.cf import VerificationError
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


def _f2_rank(rows: list[int]) -> int:
    """Rank over F_2 of the rows, each a bitmask of its nonzero columns."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)  # clears b's leading bit if row has it
        if row:
            basis.append(row)
    return len(basis)


def bigraded_homology_dims(gradings, d) -> dict[tuple[int, int], int]:
    """F_2-dimension of the homology of the A-associated-graded complex in
    each bidegree (A, M) with A >= the least Alexander grading -g.

    The complex over F_2[U] on generators x_i at gradings[i] = (A_i, M_i),
    with differential d as sparse columns {x_r: U^k as 1 << k}, is expanded
    into F_2-vector spaces with basis U^k x_i at (A_i - k, M_i - 2k).  The
    associated graded keeps the terms a x_r of d(x_c) with
    A(x_r) - deg a = A(x_c); each bidegree is finite-dimensional because k
    is fixed by A.  Only nonzero dimensions are returned.
    """
    floor = min(a for a, _ in gradings)
    basis: dict[tuple[int, int], list[int]] = {}
    for i, (a, m) in enumerate(gradings):
        for k in range(a - floor + 1):
            basis.setdefault((a - k, m - 2 * k), []).append(i)

    def outgoing_rank(bidegree):
        rows = []
        for c in basis.get(bidegree, ()):
            row = 0
            for r, entry in d.get(c, {}).items():
                deg = entry.bit_length() - 1
                if gradings[r][0] - deg == gradings[c][0]:
                    assert gradings[r][1] - 2 * deg == gradings[c][1] - 1, "d must drop M by 1"
                    row ^= 1 << r
            rows.append(row)
        return _f2_rank(rows)

    dims = {}
    for (a, m), gens in basis.items():
        dim = len(gens) - outgoing_rank((a, m)) - outgoing_rank((a, m + 1))
        if dim:
            dims[a, m] = dim
    return dims


def associated_graded(complex_, d: dict[int, dict[int, int]]) -> list[dict[int, int]]:
    """The columns of d as sparse rows, keeping the terms a x_r of d(x_c) with
    A(x_r) - deg a = A(x_c): the A-associated-graded differential."""
    alexander = [a for a, _ in complex_.gradings]
    return [
        {r: e for r, e in column.items() if alexander[r] - e.bit_length() + 1 == alexander[c]}
        for c, column in d.items()
    ]


def smith_invariant_factors(mat: list[dict[int, int]]) -> list[int]:
    """Invariant factors of a graded matrix over F_2[U] given as sparse rows
    {column: U^k as the bitmask 1 << k}, each dividing the next; the list
    length is the rank.  Absent and zero entries are zero.

    Least-degree elimination: the pivot divides every other entry, so
    clearing its column with row operations and dropping its row and column
    leaves a matrix of the same kind.  Entries wait in one bucket per degree
    and a heap holds the degrees.  A bucket is read from its end while it
    grows, so same-degree fill-in is eliminated in the same pass and a
    bidiagonal matrix makes none; the loop stops once no row is left, past
    any stale fill-in.  A non-monomial entry, or a row operation that would
    make one (the matrix is not graded), raises VerificationError.
    """
    rows, cols, buckets = {}, {}, {}  # i -> {j: k}, j -> {i}, k -> [(i, j)]
    for i, row in enumerate(mat):
        for j, e in row.items():
            if e & (e - 1):
                raise VerificationError("matrix entry is not a monomial")
            if e:
                k = rows.setdefault(i, {})[j] = e.bit_length() - 1
                cols.setdefault(j, set()).add(i)
                buckets.setdefault(k, []).append((i, j))
    degrees = sorted(buckets)  # a sorted list is a heap
    factors = []
    while rows and degrees:
        k = heapq.heappop(degrees)
        bucket = buckets[k]
        while bucket:
            i, j = bucket.pop()
            if (pivot_row := rows.get(i)) is None or pivot_row.get(j) != k:
                continue  # cancelled, or its row was dropped
            del rows[i]
            for c in pivot_row:
                cols[c].discard(i)
            del pivot_row[j]
            for r in cols.pop(j):
                target = rows[r]
                shift = target.pop(j) - k
                for c, e in pivot_row.items():
                    e += shift
                    old = target.get(c)
                    if old is None:
                        target[c] = e
                        cols[c].add(r)
                        if e not in buckets:
                            heapq.heappush(degrees, e)
                        buckets.setdefault(e, []).append((r, c))
                    elif old == e:
                        del target[c]
                        cols[c].discard(r)
                    else:
                        raise VerificationError("elimination left a non-monomial entry")
            factors.append(1 << k)
    return factors
