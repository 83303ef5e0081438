"""Exact oracles the tests compare the runtime against.

None of these is on the runtime path: the library computes the same facts
with integer eliminations and continuants, reads the Alexander polynomial
off the semigroup <p, q>, and reads the Floer towers off the staircase and
two columns of its differential per tower, where the oracles here divide by
t^p - 1 and t^q - 1, take ranks over F_2 and the Smith normal form over
F_2[U].
"""

import functools
import heapq
import json
import math
from fractions import Fraction

from legknots.cf import VerificationError
from legknots.diagram import (
    Presentation,
    enumerate_presentations,
    is_ambient_tight,
    leader_extremes,
    nonvanishing_condition,
)
from legknots.invariants import _bordered, _linking, classical_invariants, rotation_vector
from legknots.linalg import det_bareiss


def json_text(pres: Presentation) -> str:
    """The JSON text of a presentation, the order the classes are ranked in."""
    return json.dumps(pres.to_dict(), sort_keys=True)


def coprime_pairs(max_product: int) -> list[tuple[int, int]]:
    """All (p, q) with 2 <= p < q, gcd 1 and pq <= max_product."""
    return [
        (p, q)
        for q in range(3, max_product // 2 + 1)
        for p in range(2, q)
        if p * q <= max_product and math.gcd(p, q) == 1
    ]


def eval_neg_cf(entries) -> Fraction:
    """Evaluate [a0, ..., as] = a0 - 1/(a1 - ...) exactly."""
    if not entries:
        raise ValueError("empty continued fraction")
    x = Fraction(entries[-1])
    for a in entries[-2::-1]:
        x = a - 1 / x
    return x


def _gauss_jordan(mat, rhs_rows) -> list[list[Fraction]]:
    """Reduce [mat | rhs] exactly; returns X with mat @ X == rhs."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(v) for v in rhs] for row, rhs in zip(mat, rhs_rows)]
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
    return [row[n:] for row in a]


def solve_fraction(mat, rhs) -> list[Fraction]:
    """Solve mat @ x == rhs exactly by Gauss-Jordan elimination."""
    return [x for (x,) in _gauss_jordan(mat, [[v] for v in rhs])]


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


@functools.lru_cache(maxsize=None)
def _solved(p: int, q: int, corner: int | None):
    """(N, D, sig) for the linking matrix Q of T(p, -q) or, given a corner,
    Q extended by the knot's row and column: the inverse is N / D, by one
    Gauss-Jordan elimination against the identity over the rationals, and
    sig is the signature by congruence.  None of it reads the rotations, so
    it is solved once per knot and corner."""
    mat, lk = _linking(p, q)
    if corner is not None:
        mat = _bordered(mat, lk, corner)
    n = len(mat)
    inverse = _gauss_jordan(mat, [[int(i == j) for j in range(n)] for i in range(n)])
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    num = tuple(tuple(int(x * den) for x in row) for row in inverse)
    return num, den, signature_symmetric(mat)


def _d3_terms(p, q, corner, r) -> Fraction:
    """(<r, M^-1 r> - 3 sig(M) - 2 chi) / 4 + 2 for M = Q or its extension."""
    num, den, sig = _solved(p, q, corner)
    csq = Fraction(sum(ri * sum(a * rj for a, rj in zip(row, r)) for ri, row in zip(r, num)), den)
    return (csq - 3 * sig - 2 * (1 + len(r))) / 4 + 2


@functools.lru_cache(maxsize=None)
def _tb_ratio(p: int, q: int) -> Fraction:
    """det(Q_0) / det(Q), Q_0 the extension of Q with a 0 corner."""
    mat, lk = _linking(p, q)
    return Fraction(det_bareiss(_bordered(mat, lk, 0)), det_bareiss(mat))


def invariants_oracle(pres):
    """tb, rot, d3 and surgered d3 from the determinant ratio and exact
    inverses of the linking matrix and of the extended matrix of the
    surgery on the knot."""
    p, q = pres.p, pres.q
    _, lk = _linking(p, q)
    r = rotation_vector(pres)
    rot0 = pres.stab_pos - pres.stab_neg
    num, den, _ = _solved(p, q, None)
    tb = -1 - pres.level + _tb_ratio(p, q)
    rot = rot0 - Fraction(sum(ri * sum(a * l for a, l in zip(row, lk)) for ri, row in zip(r, num)), den)
    d3 = _d3_terms(p, q, None, r) + Fraction(1, 2)
    surgered = _d3_terms(p, q, -2 - pres.level, r + [rot0])
    return tb, rot, d3, surgered


def class_key(pres: Presentation):
    """The class of a presentation by the paper's rules, read off the diagram
    and the invariants alone: in the tight ambient, its rot; a knot stabilized
    in one sign only (or not at all) with no leader extreme in that sign is
    strongly non-loose and a class of its own; any other knot is loose, and
    loose knots share a class exactly when they share (rot, d3)."""
    inv = classical_invariants(pres)
    if is_ambient_tight(pres):
        return "tight", inv.rot
    fully_positive, fully_negative = leader_extremes(pres)
    if (pres.stab_pos == 0 and not fully_negative) or (pres.stab_neg == 0 and not fully_positive):
        return "strongly non-loose", pres
    return "loose", inv.rot, inv.d3


def class_partition(p: int, q: int, level: int) -> dict[Presentation, tuple[Presentation, ...]]:
    """The level-`level` presentations of T(p, -q) grouped by class_key(),
    keyed by representative: each class's members sorted by json_text(), the
    first of them its representative."""
    groups: dict = {}
    for pres in enumerate_presentations(p, q, level):
        groups.setdefault(class_key(pres), []).append(pres)
    members = (tuple(sorted(group, key=json_text)) for group in groups.values())
    return {group[0]: group for group in members}


def transverse_partition(p: int, q: int) -> list[tuple[Presentation, ...]]:
    """The level-0 presentations of T(p, -q) with nonzero invariant, grouped
    by the class of their q-fold negative stabilization: each group's members
    sorted by json_text(), the groups by descending rot of their first member
    and then its json_text()."""
    groups: dict = {}
    for pres in enumerate_presentations(p, q, 0):
        if nonvanishing_condition(pres):
            groups.setdefault(class_key(pres.stabilize(neg=q)), []).append(pres)
    members = [tuple(sorted(group, key=json_text)) for group in groups.values()]
    return sorted(members, key=lambda g: (-classical_invariants(g[0]).rot, json_text(g[0])))


def _divide_by_t_power_minus_one(num: list[int], k: int) -> list[int]:
    """Quotient of num by t^k - 1; the remainder must vanish."""
    num = list(num)
    quot = [0] * (len(num) - k)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = num[i + k]
        num[i] += quot[i]
    if any(num[:k]):
        raise VerificationError("polynomial division left a remainder")
    return quot


def alexander_exponents_by_division(p: int, q: int) -> tuple[int, ...]:
    """Descending exponents of the symmetrized Alexander polynomial of T(p, q),
    by dividing (t^{pq} - 1)(t - 1) by t^p - 1 and then by t^q - 1; the
    coefficients must alternate +1, -1, ... from the top."""
    numerator = [0] * (p * q + 2)
    numerator[0], numerator[1], numerator[p * q], numerator[p * q + 1] = 1, -1, -1, 1
    quot = _divide_by_t_power_minus_one(_divide_by_t_power_minus_one(numerator, p), q)
    genus = (p - 1) * (q - 1) // 2
    exponents = []
    for e in range(len(quot) - 1, -1, -1):
        if quot[e]:
            if quot[e] != (1 if len(exponents) % 2 == 0 else -1):
                raise VerificationError("Alexander coefficients do not alternate")
            exponents.append(e - genus)
    return tuple(exponents)


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
