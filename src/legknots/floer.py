"""Knot Floer homology of positive torus knots via the staircase model.

The Alexander polynomial of T(p, q) is (t^{pq} - 1)(t - 1) divided by
(t^p - 1)(t^q - 1); after centering, its exponents n_0 > n_1 > ... > n_{2m}
alternate in sign starting from +1 at n_0 = (p-1)(q-1)/2.  The minus-flavor
knot complex is the staircase on generators x_0, ..., x_{2m} with Alexander
grading A(x_i) = n_i, Maslov grading

    M(x_0) = 0,
    M(x_{2i+1}) = M(x_{2i}) - 2 g_i + 1   where g_i = n_{2i} - n_{2i+1},
    M(x_{2i+2}) = M(x_{2i+1}) - 1,

and differential dx_{2i+1} = U^{g_i} x_{2i} + x_{2i+2} over F_2[U] (U drops
A by 1 and M by 2, so d is A-filtered and drops M by exactly 1).  Passing
to the A-associated-graded complex keeps only the U^{g_i} x_{2i} branch, and
the homology splits into towers

    F[U] x_{2m}  (+)  sum_i F[U] x_{2i} / (U^{g_i}).

The differential is written once, as sparse columns whose entries are
monomials U^k (bitmasks 1 << k).  d^2 = 0 is checked on those columns: a
product of monomials is a shift.  The Smith normal form takes those columns
as its sparse rows, never a dense copy: read that way they are the
transpose of the presentation matrix (odd generators) -> (even-generator
span), and a matrix and its transpose have the same invariant factors.  The
associated-graded matrix keeps the A-preserving entries of each column.
Both are graded, so the Smith form is a least-degree elimination: the pivot
of least degree divides every other entry, its column is cleared with row
operations (entries stay monomials, or cancel), and the pivots come out in
divisibility order.

Three independent computations of the finite tower orders are compared:
the staircase gaps, the Smith normal form of the graded differential, and
the closed form reading the odd-position exponent gaps straight off the
Alexander polynomial.
"""

import functools
import heapq
import math
from dataclasses import dataclass

from .cf import VerificationError
from .classify import transverse_classes


# ---- Alexander polynomial

# Upper bound on p * q for the Floer layer: the staircase has about pq/2
# generators.  The benchmark pool's largest pair has pq = 1974 and
# deep-knots matches have q <= 60; the cap itself, T(2, 4999), costs about
# 40 ms and 4 MiB on a 2-CPU x86-64 host.
MAX_PQ = 10**4


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


@functools.lru_cache(maxsize=None)
def alexander_exponents(p: int, q: int) -> tuple[int, ...]:
    """Descending exponents of the symmetrized Alexander polynomial of T(p, q).

    Coefficients alternate +1, -1, ... from the top exponent (p-1)(q-1)/2.
    Pairs with pq > MAX_PQ are refused before any work.
    """
    if not 2 <= p < q:
        raise ValueError(f"need 2 <= p < q, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"need gcd(p, q) == 1, got ({p}, {q})")
    if p * q > MAX_PQ:
        raise ValueError(f"T({p}, {q}) has pq = {p * q}, more than the limit of {MAX_PQ}")
    numerator = [0] * (p * q + 2)
    numerator[0], numerator[1], numerator[p * q], numerator[p * q + 1] = 1, -1, -1, 1
    quot = _divide_by_t_power_minus_one(_divide_by_t_power_minus_one(numerator, p), q)
    genus = (p - 1) * (q - 1) // 2
    exponents = []
    for e in range(len(quot) - 1, -1, -1):
        c = quot[e]
        if c == 0:
            continue
        if c != (1 if len(exponents) % 2 == 0 else -1):
            raise VerificationError("Alexander coefficients do not alternate")
        exponents.append(e - genus)
    if len(exponents) % 2 == 0 or exponents[0] != genus:
        raise VerificationError("Alexander polynomial has the wrong shape")
    if exponents != [-e for e in reversed(exponents)]:
        raise VerificationError("Alexander polynomial is not symmetric")
    return tuple(exponents)


# ---- staircase complex


@dataclass(frozen=True)
class StaircaseComplex:
    """Bigraded staircase generators; even indices survive to homology."""

    p: int
    q: int
    gradings: tuple[tuple[int, int], ...]  # (A, M) for x_0, x_1, ...
    gaps: tuple[int, ...]  # gaps[i] = A(x_{2i}) - A(x_{2i+1}) >= 1


@functools.lru_cache(maxsize=None)
def staircase(p: int, q: int) -> StaircaseComplex:
    exps = alexander_exponents(p, q)
    gradings = [(exps[0], 0)]
    for i in range(1, len(exps)):
        prev_m = gradings[-1][1]
        if i % 2 == 1:
            gradings.append((exps[i], prev_m - 2 * (exps[i - 1] - exps[i]) + 1))
        else:
            gradings.append((exps[i], prev_m - 1))
    gaps = tuple(exps[2 * i] - exps[2 * i + 1] for i in range(len(exps) // 2))
    if any(g < 1 for g in gaps):
        raise VerificationError("nonpositive staircase gap")
    genus = (p - 1) * (q - 1) // 2
    if gradings[-1] != (-genus, -2 * genus):
        raise VerificationError("staircase does not end at (-g, -2g)")
    return StaircaseComplex(p, q, tuple(gradings), gaps)


def differential(complex_: StaircaseComplex) -> dict[int, dict[int, int]]:
    """The differential as sparse columns, generator -> {generator: U^k as
    the bitmask 1 << k}; only generators with nonzero boundary appear:
    dx_{2i+1} = U^{g_i} x_{2i} + x_{2i+2}."""
    return {2 * i + 1: {2 * i: 1 << g, 2 * i + 2: 1} for i, g in enumerate(complex_.gaps)}


def squares_to_zero(d: dict[int, dict[int, int]]) -> bool:
    """Whether d(d(x)) = 0 for every column x of a monomial differential."""
    for column in d.values():
        image: dict[int, int] = {}
        for middle, a in column.items():
            for target, b in d.get(middle, {}).items():
                image[target] = image.get(target, 0) ^ (a << (b.bit_length() - 1))
        if any(image.values()):
            return False
    return True


def _associated_graded(
    complex_: StaircaseComplex, d: dict[int, dict[int, int]]
) -> list[dict[int, int]]:
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

    Least-degree elimination on the rows' exponents: the pivot divides
    every other entry, so clearing its column with row operations and then
    dropping its row and column leaves a matrix of the same kind.  A
    non-monomial entry, or a row operation that would make one (the matrix
    is not graded), raises VerificationError.
    """
    if any(entry & (entry - 1) for row in mat for entry in row.values()):
        raise VerificationError("matrix entry is not a monomial")
    rows = {i: {j: e.bit_length() - 1 for j, e in row.items() if e} for i, row in enumerate(mat)}
    heap = [(k, i, j) for i, row in rows.items() for j, k in row.items()]
    cols: dict[int, set[int]] = {}
    for _, i, j in heap:
        cols.setdefault(j, set()).add(i)
    heapq.heapify(heap)
    factors = []
    while heap:
        k, i, j = heapq.heappop(heap)
        if rows.get(i, {}).get(j) != k:
            continue  # cancelled, or its row was dropped
        pivot_row = rows.pop(i)
        del pivot_row[j]
        for c in pivot_row:
            cols[c].discard(i)
        for r in cols.pop(j) - {i}:
            target = rows[r]
            shift = target.pop(j) - k
            for c, e in pivot_row.items():
                old = target.get(c)
                if old is None:
                    target[c] = e + shift
                    cols[c].add(r)
                    heapq.heappush(heap, (e + shift, r, c))
                elif old == e + shift:
                    del target[c]
                    cols[c].discard(r)
                else:
                    raise VerificationError("elimination left a non-monomial entry")
        factors.append(1 << k)
    return factors


# ---- graded module


@dataclass(frozen=True)
class Tower:
    """A cyclic F_2[U] summand; order is the U-torsion exponent, None = free."""

    order: int | None
    bottom_alexander: int
    bottom_maslov: int

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "bottom_A": self.bottom_alexander,
            "bottom_M": self.bottom_maslov,
        }


@dataclass(frozen=True)
class GradedModule:
    towers: tuple[Tower, ...]

    def finite_orders(self) -> tuple[int, ...]:
        return tuple(sorted(t.order for t in self.towers if t.order is not None))

    def finite_bottoms(self) -> frozenset:
        return frozenset(
            (t.bottom_alexander, t.bottom_maslov) for t in self.towers if t.order is not None
        )

    def to_dict(self) -> dict:
        return {"towers": [t.to_dict() for t in self.towers]}


def closed_form_orders(p: int, q: int) -> tuple[int, ...]:
    """Torsion orders read off the Alexander exponents: the odd-position gaps
    n_{2i-1} - n_{2i}, which by symmetry form the same multiset as the
    staircase gaps."""
    exps = alexander_exponents(p, q)
    return tuple(sorted(exps[2 * i - 1] - exps[2 * i] for i in range(1, len(exps) // 2 + 1)))


def euler_characteristic(complex_: StaircaseComplex) -> dict[int, int]:
    """Signed generator count per Alexander grading (graded Euler characteristic)."""
    chi: dict[int, int] = {}
    for a, m in complex_.gradings:
        chi[a] = chi.get(a, 0) + (1 if m % 2 == 0 else -1)
    return {a: c for a, c in chi.items() if c}


@functools.lru_cache(maxsize=None)
def hfk_minus(p: int, q: int) -> GradedModule:
    """Minus-flavor knot Floer homology of T(p, q) as a tower decomposition.

    Raises VerificationError unless the staircase, Smith-normal-form, and
    closed-form computations of the torsion orders agree, the full complex
    has the homology of the ambient sphere (one free tower), the graded
    Euler characteristic matches the Alexander polynomial, and d^2 = 0.
    """
    complex_ = staircase(p, q)
    d = differential(complex_)
    if not squares_to_zero(d):
        raise VerificationError("staircase differential does not square to zero")

    towers = []
    for i, gap in enumerate(complex_.gaps):
        a, m = complex_.gradings[2 * i]
        towers.append(Tower(gap, a - gap + 1, m - 2 * gap + 2))
    towers.append(Tower(None, *complex_.gradings[-1]))
    module = GradedModule(tuple(towers))

    graded_factors = smith_invariant_factors(_associated_graded(complex_, d))
    if len(graded_factors) != len(complex_.gaps):
        raise VerificationError("graded differential has unexpected rank")
    snf_orders = tuple(sorted(f.bit_length() - 1 for f in graded_factors))
    if not (module.finite_orders() == snf_orders == closed_form_orders(p, q)):
        raise VerificationError(
            f"torsion orders disagree for T({p}, {q}): "
            f"towers {module.finite_orders()}, smith {snf_orders}, "
            f"closed form {closed_form_orders(p, q)}"
        )

    # Both branches of d land on even generators, so as soon as d has full
    # rank on the odd generators the kernel is the even-generator span and
    # the image lies inside it: d presents the homology, and must reduce to
    # one free summand and no torsion -- the Floer homology of the sphere.
    full_factors = smith_invariant_factors(list(d.values()))
    if len(full_factors) != len(complex_.gaps) or any(f != 1 for f in full_factors):
        raise VerificationError("full complex is not the homology of the sphere")

    exps = alexander_exponents(p, q)
    expected_chi = {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)}
    if euler_characteristic(complex_) != expected_chi:
        raise VerificationError("Euler characteristic does not match Alexander polynomial")
    return module


# ---- comparison with the transverse classes


def match_invariants(p: int, q: int) -> dict:
    """Locate each transverse class at a torsion tower bottom of HFK-minus.

    Returns a report with the realized and unrealized bottom bigradings;
    raises VerificationError if any class misses the bottom set or two
    classes collide at one location.
    """
    module = hfk_minus(p, q)  # first: it refuses oversized pairs before any work
    classes = transverse_classes(p, q)
    bottoms = module.finite_bottoms()
    realized = [(c.invariants.alexander, c.invariants.maslov) for c in classes]
    misplaced = sorted(set(realized) - bottoms)
    if misplaced:
        raise VerificationError(
            f"transverse classes of T({p}, -{q}) away from tower bottoms: {misplaced}"
        )
    if len(set(realized)) != len(realized):
        raise VerificationError(f"two transverse classes of T({p}, -{q}) share a location")
    return {
        "p": p,
        "q": q,
        "transverse_count": len(realized),
        "bottom_count": len(bottoms),
        "realized": sorted(realized, reverse=True),
        "unrealized": sorted(bottoms - set(realized), reverse=True),
    }
