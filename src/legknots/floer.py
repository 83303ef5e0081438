"""Knot Floer homology of positive torus knots via the staircase model.

The Alexander polynomial of T(p, q) is (t^{pq} - 1)(t - 1) divided by
(t^p - 1)(t^q - 1), which is (1 - t) times the sum of t^s over the semigroup
S = <p, q> of sums ap + bq with a, b >= 0.  S holds every integer from
2g = (p-1)(q-1) on, so the coefficients are +1 where a run of S in [0, 2g]
starts and -1 just past its end; the table of S is checked against the
recurrence that defines S.  After centering, the exponents
n_0 > n_1 > ... > n_{2m} alternate in sign starting from +1 at n_0 = g.  The
minus-flavor knot complex is the staircase on generators x_0, ..., x_{2m}
with Alexander grading A(x_i) = n_i, Maslov grading

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
product of monomials is a shift.  Each tower is checked against the
homology of the A-associated-graded complex, read from two columns of d:
M - 2A strictly increases along the staircase and U keeps it fixed, so a
bidegree holds at most one basis element U^k x_j, found by a lookup on
M - 2A.  The torsion orders are also checked against the closed form
(odd-position exponent gaps of the Alexander polynomial), the full complex
against the homology of the sphere (a unitriangular block of d), and the
gradings against the graded Euler characteristic.
"""

import functools
import itertools
from collections import namedtuple

from .cf import VerificationError, validate_pair
from .classify import transverse_classes


# ---- Alexander polynomial

# Upper bound on p * q for the Floer layer: the staircase has about pq/2
# generators.  The benchmark pool's largest pair has pq = 1974 and
# deep-knots matches have q <= 60; the cap itself, T(2, 4999), costs about
# 20 ms cold and a 2.2 MiB tracemalloc peak on a 2-CPU x86-64 host.
MAX_PQ = 10**4


def _semigroup_marks(p: int, q: int, top: int) -> bytearray:
    """marks[s] = 1 for s in S = <p, q>, s <= top: one slice per multiple of q."""
    marks = bytearray(top + 1)
    for start in range(0, top + 1, q):
        marks[start::p] = b"\x01" * len(range(start, top + 1, p))
    return marks


def alexander_exponents(p: int, q: int) -> tuple[int, ...]:
    """Descending exponents of the symmetrized Alexander polynomial of T(p, q).

    Coefficients alternate +1, -1, ... from the top exponent (p-1)(q-1)/2.
    Pairs with pq > MAX_PQ are refused before any work.
    """
    validate_pair(p, q)
    if p * q > MAX_PQ:
        raise ValueError(f"T({p}, {q}) has pq = {p * q}, more than the limit of {MAX_PQ}")
    genus = (p - 1) * (q - 1) // 2
    top = 2 * genus
    marks = _semigroup_marks(p, q, top)
    # S is the one set with s in S iff s = 0 or s - p or s - q is in S;
    # read as an integer, mark s is bit 8s
    table = int.from_bytes(marks, "little")
    if table != (1 | table << 8 * p | table << 8 * q) & ((1 << 8 * (top + 1)) - 1):
        raise VerificationError(f"the table of <{p}, {q}> breaks the semigroup's recurrence")
    # byte k of edges is 1 where marks[k - 1] != marks[k]: +1 where a run of S
    # starts, -1 just past its end; the last run ends past 2g
    edges = (table ^ table << 8).to_bytes(top + 2, "little")
    exponents = list(itertools.compress(range(-genus, genus + 2), edges))[-2::-1]
    if len(exponents) % 2 == 0 or exponents[0] != genus:
        raise VerificationError("Alexander polynomial has the wrong shape")
    if exponents != [-e for e in reversed(exponents)]:
        raise VerificationError("Alexander polynomial is not symmetric")
    return tuple(exponents)


# ---- staircase complex


class StaircaseComplex(namedtuple("StaircaseComplex", "p q gradings gaps")):
    """Bigraded staircase generators; even indices survive to homology.
    gradings[i] = (A, M) of x_i; gaps[i] = A(x_{2i}) - A(x_{2i+1}) >= 1."""

    __slots__ = ()


def staircase(p: int, q: int) -> StaircaseComplex:
    exps = alexander_exponents(p, q)
    gaps = tuple(a - b for a, b in zip(exps[0::2], exps[1::2]))
    if any(g < 1 for g in gaps):
        raise VerificationError("nonpositive staircase gap")
    steps = [step for g in gaps for step in (1 - 2 * g, -1)]
    gradings = tuple(zip(exps, itertools.accumulate(steps, initial=0)))
    genus = (p - 1) * (q - 1) // 2
    if gradings[-1] != (-genus, -2 * genus):
        raise VerificationError("staircase does not end at (-g, -2g)")
    return StaircaseComplex(p, q, gradings, gaps)


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


def _homology_is_sphere(d: dict[int, dict[int, int]], generators: int) -> bool:
    """Whether the full complex has the homology of the sphere, one free tower.

    It does when d takes each x_c it does not kill to cycles, by monomials,
    with the unit entry x_{c+1} below its other entries: the rows x_{c+1}
    then form a unitriangular block, so d is injective and its cokernel is
    F_2[U] on the one generator left over.
    """
    if generators != 2 * len(d) + 1:
        return False
    for c, column in d.items():
        if column.get(c + 1) != 1 or max(column) != c + 1:
            return False
        for r, e in column.items():
            if r in d or e & (e - 1):
                return False
    return True


# ---- graded module


class Tower(namedtuple("Tower", "order bottom_alexander bottom_maslov")):
    """A cyclic F_2[U] summand; order is the U-torsion exponent, None = free."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "bottom_A": self.bottom_alexander,
            "bottom_M": self.bottom_maslov,
        }


class GradedModule(namedtuple("GradedModule", "towers")):
    __slots__ = ()

    def finite_orders(self) -> tuple[int, ...]:
        return tuple(sorted(t.order for t in self.towers if t.order is not None))

    def finite_bottoms(self) -> frozenset:
        return frozenset(
            (t.bottom_alexander, t.bottom_maslov) for t in self.towers if t.order is not None
        )

    def to_dict(self) -> dict:
        return {"towers": [t.to_dict() for t in self.towers]}


def closed_form_orders(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Torsion orders read off the Alexander exponents: the odd-position gaps
    n_{2i-1} - n_{2i}, which by symmetry form the same multiset as the
    staircase gaps."""
    return tuple(sorted(a - b for a, b in zip(exps[1::2], exps[2::2])))


def euler_characteristic(complex_: StaircaseComplex) -> dict[int, int]:
    """Signed generator count per Alexander grading (graded Euler characteristic)."""
    chi: dict[int, int] = {}
    for a, m in complex_.gradings:
        chi[a] = chi.get(a, 0) + (1 if m % 2 == 0 else -1)
    return {a: c for a, c in chi.items() if c}


def _check_towers(complex_: StaircaseComplex, d: dict[int, dict[int, int]], towers) -> None:
    """Raise VerificationError unless each tower sits where the F_2-homology
    of the A-associated-graded complex puts it, read from the columns of d.

    The U-line M - 2A = w holds one basis element per bidegree, U^k x_j at
    A = A(x_j) - k with j = where[w]; the line one Maslov step above holds
    the U^k x_i with i = where[w + 1].  Each U^k x_j is a cycle when the
    graded part of d(x_j) is zero, and a boundary at every A <= A(x_i) when
    the graded part of d(x_i) hits x_j.  So the homology on the line is 1 for
    A in (A(x_i), A(x_j)] and 0 elsewhere.  A torsion tower must fill exactly
    its own bidegrees: 1 at its top and its bottom, 0 one U-step below the
    bottom (U kills the bottom) and one step above the top.  The free tower
    is 1 at its generator and at every U-step below it.
    """
    alexander = [a for a, _ in complex_.gradings]
    where = {m - 2 * a: j for j, (a, m) in enumerate(complex_.gradings)}
    if len(where) != len(alexander):
        raise VerificationError("two staircase generators share M - 2A")

    def graded(c: int, r: int) -> bool:  # d(x_c) has an A-preserving term at x_r
        e = d.get(c, {}).get(r)
        return bool(e) and alexander[r] - e.bit_length() + 1 == alexander[c]

    for t in towers:
        a = t.bottom_alexander
        w = t.bottom_maslov - 2 * a
        j, i = where.get(w), where.get(w + 1)
        top = None if j is None or any(graded(j, r) for r in d.get(j, ())) else alexander[j]
        below = alexander[i] if i is not None and graded(i, j) else None
        if (top, below) != ((a, None) if t.order is None else (a + t.order - 1, a - 1)):
            raise VerificationError(
                f"T({complex_.p}, {complex_.q}): tower {t.to_dict()} does not match the "
                f"homology of d on its U-line (top {top}, highest boundary {below})"
            )


# Cached because verify asks again: 57 of its 305 calls are hits, and
# bottoms-and-positive-stabs would otherwise rebuild 40 knots (about 2 ms).
@functools.lru_cache(maxsize=None)
def hfk_minus(p: int, q: int) -> GradedModule:
    """Minus-flavor knot Floer homology of T(p, q) as a tower decomposition.

    Raises VerificationError unless d^2 = 0, the full complex has the
    homology of the sphere, every tower sits where the homology of the
    associated-graded differential puts it (top, bottom, and the U-steps
    just past them), the torsion orders equal the closed form, and the
    graded Euler characteristic matches the Alexander polynomial.
    """
    complex_ = staircase(p, q)
    exps = tuple(a for a, _ in complex_.gradings)
    d = differential(complex_)
    if not squares_to_zero(d):
        raise VerificationError("staircase differential does not square to zero")
    if not _homology_is_sphere(d, len(complex_.gradings)):
        raise VerificationError("full complex is not the homology of the sphere")

    towers = []
    for i, gap in enumerate(complex_.gaps):
        a, m = complex_.gradings[2 * i]
        towers.append(Tower(gap, a - gap + 1, m - 2 * gap + 2))
    towers.append(Tower(None, *complex_.gradings[-1]))
    module = GradedModule(tuple(towers))
    _check_towers(complex_, d, module.towers)
    orders = closed_form_orders(exps)
    if module.finite_orders() != orders:
        raise VerificationError(
            f"torsion orders disagree for T({p}, {q}): "
            f"towers {module.finite_orders()}, closed form {orders}"
        )

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
