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

Three independent computations of the finite tower orders are compared:
the staircase gaps, Smith normal form of the graded differential over
F_2[U], and the closed form reading the odd-position exponent gaps straight
off the Alexander polynomial.
"""

import functools
from dataclasses import dataclass

from .cf import VerificationError
from .classify import transverse_classes


# ---- Alexander polynomial


def _exact_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Quotient of monic integer polynomial division; remainder must vanish."""
    num = list(num)
    shift = len(den) - 1
    quot = [0] * (len(num) - shift)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + shift]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise VerificationError("polynomial division left a remainder")
    return quot


def _t_power_minus_one(k: int) -> list[int]:
    poly = [0] * (k + 1)
    poly[0] = -1
    poly[k] = 1
    return poly


@functools.lru_cache(maxsize=None)
def alexander_exponents(p: int, q: int) -> tuple[int, ...]:
    """Descending exponents of the symmetrized Alexander polynomial of T(p, q).

    Coefficients alternate +1, -1, ... from the top exponent (p-1)(q-1)/2.
    """
    if not 2 <= p < q:
        raise ValueError(f"need 2 <= p < q, got ({p}, {q})")
    numerator = [0] * (p * q + 2)
    numerator[0], numerator[1], numerator[p * q], numerator[p * q + 1] = 1, -1, -1, 1
    quot = _exact_poly_div(numerator, _t_power_minus_one(p))
    quot = _exact_poly_div(quot, _t_power_minus_one(q))
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

    @property
    def genus(self) -> int:
        return (self.p - 1) * (self.q - 1) // 2


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


def boundary_matrix(complex_: StaircaseComplex) -> list[list[int]]:
    """Full differential over F_2[U] (polynomials as bitmasks), column per
    generator: dx_{2i+1} = U^{g_i} x_{2i} + x_{2i+2}."""
    n = len(complex_.gradings)
    mat = [[0] * n for _ in range(n)]
    for i, g in enumerate(complex_.gaps):
        mat[2 * i][2 * i + 1] = 1 << g
        mat[2 * i + 2][2 * i + 1] = 1
    return mat


def _even_basis_matrix(complex_: StaircaseComplex, keep_lower: bool) -> list[list[int]]:
    """Differential as a map (odd generators) -> (even-generator span).

    Both differential branches land on even generators, so this matrix
    presents the homology: rows x_0, ..., x_{2m}, one column per x_{2i+1}.
    Dropping the lower branch gives the A-associated-graded differential.
    """
    m = len(complex_.gaps)
    mat = [[0] * m for _ in range(m + 1)]
    for i, g in enumerate(complex_.gaps):
        mat[i][i] = 1 << g
        if keep_lower:
            mat[i + 1][i] = 1
    return mat


# ---- F_2[U] polynomial arithmetic (bitmask encoding, bit k = U^k)


def poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = b.bit_length() - 1
    quot = 0
    while a and a.bit_length() - 1 >= deg_b:
        shift = a.bit_length() - 1 - deg_b
        quot ^= 1 << shift
        a ^= b << shift
    return quot, a


def matrix_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    if b[k][j]:
                        out[i][j] ^= poly_mul(a[i][k], b[k][j])
    return out


def smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Diagonal invariant factors of a matrix over F_2[U], each dividing the
    next; the list length is the matrix rank."""
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    factors = []
    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                entry = a[i][j]
                if entry and (pivot is None or entry.bit_length() < a[pivot[0]][pivot[1]].bit_length()):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    quot, _ = poly_divmod(a[i][t], a[t][t])
                    for j in range(t, cols):
                        a[i][j] ^= poly_mul(quot, a[t][j])
                    if a[i][t]:  # remainder has smaller degree; promote it
                        a[t], a[i] = a[i], a[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    quot, _ = poly_divmod(a[t][j], a[t][t])
                    for i in range(t, rows):
                        a[i][j] ^= poly_mul(quot, a[i][t])
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                    dirty = True
                    break
            if dirty:
                continue
            if a[t][t] == 1:  # a unit divides everything
                break
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if a[i][j] and poly_divmod(a[i][j], a[t][t])[1]
                ),
                None,
            )
            if offender is None:
                break
            for j in range(t, cols):
                a[t][j] ^= a[offender][j]
        factors.append(a[t][t])
        t += 1
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
    full = boundary_matrix(complex_)
    if any(entry for row in matrix_product(full, full) for entry in row):
        raise VerificationError("staircase differential does not square to zero")

    towers = []
    for i, gap in enumerate(complex_.gaps):
        a, m = complex_.gradings[2 * i]
        towers.append(Tower(gap, a - gap + 1, m - 2 * gap + 2))
    towers.append(Tower(None, *complex_.gradings[-1]))
    module = GradedModule(tuple(towers))

    graded_factors = smith_invariant_factors(_even_basis_matrix(complex_, keep_lower=False))
    if len(graded_factors) != len(complex_.gaps):
        raise VerificationError("graded differential has unexpected rank")
    snf_orders = tuple(sorted(f.bit_length() - 1 for f in graded_factors))
    if not (module.finite_orders() == snf_orders == closed_form_orders(p, q)):
        raise VerificationError(
            f"torsion orders disagree for T({p}, {q}): "
            f"towers {module.finite_orders()}, smith {snf_orders}, "
            f"closed form {closed_form_orders(p, q)}"
        )

    # The kernel is exactly the even-generator span as soon as the
    # differential has full rank on the odd generators, and the image lies
    # inside that span, so the even-basis matrix presents the homology: it
    # must reduce to one free summand and no torsion -- the Floer homology
    # of the sphere.  (Its columns are the nonzero columns of the full
    # matrix, so full rank here is full rank there.)
    full_factors = smith_invariant_factors(_even_basis_matrix(complex_, keep_lower=True))
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
    classes = transverse_classes(p, q)
    module = hfk_minus(p, q)
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
