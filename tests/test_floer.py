"""Staircase complexes, tower decompositions, invariant matching."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legknots.cf import VerificationError
from legknots.floer import (
    MAX_PQ,
    Tower,
    _even_basis_matrix,
    alexander_exponents,
    closed_form_orders,
    differential,
    euler_characteristic,
    hfk_minus,
    match_invariants,
    smith_invariant_factors,
    squares_to_zero,
    staircase,
)

# ---- oracle: dense Smith normal form over F_2[U] (bitmask encoding, bit k = U^k)


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


def dense_smith(mat: list[list[int]]) -> list[int]:
    """Invariant factors of any matrix over F_2[U] by generic Euclidean
    elimination, each dividing the next."""
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


# ---- Alexander polynomial


def test_alexander_trefoil():
    assert alexander_exponents(2, 3) == (1, 0, -1)


def test_alexander_t34():
    assert alexander_exponents(3, 4) == (3, 2, 0, -2, -3)


def test_alexander_t58():
    assert alexander_exponents(5, 8) == (
        14, 13, 9, 8, 6, 5, 4, 3, 1, 0,
        -1, -3, -4, -5, -6, -8, -9, -13, -14,
    )


def test_alexander_shape_sweep():
    for q in range(3, 26):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            exps = alexander_exponents(p, q)
            genus = (p - 1) * (q - 1) // 2
            assert exps[0] == genus and exps[-1] == -genus
            assert len(exps) % 2 == 1
            assert list(exps) == sorted(exps, reverse=True)
            assert tuple(-e for e in reversed(exps)) == exps


def test_alexander_rejects():
    with pytest.raises(ValueError):
        alexander_exponents(3, 3)
    with pytest.raises(ValueError):
        alexander_exponents(4, 3)
    with pytest.raises(ValueError, match="gcd"):
        alexander_exponents(2, 4)
    with pytest.raises(ValueError, match="limit"):
        alexander_exponents(2, 100001)  # refused before the division starts
    assert len(alexander_exponents(2, MAX_PQ // 2 - 1)) == MAX_PQ // 2 - 1  # largest allowed


# ---- staircase


def test_staircase_trefoil():
    sc = staircase(2, 3)
    assert sc.gradings == ((1, 0), (0, -1), (-1, -2))
    assert sc.gaps == (1,)


def test_staircase_endpoints_and_gaps():
    for p, q in ((2, 7), (3, 5), (5, 8), (6, 7)):
        sc = staircase(p, q)
        genus = (p - 1) * (q - 1) // 2
        assert sc.gradings[0] == (genus, 0)
        assert sc.gradings[-1] == (-genus, -2 * genus)
        assert all(g >= 1 for g in sc.gaps)


def test_staircase_differential_drops_maslov_by_one():
    for p, q in ((3, 4), (5, 8)):
        sc = staircase(p, q)
        for i, gap in enumerate(sc.gaps):
            a_odd, m_odd = sc.gradings[2 * i + 1]
            a_hi, m_hi = sc.gradings[2 * i]
            a_lo, m_lo = sc.gradings[2 * i + 2]
            # U^gap x_{2i} sits at (A - gap, M - 2 gap); both branches one
            # Maslov step below the odd generator, matching Alexander on top
            assert (a_hi - gap, m_hi - 2 * gap) == (a_odd, m_odd - 1)
            assert m_lo == m_odd - 1
            assert a_lo < a_odd


def test_boundary_squares_to_zero():
    for p, q in ((2, 3), (4, 5), (5, 8), (7, 9)):
        assert squares_to_zero(differential(staircase(p, q)))


def test_squares_to_zero_multiplies_monomials():
    # d^2 x_2 = U^2 U^3 x_0 != 0
    assert not squares_to_zero({2: {1: 1 << 2}, 1: {0: 1 << 3}})
    # d^2 x_3 = U U^2 x_0 + U^2 U x_0 = 0 over F_2
    assert squares_to_zero({3: {1: 0b10, 2: 0b100}, 1: {0: 0b100}, 2: {0: 0b10}})


# ---- the dense oracle's polynomial arithmetic over F_2[U]


def test_poly_mul():
    assert poly_mul(0b11, 0b11) == 0b101  # (1+U)^2 = 1 + U^2
    assert poly_mul(0b10, 0b110) == 0b1100
    assert poly_mul(0, 0b111) == 0


def test_poly_divmod():
    quot, rem = poly_divmod(0b101, 0b11)
    assert (quot, rem) == (0b11, 0)
    quot, rem = poly_divmod(0b1000, 0b11)  # U^3 = (U^2+U+1)(U+1) + 1
    assert poly_mul(quot, 0b11) ^ rem == 0b1000
    assert rem.bit_length() < 2


def test_smith_diagonal():
    factors = smith_invariant_factors([[1 << 2, 0], [0, 1 << 3]])
    assert sorted(f.bit_length() - 1 for f in factors) == [2, 3]


def test_smith_preserves_divisibility_chain():
    mat = [[0b10, 0], [1, 0b1000]]
    factors = smith_invariant_factors(mat)
    assert factors == dense_smith(mat) == [1, 0b10000]
    for first, second in zip(factors, factors[1:]):
        assert poly_divmod(second, first)[1] == 0


def test_smith_unit_row():
    assert smith_invariant_factors([[1, 1 << 4]]) == [1]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    assert smith_invariant_factors([]) == []


def test_smith_rejects_non_graded_input():
    with pytest.raises(VerificationError):
        smith_invariant_factors([[1, 1], [1, 0b10]])  # the elimination makes 1 + U
    with pytest.raises(VerificationError):
        smith_invariant_factors([[0b11]])  # 1 + U is not a monomial


def test_smith_matches_oracle_on_staircases():
    for q in range(3, 21):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            sc = staircase(p, q)
            for graded in (True, False):
                mat = _even_basis_matrix(sc, differential(sc), graded)
                assert smith_invariant_factors(mat) == dense_smith(mat), (p, q, graded)


@st.composite
def graded_matrices(draw):
    """Monomial matrices with row weights r_i and column weights c_j: entry
    (i, j) is 0 or U^(c_j - r_i), so every row operation keeps the grading."""
    row_weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    col_weights = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    return [
        [1 << (c - r) if c >= r and draw(st.booleans()) else 0 for c in col_weights]
        for r in row_weights
    ]


@settings(max_examples=300, deadline=None)
@given(graded_matrices())
def test_smith_matches_dense_oracle(mat):
    factors = smith_invariant_factors(mat)
    assert factors == dense_smith(mat)
    for first, second in zip(factors, factors[1:]):
        assert poly_divmod(second, first)[1] == 0


# ---- tower decomposition


def test_hfk_trefoil():
    module = hfk_minus(2, 3)
    assert module.towers == (Tower(1, 1, 0), Tower(None, -1, -2))


def test_hfk_t34():
    module = hfk_minus(3, 4)
    assert module.finite_orders() == (1, 2)
    assert module.finite_bottoms() == {(3, 0), (-1, -4)}
    assert module.towers[-1] == Tower(None, -3, -6)


def test_hfk_t58():
    module = hfk_minus(5, 8)
    assert module.finite_orders() == (1, 1, 1, 1, 1, 1, 2, 2, 4)
    assert module.finite_bottoms() == {
        (14, 0), (9, -2), (6, -4), (4, -6), (1, -8),
        (-2, -12), (-4, -14), (-7, -18), (-12, -26),
    }
    assert module.towers[-1] == Tower(None, -14, -28)


def test_hfk_families():
    for n in range(2, 9):
        assert hfk_minus(2, 2 * n - 1).finite_orders() == (1,) * (n - 1)
        assert hfk_minus(n, n + 1).finite_orders() == tuple(range(1, n))


def test_top_alexander_grading_is_genus():
    for p, q in ((2, 5), (3, 7), (5, 8)):
        module = hfk_minus(p, q)
        genus = (p - 1) * (q - 1) // 2
        tops = [
            t.bottom_alexander + (0 if t.order is None else t.order - 1)
            for t in module.towers
        ]
        assert max(tops) == genus


def test_closed_form_orders_agree():
    for q in range(3, 21):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                assert closed_form_orders(p, q) == hfk_minus(p, q).finite_orders()


def test_euler_characteristic_matches_alexander():
    for p, q in ((2, 3), (3, 8), (4, 9)):
        exps = alexander_exponents(p, q)
        expected = {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)}
        assert euler_characteristic(staircase(p, q)) == expected


def test_graded_matrix_shape():
    sc = staircase(5, 8)
    d = differential(sc)
    m = len(sc.gaps)
    graded = _even_basis_matrix(sc, d, graded=True)
    full = _even_basis_matrix(sc, d, graded=False)
    assert len(graded) == len(full) == m + 1 and len(graded[0]) == len(full[0]) == m
    # the associated graded keeps exactly the U^{g_i} x_{2i} branch
    for i in range(m + 1):
        for j in range(m):
            upper = 1 << sc.gaps[j] if i == j else 0
            assert graded[i][j] == upper
            assert full[i][j] == upper | (1 if i == j + 1 else 0)


# ---- matching


def test_match_t58():
    report = match_invariants(5, 8)
    assert report["transverse_count"] == 4
    assert report["bottom_count"] == 9
    assert report["realized"] == [(14, 0), (4, -6), (-2, -12), (-12, -26)]
    assert len(report["unrealized"]) == 5


def test_match_doubled_family_fills_all_bottoms():
    # T(2, -(2n-1)): the n-1 transverse classes exhaust the torsion bottoms
    for n in range(2, 9):
        report = match_invariants(2, 2 * n - 1)
        assert report["transverse_count"] == report["bottom_count"] == n - 1
        assert report["unrealized"] == []


def test_match_sweep_never_misses():
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                match_invariants(p, q)  # raises if a class misses the bottoms
