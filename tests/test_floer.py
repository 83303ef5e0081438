"""Staircase complexes, tower decompositions, invariant matching."""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legknots import floer
from legknots.cf import VerificationError
from legknots.floer import (
    MAX_PQ,
    StaircaseComplex,
    Tower,
    _check_towers,
    alexander_exponents,
    closed_form_orders,
    differential,
    euler_characteristic,
    hfk_minus,
    match_invariants,
    squares_to_zero,
    staircase,
)
from oracles import (
    alexander_exponents_by_division,
    associated_graded,
    bigraded_homology_dims,
    coprime_pairs,
    smith_invariant_factors,
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


def _sparse(mat: list[list[int]]) -> list[dict[int, int]]:
    """A dense matrix as the sparse rows smith_invariant_factors takes."""
    return [{j: e for j, e in enumerate(row) if e} for row in mat]


def _presentation(sc, graded: bool) -> list[list[int]]:
    """The dense (m+1) x m map (odd generators) -> (even-generator span),
    rows x_0, x_2, ..., x_{2m}; with graded=True only the A-preserving terms."""
    alexander = [a for a, _ in sc.gradings]
    d = differential(sc)
    mat = [[0] * len(d) for _ in range(len(d) + 1)]
    for j, c in enumerate(sorted(d)):
        for r, entry in d[c].items():
            if not graded or alexander[r] - (entry.bit_length() - 1) == alexander[c]:
                mat[r // 2][j] = entry
    return mat


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


def test_alexander_matches_division_oracle():
    pairs = coprime_pairs(2000) + [(2, MAX_PQ // 2 - 1), (97, 103)]
    assert len(pairs) == 3408
    for p, q in pairs:
        assert alexander_exponents(p, q) == alexander_exponents_by_division(p, q), (p, q)


def test_alexander_rejects():
    with pytest.raises(ValueError):
        alexander_exponents(3, 3)
    with pytest.raises(ValueError):
        alexander_exponents(4, 3)
    with pytest.raises(ValueError, match="gcd"):
        alexander_exponents(2, 4)
    with pytest.raises(ValueError, match="limit"):
        alexander_exponents(2, 100001)  # refused before any work
    assert len(alexander_exponents(2, MAX_PQ // 2 - 1)) == MAX_PQ // 2 - 1  # largest allowed


_semigroup_marks = floer._semigroup_marks


def _marks_from_one(p, q, top):
    marks = bytearray(top + 1)
    for start in range(1, top + 1, q):
        marks[start::p] = b"\x01" * len(range(start, top + 1, p))
    return marks


def _marks_without_last_multiple_of_q(p, q, top):
    marks = bytearray(top + 1)
    for start in range(0, top + 1, q)[:-1]:
        marks[start::p] = b"\x01" * len(range(start, top + 1, p))
    return marks


def _marks_with_first_gap_swapped(p, q, top):
    marks = _semigroup_marks(p, q, top)
    k = marks.index(0)
    j = marks.index(1, k)  # the first element of S past the first gap
    marks[k], marks[j] = marks[j], marks[k]
    return marks


@pytest.mark.parametrize(
    "mutation, p, q",
    [
        (_marks_from_one, 3, 7),
        (_marks_without_last_multiple_of_q, 3, 7),
        (_marks_without_last_multiple_of_q, 5, 8),
        (_marks_with_first_gap_swapped, 2, 5),
        (_marks_with_first_gap_swapped, 5, 8),
    ],
)
def test_mutated_semigroup_table_raises(monkeypatch, mutation, p, q):
    # a table other than S changes the polynomial (1 - t) * sum of t^s, which
    # the division oracle would refuse; the recurrence check must refuse it
    top = (p - 1) * (q - 1)
    assert mutation(p, q, top) != _semigroup_marks(p, q, top)
    monkeypatch.setattr(floer, "_semigroup_marks", mutation)
    with pytest.raises(VerificationError, match="breaks the semigroup's recurrence"):
        alexander_exponents(p, q)


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
    factors = smith_invariant_factors(_sparse([[1 << 2, 0], [0, 1 << 3]]))
    assert sorted(f.bit_length() - 1 for f in factors) == [2, 3]


def test_smith_explicit_zero_and_empty_row():
    # an entry given as 0 is a zero entry, not U^-1
    assert smith_invariant_factors([{0: 1 << 2, 1: 0}, {1: 1 << 3}]) == [1 << 2, 1 << 3]
    mat = [[0, 0], [0b10, 1 << 3]]
    assert smith_invariant_factors([{}, {0: 0b10, 1: 1 << 3}]) == dense_smith(mat) == [0b10]


def test_smith_preserves_divisibility_chain():
    mat = [[0b10, 0], [1, 0b1000]]
    factors = smith_invariant_factors(_sparse(mat))
    assert factors == dense_smith(mat) == [1, 0b10000]
    for first, second in zip(factors, factors[1:]):
        assert poly_divmod(second, first)[1] == 0


def test_smith_unit_row():
    assert smith_invariant_factors(_sparse([[1, 1 << 4]])) == [1]
    assert smith_invariant_factors(_sparse([[0, 0], [0, 0]])) == []
    assert smith_invariant_factors(_sparse([])) == []


def test_smith_rejects_non_graded_input():
    with pytest.raises(VerificationError):
        smith_invariant_factors(_sparse([[1, 1], [1, 0b10]]))  # the elimination makes 1 + U
    with pytest.raises(VerificationError):
        smith_invariant_factors(_sparse([[0b11]]))  # 1 + U is not a monomial


def test_smith_same_degree_fill_in():
    # a row operation that makes an entry of the pivot's own degree must be
    # eliminated in the same pass; read in row-major order from either end,
    # one of these four arrangements makes such an entry
    for mat in ([[1, 1], [1, 0]], [[0, 1], [1, 1]], [[1, 0], [1, 1]], [[1, 1], [0, 1]]):
        assert smith_invariant_factors(_sparse(mat)) == dense_smith(mat) == [1, 1], mat


def test_smith_row_cancelled_to_zero():
    # the second row cancels completely: the degrees run out while it is left
    assert smith_invariant_factors(_sparse([[1, 1], [1, 1]])) == [1]
    assert smith_invariant_factors(_sparse([[0b10, 1 << 3], [0b10, 1 << 3], [0, 0]])) == [0b10]


def test_smith_full_staircase_at_the_cap():
    # one unit per row; in the reverse row order every pivot fills in the
    # first column with a new degree, left stale once the rows run out
    for p, q in ((2, MAX_PQ // 2 - 1), (97, 103)):
        rows = list(differential(staircase(p, q)).values())
        for order in (rows, rows[::-1]):
            assert smith_invariant_factors(order) == [1] * len(rows), (p, q)


def test_smith_rejects_non_graded_fill_in():
    # determinant 1 + U, so every pivot order must fail; in the order given
    # the first pivot fills in row 0 at degree 0, and eliminating with that
    # entry would put U + 1 at row 1, column 2
    mat = [[0, 1, 1], [0, 0b10, 1], [1, 1, 0]]
    for perm in itertools.permutations(mat):
        with pytest.raises(VerificationError, match="non-monomial"):
            smith_invariant_factors(_sparse(list(perm)))


def test_smith_matches_oracle_on_staircases():
    for q in range(3, 21):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            sc = staircase(p, q)
            d = differential(sc)
            # the differential's columns, read as rows, are the presentation's transpose
            for graded, rows in ((True, associated_graded(sc, d)), (False, list(d.values()))):
                mat = _presentation(sc, graded)
                expected = dense_smith(mat)
                assert smith_invariant_factors(_sparse(mat)) == expected, (p, q, graded)
                assert smith_invariant_factors(rows) == expected, (p, q, graded)


@st.composite
def graded_matrices(draw):
    """Monomial matrices with row weights r_i and column weights c_j: entry
    (i, j) is 0 or U^(c_j - r_i), so every row operation keeps the grading.
    Few distinct weights make same-degree fill-in common."""
    row_weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    col_weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    return [
        [1 << (c - r) if c >= r and draw(st.booleans()) else 0 for c in col_weights]
        for r in row_weights
    ]


@settings(max_examples=300, deadline=None)
@given(graded_matrices())
def test_smith_matches_dense_oracle(mat):
    factors = smith_invariant_factors(_sparse(mat))
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
                assert closed_form_orders(alexander_exponents(p, q)) == hfk_minus(p, q).finite_orders()


def test_euler_characteristic_matches_alexander():
    for p, q in ((2, 3), (3, 8), (4, 9)):
        exps = alexander_exponents(p, q)
        expected = {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)}
        assert euler_characteristic(staircase(p, q)) == expected


def test_graded_matrix_shape():
    sc = staircase(5, 8)
    d = differential(sc)
    m = len(sc.gaps)
    graded = associated_graded(sc, d)
    full = list(d.values())
    assert len(graded) == len(full) == m  # one row per odd generator x_{2j+1}
    # the associated graded keeps exactly the U^{g_i} x_{2i} branch
    for i in range(m + 1):
        for j in range(m):
            upper = 1 << sc.gaps[j] if i == j else 0
            assert graded[j].get(2 * i, 0) == upper
            assert full[j].get(2 * i, 0) == upper | (1 if i == j + 1 else 0)
    assert all(r % 2 == 0 for row in full for r in row)  # no odd generator is hit


def test_hfk_at_the_cap_stays_small():
    for p, q in ((2, MAX_PQ // 2 - 1), (97, 103)):
        hfk_minus.cache_clear()
        tracemalloc.start()
        try:
            module = hfk_minus(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (p, q, peak)
        genus = (p - 1) * (q - 1) // 2
        assert module.finite_orders() == closed_form_orders(alexander_exponents(p, q))
        assert module.towers[-1] == Tower(None, -genus, -2 * genus)


def test_hfk_keeps_only_its_towers():
    # the cache of hfk_minus is the only state the Floer layer keeps: about
    # 36 kB per knot on these pairs (Python 3.10-3.13 on x86-64), where
    # caching the exponents and the staircase as well held 120 kB
    pairs = [(p, q) for p, q in coprime_pairs(2000) if p * q >= 1500][::49]
    assert len(pairs) == 21
    hfk_minus.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p, q in pairs:
            hfk_minus(p, q)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(pairs) < 50_000, retained / len(pairs)


# ---- the tower check inside hfk_minus

SMALL_PAIRS = [
    (p, q) for q in range(3, 301) for p in range(2, q) if p * q <= 600 and math.gcd(p, q) == 1
]


def _hfk_with_towers(monkeypatch, p, q, mutate):
    """hfk_minus(p, q), uncached, with each tower it builds replaced by
    mutate(index, tower)."""
    built = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(floer, "Tower", lambda *fields: mutate(next(built), Tower(*fields)))
        return hfk_minus.__wrapped__(p, q)


def test_tower_check_accepts_small_pairs(monkeypatch):
    assert len(SMALL_PAIRS) == 805
    for p, q in SMALL_PAIRS:
        assert _hfk_with_towers(monkeypatch, p, q, lambda _, tower: tower) == hfk_minus(p, q)


def test_reversed_gaps_towers_raise(monkeypatch):
    # each torsion tower keeps its top x_{2i} but takes the gaps in reverse
    # order: the orders keep their multiset, which the closed form compares
    mutated = 0
    for p, q in SMALL_PAIRS:
        gaps = staircase(p, q).gaps
        if gaps == gaps[::-1]:
            continue

        def reverse(i, tower):
            if tower.order is None:
                return tower
            order = gaps[-1 - i]
            top_a = tower.bottom_alexander + tower.order - 1
            top_m = tower.bottom_maslov + 2 * tower.order - 2
            return Tower(order, top_a - order + 1, top_m - 2 * order + 2)

        with pytest.raises(VerificationError, match="homology of d"):
            _hfk_with_towers(monkeypatch, p, q, reverse)
        mutated += 1
    assert mutated == 656


@pytest.mark.parametrize("step", (1, -1))
def test_shifted_first_bottom_raises(monkeypatch, step):
    def shift(i, tower):
        if i:
            return tower
        return Tower(tower.order, tower.bottom_alexander + step, tower.bottom_maslov + 2 * step)

    for p, q in SMALL_PAIRS:
        with pytest.raises(VerificationError, match="homology of d"):
            _hfk_with_towers(monkeypatch, p, q, shift)


@pytest.mark.parametrize(
    "column, message",
    [
        ({0: 0b100, 2: 1}, "homology of d"),  # the graded entry one degree too high
        ({0: 1, 2: 1}, "homology of d"),  # one degree too low
        ({2: 1}, "homology of d"),  # the graded entry dropped
        ({0: 0b10, 2: 0b10}, "sphere"),  # the unit entry made U
        ({0: 0b10}, "sphere"),  # the unit entry dropped
        ({0: 0b11, 2: 1}, "sphere"),  # an entry that is not a monomial
    ],
)
def test_mutated_differential_raises(monkeypatch, column, message):
    # d(x_1) = U x_0 + x_2 in T(5, 8) is replaced by column.  The Smith forms
    # of the oracles see each change (the graded one or the full one raises,
    # or stops matching the closed form or the sphere), and so must hfk_minus.
    sc = staircase(5, 8)
    d = {**differential(sc), 1: column}
    try:
        graded = sorted(f.bit_length() - 1 for f in smith_invariant_factors(associated_graded(sc, d)))
        full = smith_invariant_factors(list(d.values()))
        assert graded != list(closed_form_orders(alexander_exponents(5, 8))) or full != [1] * len(d)
    except VerificationError:
        pass
    monkeypatch.setattr(floer, "differential", lambda _: d)
    with pytest.raises(VerificationError, match=message):
        hfk_minus.__wrapped__(5, 8)


def test_tower_mismatch_names_the_tower():
    sc = staircase(2, 3)  # towers (1, 1, 0) and (None, -1, -2); the first moved up one U-step
    with pytest.raises(VerificationError) as exc:
        _check_towers(sc, differential(sc), (Tower(1, 2, 2), Tower(None, -1, -2)))
    assert str(exc.value) == (
        "T(2, 3): tower of order 1 at bottom (A, M) = (2, 2) does not match the "
        "homology of d on its U-line (top 1, highest boundary 0)"
    )


def test_tower_check_needs_distinct_m_minus_2a():
    # two generators on one U-line would put two basis elements in a bidegree
    twins = StaircaseComplex(2, 3, ((1, 0), (1, 0), (-1, -2)), (1,))
    with pytest.raises(VerificationError, match="share M - 2A"):
        _check_towers(twins, {}, ())


@pytest.fixture
def cold_hfk():
    """hfk_minus with its cache cleared before and after the test's patch."""
    hfk_minus.cache_clear()
    yield hfk_minus
    hfk_minus.cache_clear()


@pytest.mark.parametrize(
    "name, fake, message",
    [
        # the trefoil's exponents are (1, 0, -1), its differential {1: {0: U, 2: 1}}
        ("alexander_exponents", lambda p, q: (1, 1, -1), "nonpositive staircase gap"),
        ("alexander_exponents", lambda p, q: (1, 0, -2), r"does not end at \(-g, -2g\)"),
        ("differential", lambda _: {1: {0: 0b10, 2: 1}, 2: {3: 1}}, "does not square to zero"),
        ("differential", lambda _: {}, "not the homology of the sphere"),  # 3 generators, 0 columns
        ("closed_form_orders", lambda _: (2,), r"torsion orders disagree for T\(2, 3\): towers \(1,\)"),
        ("euler_characteristic", lambda _: {}, "Euler characteristic does not match"),
    ],
    ids=["gap", "staircase-end", "d-squared", "sphere-generators", "closed-form", "euler"],
)
def test_failed_hfk_cross_check_raises(monkeypatch, cold_hfk, name, fake, message):
    monkeypatch.setattr(floer, name, fake)
    with pytest.raises(VerificationError, match=message):
        cold_hfk(2, 3)


# ---- bigraded dimensions: an F_2-rank check of the tower bottoms


def _tower_dims(towers, floor: int) -> dict[tuple[int, int], int]:
    """Bigraded F_2-dimensions the tower list predicts for A >= floor: a
    torsion tower of order n fills its bottom and the n - 1 bidegrees
    (A + j, M + 2j) above it, the free tower its generator and everything
    below it."""
    dims: dict[tuple[int, int], int] = {}
    for t in towers:
        a, m = t.bottom_alexander, t.bottom_maslov
        steps = range(t.order) if t.order is not None else range(0, floor - a - 1, -1)
        for j in steps:
            dims[a + j, m + 2 * j] = dims.get((a + j, m + 2 * j), 0) + 1
    return dims


def test_bigraded_dims_match_towers_sweep():
    for q in range(3, 16):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            sc = staircase(p, q)
            floor = -((p - 1) * (q - 1) // 2)
            dims = bigraded_homology_dims(sc.gradings, differential(sc))
            assert dims == _tower_dims(hfk_minus(p, q).towers, floor), (p, q)


def test_bigraded_dims_pin_t58_bottoms():
    # the fixed T(5, 8) tower list: orders and bottoms, and the free tower at (-14, -28)
    towers = [
        Tower(order, a, m)
        for order, (a, m) in zip(
            (1, 1, 1, 1, 1, 2, 1, 2, 4),
            ((14, 0), (9, -2), (6, -4), (4, -6), (1, -8),
             (-2, -12), (-4, -14), (-7, -18), (-12, -26)),
        )
    ] + [Tower(None, -14, -28)]
    sc = staircase(5, 8)
    dims = bigraded_homology_dims(sc.gradings, differential(sc))
    assert dims == _tower_dims(towers, -14)
    # the four transverse classes of T(5, -8) sit where the homology is nonzero
    for bottom in ((14, 0), (4, -6), (-2, -12), (-12, -26)):
        assert dims[bottom] == 1


# ---- matching


def test_match_t58():
    realized, unrealized = match_invariants(5, 8)
    assert len(realized) == 4
    assert len(realized) + len(unrealized) == 9
    assert realized == [(14, 0), (4, -6), (-2, -12), (-12, -26)]
    assert len(unrealized) == 5


def test_match_doubled_family_fills_all_bottoms():
    # T(2, -(2n-1)): the n-1 transverse classes exhaust the torsion bottoms
    for n in range(2, 9):
        realized, unrealized = match_invariants(2, 2 * n - 1)
        assert len(realized) == len(realized) + len(unrealized) == n - 1
        assert unrealized == []


def test_match_sweep_never_misses():
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                match_invariants(p, q)  # raises if a class misses the bottoms


def test_match_refuses_a_class_off_the_bottoms(monkeypatch, cold_hfk):
    real = floer.transverse_classes(5, 8)
    moved = real[0]._replace(invariants=real[0].invariants._replace(alexander=99))
    monkeypatch.setattr(floer, "transverse_classes", lambda p, q: (moved, *real[1:]))
    with pytest.raises(VerificationError, match=r"T\(5, -8\) away from tower bottoms: \[\(99, -26\)\]"):
        match_invariants(5, 8)


def test_match_refuses_two_classes_at_one_bottom(monkeypatch, cold_hfk):
    real = floer.transverse_classes(5, 8)
    monkeypatch.setattr(floer, "transverse_classes", lambda p, q: real + real[:1])
    with pytest.raises(VerificationError, match=r"two transverse classes of T\(5, -8\) share a location"):
        match_invariants(5, 8)
