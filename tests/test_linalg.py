"""Integer determinants and adjugates, and the Fraction oracles behind them."""

import random
from fractions import Fraction

import pytest

from legknots.linalg import adjugate, det_bareiss
from oracles import signature_symmetric, solve_fraction


def _det_gauss(matrix):
    """Independent determinant via fraction-free-less Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def test_det_small_cases():
    assert det_bareiss([]) == 1
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_bareiss([[1, 2], [2, 4]]) == 0


def test_det_needs_pivoting():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_bareiss([[0, 1], [0, 2]]) == 0  # no row below the zero pivot to swap in


@pytest.mark.parametrize("function", [det_bareiss, adjugate])
def test_non_square_matrices_are_refused(function):
    with pytest.raises(ValueError, match="matrix must be square"):
        function([[1, 2, 3], [4, 5, 6]])


def test_det_matches_gaussian_oracle():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(30):
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(m) == _det_gauss(m)


def _leading_minors(m):
    return [det_bareiss([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def test_adjugate_small_cases():
    assert adjugate([]) == (1, [], ())
    assert adjugate([[5]]) == (5, [[1]], (5,))
    assert adjugate([[1, 2], [3, 4]]) == (-2, [[4, -2], [-3, 1]], (1, -2))


def test_adjugate_matches_fraction_oracle():
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 6)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        minors = _leading_minors(m)
        if 0 in minors:
            continue
        det, adj, got = adjugate(m)
        assert det == minors[-1] and list(got) == minors
        for j in range(n):
            unit = [int(i == j) for i in range(n)]
            assert [det * x for x in solve_fraction(m, unit)] == [row[j] for row in adj]
        checked += 1


def test_adjugate_zero_leading_minor_raises():
    with pytest.raises(ArithmeticError):
        adjugate([[0, 1], [1, 0]])
    with pytest.raises(ArithmeticError):
        adjugate([[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_solve_fraction():
    x = solve_fraction([[2, 0], [0, 4]], [1, 2])
    assert x == [Fraction(1, 2), Fraction(1, 2)]
    a = [[3, 1, 0], [1, -2, 2], [0, 2, 5]]
    b = [1, 0, -3]
    x = solve_fraction(a, b)
    for row, rhs in zip(a, b):
        assert sum(c * xi for c, xi in zip(row, x)) == rhs


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        solve_fraction([[1, 1], [2, 2]], [1, 1])


def test_signature_diagonal_and_hyperbolic():
    assert signature_symmetric([[2, 0], [0, -3]]) == 0
    assert signature_symmetric([[1, 0, 0], [0, 1, 0], [0, 0, -1]]) == 1
    assert signature_symmetric([[0, 1], [1, 0]]) == 0
    assert signature_symmetric([[-2, 1], [1, -2]]) == -2
    assert signature_symmetric([[0, 0], [0, 0]]) == 0


def test_signature_congruence_invariant():
    # S^T A S has the signature of A whenever S is invertible
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
        s = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det_bareiss(s) == 0:
            continue
        sas = [
            [
                sum(s[k][i] * a[k][l] * s[l][j] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert signature_symmetric(sas) == signature_symmetric(a)


def test_signature_negative_definite_chain():
    # linear plumbing with all weights <= -2 is negative definite
    for length in range(1, 8):
        a = [[0] * length for _ in range(length)]
        for i in range(length):
            a[i][i] = -2 - (i % 3)
            if i + 1 < length:
                a[i][i + 1] = a[i + 1][i] = 1
        assert signature_symmetric(a) == -length
