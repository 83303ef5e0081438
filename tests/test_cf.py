"""Negative continued fractions, Honda counts, torus-knot parameters."""

import math
from fractions import Fraction

import pytest

from legknots import cf
from legknots.cf import (
    MAX_ENTRIES,
    VerificationError,
    complementary_expansions,
    honda_count,
    merged_lens_entries,
    neg_cf,
    torus_knot_params,
)
from oracles import eval_neg_cf, neg_cf_by_steps


# ---- expansion and evaluation


def test_neg_cf_basic_examples():
    assert neg_cf(8, 5) == (2, 3, 2)
    assert neg_cf(2, 1) == (2,)
    assert neg_cf(7, 1) == (7,)
    assert neg_cf(5, 2) == (3, 2)
    assert neg_cf(5, 4) == (2, 2, 2, 2)


def test_neg_cf_chain_of_twos():
    # (n+1)/n always expands into n copies of 2
    for n in range(1, 13):
        assert neg_cf(n + 1, n) == (2,) * n


def test_neg_cf_rejects_bad_input():
    with pytest.raises(ValueError):
        neg_cf(6, 4)  # common factor
    with pytest.raises(ValueError):
        neg_cf(5, 5)
    with pytest.raises(ValueError):
        neg_cf(3, 7)
    with pytest.raises(ValueError):
        neg_cf(4, 0)


def test_neg_cf_length_cap():
    # n/(n-1) expands to n - 1 twos
    assert neg_cf(MAX_ENTRIES + 1, MAX_ENTRIES) == (2,) * MAX_ENTRIES
    with pytest.raises(ValueError):
        neg_cf(MAX_ENTRIES + 2, MAX_ENTRIES + 1)


def test_neg_cf_matches_the_stepwise_recurrence():
    # runs of 2s are taken in one step; the entries are those of one step each
    for num in range(2, 401):
        for den in range(1, num):
            if math.gcd(num, den) == 1:
                assert neg_cf(num, den) == neg_cf_by_steps(num, den), (num, den)


def test_eval_neg_cf_examples():
    assert eval_neg_cf((2, 3, 2)) == Fraction(8, 5)
    assert eval_neg_cf((3, 2)) == Fraction(5, 2)
    assert eval_neg_cf((4,)) == Fraction(4, 1)


def test_roundtrip_exhaustive_small():
    for num in range(2, 61):
        for den in range(1, num):
            if math.gcd(num, den) != 1:
                continue
            entries = neg_cf(num, den)
            assert all(a >= 2 for a in entries)
            assert eval_neg_cf(entries) == Fraction(num, den)


# ---- Honda's tight-structure count


def test_honda_count_examples():
    assert honda_count(7, 4) == 3  # [2, 4]
    assert honda_count(7, 3) == 2  # [3, 2, 2]
    assert honda_count(3, 1) == 2  # [3]
    assert honda_count(41, 25) == 8  # [2, 5, 3, 2]


def test_honda_count_linear_family():
    # L(u, 1) carries u - 1 tight structures
    for u in range(2, 50):
        assert honda_count(u, 1) == u - 1


def test_honda_count_inversion_symmetric():
    for u in range(3, 61):
        for v in range(1, u):
            if math.gcd(u, v) == 1:
                assert honda_count(u, v) == honda_count(u, pow(v, -1, u))


def test_honda_count_rejects():
    with pytest.raises(ValueError):
        honda_count(6, 3)
    with pytest.raises(ValueError):
        honda_count(4, 5)


# ---- torus-knot parameters


def test_params_trefoil():
    params = torus_knot_params(2, 3)
    assert (params.n, params.k, params.c, params.d) == (2, 1, 1, 0)
    assert (params.p_prime, params.q_prime) == (1, 2)
    assert params.genus == 1


def test_params_5_8():
    params = torus_knot_params(5, 8)
    assert (params.n, params.k, params.c, params.d) == (2, 2, 3, 1)
    assert (params.p_prime, params.q_prime) == (3, 5)
    assert params.genus == 14
    assert params.seifert_constants == ((2, 5), (5, 8))
    assert params.chain1_coefficient == (-5, 2)
    assert params.chain2_coefficient == (-8, 5)


def test_params_unimodular_everywhere():
    for q in range(3, 61):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            params = torus_knot_params(p, q)
            assert p * params.q_prime - q * params.p_prime == 1
            assert params.q_prime >= 2
            assert 0 < params.c < p
            assert params.d >= 0
            assert (params.d == 0) == (params.k == 1)


def test_params_rejects():
    with pytest.raises(ValueError):
        torus_knot_params(4, 6)
    with pytest.raises(ValueError):
        torus_knot_params(3, 2)
    with pytest.raises(ValueError):
        torus_knot_params(1, 5)


# ---- complementary expansions


def test_complementary_examples():
    assert complementary_expansions(torus_knot_params(2, 3)) == ((2,), (2, 2))
    assert complementary_expansions(torus_knot_params(3, 4)) == ((3,), (2, 2, 2))
    assert complementary_expansions(torus_knot_params(5, 8)) == ((3, 2), (2, 3, 2))


def test_complementary_identity_and_shape():
    for q in range(3, 81):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            params = torus_knot_params(p, q)
            cf1, cf2 = complementary_expansions(params)
            assert cf2[-1] == params.n
            assert len(cf2) >= 2
            assert 2 in (cf1[0], cf2[0])
            assert 1 / eval_neg_cf(cf1) + 1 / eval_neg_cf(cf2[:-1]) == 1


# the trefoil expands neg_cf(2, 1) = (2,) and neg_cf(3, 2) = (2, 2), with n = 2;
# entries below 2 let [3, 1] = 3 - 1/1 = 2 stand in for the leader 2
@pytest.mark.parametrize(
    "cf1, cf2, message",
    [
        ((2,), (2, 3), r"second expansion does not end in n=2: \(2, 3\)"),
        ((2,), (2,), r"second expansion too short: \(2,\)"),
        ((3,), (2, 2), r"expansions not complementary: \(3,\) / \(2, 2\)"),
        ((3, 1), (3, 1, 2), r"no leading 2 in \(3, 1\) / \(3, 1, 2\)"),
    ],
    ids=["last-entry", "too-short", "not-complementary", "no-leading-2"],
)
def test_complementary_expansions_refuse_bad_expansions(monkeypatch, cf1, cf2, message):
    params = torus_knot_params(2, 3)
    monkeypatch.setattr(cf, "neg_cf", lambda num, den: {(2, 1): cf1, (3, 2): cf2}[num, den])
    with pytest.raises(VerificationError, match=message):
        complementary_expansions(params)


def test_merged_lens_entries():
    assert merged_lens_entries((2,), (2, 2)) == ((4, 2))
    assert merged_lens_entries((3, 2), (2, 3, 2)) == (2, 5, 3, 2)


def test_merged_entries_present_the_lens_space():
    # the merged chain is a surgery description of L(pq+1, p^2)
    for q in range(3, 41):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            value = eval_neg_cf(
                merged_lens_entries(*complementary_expansions(torus_knot_params(p, q)))
            )
            u = p * q + 1
            v = p * p % u
            assert value.numerator == u
            assert value.denominator in (v, pow(v, -1, u))
