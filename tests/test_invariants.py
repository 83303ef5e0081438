"""Classical invariants computed from the surgery diagram."""

import math
from fractions import Fraction

import pytest

from legknots import checks, classify, cli, diagram, invariants
from legknots.diagram import (
    Presentation,
    chains_for,
    enumerate_presentations,
    is_ambient_tight,
    nonvanishing_condition,
)
from legknots.invariants import (
    _linking,
    bigrading,
    classical_invariants,
    d3_surgered,
    presentations_with_invariants,
    smooth_topology,
)
from legknots.linalg import adjugate, det_bareiss
from oracles import coprime_pairs, invariants_oracle, rotation_vector


def _all_fully_positive(p, q):
    tbs1, tbs2 = chains_for(p, q)
    return Presentation(p, q, tuple(-t - 1 for t in tbs1), tuple(-t - 1 for t in tbs2))


# ---- the linking matrix


def test_surgery_matrix_trefoil():
    pres = Presentation(2, 3, (1,), (1, 0))
    # curves: chain1 leader, chain2 leader, chain2 tail, two (+1)-curves
    mat, lk = _linking(2, 3)
    assert mat == [
        [-3, -1, 0, -1, -1],
        [-1, -3, 1, -1, -1],
        [0, 1, -2, 0, 0],
        [-1, -1, 0, 0, -1],
        [-1, -1, 0, -1, 0],
    ]
    assert lk == [-1, -1, 0, -1, -1]
    assert rotation_vector(pres) == [1, 1, 0, 0, 0]


def test_ambient_is_a_homology_sphere():
    for p, q in ((2, 3), (3, 4), (5, 8), (4, 7)):
        assert abs(det_bareiss(_linking(p, q)[0])) == 1


# ---- tb


def test_tb_examples():
    assert classical_invariants(Presentation(2, 3, (1,), (1, 0))).tb == -6
    assert classical_invariants(Presentation(2, 3, (1,), (1, 0), 2, 1)).tb == -9
    assert classical_invariants(_all_fully_positive(5, 8)).tb == -40


def test_tb_formula_small_sweep():
    for p, q in ((2, 5), (3, 4), (3, 5)):
        for level in range(3):
            for pres in enumerate_presentations(p, q, level):
                assert classical_invariants(pres).tb == -p * q - level


# ---- rot


def test_rot_examples():
    assert classical_invariants(_all_fully_positive(2, 3)).rot == -7
    assert classical_invariants(_all_fully_positive(5, 8)).rot == -67
    assert classical_invariants(Presentation(2, 3, (1,), (-1, 0))).rot == 1
    assert classical_invariants(Presentation(2, 3, (-1,), (1, 0))).rot == -1


def test_rot_negates_under_conjugation():
    for pres in enumerate_presentations(3, 4, 1):
        assert classical_invariants(pres.conjugate()).rot == -classical_invariants(pres).rot


def test_balanced_rot_values():
    # balanced presentations realize the extremal tight-ambient rotations
    expected = {
        (2, 3): {-1, 1},
        (2, 5): {-3, -1, 1, 3},
        (3, 4): {-1, 1},
        (3, 5): {-2, 2},
        (5, 8): {-3, 3},
    }
    for (p, q), rots in expected.items():
        got = {
            classical_invariants(pres).rot
            for pres in enumerate_presentations(p, q, 0)
            if is_ambient_tight(pres)
        }
        assert got == rots


# ---- d3


def test_d3_balanced_is_zero():
    for p, q in ((2, 3), (2, 5), (3, 4), (5, 8)):
        for pres in enumerate_presentations(p, q, 0):
            if is_ambient_tight(pres):
                assert classical_invariants(pres).d3 == 0


def test_d3_examples():
    assert classical_invariants(Presentation(2, 3, (1,), (1, 0))).d3 == 2
    assert classical_invariants(_all_fully_positive(5, 8)).d3 == 28


def test_d3_invariant_under_conjugation():
    for pres in enumerate_presentations(3, 5, 0):
        assert classical_invariants(pres.conjugate()).d3 == classical_invariants(pres).d3


def test_d3_of_58_nonvanishing_presentations():
    got = sorted(
        classical_invariants(pres).d3
        for pres in enumerate_presentations(5, 8, 0)
        if nonvanishing_condition(pres)
    )
    assert got == [2, 8, 14, 28]


# ---- bigrading


def test_bigrading_examples():
    assert bigrading(-40, -67, 28) == (14, 0)
    assert bigrading(-6, -7, 2) == (1, 0)
    assert bigrading(-6, -5, 2) == (0, -2)
    assert bigrading(-7, -8, 2) == (1, 0)
    with pytest.raises(ArithmeticError):
        bigrading(-6, -6, 0)


def test_classical_invariants_bundle():
    inv = classical_invariants(_all_fully_positive(5, 8))
    assert (inv.tb, inv.rot, inv.d3) == (-40, -67, 28)
    assert (inv.alexander, inv.maslov) == (14, 0)


def test_t58_nonvanishing_locations():
    got = {
        (inv.alexander, inv.maslov)
        for inv in (
            classical_invariants(pres)
            for pres in enumerate_presentations(5, 8, 0)
            if nonvanishing_condition(pres)
        )
    }
    assert got == {(14, 0), (4, -6), (-2, -12), (-12, -26)}


# ---- surgered d3 and smooth topology


def test_d3_surgered_conjugation_invariant():
    for pres in enumerate_presentations(2, 5, 0):
        conj = classical_invariants(pres.conjugate())
        assert d3_surgered(conj) == d3_surgered(classical_invariants(pres))


def test_d3_surgered_is_a_fraction():
    """The surgered d3 is a fraction over 4s, s = tb - 1, and d3_surgered
    returns it times 4s as an int: here 0 (s = -7) and 5/8 (s = -8)."""
    values = [
        d3_surgered(classical_invariants(Presentation(2, 3, (1,), (1, 0)))),
        d3_surgered(classical_invariants(Presentation(2, 3, (-1,), (-1, 0), 0, 1))),
    ]
    assert values == [0, -32 * Fraction(5, 8)]
    assert all(type(value) is int for value in values)


def _off_by_one_sigma(p, q, kernel=invariants._kernel):
    inverse, w, lk_norm, sigma = kernel(p, q)
    return inverse, w, lk_norm, sigma + 1


def _even_det_adjugate(mat):
    det, adj, minors = adjugate(mat)
    return 2 * det, adj, minors


# One broken input per cross-check: the determinant ratio, the integral
# inverse and the integral d3.
BROKEN = [
    ("det_bareiss", lambda mat: 7, "disagrees with the determinant ratio"),
    ("adjugate", _even_det_adjugate, "non-integral inverse linking matrix"),
    ("_kernel", _off_by_one_sigma, "non-integral normalized d3"),
]


@pytest.mark.parametrize("name,broken,message", BROKEN, ids=[name for name, _, _ in BROKEN])
def test_failed_cross_check_exits_1(capsys, monkeypatch, name, broken, message):
    tables = (invariants._kernel, invariants._rotation_table)
    for fn in tables:
        fn.cache_clear()
    monkeypatch.setattr(invariants, name, broken)
    try:
        assert cli.main(["enumerate", "2", "3", "--quiet"]) == 1
    finally:
        for fn in tables:
            fn.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and message in err


def test_smooth_topology_reports():
    det, h1, lens = smooth_topology(2, 3)
    assert abs(det) == 1
    assert h1 == 7
    assert lens[0] == 7
    for p, q in ((3, 4), (5, 8), (2, 9)):
        det, h1, (num, den) = smooth_topology(p, q)
        u, v = p * q + 1, p * p % (p * q + 1)
        assert abs(det) == 1 and h1 == num == u and den in (v, pow(v, -1, u))


# ---- the per-knot kernel against the per-presentation Fraction oracle


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 8), (2, 9)])
def test_kernel_matches_fraction_oracle(p, q):
    for level in range(4):
        for pres in enumerate_presentations(p, q, level):
            tb, rot, d3, surgered = invariants_oracle(pres)
            inv = classical_invariants(pres)
            assert (inv.tb, inv.rot, inv.d3) == (tb, rot, d3)
            assert bigrading(tb, rot, d3) == (inv.alexander, inv.maslov)
            assert d3_surgered(classical_invariants(pres)) == 4 * (tb - 1) * surgered


def test_classical_invariants_accept_list_rotations():
    # the kernel holds the chain block only; list rotations read it as tuples do
    for pres in enumerate_presentations(5, 8, 1):
        listed = Presentation(5, 8, list(pres.rots1), list(pres.rots2), pres.stab_pos, pres.stab_neg)
        assert classical_invariants(listed) == classical_invariants(pres)


def test_d3_surgered_sweep_matches_fraction_oracle():
    for p, q in coprime_pairs(60):
        for level in range(3):
            for pres in enumerate_presentations(p, q, level):
                tb, _, _, surgered = invariants_oracle(pres)
                assert d3_surgered(classical_invariants(pres)) == 4 * (tb - 1) * surgered


def test_expansions_run_once_per_knot(monkeypatch):
    calls = []
    real = diagram.complementary_expansions

    def counted(params):
        calls.append((params.p, params.q))
        return real(params)

    cached = (diagram.chain_expansions, diagram.chains_for, classify.classify_level)
    monkeypatch.setattr(diagram, "complementary_expansions", counted)
    for fn in cached:
        fn.cache_clear()
    try:
        classify.classify_level(5, 8, 2)
    finally:
        for fn in cached:
            fn.cache_clear()
    assert calls == [(5, 8)]


# ---- one kernel read per rotation vector


def test_shifted_invariants_match_direct_evaluation():
    for p, q in coprime_pairs(60):
        for level in range(5):
            population = enumerate_presentations(p, q, level)
            direct = [(pres, classical_invariants(pres)) for pres in population]
            assert list(presentations_with_invariants(p, q, level)) == direct


def _count_evaluations(monkeypatch):
    calls = []
    real = invariants.classical_invariants

    def counted(pres):
        calls.append(pres)
        return real(pres)

    monkeypatch.setattr(invariants, "classical_invariants", counted)
    return calls


@pytest.fixture
def cold_tables():
    """Empty the per-knot table and classification caches around a test."""
    cached = (invariants._rotation_table, classify.classify_level)
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


def _assert_one_read_per_rotation_vector(calls):
    # T(5, -8) has 12 rotation vectors; every level and split reads the same 12
    assert len(calls) == 12
    assert len({(pres.rots1, pres.rots2) for pres in calls}) == 12
    assert all((pres.stab_pos, pres.stab_neg) == (0, 0) for pres in calls)


def test_classify_reads_kernel_once_per_rotation_vector(monkeypatch, cold_tables):
    calls = _count_evaluations(monkeypatch)
    for level in range(1, 5):
        classes = classify.classify_level(5, 8, level)
        assert sum(cls.size for cls in classes) == 12 * (level + 1)
    for level in range(4):
        assert sum(1 for _ in presentations_with_invariants(5, 8, level)) == 12 * (level + 1)
    _assert_one_read_per_rotation_vector(calls)


def test_enumerate_reads_kernel_once_per_rotation_vector(monkeypatch, cold_tables):
    calls = _count_evaluations(monkeypatch)
    for level in range(4):
        assert cli.main(["enumerate", "5", "8", "--level", str(level), "--quiet"]) == 0
    for level in range(1, 5):
        assert cli.main(["classify", "5", "8", "--level", str(level), "--quiet"]) == 0
    _assert_one_read_per_rotation_vector(calls)


def test_oversized_level_is_refused_before_any_evaluation(monkeypatch, cold_tables):
    calls = _count_evaluations(monkeypatch)
    found = presentations_with_invariants(2, 3, 10**6)
    with pytest.raises(ValueError, match="more than the limit"):
        next(found)
    assert calls == []


def test_tb_contract_samples_first_middle_and_last(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    assert checks.check_tb_contract()[0]
    expected = []
    for p, q in coprime_pairs(120):
        for level in range(6):
            population = list(enumerate_presentations(p, q, level))
            n = len(population)
            expected += [population[idx] for idx in sorted({0, n // 2, n - 1})]
    assert len(expected) == 1890
    assert calls == expected
