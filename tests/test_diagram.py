"""Surgery presentations: chains, rotation bookkeeping, enumeration."""

import math

import pytest

from legknots import diagram
from legknots.diagram import (
    Presentation,
    chain_tbs,
    chains_for,
    enumerate_presentations,
    is_ambient_tight,
    leader_extremes,
    nonvanishing_condition,
    rotation_range,
    validate_presentation,
)
from oracles import (
    ambient_tight_by_unknots,
    coprime_pairs,
    is_fully_negative,
    is_fully_positive,
    leader_extremes_by_unknots,
)


# ---- chain expansion


def test_chain_tbs():
    assert chain_tbs((2,)) == (-2,)
    assert chain_tbs((3, 2)) == (-3, -1)
    assert chain_tbs((2, 3, 2)) == (-2, -2, -1)


def test_rotation_range():
    assert list(rotation_range(-1)) == [0]
    assert list(rotation_range(-2)) == [-1, 1]
    assert list(rotation_range(-3)) == [-2, 0, 2]
    with pytest.raises(ValueError):
        rotation_range(0)


def test_extremes():
    assert is_fully_positive(1, -2) and not is_fully_negative(1, -2)
    assert is_fully_negative(-1, -2)
    assert is_fully_positive(0, -1) and is_fully_negative(0, -1)


def test_chains_for():
    assert chains_for(2, 3) == ((-2,), (-2, -1))
    assert chains_for(5, 8) == ((-3, -1), (-2, -2, -1))
    assert chains_for(3, 4) == ((-3,), (-2, -1, -1))


# ---- presentations


def test_enumeration_counts():
    assert len(list(enumerate_presentations(2, 3, 0))) == 4
    assert len(list(enumerate_presentations(2, 3, 1))) == 8
    assert len(list(enumerate_presentations(5, 8, 0))) == 12  # 3*1*2*2*1
    for p, q, level in ((2, 7, 2), (3, 5, 1), (4, 5, 3)):
        tbs1, tbs2 = chains_for(p, q)
        expected = (level + 1) * math.prod(-tb for tb in tbs1 + tbs2)
        assert len(list(enumerate_presentations(p, q, level))) == expected


def test_enumeration_refuses_oversized_requests(monkeypatch):
    # the largest admitted T(2, -3) request, 4 * 20000 presentations, peaks at
    # 424 MB with --json (see diagram.MAX_PRESENTATIONS)
    assert diagram.MAX_PRESENTATIONS == 80_000
    assert next(enumerate_presentations(2, 3, 19999)).level == 19999
    message = "80004 presentations at level 20000, more than the limit of 80000"
    with pytest.raises(ValueError, match=message):
        diagram.rotation_vectors(2, 3, 20000)  # refused on the call, before any work
    with pytest.raises(ValueError, match=message):
        next(enumerate_presentations(2, 3, 20000))
    # T(2, -3) at level 2 has 4 * 3 = 12 presentations
    monkeypatch.setattr(diagram, "MAX_PRESENTATIONS", 12)
    assert len(list(enumerate_presentations(2, 3, 2))) == 12
    monkeypatch.setattr(diagram, "MAX_PRESENTATIONS", 11)
    with pytest.raises(ValueError, match="more than the limit of 11"):
        next(enumerate_presentations(2, 3, 2))


def test_long_chains_are_refused_before_any_work():
    # T(n, -(n+1)) has n + 3 surgery curves: T(61, -62) is the longest admitted
    assert sum(map(len, chains_for(61, 62))) + 2 == diagram.MAX_CURVES == 64
    with pytest.raises(ValueError, match="has 65 surgery curves, more than the limit of 64"):
        chains_for(62, 63)
    # 64 curves get 5/64 of MAX_PRESENTATIONS, 6250; T(61, -62) has 122 rotation vectors
    assert len(list(diagram.rotation_vectors(61, 62, 50))) == 122
    with pytest.raises(ValueError, match="6344 presentations at level 51, more than the limit of 6250"):
        diagram.rotation_vectors(61, 62, 51)


def test_enumeration_is_valid_and_unique():
    seen = set()
    for pres in enumerate_presentations(3, 5, 2):
        validate_presentation(pres)
        assert pres.level == 2
        seen.add(pres)
    assert len(seen) == len(list(enumerate_presentations(3, 5, 2)))


def test_conjugate_involution():
    pres = Presentation(5, 8, (0, 0), (1, -1, 0), 2, 1)
    conj = pres.conjugate()
    assert conj.rots1 == (0, 0) and conj.rots2 == (-1, 1, 0)
    assert (conj.stab_pos, conj.stab_neg) == (1, 2)
    assert conj.conjugate() == pres


def test_stabilize():
    pres = Presentation(2, 3, (1,), (1, 0))
    stab = pres.stabilize(pos=1, neg=2)
    assert (stab.stab_pos, stab.stab_neg, stab.level) == (1, 2, 3)
    with pytest.raises(ValueError):
        pres.stabilize(pos=-1)


def test_validate_rejects_bad_rotation():
    with pytest.raises(ValueError):
        validate_presentation(Presentation(2, 3, (2,), (1, 0)))
    with pytest.raises(ValueError):
        validate_presentation(Presentation(2, 3, (1,), (0, 0)))
    with pytest.raises(ValueError, match=r"chain length mismatch: \(1, 0\) for tbs \(-2,\)"):
        validate_presentation(Presentation(2, 3, (1, 0), (1, 0)))


@pytest.mark.parametrize("stabs", [(-1, 0), (0, -1)], ids=["positive", "negative"])
def test_validate_rejects_negative_stabilizations(stabs):
    with pytest.raises(ValueError, match="stabilization counts are nonnegative"):
        validate_presentation(Presentation(2, 3, (1,), (1, 0), *stabs))


# ---- distinguished shapes


def test_ambient_tight_examples():
    # chain1 extreme one way, chain2 extreme the other through its
    # next-to-last curve; the last chain-2 curve and the knot are free
    assert is_ambient_tight(Presentation(2, 3, (1,), (-1, 0)))
    assert is_ambient_tight(Presentation(2, 3, (-1,), (1, 0)))
    assert not is_ambient_tight(Presentation(2, 3, (1,), (1, 0)))
    assert not is_ambient_tight(Presentation(2, 3, (-1,), (-1, 0)))
    assert is_ambient_tight(Presentation(5, 8, (2, 0), (-1, -1, 0)))
    assert not is_ambient_tight(Presentation(5, 8, (2, 0), (-1, 1, 0)))
    assert is_ambient_tight(Presentation(2, 3, (1,), (-1, 0), 3, 2))


def test_shape_predicates_match_their_per_unknot_definitions():
    count = 0
    for p, q in coprime_pairs(120):
        for pres in enumerate_presentations(p, q, 0):
            assert is_ambient_tight(pres) == ambient_tight_by_unknots(pres), pres
            assert leader_extremes(pres) == leader_extremes_by_unknots(pres), pres
            count += 1
    assert count == 4048


def test_shape_predicates_accept_list_rotations():
    shapes = (((2, 0), (-1, -1, 0)), ((2, 0), (-1, 1, 0)), ((-2, 0), (1, 1, 0)), ((0, 0), (1, -1, 0)))
    for rots1, rots2 in shapes:
        pres = Presentation(5, 8, rots1, rots2)
        listed = Presentation(5, 8, list(rots1), list(rots2))
        assert is_ambient_tight(listed) == is_ambient_tight(pres)
        assert leader_extremes(listed) == leader_extremes(pres)


def test_balanced_count_is_2n_minus_2():
    # the free last curve of chain 2 has tb = -n + 1, giving n - 1 choices
    # per extremity side
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (5, 8), (4, 7)):
        n = -(-q // p)
        balanced = [
            pres for pres in enumerate_presentations(p, q, 0) if is_ambient_tight(pres)
        ]
        assert len(balanced) == 2 * (n - 1)
        for pres in balanced:
            assert is_ambient_tight(pres.conjugate())


def test_nonvanishing_examples():
    assert nonvanishing_condition(Presentation(2, 3, (1,), (1, 0)))
    assert not nonvanishing_condition(Presentation(2, 3, (-1,), (1, 0)))
    assert not nonvanishing_condition(Presentation(2, 3, (1,), (-1, 0)))
    with pytest.raises(ValueError):
        nonvanishing_condition(Presentation(2, 3, (1,), (1, 0), 1, 0))


def test_nonvanishing_count_formula():
    # (|tb1| - 1)(|tb2| - 1) * (free tail choices): leaders just avoid the
    # fully negative rotation
    for p, q, expected in ((2, 3, 1), (2, 5, 2), (3, 4, 2), (4, 5, 3), (5, 8, 4), (2, 9, 4)):
        count = sum(
            1 for pres in enumerate_presentations(p, q, 0) if nonvanishing_condition(pres)
        )
        assert count == expected
