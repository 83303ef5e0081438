"""Coarse classification and the transverse quotient."""

import pytest

from legknots import classify
from legknots.classify import (
    EquivClass,
    ambient_tight_class_count,
    classify_level,
    looseness_verdict,
    positive_stab_looseness,
    transverse_classes,
)
from legknots.diagram import (
    Presentation,
    enumerate_presentations,
    is_ambient_tight,
    nonvanishing_condition,
)
from legknots.invariants import classical_invariants
from oracles import class_partition, coprime_pairs, transverse_partition


def _class_index(p, q, level):
    """Presentation -> its class in the level-`level` partition."""
    partition = class_partition(p, q, level)
    return {
        pres: cls
        for cls in classify_level(p, q, level)
        for pres in partition[cls.representative]
    }


# ---- verdicts


def test_verdicts_trefoil_level0():
    assert looseness_verdict(Presentation(2, 3, (1,), (-1, 0))) == "tight"
    assert looseness_verdict(Presentation(2, 3, (1,), (1, 0))) == "strongly_nonloose"
    assert looseness_verdict(Presentation(2, 3, (-1,), (-1, 0))) == "strongly_nonloose"


def test_verdict_mixed_stabilizations_go_loose():
    pres = Presentation(2, 3, (1,), (1, 0), 1, 1)
    assert looseness_verdict(pres) == "loose"


def test_verdict_follows_surviving_sign():
    nonvan = Presentation(2, 3, (1,), (1, 0))
    assert looseness_verdict(nonvan.stabilize(neg=4)) == "strongly_nonloose"
    assert looseness_verdict(nonvan.stabilize(pos=1)) == "loose"
    # the conjugate survives positive stabilization instead
    assert looseness_verdict(nonvan.conjugate().stabilize(pos=4)) == "strongly_nonloose"
    assert looseness_verdict(nonvan.conjugate().stabilize(neg=1)) == "loose"


# ---- partitions


def test_classify_level_partitions_everything():
    for level in (1, 2):
        classes = classify_level(3, 4, level)
        total = sum(cls.size for cls in classes)
        assert total == len(list(enumerate_presentations(3, 4, level)))
        partition = class_partition(3, 4, level)
        members = [pres for cls in classes for pres in partition[cls.representative]]
        assert len(set(members)) == total


def test_classes_share_invariants():
    partition = class_partition(2, 5, 2)
    for cls in classify_level(2, 5, 2):
        invs = {(i.tb, i.rot, i.d3) for i in map(classical_invariants, partition[cls.representative])}
        assert len(invs) == 1


# T(2, -23) has chains (-2,) and (-2, -11): rotations run from -10 to 10
@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (5, 8), (2, 23)])
def test_classify_level_matches_partition_oracle(p, q):
    # each class's kind too: its members' verdict, and transverse when its
    # representative stays strongly non-loose under q negative stabilizations
    for level in range(5):
        got = {
            cls.representative: (cls.size, cls.verdict, cls.transverse)
            for cls in classify_level(p, q, level)
        }
        assert got == {
            rep: (
                len(members),
                looseness_verdict(rep),
                rep.stab_pos == 0 and looseness_verdict(rep.stabilize(neg=q)) == "strongly_nonloose",
            )
            for rep, members in class_partition(p, q, level).items()
        }


def test_tight_classes_merge_by_rotation():
    # at level 1 the tight trefoil classes are (tb, rot) = (-7, 2), (-7, 0)
    # twice over, (-7, -2): the rot-0 class collects both stabilization signs
    classes = classify_level(2, 3, 1)
    tight = [cls for cls in classes if cls.verdict == "tight"]
    assert sorted((cls.invariants.rot, cls.size) for cls in tight) == [(-2, 1), (0, 2), (2, 1)]


def test_ambient_tight_counts():
    assert [ambient_tight_class_count(2, 3, lv) for lv in range(4)] == [2, 3, 4, 5]
    assert [ambient_tight_class_count(2, 5, lv) for lv in range(4)] == [4, 5, 6, 7]
    assert [ambient_tight_class_count(3, 4, lv) for lv in range(4)] == [2, 3, 4, 5]
    # the (3, 5) ladder opens with a double step: its two balanced rotations
    # sit 4 apart, so one stabilization fills neither middle slot
    assert [ambient_tight_class_count(3, 5, lv) for lv in range(4)] == [2, 4, 5, 6]


def test_conjugation_acts_on_classes():
    index = _class_index(3, 5, 1)
    partition = class_partition(3, 5, 1)
    for cls in classify_level(3, 5, 1):
        image = {pres.conjugate() for pres in partition[cls.representative]}
        partner = index[next(iter(image))]
        assert image == set(partition[partner.representative])
        assert partner.invariants.rot == -cls.invariants.rot
        assert partner.invariants.d3 == cls.invariants.d3


def test_one_verdict_per_presentation(monkeypatch):
    # a cold classify_level decides each presentation's verdict once, and
    # each class keeps that verdict instead of three flags deciding it again
    calls = []
    monkeypatch.setattr(classify, "looseness_verdict", lambda *a: calls.append(a) or looseness_verdict(*a))
    classify_level.cache_clear()
    try:
        classify_level(5, 8, 2)
    finally:
        classify_level.cache_clear()
    assert len(calls) == len(list(enumerate_presentations(5, 8, 2))) == 36
    assert EquivClass._fields == ("size", "representative", "invariants", "verdict", "transverse")


# ---- transverse classes


def test_transverse_counts_families():
    assert len(transverse_classes(2, 3)) == 1
    assert len(transverse_classes(2, 7)) == 3
    assert len(transverse_classes(4, 5)) == 3
    assert len(transverse_classes(5, 8)) == 4


def test_transverse_classes_are_singleton_nonvanishing():
    for p, q in ((2, 5), (3, 4), (5, 8)):
        classes = transverse_classes(p, q)
        expected = [
            pres for pres in enumerate_presentations(p, q, 0) if nonvanishing_condition(pres)
        ]
        assert sum(cls.size for cls in classes) == len(expected)
        for cls in classes:
            assert cls.verdict == "strongly_nonloose" and cls.transverse
            assert not is_ambient_tight(cls.representative)


def test_transverse_classes_match_stabilized_grouping():
    # grouping by the class of the q-fold negative stabilization merges
    # nothing, and one class per presentation reproduces it exactly
    for p, q in coprime_pairs(120):
        groups = transverse_partition(p, q)
        assert all(len(group) == 1 for group in groups)
        classes = transverse_classes(p, q)
        assert [cls.representative for cls in classes] == [group[0] for group in groups]
        for cls in classes:
            rep = cls.representative
            verdict = looseness_verdict(rep)
            assert cls.size == 1
            assert cls.invariants == classical_invariants(rep)
            assert (cls.verdict, cls.transverse) == (verdict, verdict == "strongly_nonloose")


def test_transverse_t58_locations():
    got = {
        (cls.invariants.alexander, cls.invariants.maslov)
        for cls in transverse_classes(5, 8)
    }
    assert got == {(14, 0), (4, -6), (-2, -12), (-12, -26)}


def test_negative_stabilizations_stay_distinct():
    # deep negative stabilization keeps the transverse representatives in
    # pairwise distinct strongly non-loose classes
    reps = [
        pres.stabilize(neg=8)
        for pres in enumerate_presentations(5, 8, 0)
        if nonvanishing_condition(pres)
    ]
    index = _class_index(5, 8, 8)
    classes = {index[pres] for pres in reps}
    assert len(classes) == len(reps)
    for cls in classes:
        assert cls.verdict == "strongly_nonloose"


# ---- positive stabilization


def test_positive_stab_looseness():
    for p, q in ((2, 3), (2, 5), (5, 8)):
        for pres in enumerate_presentations(p, q, 0):
            if nonvanishing_condition(pres):
                assert positive_stab_looseness(pres)


def test_positive_stab_looseness_rejects_vanishing():
    with pytest.raises(ValueError):
        positive_stab_looseness(Presentation(2, 3, (-1,), (1, 0)))
    with pytest.raises(ValueError):
        positive_stab_looseness(Presentation(2, 3, (1,), (1, 0), 0, 1))
