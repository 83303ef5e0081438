"""Lens-space chain reduction and surjectivity onto tight structures."""

import itertools
import math

import pytest

from legknots import diagram, lens
from legknots.cf import VerificationError, complementary_expansions, honda_count, torus_knot_params
from legknots.diagram import Presentation, chain_tbs, chains_for, enumerate_presentations, rotation_range
from legknots.invariants import classical_invariants, d3_surgered
from legknots.lens import LensChain, reduce_to_lens_chain, surjectivity_check
from oracles import coprime_pairs, lens_chain_by_presentation, lens_fibers


def test_reduce_trefoil():
    # leaders -2 and -2 merge into one -4-framed unknot carrying the
    # difference of the leader rotations; the tail passes through unchanged
    chain = reduce_to_lens_chain(Presentation(2, 3, (1,), (-1, 0)))
    assert chain == LensChain((-4, -2), (2, 0))
    chain = reduce_to_lens_chain(Presentation(2, 3, (1,), (1, 0)))
    assert chain == LensChain((-4, -2), (0, 0))


def test_reduce_t58_shape():
    chain = reduce_to_lens_chain(Presentation(5, 8, (2, 0), (1, 1, 0)))
    assert chain.framings == (-2, -5, -3, -2)
    assert chain.rots == (0, 1, 1, 0)


def test_reduce_rejects_stabilized():
    with pytest.raises(ValueError):
        reduce_to_lens_chain(Presentation(2, 3, (1,), (1, 0), 1, 0))


def test_rotations_stay_legal():
    for p, q in ((2, 3), (3, 5), (5, 8), (4, 7)):
        for pres in enumerate_presentations(p, q, 0):
            chain = reduce_to_lens_chain(pres)
            for framing, rot in zip(chain.framings, chain.rots):
                assert rot in rotation_range(framing + 1)


def test_chain_length_drops_by_one():
    for p, q in ((2, 3), (5, 8), (3, 7)):
        pres = next(iter(enumerate_presentations(p, q, 0)))
        tbs1, tbs2 = chains_for(p, q)
        assert len(reduce_to_lens_chain(pres).framings) == len(tbs1) + len(tbs2) - 1


def test_surjectivity_trefoil():
    count, fibers = surjectivity_check(2, 3)
    assert count == 3
    assert len(fibers) == 3
    # the 4 presentations fall into 3 fibers: the two balanced ones with
    # equal leader difference collide
    assert sorted(len(f) for f in fibers) == [1, 1, 2]


def test_surjectivity_sweep():
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            count, fibers = surjectivity_check(p, q)
            assert len(fibers) == count, (p, q)
            u = p * q + 1
            assert count == honda_count(u, p * p % u)
            assert sum(len(f) for f in fibers) == len(
                list(enumerate_presentations(p, q, 0))
            )


def test_fibers_share_surgered_d3():
    for p, q in ((2, 3), (3, 4), (5, 8)):
        presentations = list(enumerate_presentations(p, q, 0))
        _, fibers = surjectivity_check(p, q)
        for fiber in fibers:
            values = {d3_surgered(classical_invariants(presentations[i])) for i in fiber}
            assert len(values) == 1


def test_palindromic_chain_keeps_distinct_structures():
    # T(3, -5) merges to framings (-2, -5, -2); the reversal symmetry of
    # the framing vector must not identify distinct rotation vectors
    count, fibers = surjectivity_check(3, 5)
    assert count == 4
    assert len(fibers) == 4
    chains = {reduce_to_lens_chain(p).framings for p in enumerate_presentations(3, 5, 0)}
    assert chains == {(-2, -5, -2)}


def test_expansions_run_once_per_knot(monkeypatch):
    calls = []
    real = diagram.complementary_expansions

    def counted(params):
        calls.append((params.p, params.q))
        return real(params)

    cached = (diagram.chain_expansions, diagram.chains_for)
    monkeypatch.setattr(diagram, "complementary_expansions", counted)
    for fn in cached:
        fn.cache_clear()
    try:
        surjectivity_check(5, 8)
        surjectivity_check(3, 4)
        for pres in enumerate_presentations(5, 8, 0):
            reduce_to_lens_chain(pres)
    finally:
        for fn in cached:
            fn.cache_clear()
    assert calls == [(5, 8), (3, 4)]


def test_long_chains_are_refused():
    # a hand-built level-0 presentation of T(62, -63), 65 surgery curves: the
    # reduction reads the same expansions as chains_for and is refused with it
    cf1, cf2 = complementary_expansions(torus_knot_params(62, 63))
    assert len(cf1) + len(cf2) + 2 == diagram.MAX_CURVES + 1
    rots1, rots2 = (tuple(rotation_range(tb)[0] for tb in chain_tbs(cf)) for cf in (cf1, cf2))
    with pytest.raises(ValueError, match="has 65 surgery curves, more than the limit of 64"):
        reduce_to_lens_chain(Presentation(62, 63, rots1, rots2))


# the trefoil's leaders (2,) and (2, 2) merge into the entries (4, 2)
@pytest.mark.parametrize(
    "entries, message",
    [((4,), "merged chain has the wrong length"), ((2, 2), "rotation 2 illegal on a chain unknot with framing -2")],
    ids=["length", "rotation"],
)
def test_reduction_refuses_a_bad_merged_chain(monkeypatch, entries, message):
    monkeypatch.setattr(lens, "merged_lens_entries", lambda cf1, cf2: entries)
    with pytest.raises(VerificationError, match=message):
        reduce_to_lens_chain(Presentation(2, 3, (1,), (-1, 0)))


@pytest.mark.parametrize(
    "entries, message",
    [((4,), "merged chain has the wrong length"), ((2, 2), "rotation 2 illegal on a chain unknot with framing -2")],
    ids=["length", "rotation"],
)
def test_surjectivity_refuses_a_bad_merged_chain(monkeypatch, entries, message):
    # the knot's merged entries are checked once, before any presentation is read
    monkeypatch.setattr(lens, "merged_lens_entries", lambda cf1, cf2: entries)
    with pytest.raises(VerificationError, match=message):
        surjectivity_check(2, 3)


def test_reduction_matches_the_per_presentation_oracle():
    # 1072 level-0 presentations over 37 knots, each reduced on its own by the oracle
    for p, q in coprime_pairs(max_q=15):
        presentations = list(enumerate_presentations(p, q, 0))
        chains = [reduce_to_lens_chain(pres) for pres in presentations]
        assert chains == [lens_chain_by_presentation(pres) for pres in presentations], (p, q)
        u = p * q + 1
        assert surjectivity_check(p, q) == (honda_count(u, p * p % u), lens_fibers(p, q)), (p, q)


def test_fiber_with_two_surgered_d3_values_raises(monkeypatch):
    # the trefoil's fiber [0, 3] has two members; each now reads a new value
    values = itertools.count()
    monkeypatch.setattr(lens, "d3_surgered", lambda inv: next(values))
    with pytest.raises(VerificationError, match=r"mixes 4s \* d3 values \[\d+, \d+\]"):
        surjectivity_check(2, 3)
