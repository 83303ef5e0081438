"""Lens-space chain reduction and surjectivity onto tight structures."""

import math

import pytest

from legknots import diagram
from legknots.cf import complementary_expansions, honda_count, torus_knot_params
from legknots.diagram import Presentation, chain_tbs, enumerate_presentations, rotation_range
from legknots.invariants import d3_surgered
from legknots.lens import LensChain, reduce_to_lens_chain, surjectivity_check


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
        tbs1 = pres.to_dict()["chains"][0]["tb"]
        tbs2 = pres.to_dict()["chains"][1]["tb"]
        assert len(reduce_to_lens_chain(pres).framings) == len(tbs1) + len(tbs2) - 1


def test_surjectivity_trefoil():
    report = surjectivity_check(2, 3)
    assert report["honda_count"] == 3
    assert report["image_size"] == 3
    assert report["ok"]
    # the 4 presentations fall into 3 fibers: the two balanced ones with
    # equal leader difference collide
    assert sorted(len(f) for f in report["fibers"]) == [1, 1, 2]


def test_surjectivity_sweep():
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            report = surjectivity_check(p, q)
            assert report["ok"], (p, q)
            u = p * q + 1
            assert report["honda_count"] == honda_count(u, p * p % u)
            assert sum(len(f) for f in report["fibers"]) == len(
                list(enumerate_presentations(p, q, 0))
            )


def test_fibers_share_surgered_d3():
    for p, q in ((2, 3), (3, 4), (5, 8)):
        presentations = list(enumerate_presentations(p, q, 0))
        report = surjectivity_check(p, q)
        for fiber in report["fibers"]:
            values = {d3_surgered(presentations[i]) for i in fiber}
            assert len(values) == 1


def test_palindromic_chain_keeps_distinct_structures():
    # T(3, -5) merges to framings (-2, -5, -2); the reversal symmetry of
    # the framing vector must not identify distinct rotation vectors
    report = surjectivity_check(3, 5)
    assert report["honda_count"] == 4
    assert report["image_size"] == 4
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
