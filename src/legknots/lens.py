"""Reduction of level-0 presentations to Legendrian chains in lens spaces.

Trading the knot and the two contact (+1)-surgery curves away turns the
surgery diagram into a single linear chain of Legendrian unknots presenting
the lens space L(pq + 1, p^2): the two chain leaders merge into one unknot
whose surgery entry is the sum of the two leading continued-fraction
entries (and whose rotation number is the difference of the leader
rotations), while both tails survive unchanged.  The merged entries are
exactly the negative continued fraction of (pq + 1) / v with v = p^2 mod
(pq + 1) or its inverse, so Honda's count of tight structures on the lens
space gives the size of the target and surjectivity can be checked by
counting the image.  The framings, their reading direction and the check of
the merged entries are computed once per knot; a presentation adds only its
rotations.
"""

from collections import namedtuple

from .cf import VerificationError, honda_count, merged_lens_entries
from .diagram import Presentation, chain_expansions, chains_for, rotation_range
from .invariants import d3_surgered, presentations_with_invariants


class LensChain(namedtuple("LensChain", "framings rots")):
    """Chain of unknots with smooth surgery framings and rotation numbers."""

    __slots__ = ()


def _lens_frame(p: int, q: int) -> tuple[tuple[int, ...], bool]:
    """(framings, flip): the lens chain's normalized framings, and whether that
    reversed the constructed order.  Raises VerificationError unless the merged
    chain has one unknot fewer than the two chains and each merged unknot admits
    the largest rotation a presentation puts on it (ranges are symmetric)."""
    cf1, cf2 = chain_expansions(p, q)
    entries = merged_lens_entries(cf1, cf2)
    if len(entries) != len(cf1) + len(cf2) - 1:
        raise VerificationError("merged chain has the wrong length")
    tbs1, tbs2 = chains_for(p, q)
    # rots1[0] - rots2[0] ranges as the rotation of an unknot with tb1 + tb2 + 1
    for entry, tb in zip(entries, tbs1[:0:-1] + (tbs1[0] + tbs2[0] + 1,) + tbs2[1:]):
        if -tb - 1 not in rotation_range(-entry + 1):
            raise VerificationError(f"rotation {-tb - 1} illegal on a chain unknot with framing {-entry}")
    framings = tuple(-entry for entry in entries)
    flip = framings[::-1] < framings
    return (framings[::-1] if flip else framings), flip


def _lens_rots(pres: Presentation, flip: bool) -> tuple[int, ...]:
    rots = pres.rots1[:0:-1] + (pres.rots1[0] - pres.rots2[0],) + pres.rots2[1:]
    return rots[::-1] if flip else rots


def reduce_to_lens_chain(pres: Presentation) -> LensChain:
    """Collapse a level-0 presentation, as enumerate_presentations gives it,
    to its lens-space chain: the knot's framings (_lens_frame), normalized
    between the two reading directions by the lexicographically smaller
    framing sequence, and the presentation's rotations carried along; a
    palindromic framing sequence keeps the constructed order."""
    if pres.level != 0:
        raise ValueError("only unstabilized presentations reduce to lens chains")
    framings, flip = _lens_frame(pres.p, pres.q)
    return LensChain(framings, _lens_rots(pres, flip))


def surjectivity_check(p: int, q: int) -> tuple[int, list[list[int]]]:
    """Compare the image of the reduction with Honda's tight-structure count.

    Returns Honda's count of tight structures on L(pq + 1, p^2) and the
    fibers of the reduction, as index lists into the level-0 enumeration
    order, sorted by their lens chain; the reduction is surjective when
    there are as many fibers as the count.  Raises VerificationError if two
    presentations in one fiber disagree on the normalized d3 invariant of
    the surgered manifold.
    """
    table = list(presentations_with_invariants(p, q, 0))
    framings, flip = _lens_frame(p, q)
    fibers: dict[tuple[int, ...], list[int]] = {}  # rotations of the lens chain -> indices
    for idx, (pres, _) in enumerate(table):
        fibers.setdefault(_lens_rots(pres, flip), []).append(idx)
    for rots, ids in fibers.items():
        values = {d3_surgered(table[i][1]) for i in ids}
        if len(values) != 1:
            raise VerificationError(f"fiber over {LensChain(framings, rots)} mixes 4s * d3 values {sorted(values)}")
    u = p * q + 1
    return honda_count(u, p * p % u), [ids for _, ids in sorted(fibers.items())]
