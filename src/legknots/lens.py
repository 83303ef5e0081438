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
counting the image.
"""

from collections import namedtuple

from .cf import VerificationError, honda_count, merged_lens_entries
from .diagram import Presentation, chain_expansions, enumerate_presentations, rotation_range
from .invariants import d3_surgered


class LensChain(namedtuple("LensChain", "framings rots")):
    """Chain of unknots with smooth surgery framings and rotation numbers."""

    __slots__ = ()


def reduce_to_lens_chain(pres: Presentation) -> LensChain:
    """Collapse an unstabilized presentation to its lens-space chain.

    The chain is normalized between the two reading directions by the
    lexicographically smaller framing sequence (rotations are carried
    along); a palindromic framing sequence keeps the constructed order.
    """
    if pres.level != 0:
        raise ValueError("only unstabilized presentations reduce to lens chains")
    entries = merged_lens_entries(*chain_expansions(pres.p, pres.q))
    rots = (
        tuple(reversed(pres.rots1[1:]))
        + (pres.rots1[0] - pres.rots2[0],)
        + tuple(pres.rots2[1:])
    )
    if len(rots) != len(entries):
        raise VerificationError("merged chain has the wrong length")
    for entry, rot in zip(entries, rots):
        if rot not in rotation_range(-entry + 1):
            raise VerificationError(
                f"rotation {rot} illegal on a chain unknot with framing {-entry}"
            )
    framings = tuple(-entry for entry in entries)
    if framings[::-1] < framings:
        framings, rots = framings[::-1], rots[::-1]
    return LensChain(framings, rots)


def surjectivity_check(p: int, q: int) -> dict:
    """Compare the image of the reduction with Honda's tight-structure count.

    The report lists the fibers as index lists into the level-0 enumeration
    order.  Raises VerificationError if two presentations in one fiber
    disagree on the normalized d3 invariant of the surgered manifold.
    """
    presentations = list(enumerate_presentations(p, q, 0))
    fibers: dict[LensChain, list[int]] = {}
    for idx, pres in enumerate(presentations):
        fibers.setdefault(reduce_to_lens_chain(pres), []).append(idx)
    for chain, ids in fibers.items():
        values = {d3_surgered(presentations[i]) for i in ids}
        if len(values) != 1:
            raise VerificationError(
                f"fiber over {chain} mixes 4s * d3 values {sorted(values)}"
            )
    u = p * q + 1
    count = honda_count(u, p * p % u)
    ordered = sorted(fibers.items(), key=lambda item: (item[0].framings, item[0].rots))
    return {
        "p": p,
        "q": q,
        "honda_count": count,
        "image_size": len(fibers),
        "ok": len(fibers) == count,
        "fibers": [sorted(ids) for _, ids in ordered],
    }
