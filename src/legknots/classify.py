"""Coarse classification of Legendrian presentations and transverse classes.

The decisions all reduce to extremity bookkeeping on the chain leaders and
the knot's stabilizations:

  * ambient tight (balanced chains): classes are determined by the classical
    invariants, i.e. grouped by rot (tb is fixed by the level and d3 is 0);
  * overtwisted, knot stabilized in one sign only: the knot is strongly
    non-loose precisely when no chain leader is extreme in that same sign
    (for the unstabilized knot either sign qualifies); these classes are
    singletons — each carries its own nonzero Legendrian invariant;
  * everything else is loose, and loose knots are grouped coarsely by their
    classical invariants (rot, d3).

A class is kept as its size, its representative (the member with the least
_rotation_key) and the representative's invariants, which every member shares.

Transverse classes are the level-0 presentations with nonzero invariant
(neither leader fully negative), one class each.  Two of them would be the
same transverse knot if q fully negative stabilizations landed them in one
class; but those stabilizations keep every leader as it was, so they stay
strongly non-loose, and strongly non-loose classes are singletons keyed by
the presentation itself: none merge, and the transverse count equals the
presentation count.
"""

import functools
from collections import namedtuple

from .diagram import (
    Presentation,
    enumerate_presentations,
    is_ambient_tight,
    leader_extremes,
    nonvanishing_condition,
    validate_presentation,
)
from .invariants import ClassicalInvariants, classical_invariants, presentations_with_invariants


# ---- verdicts


def looseness_verdict(pres: Presentation, shape=None) -> str:
    """One of "tight", "strongly_nonloose", "loose".

    "tight" refers to the ambient structure (the knot is an ordinary
    Legendrian there); the other two describe knots in overtwisted ambients.
    A knot stabilized only negatively survives as strongly non-loose iff no
    leader is fully negative; mirrored for positive; a knot stabilized in
    both signs is loose, as is any knot whose leaders exhaust both extremes.
    `shape` is (is_ambient_tight, leader_extremes), which read rotations only.
    """
    tight, (any_fp, any_fn) = shape or (is_ambient_tight(pres), leader_extremes(pres))
    if tight:
        return "tight"
    if pres.stab_pos == 0 and not any_fn:
        return "strongly_nonloose"
    if pres.stab_neg == 0 and not any_fp:
        return "strongly_nonloose"
    return "loose"


def _class_key(pres: Presentation, inv: ClassicalInvariants, shape=None):
    verdict = looseness_verdict(pres, shape)
    if verdict == "tight":
        return ("tight", inv.rot)
    if verdict == "strongly_nonloose":
        return ("snl", pres.rots1, pres.rots2, pres.stab_pos, pres.stab_neg)
    return ("loose", inv.rot, inv.d3)


# ---- classes


class EquivClass(namedtuple("EquivClass", "size representative ambient_tight loose "
                            "strongly_nonloose transverse invariants")):
    __slots__ = ()

    @classmethod
    def of(
        cls, rep: Presentation, inv: ClassicalInvariants, size: int = 1, shape=None
    ) -> "EquivClass":
        """The class of `size` members represented by `rep`; it is transverse
        when it survives every further negative stabilization as strongly
        non-loose."""
        shape = shape or (is_ambient_tight(rep), leader_extremes(rep))
        verdict = looseness_verdict(rep, shape)
        snl = verdict == "strongly_nonloose"
        transverse = snl and rep.stab_pos == 0 and not shape[1][1]
        return cls(size, rep, verdict == "tight", verdict == "loose", snl, transverse, inv)

    def to_dict(self) -> dict:
        return {
            "representative": self.representative.to_dict(),
            "size": self.size,
            "flags": {
                "tight_ambient": self.ambient_tight,
                "loose": self.loose,
                "strongly_nonloose": self.strongly_nonloose,
                "transverse": self.transverse,
            },
            "invariants": self.invariants.to_dict(),
        }


def _rotation_key(pres: Presentation) -> str:
    """Orders presentations of one knot as their JSON text does: the two texts
    first differ inside rots1, or else inside rots2."""
    return f"{list(pres.rots1)}{list(pres.rots2)}"


# No request reads a level twice; the cache stays while the benchmark's
# tracer reads classify_level.cache_info().
@functools.lru_cache(maxsize=None)
def classify_level(p: int, q: int, level: int) -> tuple[EquivClass, ...]:
    """Partition all level-`level` presentations of T(p, -q) into classes,
    reading the kernel, the leader shape and the rotation key once per
    rotation vector: no class holds two members of one (their rot differs)."""
    buckets: dict = {}  # class key -> [size, least rotation key, its presentation, invariants, shape]
    for pres, inv in presentations_with_invariants(p, q, level):
        if pres.stab_pos == 0:  # a new rotation vector
            key = _rotation_key(pres)
            shape = is_ambient_tight(pres), leader_extremes(pres)
        bucket = buckets.setdefault(_class_key(pres, inv, shape), [0, key, pres, inv, shape])
        bucket[0] += 1
        if key < bucket[1]:
            bucket[1:] = key, pres, inv, shape
    ranked = []  # (sort key, class); no two tie: reps of one rotation vector differ in rot
    for size, key, pres, inv, shape in buckets.values():
        cls = EquivClass.of(pres, inv, size, shape)
        ranked.append(((not cls.ambient_tight, cls.loose, -inv.rot, inv.d3, key), cls))
    ranked.sort(key=lambda pair: pair[0])  # tight, then strongly non-loose, then loose
    return tuple(cls for _, cls in ranked)


def ambient_tight_class_count(p: int, q: int, level: int) -> int:
    """Number of classes at this level living in the tight 3-sphere."""
    return sum(1 for cls in classify_level(p, q, level) if cls.ambient_tight)


# ---- transverse classes


def transverse_classes(p: int, q: int) -> tuple[EquivClass, ...]:
    """One class per level-0 presentation with nonzero invariant, ordered by
    descending rot (see the module docstring for why none merge)."""
    classes = [
        EquivClass.of(pres, classical_invariants(pres))
        for pres in enumerate_presentations(p, q, 0)
        if nonvanishing_condition(pres)
    ]
    classes.sort(key=lambda c: (-c.invariants.rot, _rotation_key(c.representative)))
    return tuple(classes)


def positive_stab_looseness(pres: Presentation) -> bool:
    """Whether one positive stabilization of a nonzero-invariant knot is loose."""
    validate_presentation(pres)
    if pres.level != 0 or not nonvanishing_condition(pres):
        raise ValueError("expected a level-0 presentation with nonzero invariant")
    return looseness_verdict(pres.stabilize(pos=1)) == "loose"
