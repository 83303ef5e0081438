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

Transverse classes are the level-0 presentations with nonzero invariant
(neither leader fully negative), identified whenever q fully negative
stabilizations land them in the same class; with the rules above the
stabilizations stay strongly non-loose and never merge, so the transverse
count equals the presentation count.
"""

import functools
from dataclasses import dataclass

from .diagram import (
    Presentation,
    chains_for,
    enumerate_presentations,
    is_ambient_tight,
    is_fully_negative,
    is_fully_positive,
    nonvanishing_condition,
    validate_presentation,
)
from .invariants import ClassicalInvariants, classical_invariants


# ---- verdicts


def _leader_extremes(pres: Presentation) -> tuple[bool, bool]:
    """(some leader fully positive, some leader fully negative)."""
    tbs1, tbs2 = chains_for(pres.p, pres.q)
    leaders = ((tbs1[0], pres.rots1[0]), (tbs2[0], pres.rots2[0]))
    any_fp = any(is_fully_positive(rot, tb) for tb, rot in leaders)
    any_fn = any(is_fully_negative(rot, tb) for tb, rot in leaders)
    return any_fp, any_fn


def looseness_verdict(pres: Presentation) -> str:
    """One of "tight", "strongly_nonloose", "loose".

    "tight" refers to the ambient structure (the knot is an ordinary
    Legendrian there); the other two describe knots in overtwisted ambients.
    A knot stabilized only negatively survives as strongly non-loose iff no
    leader is fully negative; mirrored for positive; a knot stabilized in
    both signs is loose, as is any knot whose leaders exhaust both extremes.
    """
    if is_ambient_tight(pres):
        return "tight"
    any_fp, any_fn = _leader_extremes(pres)
    if pres.stab_pos == 0 and not any_fn:
        return "strongly_nonloose"
    if pres.stab_neg == 0 and not any_fp:
        return "strongly_nonloose"
    return "loose"


def _class_key(pres: Presentation, inv: ClassicalInvariants):
    verdict = looseness_verdict(pres)
    if verdict == "tight":
        return ("tight", inv.rot)
    if verdict == "strongly_nonloose":
        return ("snl", pres.rots1, pres.rots2, pres.stab_pos, pres.stab_neg)
    return ("loose", inv.rot, inv.d3)


# ---- classes


@dataclass(frozen=True)
class EquivClass:
    members: tuple[Presentation, ...]
    representative: Presentation
    ambient_tight: bool
    loose: bool
    strongly_nonloose: bool
    transverse: bool
    invariants: ClassicalInvariants

    @property
    def size(self) -> int:
        return len(self.members)

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


def _is_transverse_relevant(pres: Presentation) -> bool:
    """Survives every further negative stabilization as strongly non-loose."""
    _, any_fn = _leader_extremes(pres)
    return pres.stab_pos == 0 and not any_fn


def _build_class(members_with_inv) -> EquivClass:
    members = tuple(sorted((pres for pres, _ in members_with_inv), key=lambda pr: pr.to_json()))
    by_pres = dict(members_with_inv)
    rep = members[0]
    verdict = looseness_verdict(rep)
    return EquivClass(
        members=members,
        representative=rep,
        ambient_tight=verdict == "tight",
        loose=verdict == "loose",
        strongly_nonloose=verdict == "strongly_nonloose",
        transverse=verdict == "strongly_nonloose" and _is_transverse_relevant(rep),
        invariants=by_pres[rep],
    )


@functools.lru_cache(maxsize=None)
def classify_level(p: int, q: int, level: int) -> tuple[EquivClass, ...]:
    """Partition all level-`level` presentations of T(p, -q) into classes."""
    buckets: dict = {}
    for pres in enumerate_presentations(p, q, level):
        inv = classical_invariants(pres)
        buckets.setdefault(_class_key(pres, inv), []).append((pres, inv))
    classes = [_build_class(items) for items in buckets.values()]
    classes.sort(  # tight, then strongly non-loose, then loose
        key=lambda c: (
            not c.ambient_tight,
            c.loose,
            -c.invariants.rot,
            c.invariants.d3,
            c.representative.to_json(),
        )
    )
    return tuple(classes)


def ambient_tight_class_count(p: int, q: int, level: int) -> int:
    """Number of classes at this level living in the tight 3-sphere."""
    return sum(1 for cls in classify_level(p, q, level) if cls.ambient_tight)


# ---- transverse classes


def transverse_classes(p: int, q: int) -> tuple[EquivClass, ...]:
    """One class per strongly non-loose transverse representative.

    Level-0 presentations with nonzero invariant are identified exactly when
    q fully negative stabilizations land them in the same equivalence class.
    """
    groups: dict = {}
    for pres in enumerate_presentations(p, q, 0):
        if not nonvanishing_condition(pres):
            continue
        stabilized = pres.stabilize(neg=q)
        inv = classical_invariants(stabilized)
        groups.setdefault(_class_key(stabilized, inv), []).append(pres)
    classes = [
        _build_class([(pres, classical_invariants(pres)) for pres in members])
        for members in groups.values()
    ]
    classes.sort(key=lambda c: (-c.invariants.rot, c.representative.to_json()))
    return tuple(classes)


def positive_stab_looseness(pres: Presentation) -> bool:
    """Whether one positive stabilization of a nonzero-invariant knot is loose."""
    validate_presentation(pres)
    if pres.level != 0 or not nonvanishing_condition(pres):
        raise ValueError("expected a level-0 presentation with nonzero invariant")
    return looseness_verdict(pres.stabilize(pos=1)) == "loose"
