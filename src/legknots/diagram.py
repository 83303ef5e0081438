"""Surgery presentations of Legendrian negative torus knots.

A presentation is the combinatorial content of the standard diagram: the
torus knot T(p, -q) sits as a Legendrian unknot (tb = -1, possibly
stabilized) alongside two contact (+1)-surgery unknot copies and two
contact (-1)-surgery chains.  The chains expand the two rational surgery
coefficients -p/(p-c) and -q/q'; expanding a coefficient -x through the
negative continued fraction x = [a0, ..., as] produces unknots with

    tb = (-a0, -a1 + 1, ..., -as + 1)

and each unknot independently carries a rotation number of the usual
parity, rot = tb + 1, tb + 3, ..., -tb - 1.  The knot itself carries
stab_pos positive and stab_neg negative stabilizations.
"""

import functools
import itertools
import math
from collections import namedtuple

from .cf import complementary_expansions, torus_knot_params

# Upper bound on the surgery curves (chains and (+1)-curves) of a knot;
# T(n, -(n+1)) has n + 3.  The kernel is cubic in it: 99 ms cold for
# T(61, -62) (2 vCPUs, Python 3.11).  Verify needs 13, the benchmark 21.
MAX_CURVES = 64

# Upper bound on one enumeration, prod |tb| * (level + 1), times 5/m for m
# curves (5 is the fewest).  `enumerate --json` takes 3.9 + 0.22 m kB per
# presentation, so the peak is highest at m = 5.  On that host the highest
# admitted peak, under 512 MB, is `classify 2 40001 --json` (80,000
# singleton classes): 507 MB RSS in 4.0-4.8 s; `enumerate 2 3 --level 19999
# --json` takes 419 MB in 2.1-2.4 s.  Verify needs 696.
MAX_PRESENTATIONS = 80_000


# ---- chains


def chain_tbs(cf_entries) -> tuple[int, ...]:
    """Thurston-Bennequin numbers of the chain expanding coefficient -[cf]."""
    first, *rest = cf_entries
    return (-first,) + tuple(-a + 1 for a in rest)


def rotation_range(tb: int) -> range:
    """Legal rotation numbers of a tb < 0 unknot: tb+1, tb+3, ..., -tb-1."""
    if tb >= 0:
        raise ValueError(f"chain unknots have tb < 0, got {tb}")
    return range(tb + 1, -tb, 2)


def is_fully_positive(rot: int, tb: int) -> bool:
    """Whether the unknot is a purely positive stabilization (rot == -tb-1)."""
    return rot == -tb - 1


def is_fully_negative(rot: int, tb: int) -> bool:
    return rot == tb + 1


# ---- presentations


class Presentation(namedtuple("Presentation", "p q rots1 rots2 stab_pos stab_neg", defaults=(0, 0))):
    """One choice of rotation numbers and knot stabilizations for T(p, -q)."""

    __slots__ = ()

    @property
    def level(self) -> int:
        """Total number of stabilizations on the knot."""
        return self.stab_pos + self.stab_neg

    def conjugate(self) -> "Presentation":
        """Mirror of the presentation: all rotations negated, stabs swapped."""
        return Presentation(
            self.p,
            self.q,
            tuple(-r for r in self.rots1),
            tuple(-r for r in self.rots2),
            self.stab_neg,
            self.stab_pos,
        )

    def stabilize(self, pos: int = 0, neg: int = 0) -> "Presentation":
        if pos < 0 or neg < 0:
            raise ValueError("stabilization counts are nonnegative")
        return Presentation(
            self.p, self.q, self.rots1, self.rots2,
            self.stab_pos + pos, self.stab_neg + neg,
        )

    def to_dict(self) -> dict:
        tbs1, tbs2 = chains_for(self.p, self.q)
        return {
            "p": self.p,
            "q": self.q,
            "chains": [
                {"tb": list(tbs1), "rot": list(self.rots1)},
                {"tb": list(tbs2), "rot": list(self.rots2)},
            ],
            "stab_pos": self.stab_pos,
            "stab_neg": self.stab_neg,
        }


@functools.lru_cache(maxsize=None)
def chain_expansions(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two chain expansions (cf1, cf2) of T(p, -q); a knot with more than
    MAX_CURVES surgery curves is refused."""
    cf1, cf2 = complementary_expansions(torus_knot_params(p, q))
    curves = len(cf1) + len(cf2) + 2
    if curves > MAX_CURVES:
        raise ValueError(f"T({p}, -{q}) has {curves} surgery curves, more than the limit of {MAX_CURVES}")
    return cf1, cf2


@functools.lru_cache(maxsize=None)
def chains_for(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two chain tb tuples shared by every presentation of T(p, -q),
    refused as chain_expansions refuses."""
    cf1, cf2 = chain_expansions(p, q)
    return chain_tbs(cf1), chain_tbs(cf2)


def validate_presentation(pres: Presentation) -> None:
    """Check rotation parities/ranges and stabilization counts."""
    tbs1, tbs2 = chains_for(pres.p, pres.q)
    for tbs, rots in ((tbs1, pres.rots1), (tbs2, pres.rots2)):
        if len(tbs) != len(rots):
            raise ValueError(f"chain length mismatch: {rots} for tbs {tbs}")
        for tb, rot in zip(tbs, rots):
            if rot not in rotation_range(tb):
                raise ValueError(f"rotation {rot} illegal for tb {tb}")
    if pres.stab_pos < 0 or pres.stab_neg < 0:
        raise ValueError("stabilization counts are nonnegative")


def rotation_vectors(p: int, q: int, level: int = 0):
    """Iterator over the (rots1, rots2) of T(p, -q), row-major, each carrying
    level + 1 presentations.  A level below 0, or more presentations in all
    than the scaled MAX_PRESENTATIONS, is refused with ValueError on the call."""
    if level < 0:
        raise ValueError(f"need a stabilization level >= 0, got {level}")
    tbs1, tbs2 = chains_for(p, q)
    count = math.prod(-tb for tb in tbs1 + tbs2) * (level + 1)
    limit = MAX_PRESENTATIONS * 5 // (len(tbs1) + len(tbs2) + 2)
    if count > limit:
        raise ValueError(
            f"T({p}, -{q}) has {count} presentations at level {level}, "
            f"more than the limit of {limit}"
        )
    rots1, rots2 = (itertools.product(*map(rotation_range, tbs)) for tbs in (tbs1, tbs2))
    return itertools.product(rots1, rots2)


def enumerate_presentations(p: int, q: int, level: int = 0):
    """All presentations of T(p, -q) with stab_pos + stab_neg == level: for
    each of rotation_vectors, stab_pos = 0, ..., level."""
    for rots1, rots2 in rotation_vectors(p, q, level):
        for pos in range(level + 1):
            yield Presentation(p, q, rots1, rots2, pos, level - pos)


# ---- the two distinguished shapes


def chain_extreme(tbs, rots, sign: int) -> bool:
    """Whether every unknot of a chain is fully positive (+1) / negative (-1)."""
    test = is_fully_positive if sign > 0 else is_fully_negative
    return all(test(rot, tb) for tb, rot in zip(tbs, rots))


def is_ambient_tight(pres: Presentation) -> bool:
    """Whether the ambient contact 3-sphere of the diagram is the tight one.

    This holds exactly when the two chains cancel against the (+1)-surgeries:
    the first chain must be entirely extreme and the second chain extreme in
    the opposite direction through its next-to-last unknot.  The final unknot
    of the second chain (the one with tb = -n + 1) is unconstrained, as is
    everything about the knot itself.
    """
    tbs1, tbs2 = chains_for(pres.p, pres.q)
    for sign in (+1, -1):
        if chain_extreme(tbs1, pres.rots1, sign) and chain_extreme(
            tbs2[:-1], pres.rots2[:-1], -sign
        ):
            return True
    return False


def leader_extremes(pres: Presentation) -> tuple[bool, bool]:
    """(some chain leader fully positive, some chain leader fully negative)."""
    tbs1, tbs2 = chains_for(pres.p, pres.q)
    leaders = ((tbs1[0], pres.rots1[0]), (tbs2[0], pres.rots2[0]))
    any_fp = any(is_fully_positive(rot, tb) for tb, rot in leaders)
    any_fn = any(is_fully_negative(rot, tb) for tb, rot in leaders)
    return any_fp, any_fn


def nonvanishing_condition(pres: Presentation) -> bool:
    """Whether the unstabilized presentation has nonzero contact invariant.

    The criterion is on the two chain leaders only: neither may be fully
    negative.  Presentations satisfying it are exactly the strongly
    non-loose ones that survive arbitrary negative stabilization, so they
    index the non-loose transverse representatives.
    """
    if pres.level != 0:
        raise ValueError("the nonvanishing condition applies to level 0")
    return not leader_extremes(pres)[1]
