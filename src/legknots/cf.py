"""Negative continued fractions and torus-knot surgery parameters.

Everything in this module is exact integer arithmetic; a ratio is a coprime
pair (num, den) of ints with den > 0.  The central gadget is the negative
(Hirzebruch-Jung) continued fraction

    [a0, a1, ..., as] = a0 - 1/(a1 - 1/(... - 1/as)),

which has a unique expansion with all entries >= 2 for every rational > 1.
"""

from collections import namedtuple
from math import gcd


class VerificationError(Exception):
    """Raised when an internal cross-check fails.

    These checks guard derived quantities (parameter identities, module
    structures computed two ways, ...); hitting one means a bug or an
    inconsistent input, never a routine error condition.
    """


# ---- negative continued fractions

MAX_ENTRIES = 10**4  # longest expansion neg_cf builds; num/(num-1) has num - 1 entries


def neg_cf(num: int, den: int) -> tuple[int, ...]:
    """Negative continued fraction of num/den, all entries >= 2.

    Requires coprime num > den >= 1.  Example: neg_cf(8, 5) == (2, 3, 2).
    """
    if den < 1 or num <= den:
        raise ValueError(f"need num > den >= 1, got {num}/{den}")
    if gcd(num, den) != 1:
        raise ValueError(f"need coprime input, got {num}/{den}")
    out = []
    while den:
        a = -(-num // den)  # ceil(num/den)
        out.append(a)
        if len(out) > MAX_ENTRIES:
            raise ValueError(f"expansion longer than {MAX_ENTRIES} entries")
        num, den = den, a * den - num
    if any(a < 2 for a in out):
        raise VerificationError(f"entry below 2 in the expansion {out}")
    return tuple(out)


def _continuant(entries) -> tuple[int, int]:
    """[a0, ..., as] as a coprime pair (num, den), in integers only.

    Runs the recurrence num/den <- a - den/num from the last entry; with all
    entries >= 2 the pair stays coprime and positive.
    """
    num, den = entries[-1], 1
    for a in entries[-2::-1]:
        num, den = a * num - den, num
    return num, den


def honda_count(u: int, v: int) -> int:
    """Number of tight contact structures on L(u, v), coprime u > v >= 1.

    Computed as prod(a_i - 1) over the negative continued fraction of u/v
    (Honda's count).  Invariant under v <-> v^{-1} mod u, since inverting v
    reverses the expansion.
    """
    count = 1
    for a in neg_cf(u, v):
        count *= a - 1
    return count


# ---- torus-knot surgery parameters


class TorusKnotParams(namedtuple("TorusKnotParams", "p q n k c d p_prime q_prime")):
    """Arithmetic data attached to the negative torus knot T(p, -q).

    For coprime 2 <= p < q write q = n*p - k with 0 < k < p.  Then c is the
    inverse of k mod p (0 < c < p), d = (c*k - 1)/p >= 0, and the companion
    pair (p', q') = (c, c*n - d) satisfies p*q' - q*p' = 1.  d == 0 happens
    exactly when k == 1 (for instance p, q = 2, 3).

    Ratios are (num, den) pairs in lowest terms: c inverts k mod p, and p*q' - q*p' = 1.
    """

    __slots__ = ()

    @property
    def genus(self) -> int:
        """Seifert genus (p-1)(q-1)/2 of the torus knot."""
        return (self.p - 1) * (self.q - 1) // 2

    @property
    def seifert_constants(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two orbifold constants of the complement, (p-p')/p and q'/q."""
        return (self.p - self.p_prime, self.p), (self.q_prime, self.q)

    @property
    def chain1_coefficient(self) -> tuple[int, int]:
        """Contact surgery coefficient of the first unknot, -p/(p-c)."""
        return -self.p, self.p - self.c

    @property
    def chain2_coefficient(self) -> tuple[int, int]:
        """Contact surgery coefficient of the second unknot, -q/q'."""
        return -self.q, self.q_prime


def validate_pair(p: int, q: int) -> None:
    """Refuse (p, q) unless 2 <= p < q and gcd(p, q) == 1."""
    if not (2 <= p < q):
        raise ValueError(f"need 2 <= p < q, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"need gcd(p, q) == 1, got ({p}, {q})")


def torus_knot_params(p: int, q: int) -> TorusKnotParams:
    """Solve the parameter identities for T(p, -q), with validation."""
    validate_pair(p, q)
    n = -(-q // p)
    k = n * p - q
    if not 0 < k < p:
        raise VerificationError(f"k = {k} out of range for ({p}, {q})")
    c = pow(k, -1, p)
    d = (c * k - 1) // p
    p_prime, q_prime = c, c * n - d
    # q' > 0 and the unimodularity identity tie everything together.
    if not (0 < p_prime < p and 0 < q_prime < q):
        raise VerificationError(f"companion pair out of range for ({p}, {q})")
    if p * q_prime - q * p_prime != 1:
        raise VerificationError(f"p*q' - q*p' != 1 for ({p}, {q})")
    return TorusKnotParams(p, q, n, k, c, d, p_prime, q_prime)


def complementary_expansions(params: TorusKnotParams):
    """The two chain expansions (cf1, cf2), with their gluing facts checked.

    cf1 expands p/(p-c); cf2 expands q/q' and always ends with the entry n.
    Dropping that final n leaves an expansion complementary to cf1:

        1/[cf1] + 1/[cf2 minus last entry] == 1,

    which also forces min(cf1[0], cf2[0]) == 2.
    """
    cf1 = neg_cf(params.p, params.p - params.c)
    cf2 = neg_cf(params.q, params.q_prime)
    if cf2[-1] != params.n:
        raise VerificationError(f"second expansion does not end in n={params.n}: {cf2}")
    if len(cf2) < 2:
        raise VerificationError(f"second expansion too short: {cf2}")
    n1, d1 = _continuant(cf1)
    n2, d2 = _continuant(cf2[:-1])
    if d1 * n2 + d2 * n1 != n1 * n2:  # d1/n1 + d2/n2 == 1
        raise VerificationError(f"expansions not complementary: {cf1} / {cf2}")
    if 2 not in (cf1[0], cf2[0]):
        raise VerificationError(f"no leading 2 in {cf1} / {cf2}")
    return cf1, cf2


def merged_lens_entries(cf1, cf2) -> tuple[int, ...]:
    """Entries of the single chain left after cancelling the (+1)-curves.

    Blowing down the two (+1)-curves fuses the chain leaders into one unknot
    of framing -(cf1[0] + cf2[0]) and concatenates the tails, the first chain
    reversed.  The resulting linear chain presents the lens space obtained by
    Legendrian surgery on the level-0 knot: evaluating the entries gives
    (pq+1)/v with v = p^2 or its inverse mod pq+1.
    """
    return tuple(reversed(cf1[1:])) + (cf1[0] + cf2[0],) + tuple(cf2[1:])
