"""Classical invariants (tb, rot, d3) read off a surgery presentation.

The diagram has a fixed linking pattern: every curve is a Legendrian unknot,
the two chain leaders and the two (+1)-surgery curves are mutual Legendrian
push-offs of one tb = -1 unknot (so any two of them link -1, as does each of
them with the knot), and consecutive chain unknots link +1.  Chain tails do
not link the knot or anything outside their chain.

Every presentation of T(p, -q) shares the linking matrix Q of the surgery
curves (smooth framings on the diagonal) and the linking vector lk of the
knot with them; |det Q| = 1, so Q^{-1} is an integer matrix.  A per-knot
kernel holds the chain block of Q^{-1}, the chain entries of w = Q^{-1} lk
(both (+1)-curves have rotation 0), lk^T Q^{-1} lk and sig(Q); the knot L's
invariants in the surgered contact 3-sphere are integer dot products:

    tb  = tb_0 - lk^T Q^{-1} lk
    rot = rot_0 - <r, w>
    d3  = (<r, Q^{-1} r> - 3 sig(Q) - 2 chi) / 4 + #(+1 surgeries)

where r is the vector of chain rotation numbers, chi = 1 + #curves,
tb_0 = -1 - level and rot_0 = stab_pos - stab_neg.  One integer pass
(linalg.adjugate) gives Q^{-1} = det(Q) adj(Q) and the leading minors D_k,
so sig(Q) = m - 2 * #(sign changes along 1, D_1, ..., D_m) (Jacobi).  With
the chains first no D_k is 0: the chain block is negative definite, the
first (+1)-curve borders it with a nonzero column, and D_m = det Q = +-1.
The kernel checks its tb against the determinant ratio det(Q_0) / det(Q)
(Q_0: extend Q by L with a 0 slot), an independent route.
Stabilizations act on the knot alone, so only tb_0 and rot_0 see them,
and one kernel read at (0, 0) per rotation vector and knot serves every
level and split:

    at (pos, level - pos):  tb - level, rot + 2 pos - level, d3, A - pos, M - 2 pos

(d3 stays; a positive stabilization in place of a negative one acts as U on
the bigrading).
The d3 we report is normalized by +1/2, making it 0 on the standard tight
3-sphere.  For the d3 of contact (-1)-surgery on L, the extended matrix
E = [[Q, lk], [lk^T, -2 - level]] is handled through the Schur complement
s = -2 - level - lk^T Q^{-1} lk: <r', E^{-1} r'> = <r, Q^{-1} r> + rot^2 / s
and sig(E) = sig(Q) + sign(s).  As s = tb - 1 and E has one curve more, the
surgered d3 is read off the knot's own invariants:

    d3(surgered) = d3 - 1 + (rot^2 - 3 |s|) / (4 s)
"""

import functools
import operator
from collections import namedtuple

from .cf import VerificationError, _continuant, merged_lens_entries
from .diagram import Presentation, chain_expansions, chains_for, rotation_vectors
from .linalg import adjugate, det_bareiss


# ---- the linking matrix


def _linking(p: int, q: int) -> tuple[list[list[int]], list[int]]:
    """(Q, lk): linking matrix of the surgery curves (chains, then both
    (+1)-curves) and the linking numbers of the knot with them."""
    tbs1, tbs2 = chains_for(p, q)
    n1, n2 = len(tbs1), len(tbs2)
    m = n1 + n2 + 2
    framings = [tb - 1 for tb in tbs1 + tbs2] + [0, 0]
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        mat[i][i] = framings[i]
    for base, size in ((0, n1), (n1, n2)):
        for i in range(base, base + size - 1):
            mat[i][i + 1] = mat[i + 1][i] = 1
    main = (0, n1, n1 + n2, n1 + n2 + 1)
    lk = [0] * m
    for i in main:
        lk[i] = -1
        for j in main:
            if i != j:
                mat[i][j] = -1
    return mat, lk


def _bordered(mat, lk, corner: int) -> list[list[int]]:
    return [row + [l] for row, l in zip(mat, lk)] + [lk + [corner]]


# ---- the per-knot kernel


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


@functools.lru_cache(maxsize=None)
def _kernel(p: int, q: int) -> tuple:
    """(inverse, w, lk_norm, sigma) = (the chain block of Q^{-1} as rows, the chain
    entries of Q^{-1} lk, lk^T Q^{-1} lk, sig(Q)): the constants shared by every
    presentation of T(p, -q), checked on the whole of Q."""
    mat, lk = _linking(p, q)
    det, adj, minors = adjugate(mat)
    if abs(det) != 1:
        raise VerificationError(f"non-integral inverse linking matrix for T({p}, -{q})")
    w = [det * _dot(row, lk) for row in adj]
    lk_norm = _dot(lk, w)
    # det(Q_0) = -det(Q) * lk^T Q^{-1} lk: the determinant-ratio tb formula
    if det_bareiss(_bordered(mat, lk, 0)) != -lk_norm * det_bareiss(mat):
        raise VerificationError(f"tb from Q^-1 disagrees with the determinant ratio for T({p}, -{q})")
    negative = sum(a * b < 0 for a, b in zip((1,) + minors, minors))
    inverse = tuple(tuple(det * x for x in row[:-2]) for row in adj[:-2])  # (+1)-curves last
    return inverse, tuple(w[:-2]), lk_norm, len(mat) - 2 * negative


# ---- invariants


class ClassicalInvariants(namedtuple("ClassicalInvariants", "tb rot d3 alexander maslov")):
    """tb, rot and ambient d3, plus the derived bigrading.

    alexander = (tb - rot + 1) / 2 and maslov = 2 * alexander - d3 locate the
    class in the bigraded knot Floer module; they are integers for every
    presentation (tb - rot is odd).
    """

    __slots__ = ()


def bigrading(tb: int, rot: int, d3: int) -> tuple[int, int]:
    """(A, M) = ((tb - rot + 1)/2, 2A - d3); tb - rot must be odd."""
    twice = tb - rot + 1
    if twice % 2:
        raise ArithmeticError(f"tb - rot = {tb - rot} is even")
    return twice // 2, twice - d3


def classical_invariants(pres: Presentation) -> ClassicalInvariants:
    """tb, rot and the normalized ambient d3 from one kernel lookup."""
    inverse, w, lk_norm, sigma = _kernel(pres.p, pres.q)
    r = (*pres.rots1, *pres.rots2)  # the (+1)-curves have rotation 0
    tb = -1 - pres.level - lk_norm
    rot = pres.stab_pos - pres.stab_neg - _dot(r, w)
    form = sum([x * _dot(row, r) for x, row in zip(r, inverse) if x])  # r^T Q^{-1} r
    # 4 * d3: chi counts both (+1)-curves, which with the normalization give 4 * (2 + 1/2)
    four = form - 3 * sigma - 2 * (1 + len(r) + 2) + 10
    if four % 4:
        raise VerificationError(f"non-integral normalized d3 {four}/4 for {pres}")
    d3 = four // 4
    return ClassicalInvariants(tb, rot, d3, *bigrading(tb, rot, d3))


@functools.lru_cache(maxsize=None)
def _rotation_table(p: int, q: int) -> tuple:
    """(rots1, rots2, invariants at stabs (0, 0)) per rotation vector of T(p, -q),
    in rotation_vectors order.  At the cap, T(2, -40001) with 80,000 records,
    it retains 27 MB (tracemalloc, Python 3.11)."""
    return tuple(
        (rots1, rots2, classical_invariants(Presentation(p, q, rots1, rots2)))
        for rots1, rots2 in rotation_vectors(p, q)
    )


def presentations_with_invariants(p: int, q: int, level: int):
    """(pres, classical_invariants(pres)) in enumerate_presentations order, shifted
    from the knot's table (its own records at level 0); a level rotation_vectors
    refuses raises ValueError before any evaluation."""
    rotation_vectors(p, q, level)
    for rots1, rots2, inv in _rotation_table(p, q):
        tb, rot, d3, alexander, maslov = inv
        for pos in range(level + 1):
            yield Presentation(p, q, rots1, rots2, pos, level - pos), ClassicalInvariants(
                tb - level, rot + 2 * pos - level, d3, alexander - pos, maslov - 2 * pos
            ) if level else inv


def d3_surgered(inv: ClassicalInvariants) -> int:
    """4s times the unnormalized d3 of contact (-1)-surgery on the knot with
    invariants inv, s = tb - 1: an integer; s is fixed within one knot and level."""
    s = inv.tb - 1
    return 4 * s * (inv.d3 - 1) + inv.rot**2 - 3 * abs(s)


# ---- smooth-topology oracle


def smooth_topology(p: int, q: int) -> tuple[int, int, tuple[int, int]]:
    """(det Q, |H1|, (num, den)) of the level-0 diagram of T(p, -q): the
    determinant of its linking matrix Q, the order of the first homology once
    the knot is surgered as well, and the lens type L(num, den) read off the
    chain left after cancelling the (+1)-curves."""
    mat, lk = _linking(p, q)
    h1 = abs(det_bareiss(_bordered(mat, lk, -2)))
    return det_bareiss(mat), h1, _continuant(merged_lens_entries(*chain_expansions(p, q)))
