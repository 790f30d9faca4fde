"""Type-A root combinatorics for the block parabolic: roots, grading levels,
and bracket generation of the nilradical by its first level.

Conventions.  Roots of sl(m) are integer vectors e_a - e_b (one +1, one -1,
rest 0).  The simple system is alpha_j = e_{j+1} - e_j, j = 1..m-1, evaluated
on diag(h_1,...,h_m) as h_{j+1} - h_j; positive roots are the nonnegative
integer combinations, i.e. the vectors whose +1 sits at the higher coordinate.
The code holds the root e_a - e_b as the pair (a, b) of its 0-based ends, the
+1 end first; its coordinate vector is the math, not the data.

A root e_a - e_b is realized as the rank-one map e_a -> e_b, i.e. the matrix
unit with its entry in row b, column a.  With this pairing the root spaces of
the positive roots are the strictly upper triangular matrix units, the
parabolic q spanned by Phi (levels >= 0) consists of the block-lowering maps
Hom(E^i, F^i), and the grading level of a root is

    level(e_a - e_b) = block(a) - block(b),

which matches level(Hom(E^i, E^j)) = i - j for the matrix realization.  (The
alternative pairing, root e_a - e_b acting as e_b -> e_a, would make q
block-raising; the two conventions differ by a global sign of the root system
and this module fixes the one above throughout.)  So the nilradical of q (levels
>= 1) is {(a, b) : block(a) > block(b)}, and the level-0 roots have both ends
in one block.
"""

from __future__ import annotations

from typing import Optional

from .hodge import HodgeNumbers


def root_sum(a: tuple[int, int], b: tuple[int, int]) -> Optional[tuple[int, int]]:
    """a + b if it is again a root, else None: (e_p - e_q) + (e_r - e_s) is
    e_p - e_s when q = r, e_r - e_q when s = p, and a root unless it is 0."""
    (p, q), (r, s) = a, b
    ends = (p, s) if q == r else (r, q) if s == p else None
    return ends if ends and ends[0] != ends[1] else None


def nilradical(ranks: HodgeNumbers) -> list[tuple[int, int]]:
    """The roots of levels >= 1, in the order of their coordinate vectors: b
    ascending, then a descending."""
    block_of = ranks.block_of
    return [(a, b) for b in range(ranks.m) for a in reversed(range(b + 1, ranks.m)) if block_of[a] > block_of[b]]


def level_zero_roots(ranks: HodgeNumbers) -> list[tuple[int, int]]:
    """The block-diagonal roots: both ends in one block."""
    return [(a, b) for i in range(len(ranks.ranks)) for a in ranks.block_range(i)
            for b in ranks.block_range(i) if a != b]


def wall_roots(ranks: HodgeNumbers) -> list[tuple[int, int]]:
    """The simple roots beta_i = alpha_{R_i} at the walls, i = 0..k-1."""
    return [(w, w - 1) for w in ranks.walls]


# ---------------------------------------------------------------------------
# Bracket generation of the nilradical by its first level.
# ---------------------------------------------------------------------------


def bracket_generating_check(ranks: HodgeNumbers) -> tuple[bool, list]:
    """Whether iterated brackets of the level-1 root spaces span every g_l, l >= 1.

    Returns (ok, levels), with one (level, dim, witnesses) per level: the
    witnesses are bracket trees built from level-1 roots (a root, or
    (root, subtree)), one per position reached, so the level is spanned
    exactly when there are dim of them.

    The root space of a nilradical root is one matrix unit E_{row,col}, and
    [E_{r1,c1}, E_{r2,c2}] is E_{r1,c2} if c1 = r2, -E_{r2,c1} if c2 = r1,
    and 0 otherwise.  So the span reached at a level is a set of positions,
    and a new position is one more dimension.  Only the first case is
    tried, with a level-1 root on the left: level1 is sorted by row, so in
    the second case r2 < c2 = r1, and the level-1 root (r2, x), for any x in
    block(r2) + 1, is visited earlier; (x, c1) lies in the previous level,
    which is complete by induction (a position (r, c) of level l >= 2 is the
    first case of (r, x) and (x, c)), so the first case has already found
    (r2, c1).
    """
    block_of = ranks.block_of
    by_level: dict[int, list[tuple[int, int]]] = {}
    for a, b in nilradical(ranks):
        by_level.setdefault(block_of[a] - block_of[b], []).append((a, b))
    level1 = by_level.get(1, [])
    levels = [(1, len(level1), level1)]
    prev = [(root, root[::-1]) for root in level1]  # (witness, position)

    ok = True
    for lv in range(2, max(by_level, default=0) + 1):
        target = len(by_level.get(lv, []))
        found: dict = {}  # position -> witness, in the order found
        for root1 in level1:
            c1, r1 = root1
            for witness, (r2, c2) in prev:
                if len(found) == target:
                    break
                if c1 == r2:
                    found.setdefault((r1, c2), (root1, witness))
        ok = ok and len(found) == target
        levels.append((lv, target, list(found.values())))
        prev = [(witness, pos) for pos, witness in found.items()]

    return ok, levels
