"""Type-A root combinatorics for the block parabolic: roots, grading levels,
and bracket generation of the nilradical by its first level.

Conventions.  Roots of sl(m) are integer vectors e_a - e_b (one +1, one -1,
rest 0).  The simple system is alpha_j = e_{j+1} - e_j, j = 1..m-1, evaluated
on diag(h_1,...,h_m) as h_{j+1} - h_j; positive roots are the nonnegative
integer combinations, i.e. the vectors whose +1 sits at the higher coordinate.

A root e_a - e_b is realized as the rank-one map e_a -> e_b, i.e. the matrix
unit with its entry in row b, column a.  With this pairing the root spaces of
the positive roots are the strictly upper triangular matrix units, the
parabolic q spanned by Phi (levels >= 0) consists of the block-lowering maps
Hom(E^i, F^i), and the grading level of a root is

    level(e_a - e_b) = block(a) - block(b),

which matches level(Hom(E^i, E^j)) = i - j for the matrix realization.  (The
alternative pairing, root e_a - e_b acting as e_b -> e_a, would make q
block-raising; the two conventions differ by a global sign of the root system
and this module fixes the one above throughout.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .hodge import HodgeNumbers


@dataclass(frozen=True, order=True)
class RootVector:
    """A root of sl(m): coordinates summing to 0 with exactly one +1 and one -1."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if sorted(coords) != [-1] + [0] * (len(coords) - 2) + [1]:
            raise ValueError(f"not an sl(m) root: {coords!r}")

    @property
    def plus_index(self) -> int:
        """0-based position of the +1 entry."""
        return self.coords.index(1)

    @property
    def minus_index(self) -> int:
        """0-based position of the -1 entry."""
        return self.coords.index(-1)

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-c for c in self.coords))

    def __repr__(self):
        a, b = self.plus_index + 1, self.minus_index + 1
        return f"Root(e{a}-e{b})"


def root_between(m: int, plus_index: int, minus_index: int) -> RootVector:
    """The root e_{plus} - e_{minus} (0-based indices)."""
    coords = [0] * m
    coords[plus_index] = 1
    coords[minus_index] = -1
    return RootVector(tuple(coords))


def root_sum(a: RootVector, b: RootVector) -> Optional[RootVector]:
    """a + b if it is again a root, else None: (e_p - e_q) + (e_r - e_s) is
    e_p - e_s when q = r, e_r - e_q when s = p, and a root unless it is 0."""
    (p, q), (r, s) = (a.plus_index, a.minus_index), (b.plus_index, b.minus_index)
    ends = (p, s) if q == r else (r, q) if s == p else None
    return root_between(len(a.coords), *ends) if ends and ends[0] != ends[1] else None


def all_roots(m: int) -> list[RootVector]:
    """All m(m-1) roots of sl(m), in a fixed deterministic order."""
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: sl(m) needs m >= 2")
    return sorted(
        root_between(m, a, b) for a in range(m) for b in range(m) if a != b
    )


@dataclass(frozen=True)
class ParabolicData:
    """Root-level description of the block parabolic q inside sl(m), whose
    roots phi are the roots of levels >= 0.

    v_roots : phi intersect -phi (the level-0, block-diagonal roots)
    n_roots : phi minus -phi (the nilradical, levels >= 1)
    """

    ranks: HodgeNumbers
    m: int
    v_roots: frozenset[RootVector]
    n_roots: frozenset[RootVector]
    block_of: tuple[int, ...]

    def level(self, root: RootVector) -> int:
        """Grading level: block(+1 position) - block(-1 position)."""
        return self.block_of[root.plus_index] - self.block_of[root.minus_index]

    def sorted_n_roots(self) -> list[RootVector]:
        return sorted(self.n_roots)


@lru_cache(maxsize=None)
def parabolic_from_ranks(ranks: HodgeNumbers) -> ParabolicData:
    """Build the parabolic data of the block flag type (r_0, ..., r_k) (once: it is frozen)."""
    m = ranks.m
    block_of = ranks.block_of

    roots = all_roots(m)
    positive = [r for r in roots if r.plus_index > r.minus_index]
    in_span = [r for r in roots if block_of[r.plus_index] == block_of[r.minus_index]]
    phi = frozenset(positive) | frozenset(in_span)
    v_roots = frozenset(r for r in phi if -r in phi)
    n_roots = frozenset(r for r in phi if -r not in phi)

    expected_n = sum(
        ranks.ranks[i] * ranks.ranks[j]
        for i in range(len(ranks.ranks))
        for j in range(i + 1, len(ranks.ranks))
    )
    if len(n_roots) != expected_n or v_roots | n_roots != phi or v_roots & n_roots:
        raise AssertionError("parabolic decomposition violated its invariants")

    return ParabolicData(
        ranks=ranks,
        m=m,
        v_roots=v_roots,
        n_roots=n_roots,
        block_of=block_of,
    )


def wall_roots(pd: ParabolicData) -> list[RootVector]:
    """The simple roots beta_i = alpha_{R_i} at the walls, i = 0..k-1."""
    return [root_between(pd.m, w, w - 1) for w in pd.ranks.walls]


# ---------------------------------------------------------------------------
# Bracket generation of the nilradical by its first level.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelCertificate:
    level: int
    dim: int
    achieved: int
    witnesses: tuple  # bracket trees: a RootVector, or (RootVector, subtree)


@dataclass(frozen=True)
class BracketGenerationCertificate:
    ranks: HodgeNumbers
    ok: bool
    levels: tuple[LevelCertificate, ...]


def bracket_generating_check(pd: ParabolicData) -> BracketGenerationCertificate:
    """Whether iterated brackets of the level-1 root spaces span every g_l, l >= 1.

    The root space of a nilradical root is one matrix unit E_{row,col}, and
    [E_{r1,c1}, E_{r2,c2}] is E_{r1,c2} if c1 = r2, -E_{r2,c1} if c2 = r1,
    and 0 otherwise.  So the span reached at a level is a set of positions,
    and a new position is one more dimension.  Only the first case is
    tried, with a level-1 root on the left: level1 is sorted by row, so in
    the second case r2 < c2 = r1, and the level-1 root (r2, x), for any x in
    block(r2) + 1, is visited earlier; (x, c1) lies in the previous level,
    which is complete by induction (a position (r, c) of level l >= 2 is the
    first case of (r, x) and (x, c)), so the first case has already found
    (r2, c1).  The certificate carries, for each level, a spanning set of
    bracket trees built from level-1 roots.
    """
    by_level: dict[int, list[RootVector]] = {}
    for r in pd.sorted_n_roots():
        by_level.setdefault(pd.level(r), []).append(r)
    level1 = by_level.get(1, [])
    certs = [LevelCertificate(level=1, dim=len(level1), achieved=len(level1), witnesses=tuple(level1))]
    prev = [(r, (r.minus_index, r.plus_index)) for r in level1]  # (witness, position)

    ok = True
    for lv in range(2, max(by_level, default=0) + 1):
        target = len(by_level.get(lv, []))
        found: dict = {}  # position -> witness, in the order found
        for root1 in level1:
            r1, c1 = root1.minus_index, root1.plus_index
            for witness, (r2, c2) in prev:
                if len(found) == target:
                    break
                if c1 == r2:
                    found.setdefault((r1, c2), (root1, witness))
        ok = ok and len(found) == target
        certs.append(LevelCertificate(level=lv, dim=target, achieved=len(found), witnesses=tuple(found.values())))
        prev = [(witness, pos) for pos, witness in found.items()]

    return BracketGenerationCertificate(ranks=pd.ranks, ok=ok, levels=tuple(certs))
