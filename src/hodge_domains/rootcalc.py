"""Type-A root combinatorics for the block parabolic, its grading, and exact
Lie-algebra kernels (sparse brackets, Killing form, conjugation).

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
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .exactla import GaussianRational, Qi, QI_ZERO, as_matrix, conj_transpose, mat_mul, mat_neg, trace
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
    def m(self) -> int:
        return len(self.coords)

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
    """a + b if it is again a root, else None."""
    coords = tuple(x + y for x, y in zip(a.coords, b.coords))
    if sorted(coords) == [-1] + [0] * (len(coords) - 2) + [1]:
        return RootVector(coords)
    return None


def simple_roots(m: int) -> list[RootVector]:
    """The simple system alpha_1, ..., alpha_{m-1} with alpha_j = e_{j+1} - e_j."""
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: sl(m) needs m >= 2")
    return [root_between(m, j + 1, j) for j in range(m - 1)]


def all_roots(m: int) -> list[RootVector]:
    """All m(m-1) roots of sl(m), in a fixed deterministic order."""
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: sl(m) needs m >= 2")
    return sorted(
        root_between(m, a, b) for a in range(m) for b in range(m) if a != b
    )


@dataclass(frozen=True)
class ParabolicData:
    """Root-level description of the block parabolic q inside sl(m).

    phi     : roots of q (levels >= 0)
    v_roots : phi intersect -phi (the level-0, block-diagonal roots)
    n_roots : phi minus -phi (the nilradical, levels >= 1)
    pi_q    : 1-based indices of the simple roots deleted to form the parabolic
              (the walls r_0, r_0+r_1, ...)
    """

    ranks: HodgeNumbers
    m: int
    pi_q: frozenset[int]
    phi: frozenset[RootVector]
    v_roots: frozenset[RootVector]
    n_roots: frozenset[RootVector]
    block_of: tuple[int, ...]

    def level(self, root: RootVector) -> int:
        """Grading level: block(+1 position) - block(-1 position)."""
        return self.block_of[root.plus_index] - self.block_of[root.minus_index]

    def block_pair(self, root: RootVector) -> tuple[int, int]:
        """(source block, target block) of the root's matrix realization."""
        return (self.block_of[root.plus_index], self.block_of[root.minus_index])

    def sorted_n_roots(self) -> list[RootVector]:
        return sorted(self.n_roots)


def parabolic_from_ranks(ranks: HodgeNumbers | Iterable[int]) -> ParabolicData:
    """Build the parabolic data of the block flag type (r_0, ..., r_k)."""
    if not isinstance(ranks, HodgeNumbers):
        ranks = HodgeNumbers(tuple(ranks))
    m = ranks.m
    block_of = ranks.block_of
    pi_q = frozenset(ranks.walls)

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
        pi_q=pi_q,
        phi=phi,
        v_roots=v_roots,
        n_roots=n_roots,
        block_of=block_of,
    )


def wall_roots(pd: ParabolicData) -> list[RootVector]:
    """The simple roots beta_i = alpha_{R_i} at the walls, i = 0..k-1."""
    return [root_between(pd.m, w, w - 1) for w in sorted(pd.pi_q)]


def bridge_root(pd: ParabolicData, i: int, j: int) -> RootVector:
    """The root alpha_{R_i} + ... + alpha_{R_j} running from the last coordinate
    of block i to the first coordinate of block j+1 (i <= j <= k-1)."""
    walls = sorted(pd.pi_q)
    return root_between(pd.m, walls[j], walls[i] - 1)


# ---------------------------------------------------------------------------
# Sparse integer matrices for root-space representatives.
# ---------------------------------------------------------------------------

Sparse = dict  # {(row, col): int}


def root_space_sparse(root: RootVector) -> Sparse:
    """Matrix unit of the root's root space: the map e_plus -> e_minus."""
    return {(root.minus_index, root.plus_index): 1}


def sparse_bracket(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for (ra, ca), va in a.items():
        for (rb, cb), vb in b.items():
            if ca == rb:
                key = (ra, cb)
                out[key] = out.get(key, 0) + va * vb
            if cb == ra:
                key = (rb, ca)
                out[key] = out.get(key, 0) - vb * va
    return {k: v for k, v in out.items() if v != 0}


def entry_level(block_of: tuple[int, ...], row: int, col: int) -> int:
    """Grading level of the (row, col) matrix position: block(col) - block(row)."""
    return block_of[col] - block_of[row]


# ---------------------------------------------------------------------------
# Grading.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradingReport:
    """Levels of all roots, graded dimensions, and the bracket compatibility audit."""

    ranks: HodgeNumbers
    levels: dict  # level -> tuple of RootVector
    block_pairs: dict  # RootVector -> (source block, target block)
    dim_g: dict  # level -> dimension of the graded piece (level 0 includes the Cartan)
    bracket_additive: bool
    descending_series_ok: bool


def grading(pd: ParabolicData) -> GradingReport:
    """Assign each root its level and audit the grading relations.

    Checks, on matrix-unit representatives, that [g_a, g_b] lands in g_{a+b}
    and that the descending series n^(r) = sum of levels >= r satisfies
    [n, n^(r)] contained in n^(r+1).
    """
    roots = all_roots(pd.m)
    levels: dict[int, list[RootVector]] = {}
    block_pairs = {}
    for r in roots:
        lv = pd.level(r)
        levels.setdefault(lv, []).append(r)
        block_pairs[r] = pd.block_pair(r)

    dim_g = {lv: len(rs) for lv, rs in levels.items()}
    dim_g[0] = dim_g.get(0, 0) + (pd.m - 1)  # Cartan sits at level 0

    q_levels = {lv for lv in levels if lv >= 0}
    n_levels = sorted(lv for lv in levels if lv >= 1)

    # Bracket additivity on representatives.
    bracket_additive = True
    for a in roots:
        sa = root_space_sparse(a)
        la = pd.level(a)
        for b in roots:
            br = sparse_bracket(sa, root_space_sparse(b))
            lb = pd.level(b)
            for (row, col) in br:
                if row != col and entry_level(pd.block_of, row, col) != la + lb:
                    bracket_additive = False
                if row == col and la + lb != 0:
                    bracket_additive = False

    # [n, n^(r)] inside n^(r+1), i.e. every bracket entry at level >= r+1.
    descending_ok = True
    n_roots_sorted = pd.sorted_n_roots()
    max_level = max(n_levels) if n_levels else 0
    for r in range(1, max_level + 1):
        step = [x for x in n_roots_sorted if pd.level(x) >= r]
        for a in n_roots_sorted:
            sa = root_space_sparse(a)
            for b in step:
                br = sparse_bracket(sa, root_space_sparse(b))
                for (row, col) in br:
                    if entry_level(pd.block_of, row, col) < r + 1:
                        descending_ok = False

    # Sanity: q-roots are exactly the roots of nonnegative level.
    nonneg = {r for lv in q_levels for r in levels[lv]}
    if nonneg != set(pd.phi):
        raise AssertionError("q-roots are not the nonnegative levels")

    return GradingReport(
        ranks=pd.ranks,
        levels={lv: tuple(sorted(rs)) for lv, rs in levels.items()},
        block_pairs=block_pairs,
        dim_g=dim_g,
        bracket_additive=bracket_additive,
        descending_series_ok=descending_ok,
    )


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


def _sparse_reduce(vec: Sparse, echelon: dict) -> Sparse:
    """Reduce an integer sparse vector against pivot rows (fraction-free)."""
    vec = dict(vec)
    while vec:
        pivot = min(vec)
        if pivot not in echelon:
            g = 0
            for x in vec.values():
                g = gcd(g, x)
            if g > 1:
                vec = {k: v // g for k, v in vec.items()}
            return vec
        pvec = echelon[pivot][0]
        a, b = pvec[pivot], vec[pivot]
        new = {k: a * v for k, v in vec.items()}
        for k, v in pvec.items():
            new[k] = new.get(k, 0) - b * v
        vec = {k: v for k, v in new.items() if v != 0}
    return {}


def bracket_generating_check(pd: ParabolicData) -> BracketGenerationCertificate:
    """Whether iterated brackets of the level-1 root spaces span every g_l, l >= 1.

    Exact integer rank computation per level; the certificate carries, for each
    level, a spanning set of bracket trees built from level-1 roots.
    """
    n_roots = pd.sorted_n_roots()
    by_level: dict[int, list[RootVector]] = {}
    for r in n_roots:
        by_level.setdefault(pd.level(r), []).append(r)
    max_level = max(by_level) if by_level else 0

    certs = []
    level1 = [(r, root_space_sparse(r)) for r in by_level.get(1, [])]
    prev_basis = [(r, m) for r, m in level1]
    certs.append(
        LevelCertificate(
            level=1,
            dim=len(by_level.get(1, [])),
            achieved=len(level1),
            witnesses=tuple(r for r, _ in level1),
        )
    )

    ok = True
    for lv in range(2, max_level + 1):
        target = len(by_level.get(lv, []))
        echelon: dict = {}  # pivot position -> (sparse vec, witness)
        basis = []
        done = False
        for root1, m1 in level1:
            for wit_prev, m_prev in prev_basis:
                red = _sparse_reduce(sparse_bracket(m1, m_prev), echelon)
                if red:
                    witness = (root1, wit_prev)
                    echelon[min(red)] = (red, witness)
                    basis.append((witness, red))
                    if len(echelon) == target:
                        done = True
                        break
            if done:
                break
        achieved = len(echelon)
        ok = ok and achieved == target
        certs.append(
            LevelCertificate(
                level=lv,
                dim=target,
                achieved=achieved,
                witnesses=tuple(w for w, _ in basis),
            )
        )
        prev_basis = basis

    return BracketGenerationCertificate(ranks=pd.ranks, ok=ok, levels=tuple(certs))


# ---------------------------------------------------------------------------
# Block matrices over the Gaussian rationals, Killing form, conjugation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockMatrix:
    """An m x m matrix over Q(i), graded by the block structure of `ranks`."""

    ranks: HodgeNumbers
    entries: tuple  # tuple of row tuples of GaussianRational

    def __post_init__(self):
        object.__setattr__(self, "entries", as_matrix(self.entries, self.m, self.m))

    @property
    def m(self) -> int:
        return self.ranks.m

    def rows(self) -> list[list[GaussianRational]]:
        return [list(r) for r in self.entries]


def block_matrix(ranks: HodgeNumbers, rows: Iterable[Iterable]) -> BlockMatrix:
    return BlockMatrix(ranks, tuple(tuple(row) for row in rows))


def grading_element(ranks: HodgeNumbers) -> BlockMatrix:
    """The block-scalar diagonal xi with ad(xi) = i*l on the level-l piece.

    Per-block scalars step down by one per block index, shifted to make the
    trace vanish; the whole matrix is a purely imaginary diagonal.
    """
    m = ranks.m
    shift = Fraction(sum(i * r for i, r in enumerate(ranks.ranks)), m)
    rows = [
        [
            Qi(0, shift - ranks.block_of[c]) if r == c else QI_ZERO
            for c in range(m)
        ]
        for r in range(m)
    ]
    return block_matrix(ranks, rows)


def killing_form(x: BlockMatrix, y: BlockMatrix) -> GaussianRational:
    """Killing form of sl(m): B(X, Y) = 2m * tr(XY)."""
    if x.m != y.m:
        raise ValueError(f"dimension mismatch: {x.m} vs {y.m}")
    return Qi(2 * x.m) * trace(mat_mul(x.rows(), y.rows()))


def tau_conjugate(x: BlockMatrix) -> BlockMatrix:
    """Conjugation with respect to the compact real form: tau(X) = -X*."""
    return block_matrix(x.ranks, mat_neg(conj_transpose(x.rows())))

