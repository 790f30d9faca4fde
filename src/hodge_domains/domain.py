"""Flags of C^(p+q), the indefinite Hermitian form, and exact membership and
projection tests for the open period-domain orbit.

Signature coordinates are used throughout: h = diag(+1 x p, -1 x q).  The base
flag places block i on the next unused plus coordinates when i is even and on
the next unused minus coordinates when i is odd, so it lies in the domain by
construction.

Membership: a flag F^0 c F^1 c ... c F^k is in the domain iff for every
-1 <= i <= k-1 the form (-1)^i h is negative definite on the h-orthogonal
complement of F^i inside F^{i+1} (with F^{-1} = 0, so the i = -1 condition is
h > 0 on F^0).  One fraction-free elimination of the Gram matrix G = B* h B
of the adapted basis over Z[i] gives its leading minors d_n, and by Sylvester's
criterion step i passes iff d_n * d_{n-1} has sign (-1)^(i+1) for every n in
block i+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable

from . import wire
from .exactla import (
    GaussianRational,
    Qi,
    QI_ZERO,
    QI_ONE,
    _cleared,
    _eliminate,
    _gaussian,
    as_matrix,
    hermitian_definiteness,
    mat_mul,
    nullspace,
    rank,
)
from .hodge import HodgeNumbers

Vector = tuple  # tuple of GaussianRational, length m


class DegenerateComplementError(ValueError):
    """The Hermitian form restricts degenerately to a flag step."""


@dataclass(frozen=True)
class Flag:
    """A flag given by an adapted basis: F^i is the span of the first
    r_0 + ... + r_i basis columns.  Its Gram matrix G (_integer_gram), built
    once, decides independence (det G = det h |det B|^2 times a positive
    scale, so rank G = m), membership and projection."""

    ranks: HodgeNumbers
    basis: tuple  # m column vectors, each a tuple of GaussianRational

    def __post_init__(self):
        cols = as_matrix(self.basis, self.m, self.m)
        object.__setattr__(self, "basis", cols)
        object.__setattr__(self, "_gram", _integer_gram(cols, self.ranks.signature_signs()))
        if rank(self._gram[0]) != self.m:
            raise ValueError("flag basis is not linearly independent")

    @property
    def m(self) -> int:
        return self.ranks.m

    @cached_property
    def _minors(self) -> list[int]:
        """[1, d_1, ..., d_t]: the leading minors of G before the first zero one (d_{t+1} = 0
        if t < m), the pivots of one elimination before a row swap."""
        pivot_cols, _, pivots, swap = _eliminate(self._gram[0], forward=True)
        return [1] + [re for k, (c, (re, _)) in enumerate(zip(pivot_cols[:swap], pivots)) if c == k]


@lru_cache(maxsize=None)
def hodge_flag(ranks: HodgeNumbers) -> Flag:
    """The base flag (one per ranks): standard basis vectors grouped block by
    block, even blocks on plus coordinates and odd blocks on minus coordinates."""
    m, perm = ranks.m, ranks.block_to_signature()
    return Flag(ranks, tuple(tuple(QI_ONE if x == perm[c] else QI_ZERO for x in range(m)) for c in range(m)))


def _integer_gram(vectors: Iterable[Vector], signs: tuple[int, ...]):
    """(G, columns, scales): G = B* diag(signs) B over Z[i] after scaling each
    column of B by the lcm of its denominators, the scaled columns as (re, im)
    int lists, and the scales.  A congruence by a positive diagonal, so no
    leading minor changes sign."""
    scales, cols = [], []
    for l, re, im in map(_cleared, vectors):
        scales.append(l)
        cols.append((re, im))
    n = len(cols)
    g = [[QI_ZERO] * n for _ in range(n)]
    for a, (ar, ai) in enumerate(cols):
        ar, ai = list(map(mul, signs, ar)), list(map(mul, signs, ai))
        for b in range(a, n):
            br, bi = cols[b]
            re = sum(map(mul, ar, br)) + sum(map(mul, ai, bi))
            im = sum(map(mul, ar, bi)) - sum(map(mul, ai, br))
            g[a][b], g[b][a] = _gaussian(re, im, 1), _gaussian(re, -im, 1)
    return g, cols, scales


def form_definiteness(vectors: Iterable[Vector], signs: tuple[int, ...]) -> str:
    """hermitian_definiteness of the form sum_c s_c x_c conj(y_c) on the span
    of the vectors, from their Gram matrix scaled into Z[i] (congruent to it by a
    positive diagonal, so with the same inertia and the same leading-minor signs)."""
    return hermitian_definiteness(_integer_gram(vectors, signs)[0])


def _minor_vanishes(g, d: list[int], n: int) -> bool:
    """Whether the leading n x n minor of g is 0, given d = Flag._minors."""
    return n >= len(d) and (n == len(d) or rank([row[:n] for row in g[:n]]) < n)


def _complement(g, cols, scales, small: int, big: int) -> list[Vector]:
    """Basis of the orthogonal complement of the first `small` basis vectors
    inside the first `big`, one vector per free column f of the nullspace of
    the block g[:small][:big], scaled so that its coefficient on the f-th
    basis vector is 1.  The form must be nondegenerate on the first `small`."""
    out = []
    coords = list(zip(zip(*(re for re, _ in cols)), zip(*(im for _, im in cols))))  # coordinate x across the columns
    for f, c in zip(range(small, big), nullspace([row[:big] for row in g[:small]])):
        l, cr, ci = _cleared(c)
        out.append(tuple(_gaussian(sum(map(mul, cr, u)) - sum(map(mul, ci, v)),
                                   sum(map(mul, cr, v)) + sum(map(mul, ci, u)), l * scales[f]) for u, v in coords))
    return out


def flag_in_period_domain(flag: Flag) -> bool:
    """Exact membership test for the open orbit.

    For each -1 <= i <= k-1 the complement of F^i in F^{i+1} with respect to
    h must carry (-1)^i h negative definite.  Its Gram matrix is the Schur
    complement of the F^i block of G in the F^{i+1} block, so this holds iff
    d_n * d_{n-1} has sign (-1)^(i+1) for dim F^i < n <= dim F^{i+1}.
    """
    d = flag._minors
    bounds = (0, *flag.ranks.walls, flag.m)
    return all(n < len(d) and (-1) ** b * d[n] * d[n - 1] > 0
               for b in range(flag.ranks.k + 1) for n in range(bounds[b] + 1, bounds[b + 1] + 1))


def project_to_symmetric_space(flag: Flag) -> tuple[Vector, ...]:
    """The p-plane built from the odd-step complements of the flag with
    respect to h (the fibration over the noncompact symmetric space).

    The i = -1 step contributes F^0 itself.  The form must be nondegenerate
    on F^i and F^{i+1} for every odd i >= 1.
    """
    g, cols, scales = flag._gram
    bounds = (0, *flag.ranks.walls, flag.m)
    odd_steps = range(1, flag.ranks.k, 2)
    d = flag._minors
    for i in odd_steps:
        if _minor_vanishes(g, d, bounds[i + 1]) or _minor_vanishes(g, d, bounds[i + 2]):
            raise DegenerateComplementError(f"indefinite form degenerates on flag step {i}")
    plane = list(flag.basis[: bounds[1]])
    for i in odd_steps:
        plane.extend(_complement(g, cols, scales, bounds[i + 1], bounds[i + 2]))
    if len(plane) != flag.ranks.p:
        raise AssertionError("projection produced a plane of the wrong dimension")
    return tuple(plane)


# ---------------------------------------------------------------------------
# Domain descriptor.
# ---------------------------------------------------------------------------


def describe_domain(ranks: HodgeNumbers) -> dict:
    """The report's "domain" section: the complex dimension of the flag
    manifold and of the open orbit, the complex rank of the first-level
    tangent subbundle, the fiber directions of the symmetric-space fibration,
    the rank tuples of the fiber's two flag-manifold factors, and whether
    some interior block has rank 1."""
    r = ranks.ranks
    n = len(r)
    return {
        "dim": sum(r[i] * r[j] for i in range(n) for j in range(i + 1, n)),
        "horizontal_rank": sum(r[i] * r[i + 1] for i in range(n - 1)),
        "vertical_rank": sum(r[i] * r[j] for i in range(n) for j in range(i + 1, n) if (j - i) % 2 == 0),
        "fiber_factors": [list(r[0::2]), list(r[1::2])],
        "interior_rank_one": ranks.has_interior_rank_one,
    }


# ---------------------------------------------------------------------------
# Seeded constructions: rational flags near the base point and block-diagonal
# rational h-unitaries (a phase times two Householder reflections per block).
# ---------------------------------------------------------------------------


PERTURBATION_TRIES = 8


def perturbed_flag(ranks: HodgeNumbers, rng) -> Flag:
    """A rational flag near the base flag, guaranteed inside the domain.

    Adds sparse rational perturbations to the base columns and retries with a
    smaller scale until the exact membership test passes.
    """
    base = hodge_flag(ranks)
    m = ranks.m
    scale = Fraction(1, 16)
    for _ in range(PERTURBATION_TRIES):
        cols = []
        for col in base.basis:
            new = list(col)
            for _ in range(2):
                c = rng.randrange(m)
                new[c] = new[c] + GaussianRational(rng.randint(-2, 2) * scale, rng.randint(-2, 2) * scale)  # re, then im
            cols.append(tuple(new))
        try:
            flag = Flag(ranks, tuple(cols))
        except ValueError:
            scale = scale / 4
            continue
        if flag_in_period_domain(flag):
            return flag
        scale = scale / 4
    raise RuntimeError("could not build an in-domain perturbed flag")


def _reflection(s: int, rng) -> list[list[GaussianRational]]:
    """The Householder reflection I - 2 v v* / (v* v) of a nonzero v drawn in
    Z[i]^s with real and imaginary parts in [-2, 2], as (re, im) pairs."""
    v = [(0, 0)] * s
    while not any(map(any, v)):
        v = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(s)]
    n = sum(a * a + b * b for a, b in v)
    return [[_gaussian(n * (i == j) - 2 * (a * c + b * e), 2 * (a * e - b * c), n) for j, (c, e) in enumerate(v)]
            for i, (a, b) in enumerate(v)]


def random_block_unitary(ranks: HodgeNumbers, rng) -> list[list[GaussianRational]]:
    """A rational h-unitary acting block-diagonally in signature coordinates.

    Each block is a phase (p + qi) / (p - qi), q != 0, times a product of two
    Householder reflections (Householder 1958), hence exactly unitary for
    the definite form, with denominators v* v and p^2 + q^2 only.  The phase
    moves 1 x 1 blocks, where a reflection is -1.  Since h is a constant sign
    on each block, the assembled matrix is h-unitary.
    """
    m = ranks.m
    u = [[QI_ONE if i == j else QI_ZERO for j in range(m)] for i in range(m)]
    perm = ranks.block_to_signature()
    for b in range(ranks.k + 1):
        coords = [perm[c] for c in ranks.block_range(b)]
        p, q = rng.randint(-2, 2), rng.randint(1, 2)
        phase = Qi(p, q) / Qi(p, -q)
        block = mat_mul(_reflection(len(coords), rng), _reflection(len(coords), rng))
        for bi, gi in enumerate(coords):
            for bj, gj in enumerate(coords):
                u[gi][gj] = phase * block[bi][bj]
    return u


def apply_matrix(u: list[list[GaussianRational]], flag: Flag) -> Flag:
    return Flag(flag.ranks, tuple(zip(*mat_mul(u, list(zip(*flag.basis))))))


# ---------------------------------------------------------------------------
# JSON wire format (see wire): ranks, and basis as columns of scalars.
# ---------------------------------------------------------------------------


def flag_dumps(flag: Flag) -> str:
    return wire.dumps({"schema": wire.SCHEMA, "ranks": list(flag.ranks.ranks),
                       "basis": wire.encode_array(flag.basis)})


def flag_loads(text: str) -> Flag:
    """The flag of a flag_dumps document; ValueError on anything malformed."""
    doc = wire.read(text, "basis")
    return Flag(doc["ranks"], wire.decode_array(doc["basis"], 2))
