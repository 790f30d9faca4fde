"""Classification of real 2-planes in the first-level horizontal fiber: the
bracket 2-form, isotropy, regularity, the rank-(1,n,1) criterion, stabilizer
dimension counts, and the check of the rank-(1,2,1) model embedded at a wide
middle block.

A horizontal vector is a tuple of matrices A_i from block i to block i+1.
The bracket 2-form takes two horizontal vectors to the level-two piece,
component i being B_{i+1} A_i - A_{i+1} B_i.  For ranks (1,n,1), writing
u = (v1, v2) with v1 the first component column and v2 the transpose of the
second, this is literally the complex symplectic scalar  t(v1) w2 - t(v2) w1.

A real 2-plane S = span_R(u, w) is isotropic when the form vanishes on it and
regular when v -> (s -> bracket(v, s)) maps the horizontal fiber onto all
real-linear maps S -> (level-two piece); regularity is decided by an exact
real rank computation.  A positive multiple of u or w spans the same plane,
so the tests below work on u and w cleared of denominators, over Z[i].

When a middle block has rank r_{i+1} >= 2, the (1,2,1) model sits at four
coordinates around walls i and i+1, which is why kernel generator i has a
horizontal sphere representative.  su22_embedding carries drawn model pairs
there and checks, exactly, that the ambient bracket is the model's scalar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import itemgetter, neg
from typing import Callable, Optional, Sequence

from .exactla import GaussianRational, _cleared, as_matrix, rank
from .hodge import HodgeNumbers


class NotApplicableError(ValueError):
    """The construction requires a middle block of rank at least 2."""


@dataclass(frozen=True)
class HorizontalVector:
    """components[i] maps block i to block i+1 (an r_{i+1} x r_i matrix)."""

    ranks: HodgeNumbers
    components: tuple

    def __post_init__(self):
        r = self.ranks.ranks
        if len(self.components) != self.ranks.k:
            raise ValueError(f"expected {self.ranks.k} components")
        comps = tuple(as_matrix(mx, r[i + 1], r[i]) for i, mx in enumerate(self.components))
        object.__setattr__(self, "components", comps)

    def flatten(self) -> list[GaussianRational]:
        return [x for mx in self.components for row in mx for x in row]

    @cached_property
    def gaussian_integers(self) -> tuple[tuple[int, int], ...]:
        """The entries of l * self as (re, im) int pairs in flatten order,
        with l > 0 the lcm of their denominators."""
        _, re, im = _cleared(self.flatten())
        return tuple(zip(re, im))


def _independent(x: Sequence[tuple[int, int]], y: Sequence[tuple[int, int]], real: bool = False) -> bool:
    """Whether vectors x, y over Z[i] ((re, im) int pairs) are linearly
    independent over C, or with real=True over R (as their real coordinate
    vectors): x has a first nonzero entry x_k and some 2x2 minor
    x_k y_j - x_j y_k is nonzero (else y = (y_k / x_k) x)."""
    k = next((k for k, (a, b) in enumerate(x) if a or b), None)
    if k is None:
        return False
    (p, q), (r, s) = x[k], y[k]
    if real:  # the first nonzero real coordinate of x is p, or q when p = 0
        p, r = (p, r) if p else (q, s)
        return any(p * c != a * r or p * e != b * r for (a, b), (c, e) in zip(x, y))
    return any(p * c - q * e != a * r - b * s or p * e + q * c != a * s + b * r
               for (a, b), (c, e) in zip(x, y))


@lru_cache(maxsize=None)
def horizontal_positions(ranks: HodgeNumbers) -> tuple[tuple[int, int, int], ...]:
    """Coordinate positions (component, row, col) of the horizontal fiber."""
    r = ranks.ranks
    return tuple(
        (i, row, col)
        for i in range(ranks.k)
        for row in range(r[i + 1])
        for col in range(r[i])
    )


@dataclass(frozen=True)
class TwoPlane:
    """An oriented real 2-plane spanned by R-independent horizontal vectors."""

    u: HorizontalVector
    w: HorizontalVector
    orientation: int = 1

    def __post_init__(self):
        if self.u.ranks != self.w.ranks:
            raise ValueError("rank mismatch between spanning vectors")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not _independent(self.u.gaussian_integers, self.w.gaussian_integers, real=True):
            raise ValueError("spanning vectors are linearly dependent over R")

    @property
    def ranks(self) -> HodgeNumbers:
        return self.u.ranks


@lru_cache(maxsize=None)
def _bracket_table(ranks: HodgeNumbers) -> tuple[tuple[int, ...], ...]:
    """table[k][p]: which entry of a fixed horizontal vector s lands at entry
    k of the flattened level-two bracket of the basis vector at
    horizontal_positions(ranks)[p] against s.  With N the length of s's
    flattening, j < N means s_j, N <= j < 2N means -s_(j-N), and 2N means 0.

    Only components i-1 and i of the bracket of the basis vector at
    (component i, entry (row, col)) are nonzero: component i is the matrix
    s_{i+1} E_{row,col} (a column slice of s_{i+1}) and component i-1 is
    -E_{row,col} s_{i-1} (a row slice of s_{i-1}); each entry is hit once."""
    r, k = ranks.ranks, ranks.k
    positions = horizontal_positions(ranks)
    n = len(positions)
    # where each component of the flattened bracket, and of s, starts
    out = list(accumulate((r[j] * r[j + 2] for j in range(k - 1)), initial=0))
    at = list(accumulate((r[j] * r[j + 1] for j in range(k)), initial=0))
    table = [[2 * n] * n for _ in range(out[-1])]
    for p, (i, row, col) in enumerate(positions):
        if i < k - 1:
            for x in range(r[i + 2]):
                table[out[i] + x * r[i] + col][p] = at[i + 1] + x * r[i + 1] + row
        if i >= 1:
            for y in range(r[i - 1]):
                table[out[i - 1] + row * r[i - 1] + y][p] = n + at[i - 1] + col * r[i - 1] + y
    return tuple(map(tuple, table))


def bracket_table_certified(ranks: HodgeNumbers) -> bool:
    """Whether _bracket_table(ranks) is, cell for cell, the table of matrix
    units: position (i, row, col) is E_{a,b}, a the row-th coordinate of block
    i+1 and b the col-th of block i; its bracket against s = sum_q s_q E_q is
    s E_{a,b} - E_{a,b} s, and E_{c,d} E_{a,b} = [d = a] E_{c,b}."""
    r, first = ranks.ranks, (0, *ranks.walls)
    units = [(first[i + 1] + row, first[i] + col) for i, row, col in horizontal_positions(ranks)]
    entry = {(first[i + 2] + x, first[i] + y): k for k, (i, x, y) in enumerate(
        (i, x, y) for i in range(ranks.k - 1) for x in range(r[i + 2]) for y in range(r[i]))}
    ends: dict[int, list] = {}  # coordinate -> the units (q, c, d) with c or d there
    for q, (c, d) in enumerate(units):
        ends.setdefault(c, []).append((q, c, d))
        ends.setdefault(d, []).append((q, c, d))
    n = len(units)
    table = [[2 * n] * n for _ in entry]
    for p, (a, b) in enumerate(units):
        for q, c, d in ends.get(a, []) + ends.get(b, []):
            if d == a:  # s_q E_{c,a} E_{a,b} = s_q E_{c,b}
                table[entry[c, b]][p] = q
            if c == b:  # -E_{a,b} s_q E_{b,d} = -s_q E_{a,d}
                table[entry[a, d]][p] = n + q
    return tuple(map(tuple, table)) == _bracket_table(ranks)


@lru_cache(maxsize=None)
def _bracket_cells(ranks: HodgeNumbers) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (p, j) cells of each row of _bracket_table(ranks) other than the zero index 2N."""
    return tuple(tuple((p, j) for p, j in enumerate(image) if j != 2 * len(image)) for image in _bracket_table(ranks))


def _bracket_entries(ranks: HodgeNumbers, u: Sequence[tuple[int, int]],
                     w: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The flattened level-two bracket of u against w, for u and w over Z[i]
    given as (re, im) int pairs in flatten order.  The bracket is
    complex-linear in u, so entry k is sum_p u_p times entry k of the bracket
    of the basis vector e_p against w, which _bracket_table reads off w."""
    s = (*w, *((-a, -b) for a, b in w))  # w, then -w
    out = []
    for cells in _bracket_cells(ranks):
        re = im = 0
        for p, j in cells:
            (a, b), (c, e) = u[p], s[j]
            re += a * c - b * e
            im += a * e + b * c
        out.append((re, im))
    return out


def _regular(ranks: HodgeNumbers, u: Sequence[tuple[int, int]], w: Sequence[tuple[int, int]]) -> bool:
    """Exact real surjectivity test for v -> (s -> bracket(v, s)) restricted
    to the plane spanned by u and w over Z[i] ((re, im) int pairs in flatten
    order).

    The target is the space of real-linear maps S -> (level-two piece); its
    real dimension is 4 * sum_i r_i r_{i+2}.  The matrix is assembled over the
    complex basis of the horizontal fiber together with its i-multiples (the
    bracket being complex-linear in v) and the rank is computed exactly over Q;
    its entries are ints.
    """
    getters = _regularity_rows(ranks)
    rows = []
    for s in (u, w):
        flat = [*chain.from_iterable(s)]
        flat += [*map(neg, flat), 0, 0]
        rows.extend(get(flat) for get in getters)
    return rank(rows) == 2 * len(getters)


@lru_cache(maxsize=None)
def _regularity_rows(ranks: HodgeNumbers) -> tuple[itemgetter, ...]:
    """For each row of _bracket_table, getters for the real and the imaginary
    row of the regularity matrix (columns for e, then for i*e: (re, -im) and
    (im, re) of each entry) off [re s_0, im s_0, ..., re s_(N-1), im s_(N-1)],
    the same for -s, then 0, 0: table index j reads positions 2j and 2j + 1."""
    n = len(horizontal_positions(ranks))
    negated = [*range(n, 2 * n), *range(n), 2 * n]  # the table index of -(entry j)
    return tuple(itemgetter(*cols) for image in _bracket_table(ranks) for cols in (
        [c for j in image for c in (2 * j, 2 * negated[j] + 1)],
        [c for j in image for c in (2 * j + 1, 2 * j)]))


# ---------------------------------------------------------------------------
# Seeded verification suite for the rank-(1,n,1) criterion.
# ---------------------------------------------------------------------------


HALF_ZERO_PERIOD = 8  # sample idx is drawn from the half-zero stratum when idx % 8 == 7


def _draw_model_pair(n: int, rng: random.Random, half_zero: bool):
    """Two R-independent vectors of the rank-(1,n,1) model over Z[i], as
    (re, im) int pairs in flatten order: components (column v1, row t(v2))
    for v1, v2 with entries in [-3, 3] + [-3, 3] i; with half_zero v2 = 0, a
    stratum on which the symplectic scalar vanishes identically."""
    randint = rng.randint
    while True:
        # An unused draw: it keeps each seed's RNG sequence, and so the
        # --classify-out stream, fixed.  (Scaling both vectors by a common
        # positive denominator would change none of the verdicts.)
        rng.choice((1, 1, 2, 3))
        m = n if half_zero else 2 * n  # drawn entries per vector, then zeros
        u, w = ([(randint(-3, 3), randint(-3, 3)) for _ in range(m)] + [(0, 0)] * (2 * n - m) for _ in range(2))
        if _independent(u, w, real=True):
            return u, w
        # dependent pair, resample


def verify_pu2n_criterion(
    n: int,
    samples: int,
    seed: int,
    record: Optional[Callable[[dict], None]],
) -> dict:
    """Seeded check of the regularity criterion in the rank-(1,n,1) model:
    the suite's details, keyed as the report prints them, plus
    "half_zero_independent".

    Compares regularity with complex-linear independence sample by sample
    ("mismatches" counts disagreements) and counts regular and isotropic
    planes.  Every HALF_ZERO_PERIOD-th sample, from idx 7 on, is drawn from
    the second-half-zero stratum, on which the symplectic scalar vanishes, so
    isotropic planes appear at a stable rate; a complex-independent one among
    them ("half_zero_independent") should be a regular isotropic plane.  For
    n = 1, "isotropic_noncomplex" counts isotropic samples that fail to be
    complex lines (there must be none).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    mismatches = regular_count = isotropic_count = noncomplex_iso = 0
    found_reg_iso = half_zero_independent = False
    ranks = HodgeNumbers((1, n, 1))
    rng = random.Random()
    for idx in range(samples):
        rng.seed(seed * 1_000_003 + idx)  # the state of random.Random(seed * 1_000_003 + idx)
        half_zero = idx % HALF_ZERO_PERIOD == HALF_ZERO_PERIOD - 1
        u, w = _draw_model_pair(n, rng, half_zero)
        reg = _regular(ranks, u, w)
        iso = not any(map(any, _bracket_entries(ranks, u, w)))
        line = not _independent(u, w)
        mismatches += reg == line  # regular planes should be exactly the complex-independent ones
        regular_count += reg
        isotropic_count += iso
        noncomplex_iso += iso and not line
        found_reg_iso = found_reg_iso or (reg and iso)
        half_zero_independent = half_zero_independent or (half_zero and not line)
        if record is not None:
            record({"seed": seed * 1_000_003 + idx, "isotropic": iso, "regular": reg, "complex_line": line})
    return {"n": n, "samples": samples, "mismatches": mismatches, "regular": regular_count,
            "isotropic": isotropic_count, "found_regular_isotropic": found_reg_iso,
            "isotropic_noncomplex": noncomplex_iso, "half_zero_independent": half_zero_independent}


# ---------------------------------------------------------------------------
# Stabilizers of isotropic tuples under the complex symplectic group.
# ---------------------------------------------------------------------------


def stabilizer_dimension(n: int, k: int) -> int:
    """Complex dimension of the stabilizer of a k-tuple spanning an isotropic
    k-plane in C^(2n), inside Sp(n, C); its orbit has dimension n(2n+1)
    minus this.

    The stabilizer is topologically Sp(n-k, C) x C^(2k(n-k)) x C^(k(k+1)/2).
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return (n - k) * (2 * (n - k) + 1) + 2 * k * (n - k) + k * (k + 1) // 2


def isotropic_tuple_orbit_dimension(n: int, k: int) -> int:
    """Independent count: choose the tuple vector by vector; the j-th vector
    (0-based) is constrained by j isotropy conditions in C^(2n)."""
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = 0
    for j in range(k):
        total += 2 * n - j
    return total


# ---------------------------------------------------------------------------
# The embedded rank-(1,2,1) subdomain attached to a wide middle block.
# ---------------------------------------------------------------------------


SU22_PAIRS = 4  # model pairs carried into the ambient fiber per wide wall


def su22_embedding(ranks: HodgeNumbers, i: int, rng: random.Random) -> bool:
    """Whether the rank-(1,2,1) model keeps its bracket when carried to the
    coordinates c0 < c1 < c2 < c3: the last of block i, the first and last of
    block i+1, the first of block i+2.  For SU22_PAIRS drawn model pairs, v1
    becomes the column from c0 to c1 and c2 (component i) and t(v2) the row
    from c1 and c2 to c3 (component i+1).  The exact ambient bracket must
    vanish except at entry (c3, c0) of component i, where it must be the
    symplectic scalar t(v1) w2 - t(v2) w1, computed here from the pairs.
    Requires r_{i+1} >= 2 (the rank-one case is open: not applicable).
    """
    if not 0 <= i <= ranks.k - 2:
        raise ValueError(f"wall index {i} out of range 0..{ranks.k - 2}")
    if ranks.ranks[i + 1] < 2:
        raise NotApplicableError(
            f"middle block rank r_{i + 1} = {ranks.ranks[i + 1]} < 2: no embedded "
            "rank-(1,2,1) structure on distinct coordinates (open case)"
        )
    r, walls, block_of = ranks.ranks, ranks.walls, ranks.block_of
    first = (0, *walls)  # first[b]: the first coordinate of block b
    c0, c1, c2, c3 = walls[i] - 1, walls[i], walls[i + 1] - 1, walls[i + 1]
    positions = horizontal_positions(ranks)

    def at(target: int, source: int) -> int:  # the flat position of the map source -> target
        b = block_of[source]
        return positions.index((b, target - first[b + 1], source - first[b]))

    slots = (at(c1, c0), at(c2, c0), at(c3, c1), at(c3, c2))  # the model's flatten order
    top = sum(r[j] * r[j + 2] for j in range(i)) + (c3 - first[i + 2]) * r[i] + c0 - first[i]
    for _ in range(SU22_PAIRS):
        u, w = _draw_model_pair(2, rng, False)
        big_u, big_w = [(0, 0)] * len(positions), [(0, 0)] * len(positions)
        for slot, x, y in zip(slots, u, w):
            big_u[slot], big_w[slot] = x, y
        re = im = 0
        for (a, b), (c, e), sign in ((u[0], w[2], 1), (u[1], w[3], 1), (u[2], w[0], -1), (u[3], w[1], -1)):
            re += sign * (a * c - b * e)
            im += sign * (a * e + b * c)
        entries = _bracket_entries(ranks, big_u, big_w)
        if entries.pop(top) != (re, im) or any(map(any, entries)):
            return False
    return True
