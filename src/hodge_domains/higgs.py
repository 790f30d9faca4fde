"""Pointwise Higgs-field algebra: transversality shape, the commutation
relation, the rank-one vanishing lemma, and seeded samplers of commuting
fields.

A field is a single fiber's worth of data: for each layer i and tangent
direction a, a matrix theta_i^(a) from block i to block i+1.  The commutation
relation says theta_{i+1}^(a) theta_i^(b) is symmetric in (a, b).  Each
direction (theta_0^(a), ..., theta_{k-1}^(a)) is a horizontal vector, held as
horizontal holds one: the (re, im) int pairs of l times its entries in
flatten order, for the least integer l >= 1 that clears their denominators.
Everything is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import gcd, lcm
from typing import Optional

from . import wire
from .exactla import _cleared, nullspace
from .hodge import HodgeNumbers
from .horizontal import _bracket_entries, _bracket_table, _independent


class PreconditionError(ValueError):
    """A lemma was invoked outside its hypotheses (reported distinctly)."""


@dataclass(frozen=True)
class HiggsField:
    """directions[a] = (l, v) for direction a+1: v holds l times the entries
    of theta_0^(a+1), ..., theta_{k-1}^(a+1) (shape r_{i+1} x r_i) as (re, im)
    int pairs in horizontal_positions order, with l >= 1 and gcd(l, every
    part of v) = 1, so two fields are equal exactly when their values are."""

    ranks: HodgeNumbers
    directions: tuple


def check_commutation(h: HiggsField) -> Optional[tuple[int, int, int]]:
    """The first (layer i, direction a, direction b), a < b, with
    theta_{i+1}^(a) theta_i^(b) != theta_{i+1}^(b) theta_i^(a), or None if the
    field commutes.  The relation holds at (i, a, b) iff component i of the
    level-two bracket of directions a and b vanishes (on the directions
    cleared of denominators, which scales it by a positive integer)."""
    r = h.ranks.ranks
    starts = list(accumulate((r[i] * r[i + 2] for i in range(h.ranks.k - 1)), initial=0))
    violations = []
    for (a, (_, u)), (b, (_, w)) in combinations(enumerate(h.directions, 1), 2):
        entries = _bracket_entries(h.ranks, u, w)
        violations += [(i, a, b) for i in range(h.ranks.k - 1)
                       if any(map(any, entries[starts[i]:starts[i + 1]]))]
    return min(violations, default=None)


def rank_one_lemma_check(h: HiggsField) -> tuple[bool, bool]:
    """(holds, triggered): verify, for a commuting field of ranks (a, 1, b),
    that rank(theta_0) >= 2 forces theta_1 = 0, with theta_0 the directions
    stacked into one (tangent_dim x a) map; triggered says whether the rank
    hypothesis was met, that is whether two of its rows are independent over C.

    A failing verdict cannot occur for genuinely commuting data; it would
    signal an implementation bug, and the suites treat it as a failure.
    """
    if len(h.ranks.ranks) != 3 or h.ranks.ranks[1] != 1:
        raise PreconditionError(f"ranks {h.ranks.ranks} are not (a, 1, b)")
    violation = check_commutation(h)
    if violation is not None:
        raise PreconditionError(f"field does not commute (violation at {violation})")
    a = h.ranks.ranks[0]
    if not any(_independent(x[:a], y[:a]) for (_, x), (_, y) in combinations(h.directions, 2)):
        return True, False
    return all(pair == (0, 0) for _, v in h.directions for pair in v[a:]), True


# ---------------------------------------------------------------------------
# Seeded samplers for commuting fields.
# ---------------------------------------------------------------------------


def random_commuting_higgs(ranks: HodgeNumbers, m_t: int, seed: int, strategy: str) -> HiggsField:
    """A commuting field, deterministic per seed.

    'pullback': theta_i^(a) = c_a * N_i for fixed matrices N_i and scalars c_a,
    which commutes identically.  'nullspace': direction 1 is sampled freely
    (with zero layers drawn at elevated probability, so low-rank layers
    appear often), then each further direction is drawn from the exact
    nullspace of the linear commutation system against all earlier
    directions, so the relation holds by construction.
    """
    if m_t < 1:
        raise ValueError("tangent dimension must be at least 1")
    if strategy not in ("pullback", "nullspace"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    if strategy == "pullback":
        return _sample_pullback(ranks, m_t, rng)
    return _sample_nullspace(ranks, m_t, rng)


def _sample_pullback(ranks: HodgeNumbers, m_t: int, rng: random.Random) -> HiggsField:
    r = ranks.ranks
    bases = [rng.randint(-2, 2) for i in range(ranks.k) for _ in range(r[i + 1] * r[i])]
    scalars = [rng.randint(-2, 2) for _ in range(m_t)]
    return HiggsField(ranks, tuple((1, tuple((c * x, 0) for x in bases)) for c in scalars))


def _sample_nullspace(ranks: HodgeNumbers, m_t: int, rng: random.Random) -> HiggsField:
    r = ranks.ranks
    first = []
    for i in range(ranks.k):
        size = r[i + 1] * r[i]
        first += [0] * size if rng.random() < 1 / 3 else [rng.randint(-2, 2) for _ in range(size)]
    directions = [(1, tuple((x, 0) for x in first))]
    for _ in range(2, m_t + 1):
        directions.append(_solve_direction(ranks, directions, rng))
    return HiggsField(ranks, tuple(directions))


def _solve_direction(ranks: HodgeNumbers, fixed: list, rng: random.Random) -> tuple:
    """Sample an unknown direction phi with phi_{i+1} f_i = f_{i+1} phi_i
    against every fixed direction f, from the exact nullspace of that linear
    system: entry k of the bracket of phi against f vanishes, whose
    coefficients in flatten order are row k of _bracket_table filled from f
    (the real parts of its pairs: the sampled directions are real).  Returns
    phi as a field holds a direction."""
    total = sum(ranks.ranks[i + 1] * ranks.ranks[i] for i in range(ranks.k))
    # a zero row changes no solution; with no level-two bracket (k = 1) it is the system
    rows = [[0] * total]
    for _, f in fixed:
        flat = [re for re, _ in f]
        signed = (*flat, *(-x for x in flat), 0)
        rows.extend([signed[j] for j in image] for image in _bracket_table(ranks))
    # sum_b c_b b over the basis (empty when the system forces this direction
    # to vanish), summed in Z[i] over the lcm of the basis vectors' denominators
    picked = [(c, *_cleared(b)) for b in nullspace(rows) if (c := rng.randint(-2, 2))]
    den = lcm(*(l for _, l, _, _ in picked))
    terms = [(c * (den // l), re, im) for c, l, re, im in picked]
    v = [(sum(s * re[j] for s, re, _ in terms), sum(s * im[j] for s, _, im in terms)) for j in range(total)]
    g = gcd(den, *(x for pair in v for x in pair))
    return den // g, tuple((a // g, b // g) for a, b in v)


# ---------------------------------------------------------------------------
# JSON wire format (see wire): ranks, tangent_dim, theta[layer][direction][row][col].
# ---------------------------------------------------------------------------


def higgs_dumps(h: HiggsField) -> str:
    r, k = h.ranks.ranks, h.ranks.k
    at = list(accumulate((r[i] * r[i + 1] for i in range(k)), initial=0))  # where layer i starts in v
    theta = [[[[wire.encode_scalar(re, im, l) for re, im in v[j:j + r[i]]] for j in range(at[i], at[i + 1], r[i])]
              for l, v in h.directions] for i in range(k)]
    return wire.dumps({"schema": wire.SCHEMA, "ranks": list(r), "tangent_dim": len(h.directions), "theta": theta})


def higgs_loads(text: str) -> HiggsField:
    """The field of a higgs_dumps document; ValueError on anything malformed."""
    doc = wire.read(text, "tangent_dim", "theta")
    ranks, m_t, theta = doc["ranks"], doc["tangent_dim"], wire.decode_array(doc["theta"], 4)
    r = ranks.ranks
    if type(m_t) is not int or m_t < 1:
        raise ValueError(f"tangent dimension must be a positive int, got {m_t!r}")
    if len(theta) != ranks.k:
        raise ValueError(f"expected {ranks.k} layers of component matrices")
    for i, layer in enumerate(theta):
        if len(layer) != m_t:
            raise ValueError(f"layer {i}: expected {m_t} directions")
        if any(len(mx) != r[i + 1] or any(len(row) != r[i] for row in mx) for mx in layer):
            raise ValueError(f"expected a {r[i + 1]}x{r[i]} matrix")
    directions = []
    for a in range(m_t):
        l, re, im = _cleared([x for layer in theta for row in layer[a] for x in row])
        directions.append((l, tuple(zip(re, im))))  # gcd(l, every part) = 1: each entry is in lowest terms
    return HiggsField(ranks, tuple(directions))
