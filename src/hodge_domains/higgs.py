"""Pointwise Higgs-field algebra: transversality shape, the commutation
relation, the rank-one vanishing lemma, and seeded samplers of commuting
fields.

A field is a single fiber's worth of data: for each layer i and tangent
direction a, a matrix theta_i^(a) from block i to block i+1.  The commutation
relation says theta_{i+1}^(a) theta_i^(b) is symmetric in (a, b).  Everything
is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import lcm
from typing import Optional

from . import wire
from .exactla import Qi, QI_ZERO, _cleared, _gaussian, as_matrix, nullspace, rank
from .hodge import HodgeNumbers
from .horizontal import _bracket_entries, _bracket_table

Matrix = tuple  # tuple of row tuples of GaussianRational


class PreconditionError(ValueError):
    """A lemma was invoked outside its hypotheses (reported distinctly)."""


@dataclass(frozen=True)
class HiggsField:
    """theta[i][a] is the matrix of theta_i in direction a+1, shape r_{i+1} x r_i."""

    ranks: HodgeNumbers
    tangent_dim: int
    theta: tuple  # theta[i][a] = Matrix

    def __post_init__(self):
        r = self.ranks.ranks
        if type(self.tangent_dim) is not int or self.tangent_dim < 1:
            raise ValueError(f"tangent dimension must be a positive int, got {self.tangent_dim!r}")
        if len(self.theta) != self.ranks.k:
            raise ValueError(f"expected {self.ranks.k} layers of component matrices")
        layers = []
        for i, layer in enumerate(self.theta):
            if len(layer) != self.tangent_dim:
                raise ValueError(f"layer {i}: expected {self.tangent_dim} directions")
            layers.append(tuple(as_matrix(mx, r[i + 1], r[i]) for mx in layer))
        object.__setattr__(self, "theta", tuple(layers))


def check_commutation(h: HiggsField) -> Optional[tuple[int, int, int]]:
    """The first (layer i, direction a, direction b), a < b, with
    theta_{i+1}^(a) theta_i^(b) != theta_{i+1}^(b) theta_i^(a), or None if the
    field commutes.  The relation holds at (i, a, b) iff component i of the
    level-two bracket of directions a and b vanishes (on the directions
    cleared of denominators, which scales it by a positive integer)."""
    r = h.ranks.ranks
    starts = list(accumulate((r[i] * r[i + 2] for i in range(h.ranks.k - 1)), initial=0))
    directions = []
    for a in range(h.tangent_dim):
        _, re, im = _cleared([x for layer in h.theta for row in layer[a] for x in row])
        directions.append(list(zip(re, im)))
    violations = []
    for a, b in combinations(range(h.tangent_dim), 2):
        entries = _bracket_entries(h.ranks, directions[a], directions[b])
        violations += [(i, a + 1, b + 1) for i in range(h.ranks.k - 1)
                       if any(map(any, entries[starts[i]:starts[i + 1]]))]
    return min(violations, default=None)


def rank_one_lemma_check(h: HiggsField) -> tuple[bool, bool]:
    """(holds, triggered): verify, for a commuting field of ranks (a, 1, b),
    that rank(theta_0) >= 2 forces theta_1 = 0, with theta_0 the directions
    stacked into one (tangent_dim x a) map; triggered says whether the rank
    hypothesis was met.

    A failing verdict cannot occur for genuinely commuting data; it would
    signal an implementation bug, and the suites treat it as a failure.
    """
    if len(h.ranks.ranks) != 3 or h.ranks.ranks[1] != 1:
        raise PreconditionError(f"ranks {h.ranks.ranks} are not (a, 1, b)")
    violation = check_commutation(h)
    if violation is not None:
        raise PreconditionError(f"field does not commute (violation at {violation})")
    theta_0, theta_1 = h.theta
    if rank([row for mx in theta_0 for row in mx]) < 2:
        return True, False
    return not any(x for mx in theta_1 for row in mx for x in row), True


# ---------------------------------------------------------------------------
# Seeded samplers for commuting fields.
# ---------------------------------------------------------------------------


def _random_matrix(rng: random.Random, nr: int, nc: int) -> Matrix:
    return tuple(tuple(Qi(rng.randint(-2, 2)) for _ in range(nc)) for _ in range(nr))


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
    bases = [_random_matrix(rng, r[i + 1], r[i]) for i in range(ranks.k)]
    scalars = [Qi(rng.randint(-2, 2)) for _ in range(m_t)]
    theta = tuple(
        tuple(
            tuple(tuple(c * x for x in row) for row in bases[i])
            for c in scalars
        )
        for i in range(ranks.k)
    )
    return HiggsField(ranks, m_t, theta)


def _sample_nullspace(ranks: HodgeNumbers, m_t: int, rng: random.Random) -> HiggsField:
    r = ranks.ranks
    k = ranks.k
    first = []
    for i in range(k):
        if rng.random() < 1 / 3:
            first.append(tuple(tuple(QI_ZERO for _ in range(r[i])) for _ in range(r[i + 1])))
        else:
            first.append(_random_matrix(rng, r[i + 1], r[i]))
    directions = [first]
    for _ in range(2, m_t + 1):
        directions.append(_solve_direction(ranks, directions, rng))
    theta = tuple(
        tuple(directions[a][i] for a in range(m_t)) for i in range(k)
    )
    return HiggsField(ranks, m_t, theta)


def _solve_direction(ranks: HodgeNumbers, fixed: list, rng: random.Random):
    """Sample an unknown direction phi with phi_{i+1} f_i = f_{i+1} phi_i
    against every fixed direction f, from the exact nullspace of that linear
    system: entry k of the bracket of phi against f vanishes, whose
    coefficients in flatten order are row k of _bracket_table filled from f,
    cleared of denominators once (the sampled directions are real)."""
    r = ranks.ranks
    total = sum(r[i + 1] * r[i] for i in range(ranks.k))
    # a zero row changes no solution; with no level-two bracket (k = 1) it is the system
    rows = [[0] * total]
    for f in fixed:
        _, flat, _ = _cleared([x for mx in f for row in mx for x in row])
        signed = (*flat, *(-x for x in flat), 0)
        rows.extend([signed[j] for j in image] for image in _bracket_table(ranks))
    # sum_b c_b b over the basis (empty when the system forces this direction
    # to vanish), summed in Z[i] over the lcm of the basis vectors' denominators
    picked = [(c, *_cleared(b)) for b in nullspace(rows) if (c := rng.randint(-2, 2))]
    den = lcm(*(l for _, l, _, _ in picked))
    terms = [(c * (den // l), re, im) for c, l, re, im in picked]
    entries = (_gaussian(sum(s * re[j] for s, re, _ in terms), sum(s * im[j] for s, _, im in terms), den)
               for j in range(total))
    return [tuple(tuple(next(entries) for _ in range(r[i])) for _ in range(r[i + 1])) for i in range(ranks.k)]


# ---------------------------------------------------------------------------
# JSON wire format (see wire): ranks, tangent_dim, theta[layer][direction][row][col].
# ---------------------------------------------------------------------------


def higgs_dumps(h: HiggsField) -> str:
    return wire.dumps({"schema": wire.SCHEMA, "ranks": list(h.ranks.ranks),
                       "tangent_dim": h.tangent_dim, "theta": wire.encode_array(h.theta)})


def higgs_loads(text: str) -> HiggsField:
    """The field of a higgs_dumps document; ValueError on anything malformed."""
    doc = wire.read(text, "tangent_dim", "theta")
    return HiggsField(doc["ranks"], doc["tangent_dim"], wire.decode_array(doc["theta"], 4))
