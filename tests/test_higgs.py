"""Higgs fields: commutation, the rank-one lemma and the samplers, with the
stacked ranks of conftest.pointwise_rank as the lemma's oracle.

The reference_* functions are the dense commutation check and the
hand-indexed nullspace sampler as they were before both read the bracket
table of horizontal, kept verbatim as the oracles for them.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINUS_ONE, higgs_field, mat_sub, pointwise_rank, theta_of
from hodge_domains.exactla import GaussianRational, Qi, QI_ZERO, mat_mul, nullspace, rank
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.higgs import (
    HiggsField,
    PreconditionError,
    _sample_nullspace,
    check_commutation,
    higgs_dumps,
    higgs_loads,
    random_commuting_higgs,
    rank_one_lemma_check,
)


def is_zero_matrix(a) -> bool:
    return not any(x for row in a for x in row)


def directional_image_rank(h: HiggsField, i: int) -> int:
    """For a rank-one block i: the dimension of the span of the direction
    columns theta_i^(a) inside block i+1."""
    if h.ranks.ranks[i] != 1:
        raise PreconditionError(f"block {i} must have rank 1")
    theta = theta_of(h)
    cols = [[theta[i][a][r][0] for a in range(len(h.directions))] for r in range(h.ranks.ranks[i + 1])]
    return rank(cols)


def reference_check_commutation(h: HiggsField):
    """The first (layer i, direction a, direction b), a < b, with
    theta_{i+1}^(a) theta_i^(b) != theta_{i+1}^(b) theta_i^(a), or None."""
    theta, m_t = theta_of(h), len(h.directions)
    for i in range(h.ranks.k - 1):
        for a in range(1, m_t + 1):
            for b in range(a + 1, m_t + 1):
                lhs = mat_mul(list(map(list, theta[i + 1][a - 1])), list(map(list, theta[i][b - 1])))
                rhs = mat_mul(list(map(list, theta[i + 1][b - 1])), list(map(list, theta[i][a - 1])))
                if not is_zero_matrix(mat_sub(lhs, rhs)):
                    return i, a, b
    return None


def reference_solve_direction(ranks: HodgeNumbers, fixed: list, rng: random.Random):
    """Sample an unknown direction phi with phi_{i+1} f_i = f_{i+1} phi_i
    against every fixed direction f, from the exact nullspace of that linear
    system."""
    r = ranks.ranks
    k = ranks.k
    offsets = []
    total = 0
    for i in range(k):
        offsets.append(total)
        total += r[i + 1] * r[i]

    def var(i, row, col):
        return offsets[i] + row * r[i] + col

    rows: list[list[GaussianRational]] = []
    for f in fixed:
        for i in range(k - 1):
            for u in range(r[i + 2]):
                for v in range(r[i]):
                    row = [QI_ZERO] * total
                    # phi_{i+1}[u][w] * f_i[w][v]  -  f_{i+1}[u][w] * phi_i[w][v]
                    for w in range(r[i + 1]):
                        row[var(i + 1, u, w)] = row[var(i + 1, u, w)] + f[i][w][v]
                        row[var(i, w, v)] = row[var(i, w, v)] + f[i + 1][u][w] * MINUS_ONE
                    rows.append(row)
    if rows:
        basis = nullspace(rows)
    else:
        basis = [[Qi(1) if j == i else QI_ZERO for j in range(total)] for i in range(total)]
    # an empty basis means the system forces this direction to vanish
    vec = [QI_ZERO] * total
    for b in basis:
        c = Qi(rng.randint(-2, 2))
        if c:
            vec = [x + c * y for x, y in zip(vec, b)]
    out = []
    for i in range(k):
        out.append(
            tuple(
                tuple(vec[var(i, row, col)] for col in range(r[i]))
                for row in range(r[i + 1])
            )
        )
    return out


def reference_random_matrix(rng: random.Random, nr: int, nc: int):
    return tuple(tuple(Qi(rng.randint(-2, 2)) for _ in range(nc)) for _ in range(nr))


def reference_sample_nullspace(ranks: HodgeNumbers, m_t: int, rng: random.Random) -> HiggsField:
    r = ranks.ranks
    k = ranks.k
    first = []
    for i in range(k):
        if rng.random() < 1 / 3:
            first.append(tuple(tuple(QI_ZERO for _ in range(r[i])) for _ in range(r[i + 1])))
        else:
            first.append(reference_random_matrix(rng, r[i + 1], r[i]))
    directions = [first]
    for _ in range(2, m_t + 1):
        directions.append(reference_solve_direction(ranks, directions, rng))
    theta = tuple(
        tuple(directions[a][i] for a in range(m_t)) for i in range(k)
    )
    return higgs_field(ranks, theta)


def field_111(theta0_dirs, theta1_dirs):
    return higgs_field(
        HodgeNumbers((1, 1, 1)),
        (
            tuple(((Qi(x),),) for x in theta0_dirs),
            tuple(((Qi(x),),) for x in theta1_dirs),
        ),
    )


# -- commutation --------------------------------------------------------------


def test_commutation_single_direction_trivial():
    h = field_111([3], [5])
    assert check_commutation(h) is None


def test_commutation_pullback_scalars():
    rng = random.Random(1)
    for _ in range(20):
        h = random_commuting_higgs(HodgeNumbers((1, 2, 2)), 3, seed=rng.randint(0, 10**6), strategy="pullback")
        assert check_commutation(h) is None


def test_commutation_violation_111():
    h = field_111([1, 0], [0, 1])
    assert check_commutation(h) == (0, 1, 2)


# -- ranks ---------------------------------------------------------------------


def test_pointwise_rank_zero():
    h = field_111([0, 0], [0, 0])
    assert pointwise_rank(h, 0) == 0


def test_pointwise_rank_stacked_identity():
    h = higgs_field(
        HodgeNumbers((2, 1)),
        ((((Qi(1), Qi(0)),), ((Qi(0), Qi(1)),)),),
    )
    assert pointwise_rank(h, 0) == 2


def test_pointwise_rank_bound():
    rng = random.Random(9)
    for _ in range(20):
        shape = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        m_t = rng.randint(1, 3)
        h = random_commuting_higgs(HodgeNumbers(shape), m_t, seed=rng.randint(0, 10**6), strategy="pullback")
        for i in range(2):
            r = shape
            assert pointwise_rank(h, i) <= min(r[i], m_t * r[i + 1])


# -- the rank-one vanishing lemma ------------------------------------------------


def test_lemma_scalar_field_vacuous():
    # rank theta_0 = 1 < 2: the hypothesis is not triggered.
    h = field_111([1, 2], [3, 6])
    assert check_commutation(h) is None
    assert rank_one_lemma_check(h) == (True, False)  # holds, not triggered


def test_lemma_triggered_forces_zero_212():
    # Solving the commutation system for theta_1 against a rank-2 theta_0
    # family must leave only the zero solution.
    rng = random.Random(4242)
    solved = 0
    for _ in range(50):
        t0 = [
            [[rng.randint(-2, 2) for _ in range(2)]],  # 1x2, direction 1
            [[rng.randint(-2, 2) for _ in range(2)]],  # direction 2
        ]
        stacked = [t0[0][0], t0[1][0]]
        if rank([[Qi(x) for x in row] for row in stacked]) != 2:
            continue
        # unknowns: theta_1^(1), theta_1^(2), each 2x1; equations from the
        # direction pair (1,2): theta_1^(1) t0^(2) = theta_1^(2) t0^(1)
        rows = []
        for u in range(2):
            for v in range(2):
                row = [QI_ZERO] * 4
                row[u] = Qi(t0[1][0][v])  # theta_1^(1)[u] * t0^(2)[v]
                row[2 + u] = Qi(-t0[0][0][v])
                rows.append(row)
        assert nullspace(rows) == []
        solved += 1
    assert solved >= 20


def test_lemma_on_sampled_fields():
    triggered = 0
    for seed in range(120):
        h = random_commuting_higgs(HodgeNumbers((2, 1, 2)), 2, seed=seed, strategy="nullspace")
        holds, hit = rank_one_lemma_check(h)
        assert holds
        if hit:
            triggered += 1
            assert pointwise_rank(h, 1) == 0
    assert triggered > 0


def test_lemma_mirror_statement_sampled():
    # Transposed form: if the direction columns of theta_1 out of the rank-one
    # block span dimension >= 2, then theta_0 vanishes.
    checked = 0
    for seed in range(200):
        h = random_commuting_higgs(HodgeNumbers((3, 1, 3)), 2, seed=seed, strategy="nullspace")
        if directional_image_rank(h, 1) >= 2:
            assert pointwise_rank(h, 0) == 0
            checked += 1
    assert checked > 0


def test_lemma_mirror_statement_exhaustive_grid():
    import itertools

    hn = HodgeNumbers((2, 1, 2))
    entries = (-1, 0, 1)
    triggered = 0
    for t0 in itertools.product(entries, repeat=4):
        theta0 = (((Qi(t0[0]), Qi(t0[1])),), ((Qi(t0[2]), Qi(t0[3])),))
        for t1 in itertools.product(entries, repeat=4):
            theta1 = (((Qi(t1[0]),), (Qi(t1[1]),)), ((Qi(t1[2]),), (Qi(t1[3]),)))
            h = higgs_field(hn, (theta0, theta1))
            if check_commutation(h) is not None:
                continue
            if directional_image_rank(h, 1) >= 2:
                triggered += 1
                assert pointwise_rank(h, 0) == 0
    assert triggered > 0


def test_lemma_preconditions_reported_distinctly():
    for ranks in ((1, 1), (1, 1, 1, 1)):
        short = random_commuting_higgs(HodgeNumbers(ranks), 2, seed=0, strategy="pullback")
        with pytest.raises(PreconditionError):
            rank_one_lemma_check(short)  # not three blocks
    wide = random_commuting_higgs(HodgeNumbers((1, 2, 1)), 2, seed=0, strategy="pullback")
    with pytest.raises(PreconditionError):
        rank_one_lemma_check(wide)  # middle rank 2, not 1
    bad = field_111([1, 0], [0, 1])
    with pytest.raises(PreconditionError):
        rank_one_lemma_check(bad)  # does not commute


# -- samplers ---------------------------------------------------------------------


def test_sampler_deterministic_per_seed():
    for strategy in ("pullback", "nullspace"):
        a = random_commuting_higgs(HodgeNumbers((2, 1, 2)), 2, seed=99, strategy=strategy)
        b = random_commuting_higgs(HodgeNumbers((2, 1, 2)), 2, seed=99, strategy=strategy)
        assert a == b


def test_sampler_nullspace_commutes():
    for seed in range(40):
        h = random_commuting_higgs(HodgeNumbers((2, 2, 1)), 3, seed=seed, strategy="nullspace")
        assert check_commutation(h) is None


def test_sampler_rank_target_212():
    fields = (random_commuting_higgs(HodgeNumbers((2, 1, 2)), 2, seed=s, strategy="nullspace") for s in range(500))
    h = next(h for h in fields if pointwise_rank(h, 0) == 2)  # the first field with rank theta_0 = 2
    assert pointwise_rank(h, 1) == 0  # forced by the vanishing lemma


def test_sampler_rejects_bad_strategy():
    with pytest.raises(ValueError):
        random_commuting_higgs(HodgeNumbers((1, 1)), 1, seed=0, strategy="other")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(("pullback", "nullspace")),
)
def test_sampler_always_commutes_property(ranks, m_t, seed, strategy):
    h = random_commuting_higgs(HodgeNumbers(tuple(ranks)), m_t, seed=seed, strategy=strategy)
    assert check_commutation(h) is None


# -- the bracket-table paths against the dense references ---------------------------


ORACLE_RANKS = [(2, 2), (1, 2, 1), (1, 1, 1, 1), (2, 1, 3, 1), (2, 1, 2), (1, 3, 2)]
small = st.integers(-2, 2)
scalars = st.one_of(
    st.builds(Fraction, small, st.integers(1, 3)),
    st.builds(GaussianRational, st.builds(Fraction, small, st.integers(1, 3)),
              st.builds(Fraction, small, st.integers(1, 3))),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_RANKS), st.integers(1, 3), st.data())
def test_commutation_matches_dense_reference(ranks, m_t, data):
    ranks = HodgeNumbers(ranks)
    r = ranks.ranks
    kind = data.draw(st.sampled_from(["random", "sparse", "nullspace", "pullback"]))
    if kind in ("nullspace", "pullback"):
        h = random_commuting_higgs(ranks, m_t, seed=data.draw(st.integers(0, 10**6)), strategy=kind)
        if data.draw(st.booleans()):
            # perturb one entry, which usually breaks the relation
            i, a = data.draw(st.integers(0, ranks.k - 1)), data.draw(st.integers(0, m_t - 1))
            row, col = data.draw(st.integers(0, r[i + 1] - 1)), data.draw(st.integers(0, r[i] - 1))
            theta = [list(layer) for layer in theta_of(h)]
            mx = [list(x) for x in theta[i][a]]
            mx[row][col] = mx[row][col] + data.draw(scalars)
            theta[i][a] = mx
            h = higgs_field(ranks, theta)
    else:
        entry = scalars if kind == "random" else st.one_of(st.just(0), st.just(0), scalars)
        h = higgs_field(ranks, tuple(
            tuple(tuple(tuple(data.draw(entry) for _ in range(r[i])) for _ in range(r[i + 1]))
                  for _ in range(m_t))
            for i in range(ranks.k)))
    assert check_commutation(h) == reference_check_commutation(h)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_RANKS + [(1, 1), (4, 1, 4)]), st.integers(1, 3), st.integers(0, 10**6))
def test_nullspace_sampler_matches_reference(ranks, m_t, seed):
    ranks = HodgeNumbers(ranks)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    h = _sample_nullspace(ranks, m_t, rng)
    assert h == reference_sample_nullspace(ranks, m_t, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


# -- wire format --------------------------------------------------------------------


# SHA-256 of higgs_dumps over DIGEST_SHAPES x seeds 0..149 x both strategies x
# m_t in {2, 3}, each document followed by a newline: the samplers' fields and
# their text, byte for byte, as the integer-row sampler's parent wrote them.
DIGEST_SHAPES = ((4, 1, 4), (2, 1, 3), (1, 1, 1), (3, 1, 2, 1, 3))
HIGGS_DIGEST = "fea59e142ef20c881a206e4e6ed5001f972d41b7902c5da7b3ed22b06a1fac15"


def higgs_digest() -> str:
    digest = hashlib.sha256()
    for shape in DIGEST_SHAPES:
        ranks = HodgeNumbers(shape)
        for seed in range(150):
            for strategy in ("nullspace", "pullback"):
                for m_t in (2, 3):
                    field = random_commuting_higgs(ranks, m_t, seed=seed, strategy=strategy)
                    digest.update(higgs_dumps(field).encode() + b"\n")
    return digest.hexdigest()


def test_sampled_fields_match_the_pinned_digest():
    assert higgs_digest() == HIGGS_DIGEST


def test_lemma_trigger_is_the_exact_rank():
    # the lemma reads rank(theta_0) >= 2 off pairs of rows, with no elimination;
    # on every field the digest samples at a shape the lemma takes (each
    # interior rank-one block of DIGEST_SHAPES), it must agree with the rank
    shapes = sorted({(r[i - 1], 1, r[i + 1]) for r in DIGEST_SHAPES for i in range(1, len(r) - 1) if r[i] == 1})
    triggered = 0
    for shape in shapes:
        for seed in range(150):
            for strategy in ("nullspace", "pullback"):
                for m_t in (2, 3):
                    h = random_commuting_higgs(HodgeNumbers(shape), m_t, seed=seed, strategy=strategy)
                    holds, hit = rank_one_lemma_check(h)
                    assert holds and hit == (pointwise_rank(h, 0) >= 2)
                    triggered += hit
    assert triggered > 0


def test_lemma_trigger_is_independence_over_c():
    # theta_0 rows (1, i) and (i, -1) = i * (1, i): dependent over C, though
    # their real coordinate vectors are independent; theta_1 = 0
    h = HiggsField(HodgeNumbers((2, 1, 1)), ((1, ((1, 0), (0, 1), (0, 0))), (1, ((0, 1), (-1, 0), (0, 0)))))
    assert pointwise_rank(h, 0) == 1
    assert rank_one_lemma_check(h) == (True, False)


def test_higgs_json_roundtrip():
    h = random_commuting_higgs(HodgeNumbers((2, 1, 3)), 2, seed=12, strategy="nullspace")
    again = higgs_loads(higgs_dumps(h))
    assert again.ranks == h.ranks
    assert again.directions == h.directions


# theta[layer][direction][row][col] for ranks (1, 1, 1) and two directions,
# with scalars that are not real and not in lowest terms, one denominator
# negative: (1 + i)/2, 2 in direction 1 and -2i/3, -1/3 - 5i/2 in direction 2
GAUSSIAN_THETA = [[[[[[2, 4], [3, 6]]]], [[[[0, 5], [-4, 6]]]]], [[[[[6, 3], [0, -2]]]], [[[[-3, 9], [10, -4]]]]]]
# its canonical text, as the GaussianRational-entry field wrote it
GAUSSIAN_TEXT = ('{"ranks": [1, 1, 1], "schema": "hodge-domains/1", "tangent_dim": 2, "theta": '
                 '[[[[[[1, 2], [1, 2]]]], [[[[0, 1], [-2, 3]]]]], [[[[[2, 1], [0, 1]]]], [[[[-1, 3], [-5, 2]]]]]]}')


def test_higgs_loads_gaussian_document():
    import json

    doc = {"schema": "hodge-domains/1", "ranks": [1, 1, 1], "tangent_dim": 2, "theta": GAUSSIAN_THETA}
    h = higgs_loads(json.dumps(doc))
    assert h == higgs_loads(GAUSSIAN_TEXT)
    assert higgs_dumps(h) == GAUSSIAN_TEXT
    assert h.directions == ((2, ((1, 1), (4, 0))), (6, ((0, -4), (-2, -15))))


def test_higgs_json_schema_fields():
    import json

    h = field_111([1], [0])
    doc = json.loads(higgs_dumps(h))
    assert doc["schema"] == "hodge-domains/1"
    assert doc["ranks"] == [1, 1, 1]
    assert doc["tangent_dim"] == 1
    assert doc["theta"][0][0][0][0] == [[1, 1], [0, 1]]
