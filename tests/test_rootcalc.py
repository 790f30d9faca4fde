import random
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rank_tuples, mat_sub
from hodge_domains.exactla import (
    GaussianRational,
    QI_ZERO,
    Qi,
    _coerce,
    hermitian_definiteness,
    mat_mul,
    trace,
)
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.rootcalc import (
    BlockMatrix,
    RootVector,
    all_roots,
    block_matrix,
    bracket_generating_check,
    bridge_root,
    entry_level,
    grading,
    grading_element,
    killing_form,
    parabolic_from_ranks,
    root_between,
    root_space_sparse,
    root_sum,
    simple_roots,
    sparse_bracket,
    tau_conjugate,
    wall_roots,
)


def is_real(x) -> bool:
    return x.im == 0


# -- matrix and root helpers: only the tests below call them -------------------


def mat(rows: Iterable[Iterable]) -> list[list[GaussianRational]]:
    return [[_coerce(x) for x in row] for row in rows]


def bracket(a, b):
    """Matrix commutator [a, b] = ab - ba."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def dot(a: RootVector, b: RootVector) -> int:
    return sum(x * y for x, y in zip(a.coords, b.coords))


def root_space_matrix(root: RootVector) -> list[list[int]]:
    m = root.m
    out = [[0] * m for _ in range(m)]
    out[root.minus_index][root.plus_index] = 1
    return out


def root_space_block_matrix(root: RootVector, ranks: HodgeNumbers) -> BlockMatrix:
    return block_matrix(ranks, mat(root_space_matrix(root)))


def is_traceless(x: BlockMatrix) -> bool:
    return trace([list(r) for r in x.entries]).is_zero()


def level_component(x: BlockMatrix, level: int) -> BlockMatrix:
    """The projection onto grading level `level` (other entries zeroed)."""
    block_of = x.ranks.block_of
    rows = [
        [
            v if entry_level(block_of, i, j) == level else QI_ZERO
            for j, v in enumerate(row)
        ]
        for i, row in enumerate(x.entries)
    ]
    return BlockMatrix(x.ranks, tuple(tuple(r) for r in rows))


def entry_levels(x: BlockMatrix) -> dict:
    """Nonzero entries grouped by grading level."""
    block_of = x.ranks.block_of
    out: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(x.entries):
        for j, v in enumerate(row):
            if not v.is_zero():
                out.setdefault(entry_level(block_of, i, j), []).append((i, j))
    return out


def ad(x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    if x.m != y.m:
        raise ValueError("dimension mismatch in bracket")
    return block_matrix(x.ranks, bracket(x.rows(), y.rows()))


def invariant_inner_product(x: BlockMatrix, y: BlockMatrix) -> GaussianRational:
    """The Ad-invariant inner product (X, Y) -> -B(X, tau(Y)); Hermitian positive."""
    return -killing_form(x, tau_conjugate(y))


# -- simple roots -----------------------------------------------------------


def test_simple_roots_sl2():
    assert [r.coords for r in simple_roots(2)] == [(-1, 1)]


def test_simple_roots_sl3():
    assert [r.coords for r in simple_roots(3)] == [(-1, 1, 0), (0, -1, 1)]


def test_simple_roots_sl4_cartan_pattern():
    # Oracle: direct dot products must reproduce the A3 Cartan pattern.
    roots = simple_roots(4)
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert dot(a, b) == expected


def test_simple_roots_invalid_dimension():
    with pytest.raises(ValueError):
        simple_roots(1)


def test_positive_roots_are_nonnegative_combinations():
    # e_b - e_a with b > a telescopes as alpha_a + ... + alpha_{b-1}.
    m = 5
    for a in range(m):
        for b in range(a + 1, m):
            acc = [0] * m
            for j in range(a, b):
                for c, x in enumerate(simple_roots(m)[j].coords):
                    acc[c] += x
            assert tuple(acc) == root_between(m, b, a).coords


def test_root_vector_rejects_non_roots():
    with pytest.raises(ValueError):
        RootVector((1, 1, -2))


# -- parabolic data ---------------------------------------------------------


def test_parabolic_sl2_borel():
    pd = parabolic_from_ranks(HodgeNumbers((1, 1)))
    assert pd.pi_q == {1}
    assert len(pd.n_roots) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parabolic_1n1_nilradical_dimension(n):
    pd = parabolic_from_ranks(HodgeNumbers((1, n, 1)))
    assert len(pd.n_roots) == 2 * n + 1


def test_parabolic_21_roots():
    # Oracle: enumerate the six roots of sl(3) and filter by the wall at 2.
    pd = parabolic_from_ranks(HodgeNumbers((2, 1)))
    assert pd.n_roots == {root_between(3, 2, 0), root_between(3, 2, 1)}
    assert pd.v_roots == {root_between(3, 1, 0), root_between(3, 0, 1)}


def test_parabolic_invalid_ranks():
    with pytest.raises(ValueError):
        parabolic_from_ranks((1, 0, 1))
    with pytest.raises(ValueError):
        parabolic_from_ranks((3,))


def test_parabolic_counting_invariants_m_le_9():
    for hn in all_rank_tuples(9):
        pd = parabolic_from_ranks(hn)
        m = hn.m
        assert len(all_roots(m)) == m * (m - 1)
        positives = [r for r in all_roots(m) if r.plus_index > r.minus_index]
        assert len(positives) == m * (m - 1) // 2
        r = hn.ranks
        expected_n = sum(r[i] * r[j] for i in range(len(r)) for j in range(i + 1, len(r)))
        assert len(pd.n_roots) == expected_n
        assert pd.v_roots | pd.n_roots == pd.phi
        assert not pd.v_roots & pd.n_roots
        assert pd.v_roots == {x for x in pd.phi if -x in pd.phi}


# -- grading ----------------------------------------------------------------


def test_grading_111_levels():
    pd = parabolic_from_ranks(HodgeNumbers((1, 1, 1)))
    g = grading(pd)
    n_levels = sorted(pd.level(r) for r in pd.n_roots)
    assert n_levels == [1, 1, 2]
    assert g.dim_g[-1] == 2 and g.dim_g[-2] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_grading_1n1_first_level(n):
    pd = parabolic_from_ranks(HodgeNumbers((1, n, 1)))
    g = grading(pd)
    assert g.dim_g[-1] == 2 * n


def test_grading_level_partition_counts():
    for hn in all_rank_tuples(7):
        pd = parabolic_from_ranks(hn)
        total = sum(1 for r in pd.n_roots)
        by_level = {}
        for r in pd.n_roots:
            by_level[pd.level(r)] = by_level.get(pd.level(r), 0) + 1
        assert sum(by_level.values()) == total
        r = hn.ranks
        assert total == sum(r[i] * r[j] for i in range(len(r)) for j in range(i + 1, len(r)))


def test_grading_additivity_exhaustive_m_le_7():
    for hn in all_rank_tuples(7):
        pd = parabolic_from_ranks(hn)
        roots = all_roots(hn.m)
        for a in roots:
            for b in roots:
                c = root_sum(a, b)
                if c is not None:
                    assert pd.level(c) == pd.level(a) + pd.level(b)


def test_grading_bracket_audits_hold():
    for ranks in [(1, 1), (1, 1, 1), (2, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]:
        g = grading(parabolic_from_ranks(HodgeNumbers(ranks)))
        assert g.bracket_additive
        assert g.descending_series_ok


def test_q_is_a_subalgebra_m_le_6():
    # Brackets of q root-space representatives stay at nonnegative levels,
    # and the Cartan normalizes every root space.
    for hn in all_rank_tuples(6):
        pd = parabolic_from_ranks(hn)
        reps = [(r, root_space_sparse(r)) for r in sorted(pd.phi)]
        for _, x in reps:
            for _, y in reps:
                br = sparse_bracket(x, y)
                for (row, col) in br:
                    if row != col:
                        assert entry_level(pd.block_of, row, col) >= 0


# -- bracket generation -----------------------------------------------------


def test_bracket_generation_111():
    cert = bracket_generating_check(parabolic_from_ranks(HodgeNumbers((1, 1, 1))))
    assert cert.ok
    top = cert.levels[-1]
    assert top.level == 2 and top.dim == 1 and top.achieved == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_generation_1n1(n):
    cert = bracket_generating_check(parabolic_from_ranks(HodgeNumbers((1, n, 1))))
    assert cert.ok


def test_bracket_generation_k1_vacuous():
    cert = bracket_generating_check(parabolic_from_ranks(HodgeNumbers((3, 2))))
    assert cert.ok
    assert [lc.level for lc in cert.levels] == [1]


def test_bracket_generation_witness_counts():
    cert = bracket_generating_check(parabolic_from_ranks(HodgeNumbers((2, 1, 2, 1))))
    assert cert.ok
    for lc in cert.levels:
        assert lc.achieved == lc.dim == len(lc.witnesses)


# -- Killing form, conjugation, grading element -----------------------------


def _sl2_matrix(rows):
    return block_matrix(HodgeNumbers((1, 1)), [[Qi(x) for x in row] for row in rows])


def test_killing_form_sl2_nilpotent():
    x = _sl2_matrix([[0, 0], [1, 0]])
    assert invariant_inner_product(x, x) == Qi(4)


def test_killing_form_matches_trace_normalization():
    x = _sl2_matrix([[1, 0], [0, -1]])
    y = _sl2_matrix([[0, 1], [0, 0]])
    assert killing_form(x, x) == Qi(8)  # 2m tr(x^2) = 4 * 2
    assert killing_form(x, y) == Qi(0)


def test_tau_of_diagonal_is_minus_conjugate():
    x = block_matrix(
        HodgeNumbers((1, 1, 1)),
        [[Qi(1, 2), Qi(0), Qi(0)], [Qi(0), Qi(-2, 1), Qi(0)], [Qi(0), Qi(0), Qi(1, -3)]],
    )
    t = tau_conjugate(x)
    for i in range(3):
        assert t.entries[i][i] == -x.entries[i][i].conjugate()
    assert is_real(invariant_inner_product(x, x))


def test_killing_dimension_mismatch():
    x = _sl2_matrix([[0, 0], [1, 0]])
    y = block_matrix(HodgeNumbers((1, 1, 1)), [[Qi(0)] * 3 for _ in range(3)])
    with pytest.raises(ValueError):
        killing_form(x, y)


def test_inner_product_positive_on_random_nilradical_elements():
    rng = random.Random(20240)
    for _ in range(100):
        hn = HodgeNumbers(tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 4))))
        pd = parabolic_from_ranks(hn)
        rows = [[Qi(0)] * hn.m for _ in range(hn.m)]
        nonzero = False
        for r in pd.sorted_n_roots():
            c = Qi(Fraction(rng.randint(-2, 2), rng.choice((1, 2))), Fraction(rng.randint(-2, 2), 2))
            if not c.is_zero():
                nonzero = True
            rows[r.minus_index][r.plus_index] = c
        if not nonzero:
            rows[pd.sorted_n_roots()[0].minus_index][pd.sorted_n_roots()[0].plus_index] = Qi(1)
        x = block_matrix(hn, rows)
        val = invariant_inner_product(x, x)
        assert is_real(val) and val.re > 0


def test_inner_product_gram_positive_definite_m_le_6():
    for hn in all_rank_tuples(6):
        pd = parabolic_from_ranks(hn)
        reps = [root_space_block_matrix(r, hn) for r in pd.sorted_n_roots()]
        gram = [[invariant_inner_product(x, y) for y in reps] for x in reps]
        assert hermitian_definiteness(gram) == "positive"


def test_grading_element_eigenvalues():
    for ranks in [(1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2, 1)]:
        hn = HodgeNumbers(ranks)
        xi = grading_element(hn)
        assert is_traceless(xi)
        pd = parabolic_from_ranks(hn)
        for r in all_roots(hn.m):
            x = root_space_block_matrix(r, hn)
            lhs = ad(xi, x)
            scaled = block_matrix(
                hn,
                [[Qi(0, pd.level(r)) * v for v in row] for row in x.entries],
            )
            assert lhs.entries == scaled.entries


def test_block_matrix_level_component():
    hn = HodgeNumbers((1, 1, 1))
    x = block_matrix(hn, [[Qi(1), Qi(2), Qi(3)], [Qi(4), Qi(5), Qi(6)], [Qi(7), Qi(8), Qi(9)]])
    lv1 = level_component(x, 1)
    # level 1 entries: block(col) - block(row) = 1, i.e. (row, col) in {(0,1),(1,2)}
    assert lv1.entries[0][1] == Qi(2) and lv1.entries[1][2] == Qi(6)
    assert lv1.entries[0][0].is_zero() and lv1.entries[2][0].is_zero()
    assert set(entry_levels(x)) == {-2, -1, 0, 1, 2}


def test_wall_and_bridge_roots():
    pd = parabolic_from_ranks(HodgeNumbers((2, 3, 2)))
    walls = wall_roots(pd)
    assert [w.coords.index(1) + 1 for w in walls] == [3, 6]  # first coords of blocks 1, 2
    b = bridge_root(pd, 0, 1)
    assert b.plus_index == 5 and b.minus_index == 1  # e6 - e2, 0-based


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5))
def test_parabolic_invariants_property(ranks):
    hn = HodgeNumbers(tuple(ranks))
    pd = parabolic_from_ranks(hn)
    assert pd.phi == pd.v_roots | pd.n_roots
    for r in pd.n_roots:
        assert pd.level(r) >= 1
        assert -r not in pd.phi
    for r in pd.v_roots:
        assert pd.level(r) == 0
