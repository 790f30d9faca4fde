import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rank_tuples, bridge_root, mat_sub
from hodge_domains.exactla import Qi, mat_mul
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.rootcalc import (
    RootVector,
    all_roots,
    bracket_generating_check,
    parabolic_from_ranks,
    root_between,
    root_sum,
    wall_roots,
)


# -- matrix and root helpers: only the tests below call them -------------------


def dot(a: RootVector, b: RootVector) -> int:
    return sum(x * y for x, y in zip(a.coords, b.coords))


def root_space_matrix(root: RootVector) -> list[list[int]]:
    m = len(root.coords)
    out = [[0] * m for _ in range(m)]
    out[root.minus_index][root.plus_index] = 1
    return out


def unit(root: RootVector) -> dict:
    """The root's matrix unit as a sparse matrix: the map e_plus -> e_minus."""
    return {(root.minus_index, root.plus_index): 1}


def sparse_bracket(a: dict, b: dict) -> dict:
    """[a, b] = ab - ba of two sparse matrices {(row, col): int}: the
    independent oracle for the bracket-generation witnesses."""
    out: dict = {}
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


def simple_roots(m: int) -> list[RootVector]:
    """The simple system alpha_j = e_{j+1} - e_j: every position is a wall of
    the Borel (1, ..., 1), so these are its wall roots."""
    return wall_roots(parabolic_from_ranks(HodgeNumbers((1,) * m)))


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
        all_roots(1)


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
    assert wall_roots(pd) == [root_between(2, 1, 0)]  # alpha_1 = e2 - e1 is deleted
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
        parabolic_from_ranks(HodgeNumbers((1, 0, 1)))
    with pytest.raises(ValueError):
        parabolic_from_ranks(HodgeNumbers((3,)))


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
        phi = pd.v_roots | pd.n_roots  # the roots of q
        assert phi == {x for x in all_roots(m) if pd.level(x) >= 0}
        assert not pd.v_roots & pd.n_roots
        assert pd.v_roots == {x for x in phi if -x in phi}


# -- grading ----------------------------------------------------------------


def level_dims(pd) -> dict:
    """level -> number of roots of sl(m) at that level."""
    dims: dict[int, int] = {}
    for r in all_roots(pd.m):
        dims[pd.level(r)] = dims.get(pd.level(r), 0) + 1
    return dims


def test_grading_111_levels():
    pd = parabolic_from_ranks(HodgeNumbers((1, 1, 1)))
    n_levels = sorted(pd.level(r) for r in pd.n_roots)
    assert n_levels == [1, 1, 2]
    dims = level_dims(pd)
    assert dims[-1] == 2 and dims[-2] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_grading_1n1_first_level(n):
    pd = parabolic_from_ranks(HodgeNumbers((1, n, 1)))
    assert level_dims(pd)[-1] == 2 * n


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


def reference_root_sum(a: RootVector, b: RootVector):
    """a + b on coordinates, as root_sum computed it before it read the root ends."""
    coords = tuple(x + y for x, y in zip(a.coords, b.coords))
    if sorted(coords) == [-1] + [0] * (len(coords) - 2) + [1]:
        return RootVector(coords)
    return None


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_root_sum_matches_coordinate_sum(m):
    roots = all_roots(m)
    assert all(root_sum(a, b) == reference_root_sum(a, b) for a in roots for b in roots)
    assert any(root_sum(a, b) is not None for a in roots for b in roots) == (m > 2)  # sl(2) has one positive root


def test_grading_bracket_audits_hold():
    # On matrix units: [g_a, g_b] lies in g_{a+b} (a diagonal entry only when
    # a + b = 0), and [n, n^(r)] lies in n^(r+1), n^(r) the levels >= r.
    for ranks in [(1, 1), (1, 1, 1), (2, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]:
        pd = parabolic_from_ranks(HodgeNumbers(ranks))
        for a in all_roots(pd.m):
            for b in all_roots(pd.m):
                for row, col in sparse_bracket(unit(a), unit(b)):
                    if row == col:
                        assert pd.level(a) + pd.level(b) == 0
                    else:
                        assert entry_level(pd.block_of, row, col) == pd.level(a) + pd.level(b)
        for a in pd.n_roots:
            for b in pd.n_roots:
                for row, col in sparse_bracket(unit(a), unit(b)):
                    assert entry_level(pd.block_of, row, col) >= pd.level(b) + 1


def test_q_is_a_subalgebra_m_le_6():
    # Brackets of q root-space representatives stay at nonnegative levels,
    # and the Cartan normalizes every root space.
    for hn in all_rank_tuples(6):
        pd = parabolic_from_ranks(hn)
        reps = [(r, unit(r)) for r in sorted(pd.v_roots | pd.n_roots)]
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


def evaluate(tree) -> dict:
    """The sparse matrix of a witness tree: a root's matrix unit, or the
    bracket of a level-1 root's unit with its subtree's matrix."""
    if isinstance(tree, RootVector):
        return unit(tree)
    root, sub = tree
    return sparse_bracket(unit(root), evaluate(sub))


def test_bracket_generation_witnesses_are_distinct_units_m_le_7():
    # the premise of the position echelon: a bracket of nilradical matrix
    # units is one signed matrix unit or 0, so each witness is one position
    for hn in all_rank_tuples(7):
        pd = parabolic_from_ranks(hn)
        for a in pd.n_roots:
            for b in pd.n_roots:
                assert list(sparse_bracket(unit(a), unit(b)).values()) in ([], [1], [-1])
        cert = bracket_generating_check(pd)
        assert cert.ok
        for lc in cert.levels:
            units = [evaluate(w) for w in lc.witnesses]
            assert all(len(u) == 1 and abs(*u.values()) == 1 for u in units)
            positions = {pos for u in units for pos in u}
            assert len(positions) == lc.achieved == lc.dim
            assert all(entry_level(pd.block_of, row, col) == lc.level for row, col in positions)


# -- grading element ----------------------------------------------------------


def test_grading_element_eigenvalues():
    # xi = diag(-i * block(c)) (up to a scalar, which ad ignores) has
    # ad(xi) = i * level on each root space: the levels are its eigenvalues.
    for ranks in [(1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2, 1)]:
        hn = HodgeNumbers(ranks)
        xi = [[Qi(0, -hn.block_of[c]) if r == c else Qi(0) for c in range(hn.m)] for r in range(hn.m)]
        pd = parabolic_from_ranks(hn)
        for r in all_roots(hn.m):
            x = [[Qi(v) for v in row] for row in root_space_matrix(r)]
            ad = mat_sub(mat_mul(xi, x), mat_mul(x, xi))
            assert ad == [[Qi(0, pd.level(r)) * v for v in row] for row in x]


def test_block_matrix_level_component():
    hn = HodgeNumbers((1, 1, 1))
    x = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    levels = {(i, j): entry_level(hn.block_of, i, j) for i in range(3) for j in range(3)}
    # level 1 entries: block(col) - block(row) = 1, i.e. (row, col) in {(0,1),(1,2)}
    assert [x[i][j] for (i, j), lv in levels.items() if lv == 1] == [2, 6]
    assert levels[0, 0] == 0 and levels[2, 0] == -2
    assert set(levels.values()) == {-2, -1, 0, 1, 2}


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
    phi = pd.v_roots | pd.n_roots  # the roots of q
    assert phi == {x for x in all_roots(hn.m) if pd.level(x) >= 0}
    for r in pd.n_roots:
        assert pd.level(r) >= 1
        assert -r not in phi
    for r in pd.v_roots:
        assert pd.level(r) == 0
