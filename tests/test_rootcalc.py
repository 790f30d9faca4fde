import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rank_tuples, bridge_root, mat_sub
from hodge_domains.exactla import Qi, mat_mul
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.rootcalc import (
    bracket_generating_check,
    level_zero_roots,
    nilradical,
    root_sum,
    wall_roots,
)


# -- matrix and root helpers: only the tests below call them -------------------


def coords(root: tuple[int, int], m: int) -> tuple[int, ...]:
    """The coordinate vector e_a - e_b of the root (a, b): the oracle the
    pairs are checked against."""
    a, b = root
    return tuple(1 if c == a else -1 if c == b else 0 for c in range(m))


def all_roots(m: int) -> list[tuple[int, int]]:
    """All m(m-1) roots of sl(m)."""
    return [(a, b) for a in range(m) for b in range(m) if a != b]


def level(hn: HodgeNumbers, root: tuple[int, int]) -> int:
    """Grading level: block(+1 end) - block(-1 end)."""
    return hn.block_of[root[0]] - hn.block_of[root[1]]


def dot(a: tuple[int, int], b: tuple[int, int], m: int) -> int:
    return sum(x * y for x, y in zip(coords(a, m), coords(b, m)))


def root_space_matrix(root: tuple[int, int], m: int) -> list[list[int]]:
    out = [[0] * m for _ in range(m)]
    out[root[1]][root[0]] = 1
    return out


def unit(root: tuple[int, int]) -> dict:
    """The root's matrix unit as a sparse matrix: the map e_plus -> e_minus."""
    return {(root[1], root[0]): 1}


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


def simple_roots(m: int) -> list[tuple[int, int]]:
    """The simple system alpha_j = e_{j+1} - e_j: every position is a wall of
    the Borel (1, ..., 1), so these are its wall roots."""
    return wall_roots(HodgeNumbers((1,) * m))


# -- simple roots -----------------------------------------------------------


def test_simple_roots_sl2():
    assert [coords(r, 2) for r in simple_roots(2)] == [(-1, 1)]


def test_simple_roots_sl3():
    assert [coords(r, 3) for r in simple_roots(3)] == [(-1, 1, 0), (0, -1, 1)]


def test_simple_roots_sl4_cartan_pattern():
    # Oracle: direct dot products must reproduce the A3 Cartan pattern.
    roots = simple_roots(4)
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert dot(a, b, 4) == expected


def test_simple_roots_invalid_dimension():
    with pytest.raises(ValueError):  # sl(1) has no parabolic: the ranks need two blocks
        simple_roots(1)


def test_positive_roots_are_nonnegative_combinations():
    # e_b - e_a with b > a telescopes as alpha_a + ... + alpha_{b-1}.
    m = 5
    for a in range(m):
        for b in range(a + 1, m):
            acc = [0] * m
            for j in range(a, b):
                for c, x in enumerate(coords(simple_roots(m)[j], m)):
                    acc[c] += x
            assert tuple(acc) == coords((b, a), m)


def is_root(vector: tuple[int, ...]) -> bool:
    """Whether a coordinate vector is an sl(m) root: one +1, one -1, rest 0."""
    return sorted(vector) == [-1] + [0] * (len(vector) - 2) + [1]


def test_every_root_is_an_sl_root():
    # what the package hands out as a root has the coordinates of one, and
    # root_sum refuses the vectors that are not roots: 0 and non-adjacent sums
    assert not is_root((1, 1, -2)) and not is_root((0, 0, 0)) and not is_root((1, -1, 1, -1))
    for hn in all_rank_tuples(6):
        m = hn.m
        for root in [*nilradical(hn), *level_zero_roots(hn), *wall_roots(hn)]:
            assert is_root(coords(root, m))
        for a in all_roots(m):
            for b in all_roots(m):
                c = root_sum(a, b)
                assert (c is not None) == is_root(tuple(x + y for x, y in zip(coords(a, m), coords(b, m))))


# -- parabolic data ---------------------------------------------------------


def test_parabolic_sl2_borel():
    hn = HodgeNumbers((1, 1))
    assert wall_roots(hn) == [(1, 0)]  # alpha_1 = e2 - e1 is deleted
    assert len(nilradical(hn)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parabolic_1n1_nilradical_dimension(n):
    assert len(nilradical(HodgeNumbers((1, n, 1)))) == 2 * n + 1


def test_parabolic_21_roots():
    # Oracle: enumerate the six roots of sl(3) and filter by the wall at 2.
    hn = HodgeNumbers((2, 1))
    assert set(nilradical(hn)) == {(2, 0), (2, 1)}
    assert set(level_zero_roots(hn)) == {(1, 0), (0, 1)}


def test_parabolic_invalid_ranks():
    with pytest.raises(ValueError):
        nilradical(HodgeNumbers((1, 0, 1)))
    with pytest.raises(ValueError):
        nilradical(HodgeNumbers((3,)))


def test_parabolic_counting_invariants_m_le_9():
    for hn in all_rank_tuples(9):
        m = hn.m
        assert len(all_roots(m)) == m * (m - 1)
        positives = [(a, b) for a, b in all_roots(m) if a > b]
        assert len(positives) == m * (m - 1) // 2
        r = hn.ranks
        expected_n = sum(r[i] * r[j] for i in range(len(r)) for j in range(i + 1, len(r)))
        n_roots, v_roots = set(nilradical(hn)), set(level_zero_roots(hn))
        assert len(nilradical(hn)) == len(n_roots) == expected_n
        assert len(level_zero_roots(hn)) == len(v_roots)
        # the order of the coordinate vectors, which the bracket witnesses follow
        assert nilradical(hn) == sorted(n_roots, key=lambda x: coords(x, m))
        phi = v_roots | n_roots  # the roots of q
        assert phi == {x for x in all_roots(m) if level(hn, x) >= 0}
        assert not v_roots & n_roots
        assert v_roots == {x for x in phi if x[::-1] in phi}


# -- grading ----------------------------------------------------------------


def level_dims(hn) -> dict:
    """level -> number of roots of sl(m) at that level."""
    dims: dict[int, int] = {}
    for r in all_roots(hn.m):
        dims[level(hn, r)] = dims.get(level(hn, r), 0) + 1
    return dims


def test_grading_111_levels():
    hn = HodgeNumbers((1, 1, 1))
    n_levels = sorted(level(hn, r) for r in nilradical(hn))
    assert n_levels == [1, 1, 2]
    dims = level_dims(hn)
    assert dims[-1] == 2 and dims[-2] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_grading_1n1_first_level(n):
    assert level_dims(HodgeNumbers((1, n, 1)))[-1] == 2 * n


def test_grading_level_partition_counts():
    for hn in all_rank_tuples(7):
        total = sum(1 for r in nilradical(hn))
        by_level = {}
        for r in nilradical(hn):
            by_level[level(hn, r)] = by_level.get(level(hn, r), 0) + 1
        assert sum(by_level.values()) == total
        r = hn.ranks
        assert total == sum(r[i] * r[j] for i in range(len(r)) for j in range(i + 1, len(r)))


def test_grading_additivity_exhaustive_m_le_7():
    for hn in all_rank_tuples(7):
        roots = all_roots(hn.m)
        for a in roots:
            for b in roots:
                c = root_sum(a, b)
                if c is not None:
                    assert level(hn, c) == level(hn, a) + level(hn, b)


def reference_root_sum(a: tuple[int, int], b: tuple[int, int], m: int):
    """a + b on coordinates, as root_sum computed it before it read the root ends."""
    vector = tuple(x + y for x, y in zip(coords(a, m), coords(b, m)))
    return (vector.index(1), vector.index(-1)) if is_root(vector) else None


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_root_sum_matches_coordinate_sum(m):
    roots = all_roots(m)
    assert all(root_sum(a, b) == reference_root_sum(a, b, m) for a in roots for b in roots)
    assert any(root_sum(a, b) is not None for a in roots for b in roots) == (m > 2)  # sl(2) has one positive root


def test_grading_bracket_audits_hold():
    # On matrix units: [g_a, g_b] lies in g_{a+b} (a diagonal entry only when
    # a + b = 0), and [n, n^(r)] lies in n^(r+1), n^(r) the levels >= r.
    for ranks in [(1, 1), (1, 1, 1), (2, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]:
        hn = HodgeNumbers(ranks)
        for a in all_roots(hn.m):
            for b in all_roots(hn.m):
                for row, col in sparse_bracket(unit(a), unit(b)):
                    if row == col:
                        assert level(hn, a) + level(hn, b) == 0
                    else:
                        assert entry_level(hn.block_of, row, col) == level(hn, a) + level(hn, b)
        for a in nilradical(hn):
            for b in nilradical(hn):
                for row, col in sparse_bracket(unit(a), unit(b)):
                    assert entry_level(hn.block_of, row, col) >= level(hn, b) + 1


def test_q_is_a_subalgebra_m_le_6():
    # Brackets of q root-space representatives stay at nonnegative levels,
    # and the Cartan normalizes every root space.
    for hn in all_rank_tuples(6):
        reps = [(r, unit(r)) for r in [*level_zero_roots(hn), *nilradical(hn)]]
        for _, x in reps:
            for _, y in reps:
                br = sparse_bracket(x, y)
                for (row, col) in br:
                    if row != col:
                        assert entry_level(hn.block_of, row, col) >= 0


# -- bracket generation -----------------------------------------------------


def test_bracket_generation_111():
    ok, levels = bracket_generating_check(HodgeNumbers((1, 1, 1)))
    assert ok
    top_level, top_dim, top_witnesses = levels[-1]
    assert top_level == 2 and top_dim == 1 and len(top_witnesses) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_generation_1n1(n):
    ok, _ = bracket_generating_check(HodgeNumbers((1, n, 1)))
    assert ok


def test_bracket_generation_k1_vacuous():
    ok, levels = bracket_generating_check(HodgeNumbers((3, 2)))
    assert ok
    assert [lv for lv, _, _ in levels] == [1]


def test_bracket_generation_witness_counts():
    hn = HodgeNumbers((2, 1, 2, 1))
    ok, levels = bracket_generating_check(hn)
    assert ok
    for lv, dim, witnesses in levels:
        assert dim == len(witnesses) == sum(level(hn, r) == lv for r in nilradical(hn))


def evaluate(tree) -> dict:
    """The sparse matrix of a witness tree: a root's matrix unit, or the
    bracket of a level-1 root's unit with its subtree's matrix."""
    if isinstance(tree[0], int):
        return unit(tree)
    root, sub = tree
    return sparse_bracket(unit(root), evaluate(sub))


def test_bracket_generation_witnesses_are_distinct_units_m_le_7():
    # the premise of the position echelon: a bracket of nilradical matrix
    # units is one signed matrix unit or 0, so each witness is one position
    for hn in all_rank_tuples(7):
        for a in nilradical(hn):
            for b in nilradical(hn):
                assert list(sparse_bracket(unit(a), unit(b)).values()) in ([], [1], [-1])
        ok, levels = bracket_generating_check(hn)
        assert ok
        for lv, dim, witnesses in levels:
            units = [evaluate(w) for w in witnesses]
            assert all(len(u) == 1 and abs(*u.values()) == 1 for u in units)
            positions = {pos for u in units for pos in u}
            assert len(positions) == len(witnesses) == dim
            assert all(entry_level(hn.block_of, row, col) == lv for row, col in positions)


# -- grading element ----------------------------------------------------------


def test_grading_element_eigenvalues():
    # xi = diag(-i * block(c)) (up to a scalar, which ad ignores) has
    # ad(xi) = i * level on each root space: the levels are its eigenvalues.
    for ranks in [(1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2, 1)]:
        hn = HodgeNumbers(ranks)
        xi = [[Qi(0, -hn.block_of[c]) if r == c else Qi(0) for c in range(hn.m)] for r in range(hn.m)]
        for r in all_roots(hn.m):
            x = [[Qi(v) for v in row] for row in root_space_matrix(r, hn.m)]
            ad = mat_sub(mat_mul(xi, x), mat_mul(x, xi))
            assert ad == [[Qi(0, level(hn, r)) * v for v in row] for row in x]


def test_block_matrix_level_component():
    hn = HodgeNumbers((1, 1, 1))
    x = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    levels = {(i, j): entry_level(hn.block_of, i, j) for i in range(3) for j in range(3)}
    # level 1 entries: block(col) - block(row) = 1, i.e. (row, col) in {(0,1),(1,2)}
    assert [x[i][j] for (i, j), lv in levels.items() if lv == 1] == [2, 6]
    assert levels[0, 0] == 0 and levels[2, 0] == -2
    assert set(levels.values()) == {-2, -1, 0, 1, 2}


def test_wall_and_bridge_roots():
    hn = HodgeNumbers((2, 3, 2))
    walls = wall_roots(hn)
    assert [coords(w, hn.m).index(1) + 1 for w in walls] == [3, 6]  # first coords of blocks 1, 2
    assert bridge_root(hn, 0, 1) == (5, 1)  # e6 - e2, 0-based


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5))
def test_parabolic_invariants_property(ranks):
    # the roots of q, from the definition: the positive roots and the roots
    # in the span of the level-0 simple roots; the nilradical is the ones
    # whose negative is not in q, and the rest are level 0
    hn = HodgeNumbers(tuple(ranks))
    roots = all_roots(hn.m)
    positive = {(a, b) for a, b in roots if a > b}
    in_span = {(a, b) for a, b in roots if hn.block_of[a] == hn.block_of[b]}
    phi = positive | in_span
    assert set(nilradical(hn)) == {x for x in phi if x[::-1] not in phi}
    assert set(level_zero_roots(hn)) == {x for x in phi if x[::-1] in phi}
    assert phi == {x for x in roots if level(hn, x) >= 0}
    for r in nilradical(hn):
        assert level(hn, r) >= 1
    for r in level_zero_roots(hn):
        assert level(hn, r) == 0
