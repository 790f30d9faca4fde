from typing import Sequence

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import all_rank_tuples, bridge_root
from hodge_domains.exactla import (
    integer_kernel,
    lattices_equal,
    smith_invariant_factors,
)
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.pi2 import (
    Pi2Class,
    class_closure_oracle,
    class_of_root,
    pi2_report,
    pi_u_star,
    superhorizontal_generation_report,
)
from hodge_domains.rootcalc import (
    parabolic_from_ranks,
    root_between,
    root_sum,
    wall_roots,
)


# -- sphere classes of roots --------------------------------------------------


def test_class_111_long_root_is_sum_of_walls():
    pd = parabolic_from_ranks(HodgeNumbers((1, 1, 1)))
    long_root = root_between(3, 2, 0)
    assert class_of_root(long_root, pd).coords == (1, 1)


def test_class_21_both_roots():
    # Oracle: relation closure on the m = 3 root poset.
    pd = parabolic_from_ranks(HodgeNumbers((2, 1)))
    oracle = class_closure_oracle(pd)
    for r in pd.n_roots:
        assert class_of_root(r, pd).coords == (1,)
        assert oracle[r].coords == (1,)


def test_class_of_wall_roots_are_basis_vectors():
    for ranks in [(1, 1), (1, 1, 1), (2, 3, 2), (1, 2, 1, 2)]:
        hn = HodgeNumbers(ranks)
        pd = parabolic_from_ranks(hn)
        for i, beta in enumerate(wall_roots(pd)):
            expected = tuple(1 if j == i else 0 for j in range(hn.k))
            assert class_of_root(beta, pd).coords == expected


def test_class_rejects_non_nilradical_roots():
    pd = parabolic_from_ranks(HodgeNumbers((2, 1)))
    with pytest.raises(ValueError):
        class_of_root(root_between(3, 1, 0), pd)  # a level-0 root


def test_closed_form_matches_oracle_m_le_6():
    for hn in all_rank_tuples(6):
        pd = parabolic_from_ranks(hn)
        oracle = class_closure_oracle(pd)
        for r in pd.n_roots:
            assert class_of_root(r, pd) == oracle[r]


def test_class_additivity_m_le_7():
    for hn in all_rank_tuples(7):
        pd = parabolic_from_ranks(hn)
        nset = pd.n_roots
        for a in nset:
            for b in nset:
                c = root_sum(a, b)
                if c is not None and c in nset:
                    assert class_of_root(c, pd) == class_of_root(a, pd) + class_of_root(b, pd)


# -- the projection morphism --------------------------------------------------


def test_pi_u_star_values():
    assert pi_u_star(Pi2Class((1, 1))) == 0
    assert pi_u_star(Pi2Class((1, 0, 0))) == 1
    assert pi_u_star(Pi2Class((2, 3, 1))) == 0


def test_pi_u_star_kills_bridge_classes_m_le_8():
    for hn in all_rank_tuples(8):
        pd = parabolic_from_ranks(hn)
        for i in range(hn.k - 1):
            cls = class_of_root(bridge_root(pd, i, i + 1), pd)
            assert pi_u_star(cls) == 0


def test_bridge_classes_match_the_closure_oracle_m_le_8():
    # the bridge root of walls i and i+1, whose sphere represents kernel
    # generator i, has class beta_i + beta_{i+1} in the relation closure
    for hn in all_rank_tuples(8):
        pd = parabolic_from_ranks(hn)
        oracle = class_closure_oracle(pd)
        for i in range(hn.k - 1):
            expected = tuple(1 if w in (i, i + 1) else 0 for w in range(hn.k))
            assert oracle[bridge_root(pd, i, i + 1)].coords == expected


def test_pi2_report_1n1():
    rep = pi2_report(HodgeNumbers((1, 4, 1)))
    assert rep.rank_flag_manifold == 2
    assert rep.rank_domain == 1


def test_pi2_report_k1():
    rep = pi2_report(HodgeNumbers((2, 3)))
    assert rep.rank_flag_manifold == 1
    assert rep.rank_domain == 0
    assert rep.kernel_basis == ()


def test_pi2_report_1111():
    rep = pi2_report(HodgeNumbers((1, 1, 1, 1)))
    assert rep.rank_flag_manifold == 3
    assert rep.rank_domain == 2
    assert [c.coords for c in rep.kernel_basis] == [(1, 1, 0), (0, 1, 1)]


def test_kernel_basis_equals_exact_kernel_k_le_6():
    for k in range(1, 7):
        ranks = HodgeNumbers((1,) * (k + 1))
        rep = pi2_report(ranks)
        assert rep.kernel_verified
        claimed = [list(c.coords) for c in rep.kernel_basis]
        exact = integer_kernel([[(-1) ** i for i in range(k)]])
        assert lattices_equal(claimed, exact)
        if k >= 2:
            assert smith_invariant_factors(claimed) == [1] * (k - 1)


def test_kernel_basis_roots_have_kernel_classes():
    for ranks in [(1, 1, 1), (2, 1, 3), (1, 2, 1, 2)]:
        hn = HodgeNumbers(ranks)
        pd = parabolic_from_ranks(hn)
        rep = pi2_report(hn)
        for i, cls in enumerate(rep.kernel_basis):
            assert class_of_root(bridge_root(pd, i, i + 1), pd) == cls


# -- generation report ---------------------------------------------------------


def test_generation_report_121():
    rep = superhorizontal_generation_report(HodgeNumbers((1, 2, 1)))
    assert [g.status for g in rep.per_generator] == ["representable"]
    assert rep.fully_generated
    assert not rep.interior_rank_one


def test_generation_report_111():
    rep = superhorizontal_generation_report(HodgeNumbers((1, 1, 1)))
    assert [g.status for g in rep.per_generator] == ["unknown"]
    assert not rep.fully_generated
    assert rep.interior_rank_one


def test_generation_report_2322():
    rep = superhorizontal_generation_report(HodgeNumbers((2, 3, 2, 2)))
    assert [(g.index, g.middle_rank, g.status) for g in rep.per_generator] == [
        (0, 3, "representable"),
        (1, 2, "representable"),
    ]
    assert rep.fully_generated


def test_generation_matches_interior_rank_flag_m_le_7():
    for hn in all_rank_tuples(7):
        rep = superhorizontal_generation_report(hn)
        assert rep.fully_generated == (not hn.has_interior_rank_one)
        assert len(rep.per_generator) == hn.k - 1


# -- integer form helpers -------------------------------------------------------


def reference_hermite_normal_form(rows_in: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row-style Hermite normal form (zero rows dropped).

    The oracle for lattices_equal: two generating sets span one lattice iff
    their Hermite forms are equal."""
    rows = [list(map(int, r)) for r in rows_in]
    if not rows:
        return []
    nr, nc = len(rows), len(rows[0])
    piv = 0
    for c in range(nc):
        # Euclid within column c until at most one row below piv has a nonzero.
        while True:
            nz = [i for i in range(piv, nr) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            base = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[base][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[base])]
        nz = [i for i in range(piv, nr) if rows[i][c] != 0]
        if not nz:
            continue
        rows[piv], rows[nz[0]] = rows[nz[0]], rows[piv]
        if rows[piv][c] < 0:
            rows[piv] = [-x for x in rows[piv]]
        for i in range(nr):
            if i != piv and rows[i][c] != 0:
                q = rows[i][c] // rows[piv][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[piv])]
        piv += 1
    return rows[:piv]


def test_hermite_normal_form_basics():
    assert reference_hermite_normal_form([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    assert reference_hermite_normal_form([[0, 0], [0, 0]]) == []


@st.composite
def lattice_pairs(draw):
    """(A, B): generating sets of two lattices in Z^n.  A gets zero, duplicate
    and dependent rows; B is random, or a unimodular recombination of A (the
    same lattice), possibly with one row then scaled (often a sublattice)."""
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)
    a = draw(st.lists(row, max_size=4))
    for kind in draw(st.lists(st.sampled_from(("zero", "duplicate", "dependent")), max_size=2)):
        if kind == "zero" or not a:
            a.append([0] * n)
        elif kind == "duplicate":
            a.append(list(draw(st.sampled_from(a))))
        else:
            x, y, c = draw(st.sampled_from(a)), draw(st.sampled_from(a)), draw(st.integers(-3, 3))
            a.append([u + c * v for u, v in zip(x, y)])
    how = draw(st.sampled_from(("random", "recombined", "recombined and scaled")))
    if how == "random":
        return a, draw(st.lists(row, max_size=4))
    b = [list(r) for r in a]
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if b else 0):
        i, j = draw(st.integers(0, len(b) - 1)), draw(st.integers(0, len(b) - 1))
        if i == j:
            b[i] = [-x for x in b[i]]
        else:
            q = draw(st.integers(-3, 3))
            b[i] = [x + q * y for x, y in zip(b[i], b[j])]
    b = draw(st.permutations(b))
    if how == "recombined and scaled" and b:
        i = draw(st.integers(0, len(b) - 1))
        b[i] = [draw(st.integers(2, 3)) * x for x in b[i]]
    return a, b


@settings(max_examples=300, deadline=None)
@given(lattice_pairs())
@example(([[2, 4], [1, 3]], [[1, 1], [0, 2]]))  # equal, different generators
@example(([[2, 0]], [[1, 0]]))  # same rank, index 2
@example(([[1, 0]], [[1, 0], [0, 1]]))  # different rank
@example(([], [[0, 0]]))  # both zero
def test_lattices_equal_matches_hermite_forms(pair):
    a, b = pair
    expected = reference_hermite_normal_form(a) == reference_hermite_normal_form(b)
    event("equal" if expected else "unequal")
    assert lattices_equal(a, b) == expected


def test_integer_kernel_alternating_row():
    k = 4
    ker = integer_kernel([[(-1) ** i for i in range(k)]])
    assert len(ker) == 3
    for v in ker:
        assert sum((-1) ** i * x for i, x in enumerate(v)) == 0


def test_smith_invariant_factors_divisibility():
    factors = smith_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5))
def test_closed_form_matches_oracle_property(ranks):
    hn = HodgeNumbers(tuple(ranks))
    pd = parabolic_from_ranks(hn)
    oracle = class_closure_oracle(pd)
    for r in pd.n_roots:
        assert class_of_root(r, pd) == oracle[r]
