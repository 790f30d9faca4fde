import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import all_rank_tuples, bridge_root, reference_hermite_normal_form, reference_is_kernel_basis
from hodge_domains import pi2
from hodge_domains.exactla import is_unimodular
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
    assert pi_u_star((1, 1)) == 0
    assert pi_u_star((1, 0, 0)) == 1
    assert pi_u_star([2, 3, 1]) == 0


def test_pi_u_star_kills_bridge_classes_m_le_8():
    for hn in all_rank_tuples(8):
        pd = parabolic_from_ranks(hn)
        for i in range(hn.k - 1):
            cls = class_of_root(bridge_root(pd, i, i + 1), pd)
            assert pi_u_star(cls.coords) == 0


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
    assert rep["rank_flag_manifold"] == 2
    assert rep["rank_domain"] == 1


def test_pi2_report_k1():
    rep = pi2_report(HodgeNumbers((2, 3)))
    assert rep["rank_flag_manifold"] == 1
    assert rep["rank_domain"] == 0
    assert rep["kernel_basis"] == []


def test_pi2_report_1111():
    rep = pi2_report(HodgeNumbers((1, 1, 1, 1)))
    assert rep["rank_flag_manifold"] == 3
    assert rep["rank_domain"] == 2
    assert rep["kernel_basis"] == [[1, 1, 0], [0, 1, 1]]


def test_kernel_basis_equals_exact_kernel_k_le_6():
    for k in range(1, 7):
        ranks = HodgeNumbers((1,) * (k + 1))
        rep = pi2_report(ranks)
        assert rep["kernel_verified"]
        assert reference_is_kernel_basis(rep["kernel_basis"], k)


def test_kernel_basis_roots_have_kernel_classes():
    for ranks in [(1, 1, 1), (2, 1, 3), (1, 2, 1, 2)]:
        hn = HodgeNumbers(ranks)
        pd = parabolic_from_ranks(hn)
        rep = pi2_report(hn)
        for i, coords in enumerate(rep["kernel_basis"]):
            assert class_of_root(bridge_root(pd, i, i + 1), pd) == Pi2Class(coords)


# -- generation report ---------------------------------------------------------


def test_generation_report_121():
    rep = superhorizontal_generation_report(HodgeNumbers((1, 2, 1)))
    assert [g["status"] for g in rep["generators"]] == ["representable"]
    assert rep["fully_generated"]
    assert not rep["interior_rank_one"]


def test_generation_report_111():
    rep = superhorizontal_generation_report(HodgeNumbers((1, 1, 1)))
    assert [g["status"] for g in rep["generators"]] == ["unknown"]
    assert not rep["fully_generated"]
    assert rep["interior_rank_one"]


def test_generation_report_2322():
    rep = superhorizontal_generation_report(HodgeNumbers((2, 3, 2, 2)))
    assert rep["generators"] == [
        {"index": 0, "middle_rank": 3, "status": "representable"},
        {"index": 1, "middle_rank": 2, "status": "representable"},
    ]
    assert rep["fully_generated"]


def test_generation_matches_interior_rank_flag_m_le_7():
    for hn in all_rank_tuples(7):
        rep = superhorizontal_generation_report(hn)
        assert rep["fully_generated"] == (not hn.has_interior_rank_one)
        assert len(rep["generators"]) == hn.k - 1


# -- the kernel certificate against the Hermite-form oracle ---------------------


def test_hermite_normal_form_basics():
    assert reference_hermite_normal_form([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    assert reference_hermite_normal_form([[0, 0], [0, 0]]) == []


@st.composite
def perturbed_kernel_bases(draw):
    """(k, basis): the kernel basis e_i + e_{i+1} of Z^k after a unimodular
    recombination (negations, shears and a permutation: still a Z-basis),
    then perhaps one row scaled, moved off the kernel or dropped."""
    k = draw(st.integers(min_value=1, max_value=7))
    basis = [[int(w in (i, i + 1)) for w in range(k)] for i in range(k - 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if basis else 0):
        i, j = draw(st.integers(0, k - 2)), draw(st.integers(0, k - 2))
        if i == j:
            basis[i] = [-x for x in basis[i]]
        else:
            q = draw(st.integers(-3, 3))
            basis[i] = [x + q * y for x, y in zip(basis[i], basis[j])]
    basis = draw(st.permutations(basis))
    how = draw(st.sampled_from(("recombined", "scaled", "off the kernel", "dropped")))
    if how != "recombined" and basis:
        i = draw(st.integers(0, len(basis) - 1))
        if how == "scaled":
            basis[i] = [draw(st.sampled_from((-3, -2, -1, 2, 3))) * x for x in basis[i]]
        elif how == "off the kernel":  # pi_u* of the row becomes +-q
            j, q = draw(st.integers(0, k - 1)), draw(st.sampled_from((-2, -1, 1, 2)))
            basis[i] = [x + q * (w == j) for w, x in enumerate(basis[i])]
        else:
            del basis[i]
    return k, basis


@settings(max_examples=300, deadline=None)
@given(perturbed_kernel_bases())
@example((3, [[2, 2, 0], [0, 1, 1]]))  # a doubled generator: index 2
@example((3, [[1, 1, 0], [0, 0, 1]]))  # a generator off the kernel, yet unimodular with e_0
@example((2, []))  # a dropped generator: [e_0] alone is not square
@example((1, []))  # k = 1: the kernel is 0, and [e_0] = [[1]]
def test_certificate_matches_hermite_oracle(case):
    # pi2_report's certificate: pi_u* kills each class, and [basis; e_0] is unimodular
    k, basis = case
    expected = reference_is_kernel_basis(basis, k)
    event("accepted" if expected else "rejected")
    certified = all(pi_u_star(c) == 0 for c in basis) and is_unimodular([*basis, [1] + [0] * (k - 1)])
    assert certified == expected


@pytest.mark.parametrize("mutate", [
    lambda coords: tuple(2 * x for x in coords),  # doubled: still in the kernel, index 2
    lambda coords: (coords[0] + 1, *coords[1:]),  # off the kernel
], ids=["doubled", "off_kernel"])
def test_pi2_report_raises_on_a_mutated_generator(monkeypatch, mutate):
    # the first class pi2_report builds is generator c_0
    built = []

    def first_mutated(coords):
        built.append(Pi2Class(mutate(coords) if not built else coords))
        return built[-1]

    monkeypatch.setattr(pi2, "Pi2Class", first_mutated)
    with pytest.raises(AssertionError, match="kernel basis"):
        pi2.pi2_report(HodgeNumbers((1, 2, 1, 1)))
    assert built[0].coords == mutate((1, 1, 0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5))
def test_closed_form_matches_oracle_property(ranks):
    hn = HodgeNumbers(tuple(ranks))
    pd = parabolic_from_ranks(hn)
    oracle = class_closure_oracle(pd)
    for r in pd.n_roots:
        assert class_of_root(r, pd) == oracle[r]
