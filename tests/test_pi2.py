import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import all_rank_tuples, bridge_root, reference_hermite_normal_form, reference_is_kernel_basis
from hodge_domains import pi2
from hodge_domains.exactla import is_unimodular
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.pi2 import (
    OracleInconsistentError,
    OracleUnderdeterminedError,
    class_closure_oracle,
    class_of_root,
    pi2_report,
    pi_u_star,
    superhorizontal_generation_report,
)
from hodge_domains.rootcalc import nilradical, root_sum, wall_roots


# -- sphere classes of roots --------------------------------------------------


def test_class_111_long_root_is_sum_of_walls():
    long_root = (2, 0)
    assert class_of_root(long_root, HodgeNumbers((1, 1, 1))) == (1, 1)


def test_class_21_both_roots():
    # Oracle: relation closure on the m = 3 root poset.
    hn = HodgeNumbers((2, 1))
    oracle = class_closure_oracle(hn)
    for r in nilradical(hn):
        assert class_of_root(r, hn) == (1,)
        assert oracle[r] == (1,)


def test_class_of_wall_roots_are_basis_vectors():
    for ranks in [(1, 1), (1, 1, 1), (2, 3, 2), (1, 2, 1, 2)]:
        hn = HodgeNumbers(ranks)
        for i, beta in enumerate(wall_roots(hn)):
            expected = tuple(1 if j == i else 0 for j in range(hn.k))
            assert class_of_root(beta, hn) == expected


def test_class_rejects_non_nilradical_roots():
    hn = HodgeNumbers((2, 1))
    with pytest.raises(ValueError, match="e2-e1 is not a nilradical root"):
        class_of_root((1, 0), hn)  # a level-0 root
    with pytest.raises(ValueError, match="e1-e3 is not a nilradical root"):
        class_of_root((0, 2), hn)  # a negative root


def test_closed_form_matches_oracle_m_le_6():
    for hn in all_rank_tuples(6):
        oracle = class_closure_oracle(hn)
        for r in nilradical(hn):
            assert class_of_root(r, hn) == oracle[r]


def test_class_additivity_m_le_7():
    for hn in all_rank_tuples(7):
        nset = set(nilradical(hn))
        for a in nset:
            for b in nset:
                c = root_sum(a, b)
                if c is not None and c in nset:
                    pair = zip(class_of_root(a, hn), class_of_root(b, hn))
                    assert class_of_root(c, hn) == tuple(x + y for x, y in pair)


# -- the projection morphism --------------------------------------------------


def test_pi_u_star_values():
    assert pi_u_star((1, 1)) == 0
    assert pi_u_star((1, 0, 0)) == 1
    assert pi_u_star([2, 3, 1]) == 0


def test_pi_u_star_kills_bridge_classes_m_le_8():
    for hn in all_rank_tuples(8):
        for i in range(hn.k - 1):
            cls = class_of_root(bridge_root(hn, i, i + 1), hn)
            assert pi_u_star(cls) == 0


def test_bridge_classes_match_the_closure_oracle_m_le_8():
    # the bridge root of walls i and i+1, whose sphere represents kernel
    # generator i, has class beta_i + beta_{i+1} in the relation closure
    for hn in all_rank_tuples(8):
        oracle = class_closure_oracle(hn)
        for i in range(hn.k - 1):
            expected = tuple(1 if w in (i, i + 1) else 0 for w in range(hn.k))
            assert oracle[bridge_root(hn, i, i + 1)] == expected


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
        rep = pi2_report(hn)
        for i, coords in enumerate(rep["kernel_basis"]):
            assert class_of_root(bridge_root(hn, i, i + 1), hn) == tuple(coords)


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
    original = pi2.class_of_root

    def first_mutated(root, ranks):
        coords = original(root, ranks)
        built.append(mutate(coords) if not built else coords)
        return built[-1]

    monkeypatch.setattr(pi2, "class_of_root", first_mutated)
    with pytest.raises(AssertionError, match="kernel basis"):
        pi2.pi2_report(HodgeNumbers((1, 2, 1, 1)))
    assert built[0] == mutate((1, 1, 0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5))
def test_closed_form_matches_oracle_property(ranks):
    hn = HodgeNumbers(tuple(ranks))
    oracle = class_closure_oracle(hn)
    for r in nilradical(hn):
        assert class_of_root(r, hn) == oracle[r]


# -- the closure oracle's failures ------------------------------------------------


def test_oracle_raises_when_a_wall_seed_is_dropped(monkeypatch):
    # without beta_1's seed nothing fixes the class of beta_1 = e3-e2, nor that
    # of the long root e3-e1 = beta_0 + beta_1: (1,1,1) has no level-0 root
    monkeypatch.setattr(pi2, "wall_roots", lambda ranks: wall_roots(ranks)[:1])
    with pytest.raises(OracleUnderdeterminedError, match=r"classes of e3-e1, e3-e2 not determined"):
        class_closure_oracle(HodgeNumbers((1, 1, 1)))


def test_oracle_raises_when_the_seeds_contradict(monkeypatch):
    # seeding the long root of (1,1,1) as a third wall gives it the class 0
    # (a basis vector past the k = 2 coordinates), not beta_0 + beta_1
    monkeypatch.setattr(pi2, "wall_roots", lambda ranks: [*wall_roots(ranks), (2, 0)])
    with pytest.raises(OracleInconsistentError, match=r"additivity fails on e2-e1 \+ e3-e2 = e3-e1"):
        class_closure_oracle(HodgeNumbers((1, 1, 1)))
