"""Horizontal vectors, the bracket 2-form, isotropy and regularity.

The helpers below build horizontal vectors for the tests (the (1,n,1) model
vector, basis vectors, scaling, sums, GL(2, R) changes of the spanning pair,
the (1,n,1) symplectic scalar) and evaluate the bracket through
_bracket_entries, the kernel behind isotropy, regularity and Higgs
commutation.  The reference_* functions are the plane sampler and the
rank-based independence tests as they were before the plane path moved to
Gaussian integers, and the dense bracket as it was before it read
_bracket_table, kept as the oracles for them.  sample_model_plane
builds the suite's drawn pairs into a TwoPlane, and the plane predicates
is_isotropic, is_regular and is_complex_line read the suite's kernels on the
plane's vectors cleared of denominators: the oracle for the verdicts the
suite reaches on the bare pairs.
"""

import inspect
import json
import random
import time
import timeit
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MINUS_ONE, all_rank_tuples, mat_sub
import hodge_domains.horizontal as horizontal_mod
from hodge_domains.cli import EXIT_SUITE_FAILURE, main
from hodge_domains.exactla import GaussianRational, Qi, QI_ZERO, _cleared, as_matrix, mat_mul, rank
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.horizontal import (
    HorizontalVector,
    NotApplicableError,
    TwoPlane,
    _bracket_entries,
    _draw_model_pair,
    _independent,
    _regular,
    horizontal_positions,
    isotropic_tuple_orbit_dimension,
    stabilizer_dimension,
    su22_embedding,
    verify_pu2n_criterion,
)


def model_vector(n: int, v1, v2) -> HorizontalVector:
    """The rank-(1,n,1) model: v1, v2 in C^n give components (column v1, row t(v2))."""
    ranks = HodgeNumbers((1, n, 1))
    v1, v2 = as_matrix((v1, v2), 2, n)
    a0 = tuple((x,) for x in v1)
    a1 = (v2,)
    return HorizontalVector(ranks, (a0, a1))


def scale(v: HorizontalVector, c) -> HorizontalVector:
    c = c if isinstance(c, GaussianRational) else Qi(c)
    return HorizontalVector(
        v.ranks,
        tuple(tuple(tuple(c * x for x in row) for row in mx) for mx in v.components),
    )


def add(v: HorizontalVector, other: HorizontalVector) -> HorizontalVector:
    if v.ranks != other.ranks:
        raise ValueError("rank mismatch")
    return HorizontalVector(
        v.ranks,
        tuple(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(ma, mb))
            for ma, mb in zip(v.components, other.components)
        ),
    )


def real_flatten(v: HorizontalVector) -> list[GaussianRational]:
    out = []
    for x in v.flatten():
        out.append(Qi(x.re))
        out.append(Qi(x.im))
    return out


def horizontal_zero(ranks: HodgeNumbers) -> HorizontalVector:
    r = ranks.ranks
    return HorizontalVector(
        ranks,
        tuple(
            tuple(tuple(QI_ZERO for _ in range(r[i])) for _ in range(r[i + 1]))
            for i in range(ranks.k)
        ),
    )


def horizontal_basis_vector(ranks: HodgeNumbers, pos: tuple[int, int, int]) -> HorizontalVector:
    i, row, col = pos
    base = horizontal_zero(ranks)
    comps = [list(map(list, mx)) for mx in base.components]
    comps[i][row][col] = Qi(1)
    return HorizontalVector(ranks, tuple(tuple(map(tuple, mx)) for mx in comps))


def model_symplectic_form(u: HorizontalVector, w: HorizontalVector) -> GaussianRational:
    """The rank-(1,n,1) specialization: the scalar t(v1) w2 - t(v2) w1."""
    if u.ranks.ranks != w.ranks.ranks or len(u.ranks.ranks) != 3 or u.ranks.ranks[0] != 1 or u.ranks.ranks[2] != 1:
        raise ValueError("the symplectic scalar lives in the (1, n, 1) model")
    n = u.ranks.ranks[1]
    v1 = [u.components[0][r][0] for r in range(n)]
    v2 = list(u.components[1][0])
    w1 = [w.components[0][r][0] for r in range(n)]
    w2 = list(w.components[1][0])
    acc = QI_ZERO
    for i in range(n):
        acc = acc + v1[i] * w2[i] + v2[i] * w1[i] * MINUS_ONE
    return acc


def gl2_transform(plane: TwoPlane, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> TwoPlane:
    """Change the oriented spanning pair by a GL(2,R) matrix [[a, b], [c, d]]."""
    det = a * d - b * c
    if det == 0:
        raise ValueError("transformation is singular")
    u2 = add(scale(plane.u, Qi(a)), scale(plane.w, Qi(c)))
    w2 = add(scale(plane.u, Qi(b)), scale(plane.w, Qi(d)))
    orientation = plane.orientation if det > 0 else -plane.orientation
    return TwoPlane(u2, w2, orientation)


def complex_independent(u: HorizontalVector, w: HorizontalVector) -> bool:
    """The minor scan is_complex_line runs, on any pair."""
    return _independent(u.gaussian_integers, w.gaussian_integers)


def is_complex_line(plane: TwoPlane) -> bool:
    return not complex_independent(plane.u, plane.w)


def is_isotropic(plane: TwoPlane) -> bool:
    """Whether the bracket 2-form vanishes on the plane (bilinearity and
    antisymmetry make the spanning pair enough), decided on u and w cleared
    of denominators, whose bracket is a positive multiple of theirs."""
    return not any(map(any, _bracket_entries(plane.ranks, plane.u.gaussian_integers, plane.w.gaussian_integers)))


def is_regular(plane: TwoPlane) -> bool:
    """The suite's exact regularity test, on the plane's spanning pair
    cleared of denominators."""
    return _regular(plane.ranks, plane.u.gaussian_integers, plane.w.gaussian_integers)


def bracket(u: HorizontalVector, w: HorizontalVector) -> list[GaussianRational]:
    """The flattened level-two bracket of u against w: _bracket_entries on u
    and w cleared of denominators l and m, divided by l * m."""
    (l, ure, uim), (m, wre, wim) = _cleared(u.flatten()), _cleared(w.flatten())
    entries = _bracket_entries(u.ranks, [*zip(ure, uim)], [*zip(wre, wim)])
    return [Qi(Fraction(a, l * m), Fraction(b, l * m)) for a, b in entries]


def reference_dtheta_bracket(u: HorizontalVector, w: HorizontalVector) -> tuple:
    """The level-two component of the commutator: entry i is
    w_{i+1} u_i - u_{i+1} w_i, an r_{i+2} x r_i matrix."""
    if u.ranks != w.ranks:
        raise ValueError("rank mismatch")
    a, b = u.components, w.components
    out = []
    for i in range(u.ranks.k - 1):
        lhs = mat_mul(list(map(list, b[i + 1])), list(map(list, a[i])))
        rhs = mat_mul(list(map(list, a[i + 1])), list(map(list, b[i])))
        out.append(tuple(tuple(row) for row in mat_sub(lhs, rhs)))
    return tuple(out)


def reference_is_regular(plane):
    """Independent route: assemble the regularity matrix from generic bracket
    evaluations on basis vectors."""
    ranks = plane.ranks
    r = ranks.ranks
    t = sum(r[i] * r[i + 2] for i in range(ranks.k - 1))
    if t == 0:
        return True
    rows = [[] for _ in range(4 * t)]
    for pos in horizontal_positions(ranks):
        e = horizontal_basis_vector(ranks, pos)
        flat = []
        for target in (plane.u, plane.w):
            for mx in reference_dtheta_bracket(e, target):
                for row in mx:
                    flat.extend(row)
        for k, z in enumerate(flat):
            rows[2 * k].append(z.re)
            rows[2 * k].append(-z.im)
            rows[2 * k + 1].append(z.im)
            rows[2 * k + 1].append(z.re)
    return rank(as_matrix(rows, 4 * t, len(rows[0]))) == 4 * t


def reference_real_independent(u, w):
    """TwoPlane's check before: the real rank of the real coordinate vectors."""
    return rank([real_flatten(u), real_flatten(w)]) == 2


def reference_complex_independent(u, w):
    return rank([u.flatten(), w.flatten()]) == 2


def reference_sample_model_plane(n, rng, half_zero=False):
    """The sampler before, drawing entries over a common denominator; it
    returns (u, w, den, tries) where the old one built TwoPlane(u, w), whose
    check was reference_real_independent."""
    tries = 0
    while True:
        tries += 1
        den = Fraction(1, rng.choice((1, 1, 2, 3)))
        vecs = []
        for _ in range(2):
            v1 = [Qi(rng.randint(-3, 3) * den, rng.randint(-3, 3) * den) for _ in range(n)]
            if half_zero:
                v2 = [QI_ZERO] * n
            else:
                v2 = [Qi(rng.randint(-3, 3) * den, rng.randint(-3, 3) * den) for _ in range(n)]
            vecs.append(model_vector(n, v1, v2))
        if reference_real_independent(*vecs):
            return vecs[0], vecs[1], den, tries
        # dependent pair, resample


def sample_model_plane(n, rng, half_zero=False):
    """The TwoPlane spanned by the pair _draw_model_pair draws: components
    (column v1, row t(v2)) of Gaussian-integer entries."""
    ranks = HodgeNumbers((1, n, 1))
    u, w = (HorizontalVector(ranks, (tuple((Qi(a, b),) for a, b in v[:n]), (tuple(Qi(a, b) for a, b in v[n:]),)))
            for v in _draw_model_pair(n, rng, half_zero))
    return TwoPlane(u, w)


def random_vector(ranks, rng):
    r = ranks.ranks
    comps = []
    for i in range(ranks.k):
        comps.append(
            tuple(
                tuple(Qi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(r[i]))
                for _ in range(r[i + 1])
            )
        )
    return HorizontalVector(ranks, tuple(comps))


def random_plane(ranks, rng):
    while True:
        try:
            return TwoPlane(random_vector(ranks, rng), random_vector(ranks, rng))
        except ValueError:
            continue


# -- the bracket 2-form -------------------------------------------------------


def test_bracket_111_unit_pair():
    u = model_vector(1, [1], [0])
    w = model_vector(1, [0], [1])
    assert bracket(u, w) == [Qi(1)]


def test_bracket_of_real_multiples_vanishes():
    u = model_vector(3, [1, 2, 0], [0, 1, 1])
    w = scale(u, Qi(Fraction(7, 2)))
    assert not any(bracket(u, w))


def test_bracket_121_direct_evaluation():
    # u = (column e_1, row e_1t), w = (column e_2, row e_2t) in the (1,2,1) model
    ranks = HodgeNumbers((1, 2, 1))
    u = HorizontalVector(ranks, (((Qi(1),), (Qi(0),)), ((Qi(1), Qi(0)),)))
    w = HorizontalVector(ranks, (((Qi(0),), (Qi(1),)), ((Qi(0), Qi(1)),)))
    # component = w_1 u_0 - u_1 w_0 = e2t . e1 - e1t . e2 = 0 - 0 = 0
    out = bracket(u, w)
    assert out == [Qi(0)]
    assert bracket(w, u) == [out[0] * MINUS_ONE]


def test_bracket_antisymmetry_and_bilinearity_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        ranks = HodgeNumbers(tuple(rng.randint(1, 2) for _ in range(rng.randint(3, 4))))
        u, w, v = (random_vector(ranks, rng) for _ in range(3))
        assert bracket(u, w) == [x * MINUS_ONE for x in bracket(w, u)]
        lam = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        lhs = bracket(add(u, scale(v, Qi(lam))), w)
        assert lhs == [xa + Qi(lam) * xb for xa, xb in zip(bracket(u, w), bracket(v, w))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_matches_symplectic_scalar_on_basis_pairs(n):
    ranks = HodgeNumbers((1, n, 1))
    basis = [horizontal_basis_vector(ranks, p) for p in horizontal_positions(ranks)]
    for u in basis:
        for w in basis:
            assert bracket(u, w) == [model_symplectic_form(u, w)]


def test_bracket_matches_symplectic_scalar_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        ranks = HodgeNumbers((1, n, 1))
        u, w = random_vector(ranks, rng), random_vector(ranks, rng)
        assert bracket(u, w) == [model_symplectic_form(u, w)]


# -- isotropy and regularity ----------------------------------------------------


def test_isotropic_first_half_pair():
    u = model_vector(2, [1, 0], [0, 0])
    w = model_vector(2, [0, 1], [0, 0])
    plane = TwoPlane(u, w)
    assert is_isotropic(plane)
    assert is_regular(plane)


def test_not_isotropic_crossing_pair():
    plane = TwoPlane(model_vector(1, [1], [0]), model_vector(1, [0], [1]))
    assert not is_isotropic(plane)


def test_complex_line_is_isotropic_not_regular():
    u = model_vector(1, [1], [0])
    plane = TwoPlane(u, scale(u, Qi(0, 1)))
    assert is_complex_line(plane)
    assert is_isotropic(plane)
    assert not is_regular(plane)


def test_regular_iff_complex_independent_sampled():
    rng = random.Random(31337)
    for n in (1, 2, 3, 4):
        ranks = HodgeNumbers((1, n, 1))
        for _ in range(150):
            plane = random_plane(ranks, rng)
            assert is_regular(plane) == complex_independent(plane.u, plane.w)


def test_regular_matches_reference_implementation():
    rng = random.Random(99)
    for ranks_tuple in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1), (2, 2, 2)]:
        ranks = HodgeNumbers(ranks_tuple)
        for _ in range(40):
            plane = random_plane(ranks, rng)
            assert is_regular(plane) == reference_is_regular(plane)


def test_k1_planes_are_vacuously_regular_isotropic():
    ranks = HodgeNumbers((2, 2))
    rng = random.Random(1)
    plane = random_plane(ranks, rng)
    assert is_regular(plane) and is_isotropic(plane)


def test_classification_invariant_under_oriented_basis_change():
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randint(1, 3)
        plane = random_plane(HodgeNumbers((1, n, 1)), rng)
        while True:
            a, b, c, d = (Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(4))
            if a * d - b * c != 0:
                break
        moved = gl2_transform(plane, a, b, c, d)
        assert is_isotropic(moved) == is_isotropic(plane)
        assert is_regular(moved) == is_regular(plane)
        assert (moved.orientation == plane.orientation) == (a * d - b * c > 0)


def test_two_plane_rejects_dependent_pair():
    u = model_vector(2, [1, 0], [0, 1])
    with pytest.raises(ValueError):
        TwoPlane(u, scale(u, Qi(Fraction(-3, 2))))


scalars = st.one_of(
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
    st.builds(GaussianRational, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
              st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))),
)
BRACKET_RANKS = [(2, 2), (1, 2, 1), (1, 1, 1, 1), (2, 1, 3, 1), (1, 3, 2), (2, 1, 2)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BRACKET_RANKS), st.data())
def test_bracket_matches_dense_reference(ranks, data):
    ranks = HodgeNumbers(ranks)
    r = ranks.ranks

    def vector():
        if data.draw(st.integers(0, 5)) == 0:
            return horizontal_zero(ranks)
        return HorizontalVector(ranks, tuple(
            tuple(tuple(data.draw(scalars) for _ in range(r[i])) for _ in range(r[i + 1])) for i in range(ranks.k)))

    u, w = vector(), vector()
    assert bracket(u, w) == [x for mx in reference_dtheta_bracket(u, w) for row in mx for x in row]


def test_bracket_rejects_rank_mismatch():
    # the bracket form is evaluated on a TwoPlane, which refuses mixed ranks
    u = model_vector(2, [1, 0], [0, 1])
    w = model_vector(3, [1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="rank mismatch"):
        TwoPlane(u, w)


# -- the seeded criterion suite ---------------------------------------------------


def test_pu2n_suite_small_n2():
    rep = verify_pu2n_criterion(2, 800, seed=10, record=None)
    assert rep["mismatches"] == 0
    assert rep["found_regular_isotropic"]


def test_pu2n_suite_small_n1():
    rep = verify_pu2n_criterion(1, 800, seed=10, record=None)
    assert rep["mismatches"] == 0
    assert not rep["found_regular_isotropic"]
    assert rep["isotropic_noncomplex"] == 0


def test_pu2n_targeted_plane_n3():
    u = model_vector(3, [1, 0, 0], [0, 0, 0])
    w = model_vector(3, [0, 1, 0], [0, 0, 0])
    plane = TwoPlane(u, w)
    assert is_regular(plane) and is_isotropic(plane)


def test_pu2n_record_stream():
    records = []
    verify_pu2n_criterion(2, 16, seed=3, record=records.append)
    assert len(records) == 16
    assert set(records[0]) == {"seed", "isotropic", "regular", "complex_line"}


def test_pu2n_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        verify_pu2n_criterion(0, 10, seed=0, record=None)


# -- the Gaussian-integer plane path against the reference -----------------------


def assert_records_match_public_predicates(n, samples, seed, half_zero):
    """The suite's record of each sample in the stratum equals the public
    predicates on the TwoPlane of the same draws."""
    records = []
    verify_pu2n_criterion(n, samples, seed, record=records.append)
    checked = 0
    for idx, entry in enumerate(records):
        if (idx % 8 == 7) != half_zero:
            continue
        plane = sample_model_plane(n, random.Random(seed * 1_000_003 + idx), half_zero)
        assert entry == {"seed": seed * 1_000_003 + idx, "isotropic": is_isotropic(plane),
                         "regular": is_regular(plane), "complex_line": is_complex_line(plane)}
        checked += 1
    assert checked == (samples // 8 if half_zero else samples - samples // 8)


@pytest.mark.parametrize("half_zero", [False, True], ids=["full", "half_zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampler_and_verdicts_match_reference(n, half_zero):
    resampled = 0
    for seed in range(500):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        plane = sample_model_plane(n, rng, half_zero)
        u, w, den, tries = reference_sample_model_plane(n, ref_rng, half_zero)
        resampled += tries > 1
        assert rng.getstate() == ref_rng.getstate()
        assert (plane.u, plane.w) == (scale(u, 1 / den), scale(w, 1 / den))
        assert is_regular(plane) == reference_is_regular(TwoPlane(u, w))
        assert is_isotropic(plane) == (not model_symplectic_form(u, w))
        assert is_complex_line(plane) == (not reference_complex_independent(u, w))
    if n == 1:
        assert resampled > 0  # the retry loop ran, and kept the RNG in step
    assert_records_match_public_predicates(n, 400, 7, half_zero)


@pytest.mark.parametrize("half_zero", [False, True], ids=["full", "half_zero"])
@pytest.mark.parametrize("seed", [0, 1, 18])
def test_suite_records_match_public_predicates_n18(seed, half_zero):
    assert_records_match_public_predicates(18, 24, seed, half_zero)


def test_flipped_regularity_verdict_is_one_mismatch(monkeypatch, capsys):
    # the suite compares two independent computations: a regularity helper
    # that is wrong on one sample shows up as exactly one mismatch
    original, calls = horizontal_mod._regular, []

    def flip_fifth(ranks, u, w):
        calls.append(None)
        return original(ranks, u, w) != (len(calls) == 5)

    monkeypatch.setattr(horizontal_mod, "_regular", flip_fifth)
    rep = verify_pu2n_criterion(2, 40, seed=0, record=None)
    assert (rep["mismatches"], len(calls)) == (1, 40)
    calls.clear()
    assert main(["verify", "--ranks", "1,2,1", "--seed", "0", "--samples", "40"]) == EXIT_SUITE_FAILURE
    suite = next(s for s in json.loads(capsys.readouterr().out)["suites"] if s["name"] == "pu2n_criterion")
    assert (suite["passed"], suite["details"]["mismatches"]) == (False, 1)


entries = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def vector_pairs(draw):
    ranks = HodgeNumbers(draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (1, 4, 1), (2, 1, 2), (1, 1, 1, 1), (2, 2)])))
    r = ranks.ranks

    def vector():
        return HorizontalVector(ranks, tuple(
            tuple(tuple(draw(entries) for _ in range(r[i])) for _ in range(r[i + 1])) for i in range(ranks.k)))

    u = vector()
    kind = draw(st.sampled_from(["random", "real_multiple", "complex_multiple", "zero_u", "zero_w"]))
    if kind == "random":
        w = vector()
    elif kind == "zero_u":
        u, w = scale(u, 0), u
    elif kind == "zero_w":
        w = scale(u, 0)
    else:
        c = draw(entries)
        if kind == "real_multiple":
            c = Qi(c.re)
        w = scale(u, c)
    return (u, w) if draw(st.booleans()) else (w, u)


@settings(max_examples=400, deadline=None)
@given(vector_pairs())
def test_minor_scans_match_rank(pair):
    u, w = pair
    assert complex_independent(u, w) == reference_complex_independent(u, w)
    if reference_real_independent(u, w):
        plane = TwoPlane(u, w)
        # the integer verdicts against the dense bracket and the reference regularity matrix
        assert is_isotropic(plane) == (not any(x for mx in reference_dtheta_bracket(u, w) for row in mx for x in row))
        assert is_regular(plane) == reference_is_regular(plane)
    else:
        with pytest.raises(ValueError, match="linearly dependent over R"):
            TwoPlane(u, w)


def test_pu2n_n18_2000_samples_within_readme_bound():
    # the bound README states: about 4x the 1.3-1.5 s measured on 2 CPUs
    start = time.perf_counter()
    rep = verify_pu2n_criterion(18, 2000, seed=18, record=None)
    elapsed = time.perf_counter() - start
    assert rep["mismatches"] == 0 and rep["found_regular_isotropic"]
    assert elapsed < 6.0, f"took {elapsed:.2f}s"


# -- stabilizer dimensions ----------------------------------------------------------


def test_stabilizer_n2_k2():
    assert stabilizer_dimension(2, 2) == 3  # orbit 10 - 3 = 7


def test_stabilizer_n1_k1():
    assert stabilizer_dimension(1, 1) == 1  # orbit 3 - 1 = 2


def test_stabilizer_n3_k1():
    assert stabilizer_dimension(3, 1) == 15  # orbit 21 - 15 = 6


def test_stabilizer_table_n_le_10():
    for n in range(1, 11):
        for k in range(1, n + 1):
            orbit = n * (2 * n + 1) - stabilizer_dimension(n, k)
            assert orbit == isotropic_tuple_orbit_dimension(n, k)
            assert orbit == 2 * n * k - k * (k - 1) // 2


def test_stabilizer_rejects_k_above_n():
    with pytest.raises(ValueError):
        stabilizer_dimension(2, 3)


# -- the embedded (1,2,1) subdomain ---------------------------------------------------


def test_su22_121_identity_embedding():
    assert su22_embedding(HodgeNumbers((1, 2, 1)), 0, random.Random(0)) is True


def test_su22_232():
    assert su22_embedding(HodgeNumbers((2, 3, 2)), 0, random.Random(0)) is True


def test_su22_2222_both_walls():
    rng = random.Random(0)
    for i in (0, 1):
        assert su22_embedding(HodgeNumbers((2, 2, 2, 2)), i, rng) is True


def test_su22_every_wide_wall_m_le_10():
    # every wall i whose middle block i + 1 has rank >= 2, up to total rank 10
    walls = [(hn, i) for hn in all_rank_tuples(10) for i in range(hn.k - 1) if hn.ranks[i + 1] >= 2]
    rng = random.Random(1)
    assert all(su22_embedding(hn, i, rng) for hn, i in walls)
    assert len(walls) == 1291  # the count guards against an empty grid


def test_su22_draws_model_pairs_from_the_given_rng():
    # SU22_PAIRS draws of _draw_model_pair per wall, and no other draw
    rng, twin = random.Random(5), random.Random(5)
    assert su22_embedding(HodgeNumbers((2, 3, 2)), 0, rng)
    for _ in range(horizontal_mod.SU22_PAIRS):
        _draw_model_pair(2, twin, False)
    assert rng.getstate() == twin.getstate()


@pytest.fixture
def fresh_bracket_caches():
    # _bracket_cells is cached per ranks: a test that replaces _bracket_table
    # clears it first, so the cells are read from the replacement, and after,
    # so they do not outlive it
    caches = (horizontal_mod._bracket_table, horizontal_mod._bracket_cells)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_su22_fails_on_a_bracket_table_with_two_rows_swapped(monkeypatch, capsys, fresh_bracket_caches):
    # the ambient bracket lands on entry (c3, c0) = row 1 of the (2,3,2) table;
    # swapping rows 0 and 1 moves it; the su22 suite reads the table here, and
    # the bracket_generation suite certifies it against matrix units
    original = horizontal_mod._bracket_table.__wrapped__

    def swapped(ranks):
        table = list(original(ranks))
        table[0], table[1] = table[1], table[0]
        return tuple(table)

    monkeypatch.setattr(horizontal_mod, "_bracket_table", swapped)
    assert main(["verify", "--ranks", "2,3,2", "--seed", "0", "--samples", "8"]) == EXIT_SUITE_FAILURE
    failed = [s["name"] for s in json.loads(capsys.readouterr().out)["suites"] if not s["passed"]]
    assert failed == ["bracket_generation", "su22_embedding"]


@pytest.mark.parametrize("old, new", [
    ("walls[i] - 1, walls[i], walls", "walls[i], walls[i], walls"),  # c0 into block i+1
    ("walls[i + 1] - 1, walls[i + 1]\n", "walls[i + 1] - 1, walls[i + 1] - 1\n"),  # c3 into block i+1
], ids=["c0", "c3"])
@pytest.mark.parametrize("ranks", ["1,2,1", "2,3,2", "2,2,2,2"])
def test_su22_fails_with_a_coordinate_in_the_wrong_block(monkeypatch, capsys, old, new, ranks):
    # a mutant su22_embedding, built from its source with one coordinate
    # moved; run_verify reports a crashing suite as a failing one
    source = inspect.getsource(horizontal_mod.su22_embedding)
    assert source.count(old) == 1
    namespace = dict(vars(horizontal_mod))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(horizontal_mod, "su22_embedding", namespace["su22_embedding"])
    assert main(["verify", "--ranks", ranks, "--seed", "0", "--samples", "8"]) == EXIT_SUITE_FAILURE
    failed = [s["name"] for s in json.loads(capsys.readouterr().out)["suites"] if not s["passed"]]
    assert failed == ["su22_embedding"]


def test_su22_not_applicable_on_thin_middle():
    with pytest.raises(NotApplicableError):
        su22_embedding(HodgeNumbers((1, 1, 1)), 0, random.Random(0))


def test_su22_wall_index_out_of_range():
    with pytest.raises(ValueError):
        su22_embedding(HodgeNumbers((1, 2, 1)), 1, random.Random(0))


# -- the bracket table against matrix units ------------------------------------------


def test_bracket_table_is_certified_on_every_tuple_up_to_total_rank_9():
    tuples = [hn for hn in all_rank_tuples(9)]
    assert len(tuples) > 250 and all(horizontal_mod.bracket_table_certified(hn) for hn in tuples)


def test_bracket_table_certificate_is_cheap_at_total_rank_20():
    for ranks in [(7, 7, 6), (5, 5, 5, 5), (4, 4, 4, 4, 4), (6, 1, 6, 1, 6), (2,) * 10, (1,) * 20]:
        hn = HodgeNumbers(ranks)
        horizontal_mod.bracket_table_certified(hn)  # the table itself is built and cached once
        best = min(timeit.timeit(lambda: horizontal_mod.bracket_table_certified(hn), number=1) for _ in range(5))
        assert best < 0.001, (ranks, best)


def _swapped_rows(table, n):
    table = list(table)
    table[0], table[1] = table[1], table[0]
    return table


def _flipped_sign(table, n):
    # the first nonzero cell now reads s_j where it read -s_j, or the reverse
    table = [list(row) for row in table]
    k, p = next((k, p) for k, row in enumerate(table) for p, j in enumerate(row) if j != 2 * n)
    table[k][p] = (table[k][p] + n) % (2 * n)
    return table


def _wrong_component(table, n, ranks):
    # the first nonzero cell reads the same entry of the other component of s
    # (the first-component entries come first in s's flattening)
    table = [list(row) for row in table]
    k, p = next((k, p) for k, row in enumerate(table) for p, j in enumerate(row) if j != 2 * n)
    size = ranks.ranks[0] * ranks.ranks[1]
    j, sign = table[k][p] % n, table[k][p] // n
    table[k][p] = sign * n + (j + size) % n if j < size else sign * n + j - size
    return table


@pytest.mark.parametrize("mutate", ["swapped_rows", "flipped_sign", "wrong_component"])
@pytest.mark.parametrize("ranks", ["4,1,4,1,4", "2,2,2"])
def test_verify_fails_on_a_mutated_bracket_table(monkeypatch, capsys, fresh_bracket_caches, mutate, ranks):
    original = horizontal_mod._bracket_table.__wrapped__
    hn = HodgeNumbers(tuple(map(int, ranks.split(","))))

    def mutant(table_ranks):
        table = original(table_ranks)
        if table_ranks != hn:
            return table
        n = len(horizontal_positions(hn))
        mutated = {"swapped_rows": lambda: _swapped_rows(table, n), "flipped_sign": lambda: _flipped_sign(table, n),
                   "wrong_component": lambda: _wrong_component(table, n, hn)}[mutate]()
        mutated = tuple(map(tuple, mutated))
        assert mutated != table
        return mutated

    monkeypatch.setattr(horizontal_mod, "_bracket_table", mutant)
    assert main(["verify", "--ranks", ranks, "--seed", "0", "--samples", "8"]) == EXIT_SUITE_FAILURE
    suites = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    assert not suites["bracket_generation"]["passed"]
    assert "error" not in suites["bracket_generation"]["details"]
