import hashlib
import itertools
import random
from collections import namedtuple
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import MINUS_ONE, all_rank_tuples
from hodge_domains import wire
from hodge_domains.exactla import (
    GaussianRational,
    QI_ONE,
    QI_ZERO,
    Qi,
    hermitian_definiteness,
    mat_mul,
    nullspace,
    rank,
)
from hodge_domains.hodge import HodgeNumbers
from hodge_domains.domain import (
    DegenerateComplementError,
    PERTURBATION_TRIES,
    Flag,
    Vector,
    apply_matrix,
    describe_domain,
    flag_dumps,
    flag_in_period_domain,
    flag_loads,
    form_definiteness,
    hodge_flag,
    perturbed_flag,
    project_to_symmetric_space,
    random_block_unitary,
)
from hodge_domains.rootcalc import nilradical


# -- span helpers: only the tests below call them -----------------------------


def subspace_basis(flag: Flag, i: int) -> list[Vector]:
    """Basis of F^i (i = -1 gives the zero subspace)."""
    if i < -1 or i > flag.ranks.k:
        raise ValueError(f"flag step {i} out of range")
    upto = 0 if i < 0 else sum(flag.ranks.ranks[: i + 1])
    return list(flag.basis[:upto])


def same_span(a: Iterable[Vector], b: Iterable[Vector]) -> bool:
    """Exact equality of column spans."""
    la, lb = list(map(list, a)), list(map(list, b))
    return rank(la) == rank(lb) == rank(la + lb)


# -- reference: the step-by-step complement path the Gram-minor test replaced ---
# Kept (its public names prefixed with reference_) so the new path is checked
# against an independent oracle.  Besides the verdict it reports the first
# failing step and whether it is degenerate, which shows the seeded flags
# below reach every kind of failure.

ReferenceVerdict = namedtuple("ReferenceVerdict", "in_domain degenerate failing_step")


def hermitian_product(x: Vector, y: Vector, signs: tuple[int, ...]) -> GaussianRational:
    """The form sum_c s_c x_c conj(y_c)."""
    acc = QI_ZERO
    for s, a, b in zip(signs, x, y):
        term = a * b.conjugate()
        acc = acc + (term if s > 0 else term * MINUS_ONE)
    return acc


def reference_gram_matrix(vectors: Iterable[Vector], signs: tuple[int, ...]) -> list[list[GaussianRational]]:
    vs = list(vectors)
    return [[hermitian_product(a, b, signs) for b in vs] for a in vs]


def orthocomplement_step(flag: Flag, i: int, signs: tuple[int, ...]) -> list[Vector]:
    """Basis of the orthogonal complement of F^i inside F^{i+1} for the given
    form.  Raises DegenerateComplementError when the form restricts
    degenerately (complement not transverse)."""
    small = subspace_basis(flag, i)
    big = subspace_basis(flag, i + 1)
    if not small:
        return list(big)
    a = [[hermitian_product(g, f, signs) for g in big] for f in small]
    null = nullspace(a)
    expected = len(big) - len(small)
    if len(null) != expected:
        raise DegenerateComplementError(
            f"form degenerates on flag step {i}: complement has dimension "
            f"{len(null)}, expected {expected}"
        )
    out = []
    for coeffs in null:
        vec = [QI_ZERO] * flag.m
        for c, g in zip(coeffs, big):
            if c:
                vec = [acc + c * comp for acc, comp in zip(vec, g)]
        out.append(tuple(vec))
    # Transversality: the complement must meet F^i only in 0 (fails exactly
    # when the form restricts degenerately to F^i).
    if rank([list(v) for v in small] + [list(v) for v in out]) != len(big):
        raise DegenerateComplementError(
            f"form degenerates on flag step {i}: complement meets the subspace"
        )
    return out


def reference_flag_in_period_domain(flag: Flag) -> ReferenceVerdict:
    signs = flag.ranks.signature_signs()
    for i in range(-1, flag.ranks.k):
        try:
            comp = orthocomplement_step(flag, i, signs)
        except DegenerateComplementError:
            return ReferenceVerdict(False, True, i)
        g = reference_gram_matrix(comp, signs)
        if i % 2 == 1:  # odd i, including i = -1: sign (-1)^i = -1
            g = [[x * MINUS_ONE for x in row] for row in g]
        verdict = hermitian_definiteness(g)
        if verdict == "degenerate":
            return ReferenceVerdict(False, True, i)
        if verdict != "negative":
            return ReferenceVerdict(False, False, i)
    return ReferenceVerdict(True, False, None)


def reference_project_to_symmetric_space(flag: Flag) -> tuple[Vector, ...]:
    signs = flag.ranks.signature_signs()
    plane: list[Vector] = []
    for i in range(-1, flag.ranks.k):
        if i % 2 == 1:
            comp = orthocomplement_step(flag, i, signs)
            if i >= 0:
                if hermitian_definiteness(reference_gram_matrix(comp, signs)) == "degenerate":
                    raise DegenerateComplementError(
                        f"indefinite form degenerates on the step-{i} complement"
                    )
            plane.extend(comp)
    if len(plane) != flag.ranks.p:
        raise AssertionError("projection produced a plane of the wrong dimension")
    return tuple(plane)


def agrees_with_reference(flag: Flag) -> ReferenceVerdict:
    """Assert the new and reference paths agree on flag; return the
    reference verdict."""
    old = reference_flag_in_period_domain(flag)
    assert flag_in_period_domain(flag) is old.in_domain
    try:
        expected = reference_project_to_symmetric_space(flag)
    except DegenerateComplementError:
        with pytest.raises(DegenerateComplementError):
            project_to_symmetric_space(flag)
    else:
        plane = project_to_symmetric_space(flag)
        assert same_span(plane, expected)
        assert plane == expected  # the same vectors, not only the same span
    signs = flag.ranks.signature_signs()
    for n in range(flag.m + 1):
        vectors = flag.basis[:n]
        assert form_definiteness(vectors, signs) == hermitian_definiteness(reference_gram_matrix(vectors, signs))
    return old


# -- descriptors ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_describe_domain_1n1(n):
    d = describe_domain(HodgeNumbers((1, n, 1)))
    assert d["dim"] == 2 * n + 1
    assert d["horizontal_rank"] == 2 * n
    assert d["vertical_rank"] == 1


def test_describe_domain_11():
    d = describe_domain(HodgeNumbers((1, 1)))
    assert (d["dim"], d["horizontal_rank"], d["vertical_rank"]) == (1, 1, 0)
    assert not d["interior_rank_one"]  # no interior index at all


def test_describe_domain_232():
    d = describe_domain(HodgeNumbers((2, 3, 2)))
    assert (d["dim"], d["horizontal_rank"], d["vertical_rank"]) == (16, 12, 4)
    assert not d["interior_rank_one"]
    assert d["fiber_factors"] == [[2, 2], [3]]


def test_describe_domain_consistency_exhaustive_m_le_8():
    for hn in all_rank_tuples(8):
        d = describe_domain(hn)
        assert d["horizontal_rank"] + d["vertical_rank"] <= d["dim"]
        assert (d["horizontal_rank"] + d["vertical_rank"] == d["dim"]) == (hn.k <= 2)


def test_dim_matches_grading_tail():
    for ranks in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1), (2, 2, 1, 1)]:
        hn = HodgeNumbers(ranks)
        d = describe_domain(hn)
        deep = sum(hn.block_of[a] - hn.block_of[b] >= 2 for a, b in nilradical(hn))  # dim of the levels <= -2
        assert d["dim"] == d["horizontal_rank"] + deep


def test_invalid_ranks_rejected():
    with pytest.raises(ValueError):
        HodgeNumbers((1,))
    with pytest.raises(ValueError):
        HodgeNumbers((2, 0))


@pytest.mark.parametrize("ranks", [(1.5, 2.9), ("1", "3"), (True, 2), (1.0, 1)])
def test_non_int_ranks_rejected(ranks):
    # int() used to truncate these to (1, 2), (1, 3), (1, 2) and (1, 1)
    with pytest.raises(ValueError, match="must be an int"):
        HodgeNumbers(ranks)


def test_hodge_numbers_compute_m_walls_and_block_of_once():
    # cached_property writes the instance __dict__, which the generated
    # __eq__ and __hash__ (of ranks alone) never read
    hn, twin = HodgeNumbers((2, 1, 3)), HodgeNumbers((2, 1, 3))
    assert (hn.m, hn.walls, hn.block_of) == (6, (2, 3), (0, 0, 1, 2, 2, 2))
    assert vars(hn).keys() == {"ranks", "m", "walls", "block_of"} and vars(twin).keys() == {"ranks"}
    assert all(getattr(hn, name) is getattr(hn, name) for name in ("m", "walls", "block_of"))
    assert hn == twin and twin == hn and hash(hn) == hash(twin) and {hn: 0}[twin] == 0
    for h in all_rank_tuples(8):
        assert h.m == sum(h.ranks) and h.walls == tuple(sum(h.ranks[:i + 1]) for i in range(h.k))
        assert len(h.block_of) == h.m and all(h.block_of[c] == i for i in range(h.k + 1) for c in h.block_range(i))


# -- base flags and membership ----------------------------------------------


def test_hodge_flag_11():
    f = hodge_flag(HodgeNumbers((1, 1)))
    assert subspace_basis(f, 0) == [(Qi(1), Qi(0))]


def test_hodge_flag_121_signature_layout():
    f = hodge_flag(HodgeNumbers((1, 2, 1)))
    nonzero = [[i for i, x in enumerate(col) if x] for col in f.basis]
    assert nonzero == [[0], [2], [3], [1]]  # blocks on +,-,-,+ coordinates


def test_base_flag_membership_m_le_8():
    for hn in all_rank_tuples(8):
        assert flag_in_period_domain(hodge_flag(hn))


def test_membership_11_cases():
    hn = HodgeNumbers((1, 1))
    in_flag = Flag(hn, ((Qi(1), Qi(0)), (Qi(0), Qi(1))))
    out_flag = Flag(hn, ((Qi(0), Qi(1)), (Qi(1), Qi(0))))
    null_flag = Flag(hn, ((Qi(1), Qi(1)), (Qi(1), Qi(0))))
    assert flag_in_period_domain(in_flag)
    assert not flag_in_period_domain(out_flag)  # h < 0 on F^0
    assert not flag_in_period_domain(null_flag)  # h = 0 on F^0


def test_membership_perturbed_flags_stay_inside():
    rng = random.Random(11)
    for ranks in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2)]:
        hn = HodgeNumbers(ranks)
        for _ in range(10):
            assert flag_in_period_domain(perturbed_flag(hn, rng))


class ScriptedRng:
    """An rng for perturbed_flag that answers randrange and randint from
    scripted draws, whatever the bounds, and counts its randrange calls."""

    def __init__(self, coords, deltas):
        self.coords, self.deltas, self.calls = iter(coords), iter(deltas), 0

    def randrange(self, m):
        self.calls += 1
        return next(self.coords)

    def randint(self, lo, hi):
        return next(self.deltas)


@pytest.mark.parametrize("first_coords, first_deltas", [
    ((0, 0, 1, 1), (-8, 0, -8, 0, 0, 0, 0, 0)),  # column 0 becomes 0: a singular basis
    ((0, 1, 1, 1), (-8, 0, 16, 0, 0, 0, 0, 0)),  # column 0 becomes (1/2, 1): h < 0 on F^0
], ids=["singular", "outside"])
def test_perturbed_flag_retries_at_a_smaller_scale(first_coords, first_deltas):
    # at (1, 1) a try draws (coordinate, re, im) twice per base column; the
    # first try, at scale 1/16, fails, and the second runs at scale 1/64
    rng = ScriptedRng(first_coords + (1, 0, 1, 1), first_deltas + (1, 0, 0, 0, 0, 0, 0, 0))
    flag = perturbed_flag(HodgeNumbers((1, 1)), rng)
    assert flag.basis == ((Qi(1), Qi(Fraction(1, 64))), (Qi(0), Qi(1)))
    assert rng.calls == 8 and next(rng.coords, None) is None


def test_perturbed_flag_gives_up_after_its_tries():
    # every try puts column 0 outside the domain: its minus coordinate
    # 2 * 10**6 * scale * (1 + i) still outweighs its plus coordinate 1 at the
    # last scale, 1/16 / 4**7
    rng = ScriptedRng(itertools.repeat(1), itertools.repeat(10**6))
    with pytest.raises(RuntimeError, match="in-domain perturbed flag"):
        perturbed_flag(HodgeNumbers((1, 1)), rng)
    assert rng.calls == 4 * PERTURBATION_TRIES


def test_membership_invariant_under_block_unitaries():
    rng = random.Random(5)
    cases = 0
    for ranks in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2)]:
        hn = HodgeNumbers(ranks)
        for _ in range(20):
            flag = perturbed_flag(hn, rng)
            u = random_block_unitary(hn, rng)
            assert flag_in_period_domain(apply_matrix(u, flag))
            cases += 1
    # and a flag outside the domain stays outside
    hn = HodgeNumbers((1, 1))
    out_flag = Flag(hn, ((Qi(0), Qi(1)), (Qi(1), Qi(0))))
    for _ in range(10):
        u = random_block_unitary(hn, rng)
        assert not flag_in_period_domain(apply_matrix(u, out_flag))
        cases += 1
    assert cases == 110


def test_block_unitary_is_exactly_unitary():
    # blocks of sizes 1 to 4: U* U = I and U* h U = h hold exactly
    rng = random.Random(3)
    hn = HodgeNumbers((1, 2, 3, 4))
    identity = [[QI_ONE if i == j else QI_ZERO for j in range(hn.m)] for i in range(hn.m)]
    h = [[Qi(s) if i == j else QI_ZERO for j in range(hn.m)] for i, s in enumerate(hn.signature_signs())]
    for _ in range(5):
        u = random_block_unitary(hn, rng)
        u_star = [[x.conjugate() for x in col] for col in zip(*u)]
        assert mat_mul(u_star, u) == identity
        assert mat_mul(u_star, mat_mul(h, u)) == h


def test_block_unitary_moves_one_by_one_blocks():
    # a reflection of a line is -1, so two of them alone would fix a 1 x 1 block
    rng = random.Random(4)
    hn = HodgeNumbers((1, 2, 1))
    ends = [hn.block_to_signature()[c] for c in (0, hn.m - 1)]
    draws = [random_block_unitary(hn, rng) for _ in range(20)]
    assert any(u[c][c] != QI_ONE for u in draws for c in ends)


def test_flag_validation_rejects_dependent_basis():
    hn = HodgeNumbers((1, 1))
    with pytest.raises(ValueError):
        Flag(hn, ((Qi(1), Qi(0)), (Qi(2), Qi(0))))


# -- projections ------------------------------------------------------------


def test_projection_of_base_flag():
    for ranks in [(1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]:
        hn = HodgeNumbers(ranks)
        base = hodge_flag(hn)
        std_plus = [
            tuple(Qi(1) if i == c else Qi(0) for i in range(hn.m)) for c in range(hn.p)
        ]
        plane = project_to_symmetric_space(base)
        assert len(plane) == hn.p
        assert same_span(plane, std_plus)


def test_projection_positive_definite_on_seeded_flags():
    rng = random.Random(77)
    count = 0
    for ranks in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 3, 1)]:
        hn = HodgeNumbers(ranks)
        for _ in range(20):
            flag = perturbed_flag(hn, rng)
            plane = project_to_symmetric_space(flag)
            assert form_definiteness(plane, hn.signature_signs()) == "positive"
            count += 1
    assert count == 100


def test_projection_off_center_by_hand():
    # Explicit rational witness in the (1,1,1) domain; the expected plane is
    # computed by hand from the orthogonality equations.
    hn = HodgeNumbers((1, 1, 1))
    flag = Flag(
        hn,
        (
            (Qi(1), Qi(0), Qi(Fraction(1, 2))),
            (Qi(0), Qi(Fraction(1, 4)), Qi(1)),
            (Qi(0), Qi(1), Qi(0)),
        ),
    )
    assert flag_in_period_domain(flag)
    expected = [
        (Qi(1), Qi(0), Qi(Fraction(1, 2))),
        (Qi(Fraction(1, 8)), Qi(1), Qi(Fraction(1, 4))),
    ]
    assert same_span(project_to_symmetric_space(flag), expected)


def test_projection_degenerate_complement_raises():
    hn = HodgeNumbers((1, 1, 1))
    flag = Flag(
        hn,
        ((Qi(1), Qi(0), Qi(1)), (Qi(0), Qi(1), Qi(0)), (Qi(0), Qi(0), Qi(1))),
    )
    with pytest.raises(DegenerateComplementError):
        project_to_symmetric_space(flag)


# -- the Gram-minor path against the reference ---------------------------------

SMALL_RANKS = list(all_rank_tuples(6))
small_scalars = st.builds(
    lambda re, im, den: Qi(Fraction(re, den), Fraction(im, den)),
    st.integers(-2, 2),
    st.integers(-1, 1),
    st.sampled_from((1, 1, 1, 2, 3)),
)


@st.composite
def small_flags(draw):
    """Flags with m <= 6 and small Gaussian-rational bases, so that h-null
    vectors (degenerate steps) and sign failures are common."""
    hn = draw(st.sampled_from(SMALL_RANKS))
    cols = draw(st.lists(st.lists(small_scalars, min_size=hn.m, max_size=hn.m), min_size=hn.m, max_size=hn.m))
    assume(rank(cols) == hn.m)
    return Flag(hn, tuple(map(tuple, cols)))


@st.composite
def small_bases(draw):
    """(ranks, columns) with m <= 6: often singular (a column that combines
    others, or a zero column) and often with h-null columns, so that leading
    Gram minors vanish on independent bases too."""
    hn = draw(st.sampled_from(SMALL_RANKS))
    cols = draw(st.lists(st.lists(small_scalars, min_size=hn.m, max_size=hn.m), min_size=hn.m, max_size=hn.m))
    kind = draw(st.sampled_from(("free", "combination", "zero", "null")))
    c = draw(st.integers(0, hn.m - 1))
    if kind == "combination":
        coeffs = [draw(small_scalars) for _ in range(hn.m)]
        cols[c] = [sum((x * col[j] for x, col in zip(coeffs, cols[:c] + cols[c + 1:])), QI_ZERO)
                   for j in range(hn.m)]
    elif kind == "zero":
        cols[c] = [QI_ZERO] * hn.m
    elif kind == "null" and hn.p and hn.q:
        # e_plus + w e_minus with |w| = 1 is h-null
        plus, minus = hn.signature_signs().index(1), hn.signature_signs().index(-1)
        cols[c] = [QI_ZERO] * hn.m
        cols[c][plus], cols[c][minus] = QI_ONE, draw(st.sampled_from((QI_ONE, MINUS_ONE, Qi(0, 1), Qi(0, -1))))
    return hn, tuple(map(tuple, cols))


@settings(max_examples=300, deadline=None)
@given(small_bases())
@example((HodgeNumbers((1, 1)), ((Qi(1), Qi(1)), (Qi(1), Qi(0)))))
@example((HodgeNumbers((1, 1)), ((Qi(1), Qi(1)), (Qi(1), Qi(1)))))
@example((HodgeNumbers((2, 2)), ((Qi(1), Qi(0), Qi(1), Qi(0)), (Qi(0), Qi(1), Qi(0), Qi(1)),
                                 (Qi(1), Qi(0), Qi(0), Qi(0)), (Qi(0), Qi(1), Qi(0), Qi(0)))))
def test_flag_accepts_exactly_the_independent_bases(case):
    hn, cols = case
    independent = rank([list(col) for col in cols]) == hn.m
    try:
        flag = Flag(hn, cols)
    except ValueError as exc:
        assert not independent and str(exc) == "flag basis is not linearly independent"
    else:
        assert independent and flag.basis == cols


@settings(max_examples=200, deadline=None)
@given(small_flags())
def test_membership_and_projection_match_reference(flag):
    agrees_with_reference(flag)


def test_membership_and_projection_match_reference_seeded():
    # base flags with Gaussian-integer noise: failures spread over every step
    rng = random.Random(2024)
    verdicts = []
    for hn in SMALL_RANKS:
        for _ in range(6):
            cols = [list(col) for col in hodge_flag(hn).basis]
            for col in cols:
                for _ in range(2):
                    col[rng.randrange(hn.m)] += Qi(rng.randint(-1, 1), rng.randint(-1, 1))
            if rank(cols) == hn.m:
                verdicts.append(agrees_with_reference(Flag(hn, tuple(map(tuple, cols)))))
    # in-domain flags occur, and both kinds of failure at steps -1, 0 and 1
    assert any(v.in_domain for v in verdicts)
    assert {v.failing_step for v in verdicts if v.degenerate} >= {-1, 0, 1}
    assert {v.failing_step for v in verdicts if not v.in_domain and not v.degenerate} >= {-1, 0, 1}


# SHA-256 of what the flags suite's steps give on DIGEST_RANKS: for seeds
# 0..7 a perturbed flag and its image under a block h-unitary, and for seeds
# 0..11 a base flag with Gaussian-integer noise (often dependent, degenerate
# or outside the domain); for each, its text, membership and projection (or
# which error the constructor or the projection raised).  Pinned at the
# parent of the one-Gram-per-flag change.
DIGEST_RANKS = ((4, 1, 4, 1, 4), (2, 2, 2), (1, 2, 1), (3, 3), (1, 1, 1), (2, 1, 2, 1))
FLAG_DIGEST = "428752a857bf1e084fe53daa9c112eba031d05ef393f6f9ffce3278e82e381fb"


def _flag_verdicts(flag: Flag) -> str:
    try:
        plane = wire.encode_array(project_to_symmetric_space(flag))
    except DegenerateComplementError:
        plane = "degenerate"
    return wire.dumps([flag_dumps(flag), flag_in_period_domain(flag), plane])


def flag_digest() -> str:
    digest = hashlib.sha256()
    for ranks in map(HodgeNumbers, DIGEST_RANKS):
        for seed in range(8):
            rng = random.Random(seed)
            flag = perturbed_flag(ranks, rng)
            moved = apply_matrix(random_block_unitary(ranks, rng), flag)
            digest.update((_flag_verdicts(flag) + _flag_verdicts(moved)).encode())
        for seed in range(12):
            rng = random.Random(seed)
            cols = [list(col) for col in hodge_flag(ranks).basis]
            for col in cols:
                col[rng.randrange(ranks.m)] += Qi(rng.randint(-1, 1), rng.randint(-1, 1))
            try:
                text = _flag_verdicts(Flag(ranks, tuple(map(tuple, cols))))
            except ValueError:
                text = "dependent"
            digest.update(text.encode())
    return digest.hexdigest()


def test_flag_steps_match_the_pinned_digest():
    assert flag_digest() == FLAG_DIGEST


def test_zero_leading_minor_inside_a_block_is_a_sign_failure():
    # F^0 is spanned by two h-null vectors pairing to 1: its Gram matrix
    # [[0, 1], [1, 0]] has d_1 = 0 but boundary minor d_2 = -1.
    hn = HodgeNumbers((2, 2))
    e = [[Qi(int(i == c)) for i in range(4)] for c in range(4)]
    v1 = tuple(x + y for x, y in zip(e[0], e[2]))
    v2 = tuple((x + y * MINUS_ONE) / 2 for x, y in zip(e[0], e[2]))
    flag = Flag(hn, (v1, v2, tuple(e[1]), tuple(e[3])))
    assert reference_gram_matrix(flag.basis[:2], hn.signature_signs()) == [[Qi(0), Qi(1)], [Qi(1), Qi(0)]]
    assert agrees_with_reference(flag) == (False, False, -1)


def test_zero_boundary_minor_is_degenerate():
    # (1, 1): F^0 spanned by an h-null vector, so d_1 = 0 is the boundary minor.
    hn = HodgeNumbers((1, 1))
    assert agrees_with_reference(Flag(hn, ((Qi(1), Qi(1)), (Qi(1), Qi(0))))) == (False, True, -1)
    # (3, 3): Gram of F^0 is [[0, 1, 0], [1, 0, 0], [0, 0, 0]], so d_1 = 0,
    # d_2 = -1 and the boundary minor d_3 = 0 lies past the first zero.
    hn = HodgeNumbers((3, 3))
    e = [[Qi(int(i == c)) for i in range(6)] for c in range(6)]
    v1 = tuple(x + y for x, y in zip(e[0], e[3]))
    v2 = tuple((x + y * MINUS_ONE) / 2 for x, y in zip(e[0], e[3]))
    v3 = tuple(x + y for x, y in zip(e[1], e[4]))
    flag = Flag(hn, (v1, v2, v3, tuple(e[2]), tuple(e[5]), tuple(e[4])))
    assert agrees_with_reference(flag) == (False, True, -1)


# -- wire format -------------------------------------------------------------


def test_flag_json_roundtrip_exact():
    rng = random.Random(123)
    for ranks in [(1, 1), (1, 2, 1), (2, 1, 2)]:
        hn = HodgeNumbers(ranks)
        flag = perturbed_flag(hn, rng)
        again = flag_loads(flag_dumps(flag))
        assert again.ranks == flag.ranks
        assert again.basis == flag.basis


def test_flag_json_schema_fields():
    import json

    doc = json.loads(flag_dumps(hodge_flag(HodgeNumbers((1, 1)))))
    assert doc["schema"] == "hodge-domains/1"
    assert doc["ranks"] == [1, 1]
    # scalars are (numerator, denominator) integer pairs for re and im
    assert doc["basis"][0][0] == [[1, 1], [0, 1]]
