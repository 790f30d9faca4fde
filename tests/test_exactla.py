"""The exact scalar and the fraction-free elimination kernel against the code
they replaced.

ReferenceGaussianRational is the earlier scalar (two Fractions), less the
operators the scalar under test dropped, and
test_scalar_matches_fraction_pair_reference checks each kept one against it.
The reference kernels below (rref, det, reference_definiteness,
reference_nullspace and the readers built on the reference RREF) are the
earlier field-elimination kernels.  They compute with the GaussianRational
under test, so they are independent of _eliminate, which does no scalar
arithmetic, but not of the scalar; reference_mat_mul is the earlier product,
one dot product per entry over the scalar's (a, b, d).
"""

import copy
import operator
import pickle
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import MINUS_ONE, reference_hermite_normal_form
from hodge_domains.domain import Flag
from hodge_domains.exactla import (
    GaussianRational,
    QI_ONE,
    QI_ZERO,
    Qi,
    _cleared,
    _eliminate,
    _gaussian,
    as_matrix,
    hermitian_definiteness,
    is_unimodular,
    mat_mul,
    nullspace,
    rank,
)
from hodge_domains.higgs import HiggsField
from hodge_domains.hodge import HodgeNumbers


def is_real(x: GaussianRational) -> bool:
    return x.im == 0


# ---------------------------------------------------------------------------
# Reference: the Gaussian rational as a pair of Fractions, as it was before.
# ---------------------------------------------------------------------------


class ReferenceGaussianRational:
    """A complex number a + b*i with rational a, b.  Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = _reference_coerce(other)
        return ReferenceGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = _reference_coerce(other)
        return ReferenceGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = _reference_coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return ReferenceGaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self):
        return ReferenceGaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, ReferenceGaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"Qi({self.re})"
        return f"Qi({self.re}, {self.im})"


def _reference_coerce(x) -> ReferenceGaussianRational:
    if isinstance(x, ReferenceGaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ReferenceGaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into ReferenceGaussianRational")


# ---------------------------------------------------------------------------
# Reference: Gauss-Jordan over Fraction pairs, as the kernel was before.
# ---------------------------------------------------------------------------


def gaussian_rows(a: Sequence[Sequence]) -> list[list[GaussianRational]]:
    """The matrix a as lists of GaussianRationals, coerced by as_matrix."""
    return [list(row) for row in as_matrix(a, len(a), len(a[0]) if a else 0)]


def rref(a: Sequence[Sequence]):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = gaussian_rows(a)
    pivots: list[int] = []
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = QI_ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                minus_f = rows[i][c] * MINUS_ONE
                rows[i] = [x + minus_f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def det(a: Sequence[Sequence]) -> GaussianRational:
    """Exact determinant over Q(i) by fraction elimination."""
    n = len(a)
    rows = gaussian_rows(a)
    sign = QI_ONE
    acc = QI_ONE
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return QI_ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = sign * MINUS_ONE
        acc = acc * rows[c][c]
        inv = QI_ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                minus_f = rows[i][c] * inv * MINUS_ONE
                rows[i] = [x + minus_f * y for x, y in zip(rows[i], rows[c])]
    return sign * acc


def reference_definiteness(g: Sequence[Sequence]) -> str:
    n = len(g)
    work = gaussian_rows(g)
    for i in range(n):
        for j in range(n):
            if work[i][j] != work[j][i].conjugate():
                raise ValueError("matrix is not Hermitian")
    if n == 0:
        return "positive"  # empty form, vacuously definite either way
    minors: list[Fraction] = []
    prev = Fraction(1)
    for s in range(n):
        piv = work[s][s]
        if not is_real(piv):
            raise ValueError("non-real pivot on a Hermitian matrix")
        if not piv:
            return "degenerate" if not det(g) else "indefinite"
        prev = prev * piv.re
        minors.append(prev)
        inv = QI_ONE / piv
        for i in range(s + 1, n):
            minus_f = work[i][s] * inv * MINUS_ONE
            if minus_f:
                wi, ws = work[i], work[s]
                for j in range(s, n):
                    wi[j] = wi[j] + minus_f * ws[j]
    if all(m > 0 for m in minors):
        return "positive"
    if all((m < 0 if s % 2 == 1 else m > 0) for s, m in zip(range(1, n + 1), minors)):
        return "negative"
    return "indefinite"


def _dot_plain(xs, ys) -> GaussianRational:
    """sum(x * y), accumulated as (a + b*i) / d over a common denominator and
    reduced once."""
    a = b = 0
    d = 1
    for x, y in zip(xs, ys):
        xa, xb, ya, yb = x.a, x.b, y.a, y.b
        if (xa or xb) and (ya or yb):  # zero terms are skipped; the sum is the same exact value
            pa, pb, e = xa * ya - xb * yb, xa * yb + xb * ya, x.d * y.d
            if e == d:
                a, b = a + pa, b + pb
            else:
                l = lcm(d, e)
                a, b, d = a * (l // d) + pa * (l // e), b * (l // d) + pb * (l // e), l
    return _gaussian(a, b, d)


def reference_mat_mul(a, b) -> list[list[GaussianRational]]:
    """The product one _dot_plain per entry, as mat_mul computed it before it
    cleared each row and column once."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch in product")
    bt = list(zip(*b)) if b else []
    return [[_dot_plain(row, col) for col in bt] for row in a]


def reference_nullspace(a):
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [QI_ZERO] * ncols
        v[fc] = QI_ONE
        for r, pc in enumerate(pivots):
            v[pc] = rows[r][fc] * MINUS_ONE
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)) | st.just(Fraction(0))
gaussians = st.builds(GaussianRational, fractions, fractions)


@st.composite
def matrices(draw, nrows, ncols, entries=gaussians):
    """A matrix of the entries; the kernels take ints or Gaussian rationals,
    so a matrix of ints stays one and any other goes through as_matrix."""
    n, m = draw(nrows), draw(ncols)
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    if n >= 1 and draw(st.booleans()):
        # force a rank deficiency: the last row is a combination of the others
        coeffs = [draw(entries) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m)]
    return rows if all(type(x) is int for row in rows for x in row) else gaussian_rows(rows)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("sum", "gram", "negative_gram")))
    if kind == "sum":
        b = draw(matrices(st.just(n), st.just(n)))
        return [[b[i][j] + b[j][i].conjugate() for j in range(n)] for i in range(n)]
    # fewer rows than columns makes B singular, so B*B is degenerate
    b = draw(matrices(st.integers(0, 6), st.just(n)))
    sign = QI_ONE if kind == "gram" else MINUS_ONE
    return [
        [sign * sum((row[i].conjugate() * row[j] for row in b), QI_ZERO) for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    matrices(st.integers(0, 6), st.integers(0, 7))
    | matrices(st.integers(0, 6), st.integers(0, 7), entries=st.integers(-4, 4) | fractions)
)
def test_rank_and_nullspace_match_reference(a):
    # the forward-only mode never updates a row above the pivot row, so it
    # picks the same pivots as Gauss-Jordan; rank reads the forward mode
    gauss_jordan, forward = _eliminate(a), _eliminate(a, forward=True)
    assert (forward[0], forward[2], forward[3]) == (gauss_jordan[0], gauss_jordan[2], gauss_jordan[3])
    assert rank(a) == len(rref(a)[1])
    # the RREF is canonical, so the kernel bases agree exactly
    assert nullspace(a) == reference_nullspace(a)


mixed = (st.integers(-4, 4) | fractions).map(Qi) | gaussians | st.just(QI_ZERO)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_mat_mul_matches_reference(n, k, p, data):
    # entries built from ints, Fractions and pairs of them, zero rows and columns
    # (a one-row matrix forced rank-deficient is a row of int zeros)
    a = gaussian_rows(data.draw(matrices(st.just(n), st.just(k), entries=mixed)))
    b = gaussian_rows(data.draw(matrices(st.just(k), st.just(p), entries=mixed)))
    if data.draw(st.booleans()):
        a, b = [tuple(row) for row in a], tuple(tuple(row) for row in b)
    product = mat_mul(a, b)
    assert product == reference_mat_mul(a, b)
    assert all(type(x) is GaussianRational for row in product for x in row)


def test_mat_mul_rejects_mismatched_shapes():
    for a, b in (([[1, 2]], [[1, 2]]), ([[1]], [[1], [2]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_mul(a, b)
        with pytest.raises(ValueError, match="dimension mismatch"):
            reference_mat_mul(a, b)


@settings(max_examples=300, deadline=None)
@given(
    matrices(st.integers(0, 6), st.integers(1, 7))
    | matrices(st.integers(0, 6), st.integers(1, 7), entries=st.integers(-4, 4) | fractions),
    st.data(),
)
def test_nullspace_ignores_zero_rows_and_positive_row_scales(a, data):
    # both keep the row space, and the basis is read off its canonical RREF
    scales = [data.draw(st.integers(1, 6)) for _ in a]
    rows = [[x * c for x in row] for c, row in zip(scales, a)]
    zero = data.draw(st.sampled_from((0, QI_ZERO) if not a else (0,) if type(a[0][0]) is int else (QI_ZERO,)))
    for _ in range(data.draw(st.integers(0, 3))):
        rows.insert(data.draw(st.integers(0, len(rows))), [zero] * (len(a[0]) if a else 1))
    assert nullspace(rows) == nullspace(a) if a else nullspace(rows) == reference_nullspace(rows)


@settings(max_examples=300, deadline=None)
@given(hermitian_matrices())
def test_definiteness_matches_reference(g):
    assert hermitian_definiteness(g) == reference_definiteness(g)


@settings(max_examples=200, deadline=None)
@given(
    matrices(st.integers(0, 6), st.integers(1, 7), entries=st.integers(-4, 4))
    | matrices(st.integers(0, 6), st.integers(1, 7), entries=fractions)
)
def test_rank_of_int_and_fraction_matrices(a):
    # a matrix of Fractions enters through as_matrix (see matrices)
    assert rank(a) == len(rref(a)[1])


@settings(max_examples=300, deadline=None)
@given(matrices(st.integers(0, 6), st.integers(0, 9), entries=st.integers(-50, 50)), st.booleans(), st.booleans())
def test_int_rows_eliminate_as_gaussian_rows(a, as_tuples, forward):
    # int rows take the kernel's copy-only entry; the same rows with
    # GaussianRational entries are cleared of denominators (all 1) instead
    given_rows = [tuple(row) for row in a] if as_tuples else [list(row) for row in a]
    as_gaussians = [[GaussianRational(x) for x in row] for row in a]
    assert _eliminate(given_rows, forward) == _eliminate(as_gaussians, forward)
    assert rank(given_rows) == rank(as_gaussians) == len(rref(a)[1])
    assert [list(row) for row in given_rows] == a  # the input is not written


@settings(max_examples=300, deadline=None)
@given(
    matrices(st.integers(0, 6), st.integers(0, 7))
    | matrices(st.integers(0, 6), st.integers(0, 7), entries=st.integers(-50, 50))
    | matrices(st.integers(0, 6), st.integers(0, 7), entries=fractions),
    st.booleans(),
)
def test_eliminate_entries_obey_the_hadamard_bound(a, forward):
    # every entry and pivot is a minor of the rows cleared of denominators
    # (Bareiss), so its square modulus is at most the product of max(1, |row|^2)
    bound = prod(max(1, sum(x * x + y * y for x, y in zip(*_cleared(row)[1:]))) for row in gaussian_rows(a))
    _, rows, pivots, _ = _eliminate(a, forward)
    assert all(x * x + y * y <= bound for re, im in rows for x, y in zip(re, im))
    assert all(x * x + y * y <= bound for x, y in pivots)


@st.composite
def square_int_matrices(draw):
    """A random n x n int matrix, or a unimodular one: the identity after
    random row shears, negations and a permutation."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(matrices(st.just(n), st.just(n), entries=st.integers(-3, 3)))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(-3, 3))
        a[i] = [-x for x in a[i]] if i == j else [x + q * y for x, y in zip(a[i], a[j])]
    return draw(st.permutations(a))


@settings(max_examples=300, deadline=None)
@given(square_int_matrices())
def test_is_unimodular_matches_hermite_form(a):
    # a square matrix is unimodular iff its rows span Z^n: Hermite form I
    expected = reference_hermite_normal_form(a) == [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    event("unimodular" if expected else "not unimodular")
    assert is_unimodular(a) == expected


# ---------------------------------------------------------------------------
# Fixed cases
# ---------------------------------------------------------------------------


def test_fixed_definiteness_cases():
    assert hermitian_definiteness([[0, 1], [1, 0]]) == "indefinite"
    assert hermitian_definiteness([[0, 0], [0, 1]]) == "degenerate"
    assert hermitian_definiteness([[2, 1], [1, 2]]) == "positive"
    assert hermitian_definiteness([[-2, 1], [1, -2]]) == "negative"
    assert hermitian_definiteness([]) == "positive"


def test_non_hermitian_input_raises():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_definiteness([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_definiteness([[GaussianRational(1, 1)]])


def test_is_unimodular_fixed_cases():
    assert is_unimodular([[2, 1], [1, 1]])  # det 1
    assert is_unimodular([[0, 1], [1, 0]])  # det -1, after a row exchange
    assert not is_unimodular([[2, 0], [0, 1]])  # det 2
    assert not is_unimodular([[1, 2], [2, 4]])  # singular
    assert not is_unimodular([[1, 0, 0], [0, 1, 0]])  # full row rank, not square


def test_empty_and_singular_inputs():
    assert rank([]) == 0
    assert nullspace([]) == []
    assert rank([[1, 2], [2, 4]]) == 1
    assert nullspace([[1, 2], [2, 4]]) == [[Qi(-2), QI_ONE]]


# -- constructor coercion --------------------------------------------------------


def test_as_matrix_coerces_entries_and_checks_shape():
    i = GaussianRational(0, 1)
    assert as_matrix([[1, i], [Fraction(1, 2), "1/3"]], 2, 2) == (
        (QI_ONE, i), (GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 3))))
    for rows in ([[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            as_matrix(rows, 2, 2)


# -- the scalar against the Fraction-pair reference ----------------------------------

operands = st.one_of(
    st.tuples(fractions, fractions).map(lambda parts: ("gaussian", parts)),
    st.integers(-6, 6).map(lambda n: ("int", n)),
    fractions.map(lambda f: ("fraction", f)),
)


def as_both(operand):
    """(new, reference) forms of an operand; ints and Fractions are shared."""
    kind, value = operand
    if kind == "gaussian":
        return GaussianRational(*value), ReferenceGaussianRational(*value)
    return value, value


def assert_same_scalar(new, ref):
    assert isinstance(new, GaussianRational)
    assert new.d > 0 and gcd(new.a, new.b, new.d) == 1
    assert (new.re, new.im) == (ref.re, ref.im)
    assert (new.re, new.im) == (Fraction(new.a, new.d), Fraction(new.b, new.d))
    assert repr(new) == repr(ref)
    assert is_real(new) == ref.is_real()
    assert bool(new) == bool(ref)


@settings(max_examples=500, deadline=None)
@given(st.tuples(fractions, fractions), operands)
def test_scalar_matches_fraction_pair_reference(parts, operand):
    # + takes an int or a Fraction on either side, * and / on the right only
    x, x_ref = GaussianRational(*parts), ReferenceGaussianRational(*parts)
    y, y_ref = as_both(operand)
    gaussian = operand[0] == "gaussian"
    assert_same_scalar(x, x_ref)
    assert_same_scalar(x.conjugate(), x_ref.conjugate())
    pairs = [((x, y), (x_ref, y_ref)), ((y, x), (y_ref, x_ref))]
    for op in (operator.add, operator.mul, operator.truediv):
        for args, ref_args in pairs if gaussian or op is operator.add else pairs[:1]:
            try:
                expected = op(*ref_args)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(*args)
            else:
                assert_same_scalar(op(*args), expected)
    # == is False for anything but a Gaussian rational, so hash need not match int or Fraction hashes
    assert (x == y) == (y == x) == (gaussian and x_ref == y_ref)
    if x == y:
        assert hash(x) == hash(y)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianRational(0.1),
        lambda: GaussianRational(1, 0.5),
        lambda: Qi(0.1, 0),
        lambda: as_matrix([[0.1, 0], [0, 1]], 2, 2),
        lambda: Flag(HodgeNumbers((1, 1)), ((0.1, 0), (0, 1))),
        lambda: HiggsField(HodgeNumbers((1, 1)), 1, ((((1.0,),),),)),
    ],
    ids=["real", "imaginary", "Qi", "as_matrix", "Flag", "HiggsField"],
)
def test_float_entries_raise_value_error(build):
    with pytest.raises(ValueError, match="inexact entry"):
        build()


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize(
    "build, scalar",
    [
        (lambda: Qi(1, 2), lambda x: x),
        (lambda: Qi(3), lambda x: x),
        (lambda: Flag(HodgeNumbers((1, 1)), ((Qi(1), Qi(Fraction(1, 3), 1)), (0, 1))), lambda f: f.basis[0][1]),
        (lambda: HiggsField(HodgeNumbers((1, 1)), 1, ((((Qi(Fraction(1, 2), -3),),),),)), lambda h: h.theta[0][0][0][0]),
    ],
    ids=["Qi(1, 2)", "Qi(3)", "Flag", "HiggsField"],
)
def test_copy_and_pickle_round_trip(copier, build, scalar):
    x = build()
    y = copier(x)
    assert y == x and hash(y) == hash(x)
    z = scalar(y)
    assert isinstance(z, GaussianRational) and z == scalar(x) and hash(z) == hash(scalar(x))
    with pytest.raises(AttributeError, match="immutable"):
        z.a = 0
