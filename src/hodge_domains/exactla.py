"""Exact linear algebra kernels: Gaussian rationals, and rank, nullspace,
definiteness and unimodularity on one Bareiss elimination over Z[i].

A Gaussian rational is one Gaussian integer a + b*i over one positive
denominator d; the hot paths read (a, b, d) directly and stay in integers.

Matrices are plain lists (or tuples) of rows.  Everything here is exact; no
floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class GaussianRational:
    """The complex number (a + b*i) / d for ints a, b, d with d > 0 and
    gcd(a, b, d) = 1, so each value has exactly one (a, b, d).  Immutable."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im=0):
        """From real and imaginary parts: ints, Fractions or 'a/b' strings."""
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _fraction(re), _fraction(im)
            d = lcm(re.denominator, im.denominator)  # gcd(a, b, d) = 1: both parts are in lowest terms
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _gaussian; the default slot-state
        # restore would go through the raising __setattr__
        return _gaussian, (self.a, self.b, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _gaussian(self.a + other.a, self.b + other.b, d)
        return _gaussian(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _gaussian(self.a - other.a, self.b - other.b, d)
        return _gaussian(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _gaussian(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        other = _coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gaussian((a * c + b * e) * other.d, (b * c - a * e) * other.d, self.d * n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return _gaussian(-self.a, -self.b, self.d)

    def conjugate(self):
        return _gaussian(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # equal to hash(int) and hash(Fraction) on real values, which __eq__ matches
        if self.b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.b == 0:
            return f"Qi({self.re})"
        return f"Qi({self.re}, {self.im})"


# the slot descriptors' setters, which bypass __setattr__
_set_a, _set_b, _set_d = (GaussianRational.__dict__[name].__set__ for name in GaussianRational.__slots__)


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i) / d for ints a, b and d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = object.__new__(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _fraction(x) -> Fraction:
    if isinstance(x, float):
        raise ValueError(f"inexact entry {x!r}: give an int, a Fraction or an 'a/b' string")
    return x if isinstance(x, Fraction) else Fraction(x)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into GaussianRational")


Qi = GaussianRational  # the short name repr uses

QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)


def as_matrix(rows: Iterable[Iterable], nr: int, nc: int) -> tuple[tuple[GaussianRational, ...], ...]:
    """rows as a tuple of row tuples of GaussianRational (other entries go
    through its constructor, so a float is a ValueError); ValueError unless
    the shape is nr x nc."""
    out = tuple(tuple(x if isinstance(x, GaussianRational) else GaussianRational(x) for x in row) for row in rows)
    if len(out) != nr or any(len(r) != nc for r in out):
        raise ValueError(f"expected a {nr}x{nc} matrix")
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[GaussianRational]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch in product")
    bt = list(zip(*b)) if b else []
    return [[_dot_plain(row, col) for col in bt] for row in a]


def _dot_plain(xs, ys) -> GaussianRational:
    """sum(x * y), accumulated as (a + b*i) / d over a common denominator and
    reduced once."""
    a = b = 0
    d = 1
    for x, y in zip(xs, ys):
        x, y = _coerce(x), _coerce(y)
        xa, xb, ya, yb = x.a, x.b, y.a, y.b
        if (xa or xb) and (ya or yb):  # zero terms are skipped; the sum is the same exact value
            pa, pb, e = xa * ya - xb * yb, xa * yb + xb * ya, x.d * y.d
            if e == d:
                a, b = a + pa, b + pb
            else:
                l = lcm(d, e)
                a, b, d = a * (l // d) + pa * (l // e), b * (l // d) + pb * (l // e), l
    return _gaussian(a, b, d)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def is_zero_matrix(a) -> bool:
    return all(_coerce(x).is_zero() for row in a for x in row)


def _cleared(v) -> tuple[int, list[int], list[int]]:
    """(l, re, im): the lcm l of the denominators of the entries of v (ints,
    Fractions or GaussianRationals) and the integer parts of l * v."""
    if set(map(type, v)) != {GaussianRational}:
        v = [_coerce(x) for x in v]
    l = lcm(*(z.d for z in v))
    return l, [z.a * (l // z.d) for z in v], [z.b * (l // z.d) for z in v]


def _eliminate(a: Sequence[Sequence], forward: bool = False):
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss 1968).

    Each row is first scaled by the lcm of its denominators, which keeps the
    row space and multiplies every leading minor by a positive integer.  Each
    step replaces every other row by (p * row - f * pivot_row) / prev, where p
    is the new pivot, f the row's entry in the pivot column and prev the
    previous pivot; the division is exact, so entries stay minors and their
    size grows polynomially.  After the last step every pivot entry equals the
    last pivot d, and the reduced row echelon form is the rows divided by d.

    With forward=True a step updates only the rows below the pivot row, and
    only right of the pivot column (left of it those rows are zero); the rows
    are then left partly stale, but the pivot row is never touched by the
    updates above it, so pivot_cols, pivots and swap are the same.

    A real matrix stays real, so then only the real parts are updated.

    Returns (pivot_cols, rows, pivots, swap): rows are (re, im) lists of
    ints, pivots the (re, im) pivot of each step, and swap the step of the
    first row exchange, or None.  Before it, a step k (from 0) with pivot
    column k has the (k+1)-th leading minor of the scaled matrix as its pivot.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    # Rows of ints (whose sums are ints; a Fraction or GaussianRational entry
    # makes the sum one) are copied as they are, with one shared zero
    # imaginary part, which the real updates never write.
    if all(type(sum(row)) is int for row in a):
        zero = [0] * ncols
        rows = [(list(row), zero) for row in a]
        real = True
    else:
        rows = [_cleared(row)[1:] for row in a]
        real = not any(any(xi) for _, xi in rows)
    pivot_cols: list[int] = []
    pivots: list[tuple[int, int]] = []
    swap = None
    qa, qb = 1, 0  # previous pivot
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        for piv in range(r, nrows):
            if rows[piv][0][c] or rows[piv][1][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swap = r if swap is None else swap
        lo = c + 1 if forward else 0
        yr, yi = rows[r]
        pa, pb = yr[c], yi[c]
        yr, yi = yr[lo:], yi[lo:]
        qn = qa * qa + qb * qb
        for i in range(r + 1 if forward else 0, nrows):
            if i == r:
                continue
            xr, xi = rows[i]
            fa, fb = xr[c], xi[c]
            if real:
                xr[lo:] = [(pa * x - fa * y) // qa for x, y in zip(xr[lo:], yr)]
                continue
            tr = [pa * x - pb * u - fa * y + fb * v for x, u, y, v in zip(xr[lo:], xi[lo:], yr, yi)]
            ti = [pa * u + pb * x - fa * v - fb * y for x, u, y, v in zip(xr[lo:], xi[lo:], yr, yi)]
            # exact division by the previous pivot: t / q = t * conj(q) / |q|^2
            xr[lo:] = [(s * qa + t * qb) // qn for s, t in zip(tr, ti)]
            xi[lo:] = [(t * qa - s * qb) // qn for s, t in zip(tr, ti)]
        pivot_cols.append(c)
        pivots.append((pa, pb))
        qa, qb = pa, pb
    return pivot_cols, rows, pivots, swap


def _divide(xa: int, xb: int, d: tuple[int, int]) -> GaussianRational:
    """The Gaussian rational (xa + xb i) / d."""
    da, db = d
    return _gaussian(xa * da + xb * db, xb * da - xa * db, da * da + db * db)


def rank(a: Sequence[Sequence]) -> int:
    """Exact rank over Q(i) of a matrix of Gaussian rationals, Fractions or ints."""
    return len(_eliminate(a, forward=True)[0])


def nullspace(a: Sequence[Sequence]) -> list[list[GaussianRational]]:
    """Basis of the right kernel {x : a x = 0} over Q(i), read off the RREF."""
    if not a:
        return []
    ncols = len(a[0])
    pivot_cols, rows, pivots, _ = _eliminate(a)
    pivot_set = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [QI_ZERO] * ncols
        v[fc] = QI_ONE
        for (xr, xi), pc in zip(rows, pivot_cols):
            v[pc] = _divide(-xr[fc], -xi[fc], pivots[-1])
        basis.append(v)
    return basis


def hermitian_definiteness(g: Sequence[Sequence]) -> str:
    """Classify a Hermitian form: 'positive', 'negative', 'degenerate' or 'indefinite'.

    Sylvester: positive definite iff all leading minors > 0; negative definite
    iff they alternate starting negative.  One elimination pass decides it: a
    rank below n means degenerate; a row exchange means some leading minor of
    a nondegenerate form is 0, so it is indefinite; otherwise the pivots are
    the leading minors times positive row scales.
    """
    n = len(g)
    for i in range(n):
        for j in range(n):
            if _coerce(g[i][j]) != _coerce(g[j][i]).conjugate():
                raise ValueError("matrix is not Hermitian")
    if n == 0:
        return "positive"  # empty form, vacuously definite either way
    pivot_cols, _, pivots, swap = _eliminate(g, forward=True)
    if len(pivot_cols) < n:
        return "degenerate"
    if swap is not None:
        return "indefinite"
    if any(im for _, im in pivots):
        raise ValueError("non-real pivot on a Hermitian matrix")
    if all(re > 0 for re, _ in pivots):
        return "positive"
    if all((re < 0) == (k % 2 == 0) for k, (re, _) in enumerate(pivots)):
        return "negative"
    return "indefinite"


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    """Whether a nonempty integer matrix is square with determinant +-1: the
    forward pass reaches full rank, and its last pivot is then +-det (a row
    exchange flips the sign only)."""
    pivot_cols, _, pivots, _ = _eliminate(a, forward=True)
    return len(pivot_cols) == len(a) == len(a[0]) and pivots[-1] in ((1, 0), (-1, 0))
