"""Exact linear algebra kernels: Gaussian rationals, and rank, nullspace,
definiteness and unimodularity on one Bareiss elimination over Z[i].

A Gaussian rational is one Gaussian integer a + b*i over one positive
denominator d; the hot paths read (a, b, d) directly and stay in integers.

Matrices are plain lists (or tuples) of rows, all ints or all Gaussian
rationals (mat_mul takes only these); as_matrix coerces other entries.
Everything here is exact; no floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
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

    def __radd__(self, other):  # 0 + x: the first step of sum(row), which _eliminate's int probe runs
        return self + other

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _gaussian(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other):
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        other = _coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gaussian((a * c + b * e) * other.d, (b * c - a * e) * other.d, self.d * n)

    def conjugate(self):
        return _gaussian(self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):  # False for anything but a Gaussian rational: Qi(1) != 1
        return isinstance(other, GaussianRational) and self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

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
    """a b, with each row of a and each column of b cleared of denominators
    once: entry (i, j) is one Gaussian-integer dot product over l_i l_j."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch in product")
    cols = [_cleared(col) for col in zip(*b)]
    return [[_gaussian(sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)), sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)),
                       l * m) for m, yr, yi in cols] for l, xr, xi in map(_cleared, a)]


def _cleared(v) -> tuple[int, list[int], list[int]]:
    """(l, re, im): the lcm l of the denominators of the GaussianRationals v
    and the integer parts of l * v."""
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
    On a matrix that is not real, a step with f = 0 only scales the row by
    p / prev, so it is deferred: row i holds its values times dens[i] / prev,
    and its next update divides by dens[i] (the pivot row, and at the end each
    RREF row, is rescaled).  Real rows, one product per entry, are not deferred.

    With forward=True a step updates only the rows below the pivot row, and
    only right of the pivot column (left of it those rows are zero); the rows
    are then left partly stale, but the pivot row is never touched by the
    updates above it, so pivot_cols, pivots and swap are the same.

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
    zeros, dens = ([0] * ncols,) * 2, [(1, 0)] * nrows
    pivot_cols, pivots, swap, q = [], [], None, (1, 0)  # q: the previous pivot
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
            rows[r], rows[piv], dens[r], dens[piv] = rows[piv], rows[r], dens[piv], dens[r]
            swap = r if swap is None else swap
        if dens[r] != q:
            _combine(rows[r], q, 0, 0, zeros, dens[r], c)
        lo = c + 1 if forward else 0
        yr, yi = rows[r]
        pa, _ = p = (yr[c], yi[c])
        yr, _ = y = (yr[lo:], yi[lo:])
        for i in range(r + 1 if forward else 0, nrows):
            xr, xi = rows[i]
            if i == r or not (real or xr[c] or xi[c]):
                continue
            if real:  # never deferred, so never rescaled
                fa, qa = xr[c], q[0]
                xr[lo:] = ([pa * u - fa * v for u, v in zip(xr[lo:], yr)] if qa == 1 else
                           [(pa * u - fa * v) // qa for u, v in zip(xr[lo:], yr)])
            else:
                _combine(rows[i], p, xr[c], xi[c], y, dens[i], lo)
            dens[i] = p
        dens[r] = q = p
        pivot_cols.append(c)
        pivots.append(p)
    for i in range(0 if forward else len(pivot_cols)):
        if dens[i] != q:
            _combine(rows[i], q, 0, 0, zeros, dens[i], 0)
    return pivot_cols, rows, pivots, swap


def _combine(x, p, fa: int, fb: int, y, q, lo: int) -> None:
    """x[lo:] = (p x[lo:] - f y) / q in place, exactly, for x and y (re, im)
    int lists and p, q and f = fa + fb i Gaussian integers ((re, im) pairs):
    the update, and the rescaling (f = 0), of a row that is not real."""
    (xr, xi), (pa, pb), (yr, yi), (qa, qb) = x, p, y, q
    if pb == qb == 0:  # real pivots (on a Hermitian matrix, leading minors): no conjugate needed
        xr[lo:], xi[lo:] = ([(pa * u - fa * v + fb * w) // qa for u, v, w in zip(xr[lo:], yr, yi)],
                            [(pa * u - fa * w - fb * v) // qa for u, v, w in zip(xi[lo:], yr, yi)])
    else:
        tr = [pa * u - pb * t - fa * v + fb * w for u, t, v, w in zip(xr[lo:], xi[lo:], yr, yi)]
        ti = [pa * t + pb * u - fa * w - fb * v for u, t, v, w in zip(xr[lo:], xi[lo:], yr, yi)]
        qn = qa * qa + qb * qb  # t / q = t * conj(q) / |q|^2
        xr[lo:] = [(s * qa + t * qb) // qn for s, t in zip(tr, ti)]
        xi[lo:] = [(t * qa - s * qb) // qn for s, t in zip(tr, ti)]


def rank(a: Sequence[Sequence]) -> int:
    """Exact rank over Q(i) of a matrix of ints or of Gaussian rationals."""
    return len(_eliminate(a, forward=True)[0])


def nullspace(a: Sequence[Sequence]) -> list[list[GaussianRational]]:
    """Basis of the right kernel {x : a x = 0} over Q(i), read off the RREF."""
    if not a:
        return []
    ncols = len(a[0])
    pivot_cols, rows, pivots, _ = _eliminate([row for row in a if any(row)])  # a zero row changes no solution
    pivot_set = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [QI_ZERO] * ncols
        v[fc] = QI_ONE
        for (xr, xi), pc in zip(rows, pivot_cols):  # -x / d = -x conj(d) / |d|^2, d the last pivot
            (da, db), xa, xb = pivots[-1], xr[fc], xi[fc]
            v[pc] = _gaussian(-xa * da - xb * db, xa * db - xb * da, da * da + db * db)
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
    if any(g[i][j] != g[j][i].conjugate() for i in range(n) for j in range(i, n)):
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
