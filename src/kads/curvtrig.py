"""Curvature trig primitives and forward-mode dual numbers.

The four primitives are real-analytic functions of the cosmological
constant ``lam`` (they depend on the curvature scale only through
``eta^2 = -lam``), so all group numerics stay real for either sign:

    ct(lam, x) = cos(eta x)        = sum lam^n x^(2n) / (2n)!
    st(lam, x) = sin(eta x) / eta  = sum lam^n x^(2n+1) / (2n+1)!
    ch(lam, x) = cosh(eta x)       = sum (-lam)^n x^(2n) / (2n)!
    sh(lam, x) = sinh(eta x) / eta = sum (-lam)^n x^(2n+1) / (2n+1)!

Near lam * x^2 = 0 a short Taylor series avoids cancellation, which also
makes every primitive work on :class:`Dual` arguments (the series is pure
ring arithmetic).  Identities ct^2 - lam*st^2 = 1 and ch^2 + lam*sh^2 = 1.

Every primitive takes ``x`` as a float, a 1-D array of N points, or a
:class:`Dual` whose ``re`` has shape (N,) and whose ``eps`` has shape
(k, N) (tangent-major, so ``re * eps`` broadcasts).  The series cut is
decided per element: a batch on one side of it evaluates one branch, a
mixed batch evaluates both and selects with ``np.where``.  ``lam`` is a
float.  A hyperbolic argument |eta x| past ``EXP_ARG_MAX`` raises
:class:`NumericOverflow` rather than returning inf.
"""

from __future__ import annotations

import math

import numpy as np

SERIES_CUT = 1e-8
EXP_ARG_MAX = 710.0  # cosh and sinh overflow a double just past 710.47


class NumericOverflow(OverflowError):
    """Coordinates large enough to overflow the exponentials."""


class Dual:
    """First-order dual number a + b*eps with eps^2 = 0.

    Parts are duck-typed: floats normally, complex when a table entry
    carries the imaginary curvature scale of the positive-lam regime.  The
    eps part may be a numpy array of tangents, one per direction: every
    operation is elementwise in eps, so one chain carries all directions
    and each component equals the scalar chain bit for bit.  For N points
    at once ``re`` has shape (N,) and ``eps`` shape (k, N).
    """

    __slots__ = ("re", "eps")
    __array_ufunc__ = None  # ``array * dual`` defers to Dual.__rmul__

    def __init__(self, re, eps=0.0):
        self.re = re
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.re}, {self.eps})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.eps + other.eps)
        return Dual(self.re + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else Dual(-other, 0.0))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.eps + self.eps * other.re)
        return Dual(self.re * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re / other.re,
                        (self.eps * other.re - self.re * other.eps) / (other.re * other.re))
        return Dual(self.re / other, self.eps / other)

    def __rtruediv__(self, other):
        return Dual(other / self.re, -other * self.eps / (self.re * self.re))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("dual powers are nonnegative integers")
        out = Dual(1.0, 0.0)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.re) or bool(np.any(self.eps))  # eps may be a tangent array


def re_part(x):
    return x.re if isinstance(x, Dual) else x


def eps_part(x):
    return x.eps if isinstance(x, Dual) else 0.0


def _lift(fn, dfn):
    def wrapped(x):
        if isinstance(x, Dual):
            return Dual(fn(x.re), dfn(x.re) * x.eps)
        return fn(x)
    return wrapped


sin = _lift(np.sin, np.cos)
cos = _lift(np.cos, lambda t: -np.sin(t))
sinh = _lift(np.sinh, np.cosh)
cosh = _lift(np.cosh, np.sinh)
asin = _lift(np.arcsin, lambda t: 1.0 / np.sqrt(1.0 - t * t))
asinh = _lift(np.arcsinh, lambda t: 1.0 / np.sqrt(1.0 + t * t))
atan = _lift(np.arctan, lambda t: 1.0 / (1.0 + t * t))
atanh = _lift(np.arctanh, lambda t: 1.0 / (1.0 - t * t))


def eta_of(lam: float):
    """The curvature scale with eta^2 = -lam: real for lam <= 0, imaginary above."""
    if lam <= 0:
        return math.sqrt(-lam)
    return 1j * math.sqrt(lam)


def any_of(mask) -> bool:
    """np.any for a bool or a bool array, without its call overhead."""
    return np.count_nonzero(mask) > 0


def _branch(lam: float, x, series, closed):
    """Per element: series(lam, x) where |lam| x^2 < SERIES_CUT, else
    closed(lam, x, q) with q = |lam| x^2; a batch on one side evaluates one
    branch only."""
    r = re_part(x)
    q = abs(lam) * (r * r)
    small = q < SERIES_CUT
    count = np.count_nonzero(small)
    if count == np.size(small):
        return series(lam, x)
    if not count:
        return closed(lam, x, q)
    a, b = series(lam, x), closed(lam, x, q)
    if isinstance(x, Dual):
        return Dual(np.where(small, a.re, b.re), np.where(small, a.eps, b.eps))
    return np.where(small, a, b)


def _check_exp(q):
    """NumericOverflow where cosh or sinh of sqrt(q) would overflow."""
    if any_of(q > EXP_ARG_MAX ** 2):
        raise NumericOverflow(f"curvature argument |eta x| past {EXP_ARG_MAX} "
                              "overflows cosh and sinh")


def _ch_series(lam, x):
    x2 = x * x
    return 1.0 - lam * x2 * (1.0 / 2 - lam * x2 * (1.0 / 24 - lam * x2 * (1.0 / 720)))


def _ch_closed(lam, x, q):
    rt = math.sqrt(abs(lam))
    if lam > 0:
        return cos(rt * x)
    _check_exp(q)
    return cosh(rt * x)


def _sh_series(lam, x):
    x2 = x * x
    return x * (1.0 - lam * x2 * (1.0 / 6 - lam * x2 * (1.0 / 120 - lam * x2 * (1.0 / 5040))))


def _sh_closed(lam, x, q):
    rt = math.sqrt(abs(lam))
    if lam > 0:
        return sin(rt * x) / rt
    _check_exp(q)
    return sinh(rt * x) / rt


def ct(lam: float, x):
    """ch(-lam, x), bit for bit: the two series differ only in the sign of
    every lam * x2 factor, and the closed forms coincide."""
    return _branch(-lam, x, _ch_series, _ch_closed)


def st(lam: float, x):
    """sh(-lam, x), bit for bit, as for ct."""
    return _branch(-lam, x, _sh_series, _sh_closed)


def ch(lam: float, x):
    return _branch(lam, x, _ch_series, _ch_closed)


def sh(lam: float, x):
    return _branch(lam, x, _sh_series, _sh_closed)


def tn(lam: float, x):
    """st/ct, the curved tangent of the time direction."""
    return st(lam, x) / ct(lam, x)


def _sh_inv_series(lam, y):
    y2 = y * y
    return y * (1.0 + lam * y2 * (1.0 / 6 + lam * y2 * (3.0 / 40)))


def _sh_inv_closed(lam, y, q):
    rt = math.sqrt(abs(lam))
    u = rt * y
    if lam > 0:
        if any_of(abs(re_part(u)) > 1.0):
            raise ValueError("sh_inv argument outside [-1/sqrt(lam), 1/sqrt(lam)]")
        return asin(u) / rt
    return asinh(u) / rt


def sh_inv(lam: float, y):
    """Inverse of sh in the principal chart; ValueError when any element is
    out of domain."""
    return _branch(lam, y, _sh_inv_series, _sh_inv_closed)


def _tn_inv_series(lam, t):
    t2 = t * t
    return t * (1.0 + lam * t2 * (1.0 / 3 + lam * t2 * (1.0 / 5)))


def _tn_inv_closed(lam, t, q):
    rt = math.sqrt(abs(lam))
    u = rt * t
    if lam > 0:
        if any_of(abs(re_part(u)) >= 1.0):
            raise ValueError("tn_inv argument outside the principal chart")
        return atanh(u) / rt
    return atan(u) / rt


def tn_inv(lam: float, t):
    """Inverse of tn in the principal chart; ValueError when any element is
    out of domain."""
    return _branch(lam, t, _tn_inv_series, _tn_inv_closed)
