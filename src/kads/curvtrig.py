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
"""

from __future__ import annotations

import math

import numpy as np

SERIES_CUT = 1e-8


class Dual:
    """First-order dual number a + b*eps with eps^2 = 0.

    Parts are duck-typed: floats normally, complex when a table entry
    carries the imaginary curvature scale of the positive-lam regime.  The
    eps part may be a numpy array of tangents, one per direction: every
    operation is elementwise in eps, so one chain carries all directions
    and each component equals the scalar chain bit for bit.
    """

    __slots__ = ("re", "eps")

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


sin = _lift(math.sin, math.cos)
cos = _lift(math.cos, lambda t: -math.sin(t))
sinh = _lift(math.sinh, math.cosh)
cosh = _lift(math.cosh, math.sinh)
asin = _lift(math.asin, lambda t: 1.0 / math.sqrt(1.0 - t * t))
asinh = _lift(math.asinh, lambda t: 1.0 / math.sqrt(1.0 + t * t))
atan = _lift(math.atan, lambda t: 1.0 / (1.0 + t * t))
atanh = _lift(math.atanh, lambda t: 1.0 / (1.0 - t * t))
sqrt = _lift(math.sqrt, lambda t: 0.5 / math.sqrt(t))


def eta_of(lam: float):
    """The curvature scale with eta^2 = -lam: real for lam <= 0, imaginary above."""
    if lam <= 0:
        return math.sqrt(-lam)
    return 1j * math.sqrt(lam)


def _small(lam, x) -> bool:
    return abs(re_part(lam)) * re_part(x) ** 2 < SERIES_CUT


def ct(lam, x):
    if _small(lam, x):
        x2 = x * x
        return 1.0 + lam * x2 * (1.0 / 2 + lam * x2 * (1.0 / 24 + lam * x2 * (1.0 / 720)))
    if re_part(lam) > 0:
        return cosh(sqrt(lam) * x)
    return cos(sqrt(-lam) * x)


def st(lam, x):
    if _small(lam, x):
        x2 = x * x
        return x * (1.0 + lam * x2 * (1.0 / 6 + lam * x2 * (1.0 / 120 + lam * x2 * (1.0 / 5040))))
    if re_part(lam) > 0:
        rt = sqrt(lam)
        return sinh(rt * x) / rt
    rt = sqrt(-lam)
    return sin(rt * x) / rt


def ch(lam, x):
    if _small(lam, x):
        x2 = x * x
        return 1.0 - lam * x2 * (1.0 / 2 - lam * x2 * (1.0 / 24 - lam * x2 * (1.0 / 720)))
    if re_part(lam) > 0:
        return cos(sqrt(lam) * x)
    return cosh(sqrt(-lam) * x)


def sh(lam, x):
    if _small(lam, x):
        x2 = x * x
        return x * (1.0 - lam * x2 * (1.0 / 6 - lam * x2 * (1.0 / 120 - lam * x2 * (1.0 / 5040))))
    if re_part(lam) > 0:
        rt = sqrt(lam)
        return sin(rt * x) / rt
    rt = sqrt(-lam)
    return sinh(rt * x) / rt


def tn(lam, x):
    """st/ct, the curved tangent of the time direction."""
    return st(lam, x) / ct(lam, x)


def sh_inv(lam, y):
    """Inverse of sh in the principal chart; ValueError when out of domain."""
    if _small(lam, y):
        y2 = y * y
        return y * (1.0 + lam * y2 * (1.0 / 6 + lam * y2 * (3.0 / 40)))
    if re_part(lam) > 0:
        rt = sqrt(lam)
        u = rt * y
        if abs(re_part(u)) > 1.0:
            raise ValueError("sh_inv argument outside [-1/sqrt(lam), 1/sqrt(lam)]")
        return asin(u) / rt
    rt = sqrt(-lam)
    return asinh(rt * y) / rt


def tn_inv(lam, t):
    """Inverse of tn in the principal chart; ValueError when out of domain."""
    if _small(lam, t):
        t2 = t * t
        return t * (1.0 + lam * t2 * (1.0 / 3 + lam * t2 * (1.0 / 5)))
    if re_part(lam) > 0:
        rt = sqrt(lam)
        u = rt * t
        if abs(re_part(u)) >= 1.0:
            raise ValueError("tn_inv argument outside the principal chart")
        return atanh(u) / rt
    rt = sqrt(-lam)
    return atan(rt * t) / rt
