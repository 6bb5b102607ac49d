"""Curvature trig primitives and forward-mode dual numbers.

The four primitives are real-analytic functions of the cosmological
constant ``lam`` (they depend on the curvature scale only through
``eta^2 = -lam``), so all group numerics stay real for either sign:

    ct(lam, x) = cos(eta x)        = sum lam^n x^(2n) / (2n)!
    st(lam, x) = sin(eta x) / eta  = sum lam^n x^(2n+1) / (2n+1)!
    ch(lam, x) = cosh(eta x)       = sum (-lam)^n x^(2n) / (2n)!
    sh(lam, x) = sinh(eta x) / eta = sum (-lam)^n x^(2n+1) / (2n+1)!

At lam == 0 (-0.0 included) every primitive returns its exact flat value,
1 for ct and ch, the argument itself for st, sh and the inverses.  At every
other lam it evaluates the closed form through the sqrt(|lam|) scaling,
which keeps full relative accuracy however small |lam| x^2 is: there is no
cancellation to avoid, down to the smallest subnormal lam.  The lifted
elementary functions below make every primitive work on :class:`Dual`
arguments.  Identities ct^2 - lam*st^2 = 1 and ch^2 + lam*sh^2 = 1.

Every primitive takes ``x`` as a float, a 1-D array of N points, or a
:class:`Dual` whose ``re`` has shape (N,) and whose ``eps`` has shape
(k, N) (tangent-major, so ``re * eps`` broadcasts); a batch takes the same
arithmetic as each of its points alone.  ``lam`` is a float.  A hyperbolic
argument |eta x| past ``EXP_ARG_MAX`` raises :class:`NumericOverflow`
rather than returning inf.
"""

from __future__ import annotations

import math

import numpy as np

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


def _const_like(v, c):
    return np.full_like(v, c) if isinstance(v, np.ndarray) else c


def _branch(lam: float, x, closed, odd: bool):
    """closed(lam, x) at every lam != 0.  At lam == 0 (-0.0 included) the
    exact flat value in the argument's shape and type: x itself when the
    primitive is odd, else 1 (with derivative 0 for a Dual)."""
    if lam != 0:
        return closed(lam, x)
    if odd:
        return x
    if isinstance(x, Dual):
        return Dual(_const_like(x.re, 1.0), _const_like(x.eps, 0.0))
    return _const_like(x, 1.0)


def _check_exp(u):
    """NumericOverflow where cosh or sinh of u would overflow."""
    if any_of(abs(re_part(u)) > EXP_ARG_MAX):
        raise NumericOverflow(f"curvature argument |eta x| past {EXP_ARG_MAX} "
                              "overflows cosh and sinh")


def _ch_closed(lam, x):
    u = math.sqrt(abs(lam)) * x
    if lam > 0:
        return cos(u)
    _check_exp(u)
    return cosh(u)


def _sh_closed(lam, x):
    rt = math.sqrt(abs(lam))
    u = rt * x
    if lam > 0:
        return sin(u) / rt
    _check_exp(u)
    return sinh(u) / rt


def ct(lam: float, x):
    """ch(-lam, x), bit for bit: the closed forms coincide."""
    return _branch(-lam, x, _ch_closed, False)


def st(lam: float, x):
    """sh(-lam, x), bit for bit, as for ct."""
    return _branch(-lam, x, _sh_closed, True)


def ch(lam: float, x):
    return _branch(lam, x, _ch_closed, False)


def sh(lam: float, x):
    return _branch(lam, x, _sh_closed, True)


def tn(lam: float, x):
    """st/ct, the curved tangent of the time direction."""
    return st(lam, x) / ct(lam, x)


def _sh_inv_closed(lam, y):
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
    return _branch(lam, y, _sh_inv_closed, True)


def _tn_inv_closed(lam, t):
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
    return _branch(lam, t, _tn_inv_closed, True)
