"""Concrete group geometry: the 5x5 vector representation, ordered
exponential group elements, ambient/local coordinate charts, the metric,
and invariant vector fields via dual-number differentiation.

Ambient coordinates are ordered ``(s4, s0, s1, s2, s3)`` to match the
matrix rows/columns; the bilinear form is ``diag(1, -lam, lam, lam, lam)``.

Every generator T acts on one coordinate 2-plane and squares to a scalar
s there, so its one-parameter subgroup has the closed form
``exp(cT) = ct(s, c) I + st(s, c) T`` on that plane (identity off it); a
group element is ten such two-column updates, with no matrix exponential.
Derivatives are forward-mode duals whose ``eps`` holds one tangent per
generator, so one chain per side serves every invariant field.

The group elements, charts and metrics take a batch: coordinates as 1-D
arrays of N points, group elements as an (N, 5, 5) stack.  A float
coordinate or a single 5x5 matrix is one point and gives the per-point
result.  The invariant-field derivatives take a stack only and return
one (n, 10, N) array, d[mu, i, k] = X_i x^mu at matrix k.  The named
errors are raised when any point of the batch fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curvtrig
from .curvtrig import (Dual, NumericOverflow, any_of, ch, ct, eps_part, sh, sh_inv, st,
                       tn_inv)


class ChartBoundary(ValueError):
    """A point left the principal coordinate chart."""


class OffPseudosphere(ValueError):
    """Ambient coordinates do not satisfy the quadric constraint."""


class OutOfChart(ValueError):
    """Ambient point is outside the invertible chart (e.g. s4 <= 0)."""


@dataclass(frozen=True)
class GroupPoint:
    """Local coordinates (x0, x, xi, th) and the cosmological constant.

    Each coordinate is a float, or a 1-D array of N points for a batch.
    """

    x: tuple            # (x0, x1, x2, x3)
    xi: tuple = (0.0, 0.0, 0.0)
    th: tuple = (0.0, 0.0, 0.0)
    lam: float = 0.0

    def coords(self) -> tuple:
        return tuple(self.x) + tuple(self.xi) + tuple(self.th)


def bilinear_form(lam: float) -> np.ndarray:
    return np.diag([1.0, -lam, lam, lam, lam])


def _planes(lam: float) -> tuple:
    """(p, q, a, b) per generator T_i of the 5-dim vector representation:
    T_i e_p = a e_q, T_i e_q = b e_p and T_i vanishes on the other basis
    vectors, so T_i^2 = a*b on span(e_p, e_q)."""
    return ((0, 1, 1.0, lam),                                        # P0
            (0, 2, 1.0, -lam), (0, 3, 1.0, -lam), (0, 4, 1.0, -lam),  # Pa
            (1, 2, 1.0, 1.0), (1, 3, 1.0, 1.0), (1, 4, 1.0, 1.0),     # Ka
            (3, 4, 1.0, -1.0), (2, 4, -1.0, 1.0), (2, 3, 1.0, -1.0))  # Ja


def group_element(p: GroupPoint) -> np.ndarray:
    """Ordered product of the ten one-parameter subgroups, in closed form:
    a 5x5 matrix, or an (N, 5, 5) stack for a batch.

    Order: time translation, space translations, boosts, rotations.  Each
    factor ct(ab, c) I + st(ab, c) T_i rewrites the two columns of its plane;
    a factor whose coordinate is 0 at every point is skipped (at a single
    such point it is the identity, exactly).
    """
    if any_of(np.abs(p.x) * math.sqrt(abs(p.lam)) > 50.0):
        raise NumericOverflow("translation coordinate too large for exp")
    if any_of(np.abs(p.xi) > 50.0):
        raise NumericOverflow("boost coordinate too large for exp")
    coords = p.coords()
    shape = np.broadcast_shapes(*map(np.shape, coords))
    m = np.multiply.outer(np.eye(5), np.ones(shape))  # m[r, k] holds the N points
    for (i, j, a, b), c in zip(_planes(p.lam), coords):
        if any_of(c):
            cc, sc = ct(a * b, c), st(a * b, c)
            sa, sb = sc * a, sc * b
            u, v = m[:, i], m[:, j]
            m[:, i], m[:, j] = cc * u + sa * v, cc * v + sb * u
    return np.moveaxis(m, (0, 1), (-2, -1))


def isometry_residual(m: np.ndarray, lam: float):
    """max |m^T B m - B| per group element (a float, or N of them)."""
    bf = bilinear_form(lam)
    return np.max(np.abs(np.swapaxes(m, -1, -2) @ bf @ m - bf), axis=(-2, -1))


def _chart_check(x, lam: float):
    bound = 0.5 * math.pi
    if lam < 0:
        if any_of(abs(curvtrig.re_part(x[0])) * math.sqrt(-lam) >= bound):
            raise ChartBoundary("time coordinate outside the principal chart")
    elif lam > 0:
        root = math.sqrt(lam)
        for c in x[1:]:
            if any_of(abs(curvtrig.re_part(c)) * root >= bound):
                raise ChartBoundary("space coordinate outside the principal chart")


def ambient_from_local(x, lam: float):
    """(s4, s0, s1, s2, s3) from geodesic parallel coordinates.

    Accepts floats or Dual components.
    """
    _chart_check(x, lam)
    x0, x1, x2, x3 = x
    c1, c2, c3 = ch(lam, x1), ch(lam, x2), ch(lam, x3)
    return (
        ct(lam, x0) * c1 * c2 * c3,
        st(lam, x0) * c1 * c2 * c3,
        sh(lam, x1) * c2 * c3,
        sh(lam, x2) * c3,
        sh(lam, x3),
    )


def pseudosphere_residual(s, lam: float):
    s4, s0, s1, s2, s3 = s
    return s4 * s4 - lam * s0 * s0 + lam * (s1 * s1 + s2 * s2 + s3 * s3) - 1.0


def local_from_ambient(s, lam: float, check: bool = True):
    """Invert the chart (x3 -> x2 -> x1 -> x0); accepts Dual components."""
    s4, s0, s1, s2, s3 = s
    if check:
        if any_of(abs(curvtrig.re_part(pseudosphere_residual(s, lam))) > 1e-8):
            raise OffPseudosphere("ambient point misses the quadric")
    if any_of(curvtrig.re_part(s4) <= 0.0):
        raise OutOfChart("s4 <= 0 is outside the principal chart")
    try:
        x3 = sh_inv(lam, s3)
        c3 = ch(lam, x3)
        x2 = sh_inv(lam, s2 / c3)
        c2 = ch(lam, x2)
        x1 = sh_inv(lam, s1 / (c2 * c3))
        x0 = tn_inv(lam, s0 / s4)
    except ValueError as exc:
        raise OutOfChart(str(exc)) from None
    return (x0, x1, x2, x3)


def metric_at(x, lam: float) -> np.ndarray:
    """diag(c1^2 c2^2 c3^2, -c2^2 c3^2, -c3^2, -1) in local coordinates:
    4x4, or (N, 4, 4) for a batch."""
    _chart_check(x, lam)
    c1, c2, c3 = ch(lam, x[1]), ch(lam, x[2]), ch(lam, x[3])
    diag = ((c1 * c2 * c3) ** 2, -((c2 * c3) ** 2), -(c3 ** 2), -1.0)
    out = np.zeros(np.shape(c1) + (4, 4))
    for mu, d in enumerate(diag):
        out[..., mu, mu] = d
    return out


def ambient_jacobian(x, lam: float) -> np.ndarray:
    """5x4 Jacobian of ambient_from_local (N x 5 x 4 for a batch), by one
    forward-mode dual pass."""
    x = np.asarray(x, dtype=float)                            # (4,) or (4, N)
    seeds = np.eye(4).reshape((4, 4) + (1,) * (x.ndim - 1))  # seeds[mu] = d/dx^mu
    s = ambient_from_local([Dual(c, seed) for c, seed in zip(x, seeds)], lam)
    jac = np.array([np.broadcast_to(eps_part(v), x.shape) for v in s])  # (5, 4[, N])
    return np.moveaxis(jac, -1, 0) if x.ndim == 2 else jac


def metric_pullback(x, lam: float) -> np.ndarray:
    """Pull the ambient flat metric back through the chart map: 4x4, or
    (N, 4, 4) for a batch.

    The ambient metric is the bilinear form divided by the curvature -lam;
    at lam = 0 the degenerate first row drops out exactly.  Where -1/lam
    overflows (|lam| below 1/DBL_MAX) the flat form is used as well: the
    term it leaves out is of order lam |x|^2.
    """
    jac = ambient_jacobian(x, lam)
    first = -1.0 / float(lam) if lam != 0.0 else 0.0
    amb = np.diag([0.0 if math.isinf(first) else first, 1.0, -1.0, -1.0, -1.0])
    return np.swapaxes(jac, -1, -2) @ amb @ jac


# -- invariant vector fields ---------------------------------------------------


def _tangents(m: np.ndarray, lam: float, side: str) -> np.ndarray:
    """tan[r, i, n]: d/dt at t = 0 of entry r of the first column of
    m[n] exp(t T_i) (side "L") or exp(t T_i) m[n] (side "R"), for every
    generator i in plane order and a stack m of shape (N, 5, 5).

    Every entry is a single product, so it equals the matrix product bit
    for bit.
    """
    planes = _planes(lam)
    out = np.zeros((5, len(planes), len(m)))
    for i, (p, q, a, b) in enumerate(planes):
        if side == "L":
            if p == 0:  # T_i e_0 = a e_q; the Lorentz generators fix e_0
                out[:, i] = m[:, :, q].T * a
        else:
            out[q, i] = a * m[:, p, 0]
            out[p, i] = b * m[:, q, 0]
    return out


def _coset_duals(m: np.ndarray, lam: float, side: str) -> tuple:
    """The four coset coordinates of a stack m as duals; eps[i] is the
    derivative along the field of T_i."""
    tan = _tangents(m, lam, side)
    col = tuple(Dual(m[:, r, 0], tan[r]) for r in range(5))
    return local_from_ambient(col, lam, check=False)


def coset_derivatives(m: np.ndarray, lam: float, side: str) -> np.ndarray:
    """d[mu, i, k] = X_i x^mu at matrix k of an (N, 5, 5) stack: a
    (4, 10, N) array, from one dual chain over all points."""
    return np.array([np.broadcast_to(eps_part(c), (10, len(m)))
                     for c in _coset_duals(m, lam, side)])


def ambient_derivatives(m: np.ndarray, lam: float, side: str) -> np.ndarray:
    """d[A, i, k] = X_i s^A at matrix k of an (N, 5, 5) stack: a
    (5, 10, N) array."""
    return _tangents(m, lam, side)
