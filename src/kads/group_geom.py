"""Concrete group geometry: the 5x5 vector representation, ordered
exponential group elements, ambient/local coordinate charts, the metric,
and invariant vector fields via dual-number differentiation.

Ambient coordinates are ordered ``(s4, s0, s1, s2, s3)`` to match the
matrix rows/columns; the bilinear form is ``diag(1, -lam, lam, lam, lam)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import curvtrig
from .curvtrig import Dual, ch, ct, sh, sh_inv, st, tn_inv
from .liealg import DIM


class ChartBoundary(ValueError):
    """A point left the principal coordinate chart."""


class OffPseudosphere(ValueError):
    """Ambient coordinates do not satisfy the quadric constraint."""


class OutOfChart(ValueError):
    """Ambient point is outside the invertible chart (e.g. s4 <= 0)."""


class NumericOverflow(OverflowError):
    """Coordinates large enough to overflow the exponentials."""


@dataclass(frozen=True)
class GroupPoint:
    """Local coordinates (x0, x, xi, th) and the cosmological constant."""

    x: tuple            # (x0, x1, x2, x3)
    xi: tuple = (0.0, 0.0, 0.0)
    th: tuple = (0.0, 0.0, 0.0)
    lam: float = 0.0

    def coords(self) -> tuple:
        return tuple(self.x) + tuple(self.xi) + tuple(self.th)


def bilinear_form(lam: float) -> np.ndarray:
    return np.diag([1.0, -lam, lam, lam, lam])


def vector_rep(coeffs, lam: float) -> np.ndarray:
    """Matrix of x0 P0 + xa Pa + xia Ka + tha Ja in the 5-dim representation."""
    x0, x1, x2, x3, k1, k2, k3, j1, j2, j3 = (float(c) for c in coeffs)
    return np.array([
        [0.0, lam * x0, -lam * x1, -lam * x2, -lam * x3],
        [x0, 0.0, k1, k2, k3],
        [x1, k1, 0.0, -j3, j2],
        [x2, k2, j3, 0.0, -j1],
        [x3, k3, -j2, j1, 0.0],
    ])


def generator_matrix(i: int, lam: float) -> np.ndarray:
    coeffs = [0.0] * DIM
    coeffs[i] = 1.0
    return vector_rep(coeffs, lam)


_GEN_CACHE: dict = {}


def _gens(lam: float):
    key = float(lam)
    if key not in _GEN_CACHE:
        _GEN_CACHE[key] = [generator_matrix(i, key) for i in range(DIM)]
    return _GEN_CACHE[key]


def group_element(p: GroupPoint) -> np.ndarray:
    """Ordered product of the ten one-parameter exponentials.

    Order: time translation, space translations, boosts, rotations.
    """
    root = math.sqrt(abs(p.lam))
    for c in p.x:
        if abs(c) * root > 50.0:
            raise NumericOverflow("translation coordinate too large for exp")
    for c in p.xi:
        if abs(c) > 50.0:
            raise NumericOverflow("boost coordinate too large for exp")
    gens = _gens(p.lam)
    m = np.eye(5)
    for i, c in enumerate(p.coords()):
        if c != 0.0:
            m = m @ expm(c * gens[i])
    return m


def isometry_residual(m: np.ndarray, lam: float) -> float:
    bf = bilinear_form(lam)
    return float(np.max(np.abs(m.T @ bf @ m - bf)))


def _chart_check(x, lam: float):
    bound = 0.5 * math.pi
    if lam < 0:
        if abs(curvtrig.re_part(x[0])) * math.sqrt(-lam) >= bound:
            raise ChartBoundary("time coordinate outside the principal chart")
    elif lam > 0:
        root = math.sqrt(lam)
        for c in x[1:]:
            if abs(curvtrig.re_part(c)) * root >= bound:
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
        if abs(curvtrig.re_part(pseudosphere_residual(s, lam))) > 1e-8:
            raise OffPseudosphere("ambient point misses the quadric")
    if curvtrig.re_part(s4) <= 0.0:
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
    """diag(c1^2 c2^2 c3^2, -c2^2 c3^2, -c3^2, -1) in local coordinates."""
    _chart_check(x, lam)
    c1, c2, c3 = ch(lam, x[1]), ch(lam, x[2]), ch(lam, x[3])
    return np.diag([
        (c1 * c2 * c3) ** 2,
        -((c2 * c3) ** 2),
        -(c3 ** 2),
        -1.0,
    ])


def ambient_jacobian(x, lam: float) -> np.ndarray:
    """5x4 Jacobian of ambient_from_local, by forward-mode duals."""
    cols = []
    for mu in range(4):
        xd = [Dual(float(c), 1.0 if k == mu else 0.0) for k, c in enumerate(x)]
        s = ambient_from_local(xd, lam)
        cols.append([curvtrig.eps_part(v) for v in s])
    return np.array(cols).T


def metric_pullback(x, lam: float) -> np.ndarray:
    """Pull the ambient flat metric back through the chart map.

    The ambient metric is the bilinear form divided by the curvature -lam;
    at lam = 0 the degenerate first row drops out exactly.
    """
    jac = ambient_jacobian(x, lam)
    if lam == 0.0:
        amb = np.diag([0.0, 1.0, -1.0, -1.0, -1.0])
    else:
        amb = np.diag([-1.0 / lam, 1.0, -1.0, -1.0, -1.0])
    return jac.T @ amb @ jac


# -- invariant vector fields ---------------------------------------------------


def _tangent(m: np.ndarray, lam: float, i: int, side: str) -> np.ndarray:
    """d/dt at t = 0 of m exp(t T_i) (side "L") or exp(t T_i) m (side "R")."""
    a = _gens(lam)[i]
    return m @ a if side == "L" else a @ m


def _coset_duals(m: np.ndarray, lam: float, i: int, side: str) -> tuple:
    """The four coset coordinates as duals carrying their derivative along T_i."""
    dm = _tangent(m, lam, i, side)
    col = tuple(Dual(float(m[r, 0]), float(dm[r, 0])) for r in range(5))
    return local_from_ambient(col, lam, check=False)


def invariant_field(side: str, i: int, f, point: GroupPoint, matrix=None):
    """Derivative of f along the left- or right-invariant field of T_i.

    ``f`` is a smooth function of the four coset coordinates (it receives a
    tuple of Dual numbers).  Cross-checked in the tests against central
    finite differences.
    """
    m = group_element(point) if matrix is None else matrix
    return curvtrig.eps_part(f(_coset_duals(m, point.lam, i, side)))


def coset_derivatives(m: np.ndarray, lam: float, gens, side: str) -> dict:
    """X_i x^mu for the listed generators: map i -> length-4 list."""
    return {i: [curvtrig.eps_part(c) for c in _coset_duals(m, lam, i, side)]
            for i in gens}


def ambient_derivatives(m: np.ndarray, lam: float, gens, side: str) -> dict:
    """X_i s^A for the listed generators: map i -> length-5 list."""
    return {i: [float(v) for v in _tangent(m, lam, i, side)[:, 0]] for i in gens}
