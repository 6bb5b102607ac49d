"""Sklyanin-bracket evaluation on the group and the Poisson tables it must
reproduce (local, twisted, ambient), together with the small generic 3D
Poisson construction and the expansion machinery.

The local and twisted tables are closed forms in the curvature trig
primitives; the ambient table is the quantum algebra's first-order Poisson
reading at (eta, kinv).  Both serve negative, zero and positive
cosmological constant (entries acquire the imaginary curvature scale eta
for lam > 0) and accept dual-number coordinates or a dual eta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bialgebra import Bivector
from .curvtrig import Dual, ch, eps_part, eta_of, re_part, sh
from .group_geom import (GroupPoint, ambient_derivatives, ambient_jacobian,
                         ambient_from_local, coset_derivatives, field_derivatives,
                         group_element)
from .liealg import worst_of
from .ncalg import ambient_algebra, poisson_reading

LOCAL_LABELS = ("x0", "x1", "x2", "x3")
AMBIENT_LABELS = ("s4", "s0", "s1", "s2", "s3")


# -- closed-form entries -------------------------------------------------------


def local_time_space(a: int, x, lam, eta, kinv):
    """{x0, xa}: the flat-looking sector, real for either curvature sign."""
    x1, x2, x3 = x[1], x[2], x[3]
    if a == 1:
        return -kinv * sh(lam, x1) / (ch(lam, x1) * ch(lam, x2) ** 2 * ch(lam, x3) ** 2)
    if a == 2:
        return -kinv * sh(lam, x2) / (ch(lam, x2) * ch(lam, x3) ** 2)
    return -kinv * sh(lam, x3) / ch(lam, x3)


def local_space_space(a: int, b: int, x, lam, eta, kinv):
    """{xa, xb} for a < b: one power of eta times a real profile.

    Parenthesized so the flat-limit dual derivative lands bit-exactly on
    the quadratic polynomials kinv * (x x).
    """
    x1, x2, x3 = x[1], x[2], x[3]
    t3 = sh(lam, x3) / ch(lam, x3)
    if (a, b) == (1, 2):
        return -(kinv * (ch(lam, x1) * (t3 * t3))) * eta
    if (a, b) == (1, 3):
        t2 = sh(lam, x2) / ch(lam, x2)
        return (kinv * (ch(lam, x1) * (t2 * t3))) * eta
    return -(kinv * (sh(lam, x1) * t3)) * eta


def twisted_time_space(a: int, x, lam, eta, kinv, vtheta):
    base = local_time_space(a, x, lam, eta, kinv)
    x1, x2 = x[1], x[2]
    if a == 1:
        return base - vtheta * ch(lam, x1) * sh(lam, x2) / ch(lam, x2)
    if a == 2:
        return base + vtheta * sh(lam, x1)
    return base


def reading_terms(reading: dict, labels, values) -> dict:
    """A first-order Poisson reading (``ncalg.poisson_reading``) over ``labels``:
    {(i, j): [(coefficient, letter indices)]}, with the coefficients
    evaluated at ``values`` (floats, complex numbers or duals) by ring operations."""
    idx = {name: k for k, name in enumerate(labels)}
    return {(idx[a], idx[b]): [(c.eval_numeric(values), tuple(idx[n] for n in word))
                               for word, c in terms.items()]
            for (a, b), terms in reading.items()}


def reading_entry(terms: dict, i: int, j: int, coords):
    """{x^i, x^j} of ``reading_terms``: sum of coefficient * letter product;
    integer 0 for a pair without terms."""
    total = 0
    for c, word in terms.get((i, j), ()):
        total = total + c * math.prod(map(coords.__getitem__, word))
    return total


@functools.cache
def formal_reading(make) -> dict:
    """``poisson_reading(make())`` with formal (eta, kinv), once per process:
    it does not depend on lambda.  Callers must not mutate it."""
    return poisson_reading(make())


@dataclass
class BracketTable:
    """Antisymmetric table of closed-form bracket evaluators."""

    name: str
    labels: tuple
    lam: float
    kinv: float
    vtheta: float = 0.0
    eta: object = None

    def __post_init__(self):
        if self.eta is None:
            self.eta = eta_of(self.lam)
        if self.name == "ambient":
            self._terms = reading_terms(formal_reading(ambient_algebra), self.labels,
                                        {"eta": self.eta, "kinv": self.kinv})

    def entry(self, i: int, j: int, coords):
        if i == j:
            return 0.0
        if i > j:
            return -self.entry(j, i, coords)
        if self.name in ("local", "twisted"):
            if i == 0:
                if self.name == "twisted":
                    return twisted_time_space(j, coords, self.lam, self.eta,
                                              self.kinv, self.vtheta)
                return local_time_space(j, coords, self.lam, self.eta, self.kinv)
            return local_space_space(i, j, coords, self.lam, self.eta, self.kinv)
        if self.name == "ambient":
            return reading_entry(self._terms, i, j, coords)
        raise KeyError(self.name)

    @property
    def dim(self) -> int:
        return len(self.labels)


def closed_form_local(lam: float, kinv: float) -> BracketTable:
    return BracketTable("local", LOCAL_LABELS, lam, kinv)


def closed_form_twisted(lam: float, kinv: float, vtheta: float) -> BracketTable:
    return BracketTable("twisted", LOCAL_LABELS, lam, kinv, vtheta)


def closed_form_ambient(lam: float, kinv: float) -> BracketTable:
    return BracketTable("ambient", AMBIENT_LABELS, lam, kinv)


def project_2plus1(table: BracketTable):
    """Pin x3 = 0: returns entry(i, j, (x0, x1, x2))."""

    def entry(i, j, coords3):
        return table.entry(i, j, (coords3[0], coords3[1], coords3[2], 0.0))

    return entry


# -- Sklyanin evaluation --------------------------------------------------------


def _support(r: Bivector) -> list:
    return sorted({i for key in r.components for i in key})


def _contract(r: Bivector, dl: dict, dr: dict, mu, nu):
    """r^ij (XL_i u XL_j v - XR_i u XR_j v) from derivative tables d[i][mu]."""
    total = 0.0
    for (i, j), c in r.components.items():
        total = total + c * (
            dl[i][mu] * dl[j][nu] - dl[j][mu] * dl[i][nu]
            - dr[i][mu] * dr[j][nu] + dr[j][mu] * dr[i][nu])
    return total


def sklyanin_bracket(r: Bivector, f, g, point: GroupPoint, matrix=None):
    """{f, g}(h) = r^ij (XL_i f XL_j g - XR_i f XR_j g) for coset functions."""
    m = group_element(point) if matrix is None else matrix
    support = _support(r)
    dl, dr = (field_derivatives(m, point.lam, support, side, (f, g)) for side in "LR")
    return _contract(r, dl, dr, 0, 1)


def _bracket_matrix(r: Bivector, point: GroupPoint, matrix, derivatives, n: int):
    """All n x n brackets of the coordinates that ``derivatives`` differentiates."""
    m = group_element(point) if matrix is None else matrix
    support = _support(r)
    dl = derivatives(m, point.lam, support, "L")
    dr = derivatives(m, point.lam, support, "R")
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            v = _contract(r, dl, dr, a, b)
            out[a, b] = v
            out[b, a] = -v
    return out


def bracket_matrix_local(r: Bivector, point: GroupPoint, matrix=None):
    """All {x^mu, x^nu} at a group point, as a 4x4 antisymmetric array."""
    return _bracket_matrix(r, point, matrix, coset_derivatives, 4)


def bracket_matrix_ambient(r: Bivector, point: GroupPoint, matrix=None):
    """All {s^A, s^B} at a group point, ambient order (s4, s0, s1, s2, s3)."""
    return _bracket_matrix(r, point, matrix, ambient_derivatives, 5)


def sample_points(n: int, lam: float, rng):
    """Chart-safe random group points: |x| <= 0.8/max(1, sqrt|lam|), with
    random Lorentz coordinates."""
    box = 0.8 / max(1.0, math.sqrt(abs(lam)))
    pts = []
    for _ in range(n):
        x = tuple(rng.uniform(-box, box) for _ in range(4))
        xi = tuple(rng.uniform(-0.5, 0.5) for _ in range(3))
        th = tuple(rng.uniform(-0.5, 0.5) for _ in range(3))
        pts.append(GroupPoint(x=x, xi=xi, th=th, lam=lam))
    return pts


def verify_table(r: Bivector, table: BracketTable, samples: int, lam: float,
                 seed: int = 0x5EED) -> dict:
    """Compare the Sklyanin bracket against a closed-form table on a grid,
    and check that it does not depend on the Lorentz coordinates."""
    rng = np.random.default_rng(seed)
    ambient = table.name == "ambient"
    pair_dev: dict = {}
    indep_dev = 0.0
    worst = 0.0
    worst_point = None
    for point in sample_points(samples, lam, rng):
        m = group_element(point)
        if ambient:
            got = bracket_matrix_ambient(r, point, matrix=m)
            coords = tuple(float(m[k, 0]) for k in range(5))
        else:
            got = bracket_matrix_local(r, point, matrix=m)
            coords = point.x
        n = table.dim
        for i in range(n):
            for j in range(i + 1, n):
                want = table.entry(i, j, coords)
                dev = abs(got[i, j] - want)
                key = f"{table.labels[i]}^{table.labels[j]}"
                pair_dev[key] = worst_of(pair_dev.get(key, 0.0), dev)
                if dev > worst or dev != dev and worst == worst:  # NaN is worst
                    worst, worst_point = dev, point.coords()
        other = GroupPoint(x=point.x,
                           xi=tuple(rng.uniform(-0.5, 0.5) for _ in range(3)),
                           th=tuple(rng.uniform(-0.5, 0.5) for _ in range(3)),
                           lam=lam)
        got2 = (bracket_matrix_ambient if ambient else bracket_matrix_local)(r, other)
        indep_dev = worst_of(indep_dev, float(np.max(np.abs(got2 - got))))
    return {
        "table": table.name,
        "lambda": lam,
        "kinv": table.kinv,
        "vtheta": table.vtheta,
        "samples": samples,
        "seed": seed,
        "max_deviation": worst,
        "worst_point": worst_point,
        "per_pair": {k: pair_dev[k] for k in sorted(pair_dev)},
        "lorentz_independence": indep_dev,
    }


# -- expansions, Jacobi, the 3D construction -------------------------------------


def eta_expansion_entry(table_name: str, i: int, j: int, coords, kinv: float,
                        vtheta: float = 0.0):
    """(zeroth, first) coefficients of the entry in the curvature scale.

    Dual-number differentiation at eta = 0 (so lam = -eta^2 = 0 exactly).
    """
    labels = AMBIENT_LABELS if table_name == "ambient" else LOCAL_LABELS
    t = BracketTable(table_name, labels, 0.0, kinv, vtheta, eta=Dual(0.0, 1.0))
    v = t.entry(i, j, coords)
    return re_part(v), eps_part(v)


def _keep(c):
    """Coordinate pass-through tolerating nested duals and exact rationals."""
    return float(c) if isinstance(c, (int, float)) else c


def _gradient(fn, x) -> list:
    """[d fn / d x^mu for each mu], one dual evaluation per coordinate.

    Integer seeds keep exact (Fraction) coordinates exact.
    """
    return [eps_part(fn(tuple(Dual(_keep(c), 1 if k == mu else 0)
                              for k, c in enumerate(x))))
            for mu in range(len(x))]


def table_jacobi_residual(table: BracketTable, samples: int, seed: int = 0x5EED) -> float:
    """Max |{x,{y,z}} + cyclic| over random points, via dual-number chains.

    One vector-seeded dual pass per pair gives its value and its gradient.
    """
    rng = np.random.default_rng(seed)
    box = 0.8 / max(1.0, math.sqrt(abs(table.lam)))
    n = table.dim
    worst = 0.0
    for _ in range(samples):
        if table.name == "ambient":
            x = tuple(rng.uniform(-box, box) for _ in range(4))
            coords = ambient_from_local(x, table.lam)
        else:
            coords = tuple(rng.uniform(-box, box) for _ in range(n))
        xd = [Dual(float(c), e) for c, e in zip(coords, np.eye(n))]
        val = [[0.0] * n for _ in range(n)]
        grad = {}
        for b, c in combinations(range(n), 2):
            v = table.entry(b, c, xd)
            val[b][c], val[c][b] = re_part(v), -re_part(v)
            grad[b, c] = np.broadcast_to(eps_part(v), n).tolist()  # a constant has zero gradient
            grad[c, b] = [-d for d in grad[b, c]]  # entry(c, b) is -entry(b, c), exactly
        for i, j, k in combinations(range(n), 3):
            total = 0.0
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                g = grad[b, c]
                total = total + sum(val[a][mu] * g[mu] for mu in range(n))
            worst = worst_of(worst, abs(total))
    return worst


class Poisson3D:
    """{x1,x2} = f dF/dx3 and cyclic; F is a Casimir by construction."""

    def __init__(self, f, casimir):
        self.f = f
        self.casimir = casimir

    def matrix(self, x) -> list:
        """All nine {x^a, x^b} at x, from one Casimir gradient and one f."""
        grad = _gradient(self.casimir, x)
        fv = self.f(x)
        v01, v12, v02 = fv * grad[2], fv * grad[0], -fv * grad[1]  # {x1,x3} = -{x3,x1}
        return [[0, v01, v02], [-v01, 0, v12], [-v02, -v12, 0]]

    def entry(self, i: int, j: int, x):
        return self.matrix(x)[i][j]

    def bracket_with(self, h, x):
        """{x^a, h} for a smooth h, evaluated at x: returns length-3 list."""
        gh = _gradient(h, x)
        mat = self.matrix(x)
        return [sum(mat[a][b] * gh[b] for b in range(3)) for a in range(3)]


def quadratic_space_poisson(eta, kinv) -> Poisson3D:
    """The curvature-deformed space sector from F = |x|^2, f = -eta*kinv*x3/2.

    Works with floats, exact Fractions or formal Scalars (division by 2
    stays exact).
    """
    return Poisson3D(lambda x: -(eta * kinv * x[2]) / 2,
                     lambda x: x[0] * x[0] + x[1] * x[1] + x[2] * x[2])


def push_local_to_ambient(table: BracketTable, x) -> np.ndarray:
    """{s^A, s^B} induced from the local table through the chart Jacobian."""
    lam = table.lam
    jac = ambient_jacobian(x, lam)
    loc = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            v = table.entry(mu, nu, x)
            loc[mu, nu] = v
            loc[nu, mu] = -v
    return jac @ loc @ jac.T
