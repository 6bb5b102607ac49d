"""Sklyanin-bracket evaluation on the group and the Poisson tables it must
reproduce (local, twisted, ambient), with their curvature expansion and
Jacobi checks.

The local and twisted tables are closed forms in the curvature trig
primitives; the ambient table is the quantum algebra's first-order Poisson
reading at (eta, kinv).  Both serve negative, zero and positive
cosmological constant (entries acquire the imaginary curvature scale eta
for lam > 0) and accept dual-number coordinates or a dual eta.  A table
evaluates all its pairs at once (``BracketTable.entries``), the local
and twisted ones from one ch and one sh per coordinate, on floats or on
coordinate arrays of N points.

A ``SampleBatch`` holds the sample points of one run, their Lorentz
partners, their one group-element stack and, built on first use, the L
and R derivatives of the coset and of the ambient coordinates along
every generator, each one (n, 10, N) array per side.  ``kads poisson``
checks all three tables on one batch: ``verify_table`` contracts the
batch's derivatives with each table's r-matrix.  ``bracket_matrix_local``
and ``bracket_matrix_ambient`` take the same route on the stack of any
group point, one point giving a stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bialgebra import Bivector
from .curvtrig import Dual, ch, eps_part, eta_of, re_part, sh
from .group_geom import (GroupPoint, ambient_derivatives, ambient_from_local,
                         coset_derivatives, group_element)
from .liealg import worst_of
from .ncalg import ambient_algebra, poisson_reading
from .scalars import UnboundParameter, eval_monomials

LOCAL_LABELS = ("x0", "x1", "x2", "x3")
AMBIENT_LABELS = ("s4", "s0", "s1", "s2", "s3")


# -- closed-form entries -------------------------------------------------------


def local_entries(x, lam, eta, kinv, vtheta=None) -> dict:
    """Every {x^i, x^j}, i < j, of the local table (the twisted table when
    ``vtheta`` is given), keyed (i, j) in ``combinations`` order, from one
    ch and one sh of each space coordinate.

    {x0, xa} is the flat-looking sector, real for either curvature sign;
    {xa, xb} is one power of eta times a real profile, parenthesized so the
    flat-limit dual derivative lands bit-exactly on the quadratic
    polynomials kinv * (x x).  The twist only touches {x0, x1} and {x0, x2}.
    """
    c1, c2, c3 = (ch(lam, v) for v in x[1:])
    s1, s2, s3 = (sh(lam, v) for v in x[1:])
    t2, t3 = s2 / c2, s3 / c3
    out = {
        (0, 1): -kinv * s1 / (c1 * c2 ** 2 * c3 ** 2),
        (0, 2): -kinv * s2 / (c2 * c3 ** 2),
        (0, 3): -kinv * s3 / c3,
        (1, 2): -(kinv * (c1 * (t3 * t3))) * eta,
        (1, 3): (kinv * (c1 * (t2 * t3))) * eta,
        (2, 3): -(kinv * (s1 * t3)) * eta,
    }
    if vtheta is not None:
        out[0, 1] = out[0, 1] - vtheta * c1 * s2 / c2
        out[0, 2] = out[0, 2] + vtheta * s1
    return out


def reading_terms(make, labels, values) -> dict:
    """The first-order Poisson reading of ``make()`` (``formal_reading``) over
    ``labels``: {(i, j): [(coefficient, letter indices)]}, with the
    coefficients evaluated at ``values`` (floats, complex numbers or duals)
    by the ring operations of ``Scalar.eval_numeric``."""
    params, pairs = _reading_monomials(make, tuple(labels))
    missing = params - set(values)
    if missing:
        raise UnboundParameter(f"unbound parameters: {sorted(missing)}")
    return {pair: [(eval_monomials(monomials, values), word) for monomials, word in terms]
            for pair, terms in pairs.items()}


@functools.cache
def _reading_monomials(make, labels: tuple) -> tuple:
    """``formal_reading(make)`` over ``labels`` with every coefficient
    unpacked, once per process: (the parameters the coefficients use,
    {(i, j): [(``Scalar.monomials``, letter indices)]})."""
    idx = {name: k for k, name in enumerate(labels)}
    reading = formal_reading(make)
    params = set().union(*(c.params() for terms in reading.values() for c in terms.values()))
    return params, {(idx[a], idx[b]): [(c.monomials(), tuple(idx[n] for n in word))
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
            self._terms = reading_terms(ambient_algebra, self.labels,
                                        {"eta": self.eta, "kinv": self.kinv})

    def entries(self, coords) -> dict:
        """Every {x^i, x^j}, i < j, keyed (i, j) in ``combinations`` order;
        a pair of the ambient table without terms is integer 0."""
        if self.name == "local":
            return local_entries(coords, self.lam, self.eta, self.kinv)
        if self.name == "twisted":
            return local_entries(coords, self.lam, self.eta, self.kinv, self.vtheta)
        if self.name == "ambient":
            return {(i, j): reading_entry(self._terms, i, j, coords)
                    for i, j in combinations(range(self.dim), 2)}
        raise KeyError(self.name)

    def entry(self, i: int, j: int, coords):
        """One {x^i, x^j} of ``entries``, antisymmetric in (i, j)."""
        if i == j:
            return 0.0
        if i > j:
            return -self.entry(j, i, coords)
        return self.entries(coords)[i, j]

    @property
    def dim(self) -> int:
        return len(self.labels)


def closed_form_local(lam: float, kinv: float) -> BracketTable:
    return BracketTable("local", LOCAL_LABELS, lam, kinv)


def closed_form_twisted(lam: float, kinv: float, vtheta: float) -> BracketTable:
    return BracketTable("twisted", LOCAL_LABELS, lam, kinv, vtheta)


def closed_form_ambient(lam: float, kinv: float) -> BracketTable:
    return BracketTable("ambient", AMBIENT_LABELS, lam, kinv)


# -- Sklyanin evaluation --------------------------------------------------------


def _outer(u, v):
    return u[:, None] * v[None]


def _contract(r: Bivector, dl: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """r^ij (XL_i u XL_j v - XR_i u XR_j v) for every pair (u, v) of the n
    functions differentiated in d[:, i] (d of shape (n, 10, N)): an exactly
    antisymmetric (n, n, N) array."""
    n, _, count = dl.shape
    total = np.zeros((n, n, count))
    for (i, j), c in r.components.items():
        total = total + c * (_outer(dl[:, i], dl[:, j]) - _outer(dl[:, j], dl[:, i])
                             - _outer(dr[:, i], dr[:, j]) + _outer(dr[:, j], dr[:, i]))
    upper = np.triu_indices(n, 1)
    out = np.zeros_like(total)
    out[upper] = total[upper]
    out[upper[::-1]] = -total[upper]
    return out


def _brackets(r: Bivector, dl: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """The contraction as N x n x n complex brackets, point-major."""
    return np.moveaxis(_contract(r, dl, dr), -1, 0).astype(complex)


def _derivatives(stack: np.ndarray, lam: float, ambient: bool) -> tuple:
    """(L, R) derivatives of the ambient or the coset coordinates along
    every generator at every matrix of an (N, 5, 5) stack."""
    fn = ambient_derivatives if ambient else coset_derivatives
    return tuple(fn(stack, lam, side) for side in "LR")


def bracket_matrix_local(r: Bivector, point: GroupPoint) -> np.ndarray:
    """All {x^mu, x^nu} at the group points of ``point``, as an N x 4 x 4
    antisymmetric array (N = 1 for a single point)."""
    return _brackets(r, *_derivatives(group_element(point).reshape(-1, 5, 5), point.lam, False))


def bracket_matrix_ambient(r: Bivector, point: GroupPoint) -> np.ndarray:
    """All {s^A, s^B} at the group points of ``point``, ambient order
    (s4, s0, s1, s2, s3): N x 5 x 5 (N = 1 for a single point)."""
    return _brackets(r, *_derivatives(group_element(point).reshape(-1, 5, 5), point.lam, True))


def sample_points(n: int, lam: float, rng) -> GroupPoint:
    """n chart-safe random group points as one batch: |x| <= 0.8/max(1, sqrt|lam|),
    with random Lorentz coordinates.  Point by point, x, xi, th are drawn
    in that order."""
    box = 0.8 / max(1.0, math.sqrt(abs(lam)))
    half = np.array([box] * 4 + [0.5] * 6)
    u = rng.uniform(-half, half, (n, 10)).T
    return GroupPoint(x=tuple(u[:4]), xi=tuple(u[4:7]), th=tuple(u[7:]), lam=lam)


def _first_worst(per_point: np.ndarray):
    """Index of the first point that reaches the largest value (a NaN wins),
    or None when every value is 0."""
    nan = np.isnan(per_point)
    if nan.any():
        return int(np.argmax(nan))
    worst = per_point.max()
    return int(np.argmax(per_point == worst)) if worst > 0 else None


class SampleBatch:
    """The sample points of one run, shared by every table it checks.

    ``samples`` points drawn from ``seed`` (``sample_points``), their
    Lorentz partners (same x, fresh xi and th, drawn after all samples) and
    one group-element stack holding both, samples first.  The L and R
    derivatives of the coset and of the ambient coordinates along every
    generator are each built once, on first use.
    """

    def __init__(self, samples: int, lam: float, seed: int = 0x5EED):
        rng = np.random.default_rng(seed)
        self.samples, self.lam, self.seed = samples, lam, seed
        self.points = pts = sample_points(samples, lam, rng)
        turn = rng.uniform(-0.5, 0.5, (samples, 6)).T
        both = GroupPoint(x=tuple(np.concatenate([c, c]) for c in pts.x),
                          xi=tuple(np.concatenate([c, t]) for c, t in zip(pts.xi, turn[:3])),
                          th=tuple(np.concatenate([c, t]) for c, t in zip(pts.th, turn[3:])),
                          lam=lam)
        self.matrix = group_element(both)
        self._derivatives = {}

    def coords(self, ambient: bool) -> tuple:
        """The samples' local coordinates, or their ambient ones read off
        the stack's first column."""
        if ambient:
            return tuple(self.matrix[:self.samples, k, 0] for k in range(5))
        return self.points.x

    def derivatives(self, ambient: bool) -> tuple:
        """(L, R) derivatives of the ambient or the coset coordinates along
        every generator, at every point of the stack."""
        if ambient not in self._derivatives:
            self._derivatives[ambient] = _derivatives(self.matrix, self.lam, ambient)
        return self._derivatives[ambient]


def verify_table(r: Bivector, table: BracketTable, batch: SampleBatch) -> dict:
    """Compare the Sklyanin bracket against a closed-form table on the
    batch's samples, and check that it does not depend on the Lorentz
    coordinates (the samples against their partners).

    One contraction of the batch's derivatives and one all-pairs table
    evaluation on the coordinate arrays.
    """
    samples = batch.samples
    ambient = table.name == "ambient"
    got = _brackets(r, *batch.derivatives(ambient))
    got, other = got[:samples], got[samples:]
    entries = table.entries(batch.coords(ambient))
    want = np.empty((len(entries), samples), complex)
    for row, v in zip(want, entries.values()):
        row[...] = v
    i, j = np.array(list(entries)).T
    dev = np.abs(got[:, i, j].T - want)  # (pairs, samples)
    per_point = dev.max(axis=0)
    k = _first_worst(per_point)
    per_pair = {f"{table.labels[i]}^{table.labels[j]}": d
                for (i, j), d in zip(entries, dev.max(axis=1).tolist())}
    return {
        "table": table.name,
        "lambda": batch.lam,
        "kinv": table.kinv,
        "vtheta": table.vtheta,
        "samples": samples,
        "seed": batch.seed,
        "max_deviation": 0.0 if k is None else float(per_point[k]),
        "worst_point": None if k is None else tuple(float(c[k])
                                                    for c in batch.points.coords()),
        "per_pair": {key: per_pair[key] for key in sorted(per_pair)},
        "lorentz_independence": float(np.max(np.abs(other - got))),
    }


# -- expansions and Jacobi -----------------------------------------------------


def eta_expansion_table(table_name: str, kinv: float, vtheta: float = 0.0) -> BracketTable:
    """The table at a dual eta = 0 + eps (so lam = -eta^2 = 0 exactly): the
    real and eps parts of each entry are its zeroth and first coefficients
    in the curvature scale."""
    labels = AMBIENT_LABELS if table_name == "ambient" else LOCAL_LABELS
    return BracketTable(table_name, labels, 0.0, kinv, vtheta, eta=Dual(0.0, 1.0))


def eta_expansion_entry(table_name: str, i: int, j: int, coords, kinv: float,
                        vtheta: float = 0.0):
    """(zeroth, first) coefficients of one entry in the curvature scale."""
    v = eta_expansion_table(table_name, kinv, vtheta).entry(i, j, coords)
    return re_part(v), eps_part(v)


def table_jacobiators(table: BracketTable, coords) -> np.ndarray:
    """{x^i,{x^j,x^k}} + cyclic for every triple i < j < k at N points
    (``coords``: one array of N values per coordinate): a (triples, N) array.

    One vector-seeded dual pass over all points gives every pair's value
    and its gradient, as the arrays val[a, mu] = {x^a, x^mu} and
    grad[b, c, mu] = d{x^b, x^c}/dx^mu.  Each cyclic term of every triple
    is sum_mu val[a, mu] * grad[b, c, mu], summed from integer 0 over mu in
    order, and each Jacobiator is 0.0 plus the three terms in cyclic order:
    the operations of a per-triple loop, so every element equals that
    loop's bit for bit (a NaN's sign aside), complex when any entry is.
    """
    n, count = table.dim, len(coords[0])
    xd = [Dual(c, e[:, None]) for c, e in zip(coords, np.eye(n))]  # eps (n, 1): d/dx^mu
    entries = table.entries(xd)
    dtype = np.result_type(0.0, *(part(v) for v in entries.values()
                                  for part in (re_part, eps_part)))
    val = np.zeros((n, n, count), dtype)
    grad = np.zeros((n, n, n, count), dtype)
    for (b, c), v in entries.items():
        re, eps = re_part(v), eps_part(v)
        val[b, c], val[c, b] = re, -re
        grad[b, c], grad[c, b] = eps, -eps  # a constant has zero gradient
    a, b, c = _cyclic_triples(n)
    terms = val[a] * grad[b, c]  # (rotation, triple, mu, N)
    total = 0
    for mu in range(n):
        total = total + terms[:, :, mu]
    return (0.0 + total[0]) + total[1] + total[2]


@functools.cache
def _cyclic_triples(n: int) -> tuple:
    """Index arrays (a, b, c), each (3, triples): row r holds the r-th
    cyclic rotation of every triple i < j < k, in ``combinations`` order."""
    ijk = np.array(list(combinations(range(n), 3))).T
    return tuple(np.stack([ijk[(s + r) % 3] for r in range(3)]) for s in range(3))


def table_jacobi_residual(table: BracketTable, samples: int, seed: int = 0x5EED) -> float:
    """Max |{x,{y,z}} + cyclic| over random points (a NaN wins)."""
    rng = np.random.default_rng(seed)
    box = 0.8 / max(1.0, math.sqrt(abs(table.lam)))
    if table.name == "ambient":
        coords = ambient_from_local(tuple(rng.uniform(-box, box, (samples, 4)).T), table.lam)
    else:
        coords = tuple(rng.uniform(-box, box, (samples, table.dim)).T)
    return worst_of(0.0, float(np.max(np.abs(table_jacobiators(table, coords)))))
