"""The 10-dimensional kinematical Lie algebra family and basis rotations.

Generators are ordered ``P0, P1, P2, P3, K1, K2, K3, J1, J2, J3`` (time
translation, space translations, boosts, rotations); the indices 0..9 are
stable across the whole package.  Structure constants live in a sparse map
``(i, j) with i < j -> [(k, coeff), ...]``; coefficients are exact
:class:`~kads.scalars.Scalar` values or plain floats, and every routine
here is generic over that choice.  The float checks run instead on the
dense table ``f[k, i, j]`` (``[T_i, T_j] = sum_k f[k, i, j] T_k``) of
:func:`ads_tensor`, an ndarray: the table's type picks the kernel, so a
LieAlgebra always takes the sparse loops, which the tests use as the
float oracle.  Only the ndarray kernels import numpy, when they run, so a
LieAlgebra of either kind loads none.  A basis rotation
(:func:`rotate_basis`) is a float 10x10 matrix checked on the dense table.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from .scalars import Scalar

if TYPE_CHECKING:
    import numpy as np

BASIS = ("P0", "P1", "P2", "P3", "K1", "K2", "K3", "J1", "J2", "J3")
DIM = len(BASIS)
IDX = {name: i for i, name in enumerate(BASIS)}

_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}


class NotSubalgebra(ValueError):
    """The given generator set does not close under the bracket."""


class NotOrthogonal(ValueError):
    """A rotation matrix failed the orthogonality check."""


def is_exact(c) -> bool:
    return isinstance(c, (Scalar, int, Fraction))


def coeff_norm(c) -> float | int:
    """Residual size: 1/0 for exact coefficients, |c| for floats."""
    if isinstance(c, Scalar):
        return 0 if c.is_zero() else 1
    if isinstance(c, (int, Fraction)):
        return 0 if c == 0 else 1
    return abs(c)


def worst_of(a, b):
    """The larger residual, where NaN is the largest: a NaN must fail its check."""
    return a if a != a or a >= b else b


def components_norm(values) -> float | int:
    """Count of nonzero entries (exact) or max |entry| (numeric, NaN wins)."""
    vals = list(values)
    if not vals:
        return 0
    if all(is_exact(v) for v in vals):
        return sum(1 for v in vals if v)
    return functools.reduce(worst_of, (float(coeff_norm(v)) for v in vals))


class LieAlgebra:
    """Structure-constant table, immutable after construction."""

    def __init__(self, structure: dict, dim: int = DIM, labels=BASIS):
        table = {}
        signed = {}
        for (i, j), terms in structure.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad index pair {(i, j)}")
            kept = tuple((k, c) for k, c in terms if c)
            if kept:
                table[(i, j)] = kept
                signed[(i, j)] = kept
                signed[(j, i)] = tuple((k, -c) for k, c in kept)
        self._set_tables(table, signed, dim, labels)

    def _set_tables(self, structure: dict, signed: dict, dim: int = DIM, labels=BASIS):
        """Adopt a checked table without zero terms and its signed form."""
        self.dim = dim
        self.labels = tuple(labels)
        self.structure = structure
        self._signed = signed

    def bracket_basis(self, i: int, j: int) -> tuple:
        """[T_i, T_j] as a tuple of (k, coeff), any index order."""
        return self._signed.get((i, j), ())

    @functools.cached_property
    def ad_columns(self) -> tuple:
        """For each generator i, the pairs (m, [T_m, T_i]) with a nonzero
        bracket, in the order of m: the ad action on one tensor leg."""
        signed = self._signed
        return tuple(tuple((m, signed[(m, i)]) for m in range(self.dim) if (m, i) in signed)
                     for i in range(self.dim))


def ads_algebra(lam) -> LieAlgebra:
    """Kinematical algebra with cosmological constant ``lam``.

    ``lam`` may be an exact Scalar (or int/Fraction) or a float; the zero
    value gives the flat-spacetime algebra.  The coefficients are those of
    :func:`_ads_template` at this ``lam``, with its keys and term order.
    """
    if isinstance(lam, (int, Fraction)):
        lam = Scalar.rational(lam)
    one = Scalar.rational(1) if isinstance(lam, Scalar) else 1.0
    recipes, template = _ads_template()
    value = {rc: _coefficient(rc, one, lam) for rc in recipes}
    made: dict = {}  # terms -> their coefficients, zero ones dropped

    def kept(terms):
        out = made.get(terms)
        if out is None:
            out = made[terms] = tuple((k, value[rc]) for k, rc in terms if value[rc])
        return out

    structure: dict = {}
    signed: dict = {}
    for key, reverse, terms, negated in template:
        row = kept(terms)
        if row:
            structure[key] = signed[key] = row
            signed[reverse] = kept(negated)
    g = LieAlgebra.__new__(LieAlgebra)
    g._set_tables(structure, signed)
    return g


# A coefficient recipe (s, base, negations) stands for the value
# -...-(s * base) with that many negations, or for base itself when s is
# None; base is "one" or "lam".  Recording the operations, not only the
# value, keeps the bits of every float (the sign of a NaN lam included).


def _coefficient(recipe: tuple, one, lam):
    s, base, negations = recipe
    c = one if base == "one" else lam
    if s is not None:
        c = s * c
    for _ in range(negations):
        c = -c
    return c


def _negated(recipe: tuple) -> tuple:
    s, base, negations = recipe
    return s, base, negations + 1


@functools.cache
def _ads_template() -> tuple:
    """The brackets of the kinematical algebras with coefficients left as
    recipes in 1 and lambda, built once per process: every recipe and its
    negation, and per bracket in table order ((i, j), (j, i), ((k, recipe),
    ...), the same terms negated)."""
    structure: dict = {}

    def put(a: str, b: str, *terms):
        i, j = IDX[a], IDX[b]
        if i > j:
            i, j = j, i
            terms = [(k, _negated(c)) for k, c in terms]
        structure[(i, j)] = structure.get((i, j), ()) + tuple(
            (IDX[k], c) for k, c in terms)

    for (a, b, c), s in _EPS.items():
        # mixed brackets run over every ordered index pair
        put(f"J{a}", f"P{b}", (f"P{c}", (s, "one", 0)))
        put(f"J{a}", f"K{b}", (f"K{c}", (s, "one", 0)))
        if a < b:
            put(f"J{a}", f"J{b}", (f"J{c}", (s, "one", 0)))
            put(f"K{a}", f"K{b}", (f"J{c}", (s, "one", 1)))
            put(f"P{a}", f"P{b}", (f"J{c}", (s, "lam", 0)))
    for a in (1, 2, 3):
        put(f"K{a}", "P0", (f"P{a}", (None, "one", 0)))
        put(f"K{a}", f"P{a}", ("P0", (None, "one", 0)))
        put("P0", f"P{a}", (f"K{a}", (None, "lam", 1)))
    used = {rc for terms in structure.values() for _, rc in terms}
    recipes = tuple(sorted(used | {_negated(rc) for rc in used}, key=repr))
    return recipes, tuple(((i, j), (j, i), terms, tuple((k, _negated(rc)) for k, rc in terms))
                          for (i, j), terms in structure.items())


def ads_tensor(lam: float) -> np.ndarray:
    """The dense table f[k, i, j] of ``ads_algebra(lam)`` without building it.

    The table is affine in lam, so f = f(0) + lam * (f(1) - f(0)); the
    entries are 0, +-1 or +-lam, so for a finite lam this equals the
    algebra's table exactly (at an infinite or NaN lam, lam * 0 is NaN and
    no entry stays finite).  Each call returns a new array.
    """
    flat, curved = _ads_pencil()
    return flat + lam * curved


@functools.cache
def _ads_pencil():
    """f(0) and f(1) - f(0), read-only: the terms of :func:`_ads_template`
    in 1 and in lambda, at lambda = 1."""
    import numpy as np

    flat, curved = np.zeros((DIM,) * 3), np.zeros((DIM,) * 3)
    for ij, ji, terms, negated in _ads_template()[1]:
        for (i, j), row in ((ij, terms), (ji, negated)):
            for k, rc in row:
                (curved if rc[1] == "lam" else flat)[k, i, j] = _coefficient(rc, 1.0, 1.0)
    flat.flags.writeable = curved.flags.writeable = False
    return flat, curved


CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@functools.cache
def permuted_triples(dim: int, perms: tuple) -> tuple:
    """Index arrays (a, b, c) over every i < j < k < dim, taken in the
    order of each permutation p of perms in turn: a = (i, j, k)[p[0]], ..."""
    import numpy as np

    rows = np.array(list(combinations(range(dim), 3)), dtype=int).reshape(-1, 3).T
    return tuple(np.concatenate([rows[p[axis]] for p in perms]) for axis in range(3))


@functools.cache
def _cyclic_triples_by_last(dim: int) -> tuple:
    """``permuted_triples(dim, CYCLIC)`` grouped by c: (a, b) as (dim, K)
    arrays, row c holding the triples that end in c, and the positions that
    put the grouped triples back in their cyclic order."""
    import numpy as np

    a, b, c = permuted_triples(dim, CYCLIC)
    order = np.argsort(c, kind="stable")
    plan = a[order].reshape(dim, -1), b[order].reshape(dim, -1), np.argsort(order)
    for x in plan:
        x.flags.writeable = False
    return plan


def jacobi_residual_dense(f: np.ndarray):
    """Max |[[T_i,T_j],T_k] + cyclic| over i < j < k from the dense table.

    Like :func:`jacobi_residual_sparse` it returns integer 0 when no double
    bracket of three distinct generators has a term, and a float otherwise.
    """
    import numpy as np

    dim = f.shape[0]
    a, b, back = _cyclic_triples_by_last(dim)
    outer = f[:, a, b]  # [m, c, s]: component m of [T_a, T_b], s-th triple ending in c
    if not ((outer != 0) & (f != 0).any(axis=0)[:, :, None]).any():
        return 0
    # not a matrix product: its fused multiply-adds leave the rounding error
    # of one of two cancelling products (1e-8 in the dual algebras at
    # |lambda| ~ 1e6); einsum rounds each product as the sparse loop does.
    # Grouped by c, each group contracts the one slice f[:, :, c], read
    # from a contiguous (c, n, m) copy of f.
    nested = np.einsum("mcs,cnm->ncs", outer, f.transpose(2, 0, 1).copy())
    jac = nested.reshape(dim, -1)[:, back].reshape(dim, len(CYCLIC), -1).sum(axis=1)
    return float(np.max(np.abs(jac)))


def jacobi_residual_sparse(g, dim: int | None = None):
    """The Jacobi residual by loops over the sparse table, any coefficients.

    ``g`` is a LieAlgebra, or a signed table {(i, j): ((k, c), ...)} over
    both index orders, without zero terms, of a bracket on ``dim``
    generators.  A triple whose three outer brackets are all zero has no
    double bracket and is skipped; the others accumulate in the order
    (i, j, k), (j, k, i), (k, i, j), so float sums do not depend on the
    skipping.
    """
    signed, dim = (g._signed, g.dim) if isinstance(g, LieAlgebra) else (g, dim)
    worst: list = []
    for i in range(dim):
        for j in range(i + 1, dim):
            ij = signed.get((i, j))
            for k in range(j + 1, dim):
                jk, ki = signed.get((j, k)), signed.get((k, i))
                if not (ij or jk or ki):
                    continue
                acc: dict = {}
                for outer, c in ((ij, k), (jk, i), (ki, j)):
                    for m, cab in outer or ():
                        for n, cmc in signed.get((m, c), ()):
                            cur = acc.get(n)
                            term = cab * cmc
                            acc[n] = term if cur is None else cur + term
                worst.extend(acc.values())
    return components_norm(worst) if worst else 0


def require_closed(g: LieAlgebra, indices) -> None:
    """Raise NotSubalgebra, naming the first bracket of two of the generators
    (in the given order) that leaves their span."""
    indices = list(indices)
    inside = set(indices)
    for a, gi in enumerate(indices):
        for gj in indices[a + 1:]:
            if any(k not in inside for k, _ in g.bracket_basis(gi, gj)):
                raise NotSubalgebra(f"[{g.labels[gi]},{g.labels[gj]}] leaves the span")


def subalgebra(g: LieAlgebra, indices) -> LieAlgebra:
    """Restrict to a generator subset; raises NotSubalgebra if not closed."""
    indices = list(indices)
    require_closed(g, indices)
    pos = {gi: p for p, gi in enumerate(indices)}
    structure = {}
    for a, gi in enumerate(indices):
        for b in range(a + 1, len(indices)):
            terms = tuple((pos[k], c) for k, c in g.bracket_basis(gi, indices[b]))
            if terms:
                structure[(a, b)] = terms
    return LieAlgebra(structure, dim=len(indices),
                      labels=[g.labels[i] for i in indices])


def subalgebra_dense(f: np.ndarray, indices) -> np.ndarray:
    """The dense table of a generator subset; raises NotSubalgebra if a
    bracket of two of them has a component outside the subset."""
    import numpy as np

    indices = list(indices)
    sub = f[:, indices][:, :, indices]  # [k, a, b]: every k, a and b in the subset
    outside = np.ones(len(f), dtype=bool)
    outside[indices] = False
    leaks = sub[outside].any(axis=0)
    if leaks.any():
        a, b = np.argwhere(np.triu(leaks | leaks.T))[0]
        raise NotSubalgebra(f"[{BASIS[indices[a]]},{BASIS[indices[b]]}] leaves the span")
    return sub[indices]


ROTATION_TOL = 1e-12  # float orthogonality and automorphism tolerance


def rotate_basis(f: np.ndarray, r3) -> list:
    """Lift a 3x3 rotation to the basis automorphism (P0 fixed) of the
    dense table ``f`` of :func:`ads_tensor`.

    Each of (P, K, J) is rotated by ``r3``, taken in floats.  Returns the
    10x10 matrix M as nested float lists: the generator map reads off
    columns, phi(T_j) = sum_i M[i][j] T_i, so rotate(R2) after rotate(R1)
    equals rotate(R2 R1).  Orthogonality and the automorphism property,
    one contraction of ``f``, are checked to ``ROTATION_TOL``; a NaN or
    infinite deviation fails either check.
    """
    import numpy as np

    r3 = [[float(e) for e in row] for row in r3]
    for a in range(3):
        for b in range(3):
            dot = sum(r3[a][i] * r3[b][i] for i in range(3))
            if not abs(dot - (1.0 if a == b else 0.0)) <= ROTATION_TOL:
                raise NotOrthogonal(f"R^T R != I at entry {(a, b)}")

    m = [[0.0] * DIM for _ in range(DIM)]
    m[0][0] = 1.0
    for block in (1, 4, 7):  # P, K, J triples
        for a in range(3):
            for b in range(3):
                m[block + a][block + b] = r3[a][b]

    # automorphism check: [phi(Ti), phi(Tj)] == phi([Ti, Tj])
    mat = np.array(m)
    dev = np.abs(mat.T @ f @ mat - np.tensordot(mat, f, axes=(1, 0)))
    bad = np.argwhere(np.triu((~(dev <= ROTATION_TOL)).any(axis=0), 1))
    if len(bad):
        i, j = bad[0]
        raise NotOrthogonal(f"rotation is not an automorphism at [{BASIS[i]},{BASIS[j]}]")
    return m
