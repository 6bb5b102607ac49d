"""Bivectors, trivectors, cocommutators and the Yang-Baxter machinery.

Wedge normalization: ``a ^ b = a (x) b - b (x) a`` with no 1/2, so a
bivector is stored as a sparse map ``(i, j) with i < j -> coeff`` and a
trivector as ``(i, j, k) strictly increasing -> coeff``.  Everything is
generic over exact Scalar or float/complex coefficients.
"""

from __future__ import annotations

import json

from .liealg import (LieAlgebra, coeff_norm, components_norm, is_exact,
                     jacobi_residual, subalgebra)
from .scalars import Scalar, accumulate


class NotAntisymmetric(ValueError):
    """A tensor expected to be totally antisymmetric is not (a bug)."""


def _wedge2(store: dict, i: int, j: int, c):
    if i == j or not c:
        return
    if i < j:
        accumulate(store, (i, j), c)
    else:
        accumulate(store, (j, i), -c)


_SIGN3 = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (1, 0, 2): -1, (2, 1, 0): -1,
}


def _wedge3(store: dict, i: int, j: int, k: int, c):
    if i == j or j == k or i == k or not c:
        return
    order = sorted(((i, 0), (j, 1), (k, 2)))
    key = tuple(t[0] for t in order)
    perm = tuple(t[1] for t in order)
    accumulate(store, key, c if _SIGN3[perm] == 1 else -c)


class Bivector:
    """Element of the exterior square of the algebra."""

    def __init__(self, components: dict | None = None):
        self.components = {}
        if components:
            for (i, j), c in components.items():
                _wedge2(self.components, i, j, c)

    @classmethod
    def from_terms(cls, *terms) -> "Bivector":
        """terms: (i, j, coeff) triples, any index order."""
        out = cls()
        for i, j, c in terms:
            _wedge2(out.components, i, j, c)
        return out

    def entries_signed(self):
        """Yield (i, j, c) over both index orders (full antisymmetric matrix)."""
        for (i, j), c in self.components.items():
            yield i, j, c
            yield j, i, -c

    def __add__(self, other: "Bivector") -> "Bivector":
        out = dict(self.components)
        for (i, j), c in other.components.items():
            accumulate(out, (i, j), c)
        b = Bivector()
        b.components = out
        return b

    def __sub__(self, other: "Bivector") -> "Bivector":
        return self + other.scale(-1)

    def scale(self, c) -> "Bivector":
        b = Bivector()
        for key, v in self.components.items():
            s = v * c
            if s:
                b.components[key] = s
        return b

    def norm(self):
        return components_norm(self.components.values())

    def eval_numeric(self, values: dict) -> "Bivector":
        b = Bivector()
        for key, c in self.components.items():
            v = c.eval_numeric(values) if isinstance(c, Scalar) else c
            if v:
                b.components[key] = v
        return b

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bivector):
            return NotImplemented
        return not (self - other).components

    __hash__ = None

    def to_json(self, labels) -> dict:
        return {f"{labels[i]}^{labels[j]}": str(c)
                for (i, j), c in sorted(self.components.items())}


class Trivector:
    """Element of the exterior cube; canonical strictly increasing indices."""

    def __init__(self, components: dict | None = None):
        self.components = dict(components) if components else {}

    def norm(self):
        return components_norm(self.components.values())


def cocommutator(g: LieAlgebra, r: Bivector) -> dict:
    """delta(T_m) = [T_m (x) 1 + 1 (x) T_m, r] for every generator m.

    Returns a map generator index -> Bivector in the wedge basis.
    """
    table = {}
    for m in range(g.dim):
        store: dict = {}
        for (i, j), c in r.components.items():
            for k, cb in g.bracket_basis(m, i):
                _wedge2(store, k, j, c * cb)
            for k, cb in g.bracket_basis(m, j):
                _wedge2(store, i, k, c * cb)
        b = Bivector()
        b.components = store
        table[m] = b
    return table


def schouten(g: LieAlgebra, r: Bivector) -> Trivector:
    """[[r, r]] as a trivector; raises if the raw tensor is not antisymmetric."""
    entries = list(r.entries_signed())
    full: dict = {}
    for i, j, c1 in entries:
        for k, l, c2 in entries:
            c = c1 * c2
            for m, cb in g.bracket_basis(i, k):
                accumulate(full, (m, j, l), c * cb)   # [r12, r13]
            for m, cb in g.bracket_basis(j, k):
                accumulate(full, (i, m, l), c * cb)   # [r12, r23]
            for m, cb in g.bracket_basis(j, l):
                accumulate(full, (i, k, m), c * cb)   # [r13, r23]
    tol = 0 if all(is_exact(c) for c in full.values()) else 1e-9
    out: dict = {}
    for (a, b, c3), v in full.items():
        if a == b or b == c3 or a == c3:
            if coeff_norm(v) > tol:
                raise NotAntisymmetric(f"repeated-index component {(a, b, c3)} = {v}")
            continue
        if a < b < c3:
            out[(a, b, c3)] = v
    # verify the six permutations agree (sign-adjusted)
    for (a, b, c3), v in out.items():
        for perm, sign in _SIGN3.items():
            key = tuple((a, b, c3)[p] for p in perm)
            got = full.get(key)
            ref = v if sign == 1 else -v
            if got is None or coeff_norm(got - ref) > tol:
                raise NotAntisymmetric(f"component {key} breaks antisymmetry")
    return Trivector(out)


def ad_action_trivector(g: LieAlgebra, t: Trivector, m: int) -> Trivector:
    """[T_m (x) 1 (x) 1 + 1 (x) T_m (x) 1 + 1 (x) 1 (x) T_m, t]."""
    store: dict = {}
    for (i, j, k), c in t.components.items():
        for n, cb in g.bracket_basis(m, i):
            _wedge3(store, n, j, k, c * cb)
        for n, cb in g.bracket_basis(m, j):
            _wedge3(store, i, n, k, c * cb)
        for n, cb in g.bracket_basis(m, k):
            _wedge3(store, i, j, n, c * cb)
    return Trivector(store)


def mcybe_residual_components(g: LieAlgebra, r: Bivector) -> list:
    """All ad-invariance residual components of [[r, r]] over all generators."""
    t = schouten(g, r)
    comps = []
    for m in range(g.dim):
        comps.extend(ad_action_trivector(g, t, m).components.values())
    return comps


def mcybe_residual(g: LieAlgebra, r: Bivector):
    """Size of the ad-invariance residual of [[r, r]].

    Zero means r solves the modified classical Yang-Baxter equation.
    """
    return components_norm(mcybe_residual_components(g, r))


def coisotropy_check(g: LieAlgebra, delta: dict, h_indices) -> bool:
    """True iff delta(h) lands in h ^ g for the subalgebra h."""
    h = set(h_indices)
    subalgebra(g, sorted(h))  # raises NotSubalgebra when brackets leave h
    for i in h:
        for (a, b) in delta[i].components:
            if a not in h and b not in h:
                return False
    return True


def dual_jacobi_residual(delta: dict, dim: int | None = None):
    """Jacobi residual of the dual bracket defined by the cocommutator."""
    if dim is None:
        dim = max(delta) + 1
    pairs: dict = {}
    for m, biv in delta.items():
        for (a, b), c in biv.components.items():
            pairs.setdefault((a, b), []).append((m, c))
    structure = {key: tuple(terms) for key, terms in pairs.items()}
    dual = LieAlgebra(structure, dim=dim, labels=[f"e{i}" for i in range(dim)])
    return jacobi_residual(dual)


def cocommutator_table_json(delta: dict, labels) -> str:
    out = {}
    for m in sorted(delta):
        out[labels[m]] = delta[m].to_json(labels)
    return json.dumps(out, sort_keys=True, indent=1)
