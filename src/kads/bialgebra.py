"""Bivectors, trivectors, cocommutators and the Yang-Baxter machinery.

Wedge normalization: ``a ^ b = a (x) b - b (x) a`` with no 1/2, so a
bivector is stored as a sparse map ``(i, j) with i < j -> coeff`` and a
trivector as ``(i, j, k) strictly increasing -> coeff``.  The sparse
loops on a LieAlgebra are generic over exact Scalar or float/complex
coefficients.  The ``*_dense`` kernels compute the cocommutator, its dual
Jacobi residual and the Yang-Baxter residual from an ndarray, the dense
table ``f[k, i, j]`` and the skew matrix of r; the table's type, not its
coefficients, picks the kernel.  Only the dense kernels import numpy, when
they run, so the loops load none.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .liealg import (LieAlgebra, coeff_norm, components_norm, is_exact,
                     jacobi_residual_dense, jacobi_residual_sparse, permuted_triples,
                     require_closed, subalgebra_dense)
from .scalars import accumulate

if TYPE_CHECKING:
    import numpy as np


class NotAntisymmetric(ValueError):
    """A tensor expected to be totally antisymmetric is not.

    ``residual`` is the size of the offending float entry (inf when not
    measured): round-off at large scales, a bug otherwise.
    """

    def __init__(self, message: str, residual: float = math.inf):
        super().__init__(message)
        self.residual = residual


SKEW_TOL = 1e-9  # float antisymmetry tolerance of the Schouten tensor


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

    def matrix(self, dim: int) -> np.ndarray:
        """The skew dim x dim matrix R with R[i, j] = c and R[j, i] = -c."""
        import numpy as np

        dtype = complex if any(isinstance(c, complex) for c in self.components.values()) else float
        mat = np.zeros((dim, dim), dtype=dtype)
        for i, j, c in self.entries_signed():
            mat[i, j] = c
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bivector):
            return NotImplemented
        return not (self - other).components

    __hash__ = None


def cocommutator_of(g: LieAlgebra, r: Bivector, m: int) -> Bivector:
    """delta(T_m) = [T_m (x) 1 + 1 (x) T_m, r] in the wedge basis."""
    store: dict = {}
    for (i, j), c in r.components.items():
        for k, cb in g.bracket_basis(m, i):
            _wedge2(store, k, j, c * cb)
        for k, cb in g.bracket_basis(m, j):
            _wedge2(store, i, k, c * cb)
    b = Bivector()
    b.components = store
    return b


def cocommutator(g: LieAlgebra, r: Bivector) -> dict:
    """delta(T_m) for every generator m: a map index -> Bivector."""
    return {m: cocommutator_of(g, r, m) for m in range(g.dim)}


def schouten(g: LieAlgebra, r: Bivector) -> dict:
    """[[r, r]] as a trivector, the map (i, j, k) -> c over strictly
    increasing indices; raises if the raw tensor is not antisymmetric.

    Of the three terms [r12, r13], [r12, r23] and [r13, r23], only the first,
    X[m, j, l] = sum r[i, j] r[k, l] f[m; i, k], is summed, over the entry
    pairs whose bracket [T_i, T_k] is nonzero.  For a skew r the other two
    are leg relabelings of it, so [[r, r]][a, b, c] = X[a, b, c] - X[b, a, c]
    + X[c, a, b].  The tests keep the three-term sum as an oracle.
    """
    by_first: dict = {}
    for i, j, c in r.entries_signed():
        by_first.setdefault(i, []).append((j, c))
    x: dict = {}
    for (i, k), bracket in g._signed.items():
        left, right = by_first.get(i), by_first.get(k)
        if not (left and right):
            continue
        for j, c1 in left:
            for l, c2 in right:
                c = c1 * c2
                for m, cb in bracket:
                    accumulate(x, (m, j, l), c * cb)
    full: dict = {}
    for (a, b, c3), v in x.items():
        accumulate(full, (a, b, c3), v)
        accumulate(full, (b, a, c3), -v)
        accumulate(full, (b, c3, a), v)
    exact = all(is_exact(c) for c in full.values())
    out: dict = {}
    for (a, b, c3), v in full.items():
        if a == b or b == c3 or a == c3:
            if exact or coeff_norm(v) > SKEW_TOL:
                raise NotAntisymmetric(f"repeated-index component {(a, b, c3)} = {v}")
            continue
        if a < b < c3:
            out[(a, b, c3)] = v
    # verify the six permutations agree (sign-adjusted)
    for (a, b, c3), v in out.items():
        neg = -v
        for perm, sign in _SIGN3.items():
            key = tuple((a, b, c3)[p] for p in perm)
            got = full.get(key)
            ref = v if sign == 1 else neg
            if got is None or (got != ref if exact else coeff_norm(got - ref) > SKEW_TOL):
                raise NotAntisymmetric(f"component {key} breaks antisymmetry")
    return out


def mcybe_residual_components(g: LieAlgebra, r: Bivector) -> list:
    """All ad-invariance residual components of [[r, r]] over all generators:
    ad_m [[r, r]] = [T_m (x) 1 (x) 1 + 1 (x) T_m (x) 1 + 1 (x) 1 (x) T_m, [[r, r]]]
    for m = 0, 1, ..., each in wedge order.

    One pass over the trivector feeds every generator from the algebra's
    ad columns; each generator's components are summed in the order of the
    per-generator action (trivector entry, then leg, then bracket term),
    so float sums are the same too.
    """
    cols = g.ad_columns
    stores = [{} for _ in range(g.dim)]
    for (i, j, k), c in schouten(g, r).items():
        for leg, (x, y) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
            # n takes the place of leg: the sign of sorting n into x < y,
            # odd for the middle leg
            odd = leg == j
            for m, bracket in cols[leg]:
                store = stores[m]
                for n, cb in bracket:
                    v = c * cb
                    if n == x or n == y or not v:
                        continue
                    if n < x:
                        key, flip = (n, x, y), odd
                    elif n < y:
                        key, flip = (x, n, y), not odd
                    else:
                        key, flip = (x, y, n), odd
                    cur = store.get(key)
                    s = (-v if flip else v) if cur is None else cur + (-v if flip else v)
                    if s:
                        store[key] = s
                    else:
                        store.pop(key, None)
    return [v for store in stores for v in store.values()]


def cocommutator_dense(f: np.ndarray, rmat: np.ndarray) -> np.ndarray:
    """delta of every generator as one (d, d, d) tensor, from the dense table and R.

    D[m, a, b] = sum_i f[a, m, i] R[i, b] - (a <-> b) is the skew matrix of
    :func:`cocommutator_of` at m.  In the kinematical algebras ad_m sends
    each generator to a multiple of one generator, so an entry is the
    difference of at most two products, each the product the sparse loop
    forms: D equals the sparse cocommutator exactly.
    """
    import numpy as np

    half = np.einsum("ami,ib->mab", f, rmat)
    return half - half.transpose(0, 2, 1)


def schouten_dense(f: np.ndarray, rmat: np.ndarray) -> np.ndarray:
    """[[r, r]] as the full (d, d, d) tensor, from the dense table and a skew R.

    One matmul gives the term [r12, r13] of :func:`schouten`,
    T = R.T@f@R; for a skew R the terms [r12, r23] and [r13, r23] are
    -T.transpose(1, 0, 2) and T.transpose(1, 2, 0), products of bitwise
    negated or equal operands, so t = T - T.transpose(1, 0, 2) +
    T.transpose(1, 2, 0) equals the three-term sum bit for bit.  An R that
    is not skew (a NaN may face a NaN) raises NotAntisymmetric, as do the
    1e-9 checks on t.  f multiplies the products R[i, j] * R[k, l],
    as in the sparse loop, so terms that cancel for a skew R cancel exactly:
    evaluated as (R.T@f)@R, the repeated-index entries of the curved
    r-matrices exceed 1e-9 by round-off alone at |lambda| = 1e9.
    """
    import numpy as np

    # a skew R equals -R.T entrywise unless a NaN faces a NaN
    if not (rmat == -rmat.T).all() and not np.array_equal(rmat, -rmat.T, equal_nan=True):
        raise NotAntisymmetric("the r-matrix is not skew",
                               float(np.max(np.abs(rmat + rmat.T))))
    dim = f.shape[0]
    flat = f.reshape(dim, dim * dim)
    # [(i, k), (j, l)] = R[i, j] * R[k, l]: row i with each entry repeated,
    # times row k repeated whole, broadcast over (i, k)
    rows = rmat[:, None, :].repeat(dim, axis=1).reshape(1, dim, dim * dim)
    square = (rmat.repeat(dim, axis=1)[:, None] * rows).reshape(dim * dim, dim * dim)
    term = (flat @ square).reshape(dim, dim, dim)
    t = term - term.transpose(1, 0, 2) + term.transpose(1, 2, 0)
    repeated, keys, flat_keys = _skew_checks(dim)
    bad = np.abs(t.take(repeated)) > SKEW_TOL
    if bad.any():
        pos = repeated[int(np.argmax(bad))]
        key = tuple(int(k) for k in np.unravel_index(pos, t.shape))
        raise NotAntisymmetric(f"repeated-index component {key} = {t[key]}",
                               float(abs(t[key])))
    # every permutation of each i < j < k against the signed sorted entry
    perm_vals = t.take(flat_keys)
    dev = np.abs(perm_vals - _signs() * perm_vals[0])
    bad = dev > SKEW_TOL
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise NotAntisymmetric(
            f"component {tuple(int(k[col]) for k in keys)} breaks antisymmetry",
            float(dev.flat[col]))
    return t


_PERMS = tuple(_SIGN3)  # identity first


@functools.cache
def _signs() -> np.ndarray:
    """The sign of each permutation of _PERMS, as a column."""
    import numpy as np

    return np.array([[_SIGN3[p]] for p in _PERMS])


@functools.cache
def _repeated_index_mask(dim: int) -> np.ndarray:
    import numpy as np

    i, j, k = np.indices((dim,) * 3)
    return (i == j) | (j == k) | (i == k)


@functools.cache
def _skew_checks(dim: int) -> tuple:
    """Flat positions of the repeated-index entries of a (dim,)*3 tensor, in
    C order; the index arrays of every permutation of each i < j < k
    (``permuted_triples`` over _PERMS); and their flat positions, one row
    per permutation."""
    import numpy as np

    keys = permuted_triples(dim, _PERMS)
    flat_keys = np.ravel_multi_index(keys, (dim,) * 3).reshape(len(_PERMS), -1)
    return np.flatnonzero(_repeated_index_mask(dim)), keys, flat_keys


def mcybe_residual_dense(f: np.ndarray, rmat: np.ndarray):
    """Max |ad_X [[r, r]]| over generators X; integer 0 when it vanishes.

    res[m, a, b, c] sums ad_m over the three legs of t = [[r, r]].  Each leg
    is one matmul whose result is already in the index order of res: a
    single product for the first leg, a stack over (m, a) for the second
    and over m for the third.  The legs are added in place in that order,
    so every entry is the same sum of the same products as when each leg is
    contracted on a transposed copy of t (kept in the tests as an oracle).
    """
    import numpy as np

    t = schouten_dense(f, rmat)
    dim = f.shape[0]
    ad = f.transpose(1, 0, 2).reshape(dim * dim, dim)  # [(m, n), i]: n-th of [T_m, T_i]
    ad3 = ad.reshape(dim, dim, dim)
    res = (ad @ t.reshape(dim, dim * dim)).reshape((dim,) * 4)
    res += ad3[:, None] @ t[None]
    res += (t.reshape(dim * dim, dim) @ ad3.transpose(0, 2, 1)).reshape((dim,) * 4)
    return float(np.max(np.abs(res))) or 0


def mcybe_residual(g: LieAlgebra, r: Bivector):
    """Size of the ad-invariance residual of [[r, r]], by the sparse loops.

    Zero means r solves the modified classical Yang-Baxter equation.  The
    dense table takes :func:`mcybe_residual_dense`.
    """
    return components_norm(mcybe_residual_components(g, r))


def coisotropy_check(g, delta, h_indices) -> bool:
    """True iff delta(h) lands in h ^ g for the subalgebra h.

    ``g`` and ``delta`` are a LieAlgebra and its map index -> Bivector, or
    the dense table f and the tensor of :func:`cocommutator_dense`.  Either
    way a generator set that does not close raises NotSubalgebra.
    """
    if not isinstance(delta, dict):
        import numpy as np

        subalgebra_dense(g, sorted(h_indices))
        h = np.zeros(len(delta), dtype=bool)
        h[list(h_indices)] = True
        return not delta[h][:, ~h][:, :, ~h].any()
    h = set(h_indices)
    require_closed(g, sorted(h))
    for i in h:
        for (a, b) in delta[i].components:
            if a not in h and b not in h:
                return False
    return True


def dual_jacobi_residual(delta):
    """Jacobi residual of the dual bracket defined by the cocommutator.

    A dense cocommutator tensor D is itself the dual table, D[m, a, b]
    being the T_m component of [T^a, T^b].  A map index -> Bivector, of any
    coefficients and keyed by every generator, gives the dual bracket's
    signed table, which the sparse loops read.
    """
    if not isinstance(delta, dict):
        return jacobi_residual_dense(delta)
    dim = max(delta) + 1
    pairs: dict = {}
    for m, biv in delta.items():
        for key, c in biv.components.items():
            pairs.setdefault(key, []).append((m, c))
    signed: dict = {}
    for (a, b), terms in pairs.items():
        signed[(a, b)] = tuple(terms)
        signed[(b, a)] = tuple((m, -c) for m, c in terms)
    return jacobi_residual_sparse(signed, dim)
