"""Independent references that the tests check the program against.

None of this runs in a CLI suite.  Each function is a slower or more
general form of something the program computes another way: the rewrite
rules of the sphere and the trig stand-ins, the full 5x5 representation
matrices, one invariant field or one Sklyanin bracket at a time, the
generic 3D Poisson construction from a multiplier and a Casimir, the
numeric ``check-bialgebra`` report built from LieAlgebras, the dense
table of a LieAlgebra filled entry by entry, the three-term Schouten
brackets that the program builds from one term, the kinematical algebra
built bracket by bracket, the ad action of [[r, r]] one generator at a
time, the dual Jacobi residual of a dual LieAlgebra, the dense mCYBE
kernel with transposed copies of [[r, r]], the per-triple Jacobiator loop,
the Poisson readings evaluated coefficient by coefficient, and the
stdlib's JSON encoder for the reports.
"""

import json
from fractions import Fraction
from itertools import combinations

import numpy as np

from kads import bialgebra as B
from kads.bialgebra import SKEW_TOL, Bivector, NotAntisymmetric
from kads.cli import RunConfig, _check
from kads.curvtrig import Dual, eps_part, eta_of, re_part
from kads.group_geom import GroupPoint, _coset_duals, ambient_jacobian, group_element
from kads.liealg import (_EPS, DIM, IDX, LieAlgebra, ads_algebra, ads_tensor, coeff_norm,
                         is_exact, jacobi_residual_dense, jacobi_residual_sparse,
                         permuted_triples, subalgebra)
from kads.rclass import (LORENTZ, SUBALG_2PLUS1, r_2plus1, r_kads, r_kads_twisted,
                         r_poincare, r_poincare_twisted)
from kads.scalars import Scalar, accumulate, make_rule, sym
from kads.sklyanin import BracketTable, _contract, formal_reading


# -- rewrite rules -------------------------------------------------------------


def trig_rules() -> list:
    """ctheta^2 -> 1 - stheta^2 and cphi^2 -> 1 - sphi^2."""
    return [
        make_rule(sym("ctheta") ** 2 + sym("stheta") ** 2 - 1),
        make_rule(sym("cphi") ** 2 + sym("sphi") ** 2 - 1),
    ]


def sphere_rules() -> list:
    """a1^2 + a2^2 + a3^2 = R^2 oriented as a1^2 -> R^2 - a2^2 - a3^2."""
    return [make_rule(sym("a1") ** 2 + sym("a2") ** 2 + sym("a3") ** 2 - sym("R") ** 2)]


# -- the vector representation, one field or bracket at a time -----------------


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


def invariant_field(side: str, i: int, f, point: GroupPoint, matrix=None):
    """Derivative of f along the left- or right-invariant field of T_i.

    Cross-checked in the tests against central finite differences.
    """
    m = group_element(point) if matrix is None else matrix
    return eps_part(f(_coset_duals(np.reshape(m, (1, 5, 5)), point.lam, side)))[i, 0]


def sklyanin_bracket(r: Bivector, f, g, point: GroupPoint, matrix=None):
    """{f, g}(h) = r^ij (XL_i f XL_j g - XR_i f XR_j g) for coset functions."""
    m = group_element(point) if matrix is None else matrix
    stack = np.reshape(m, (1, 5, 5))

    def derivatives(side):
        coords = _coset_duals(stack, point.lam, side)
        return np.array([eps_part(h(coords)) for h in (f, g)])

    return _contract(r, derivatives("L"), derivatives("R"))[0, 1, 0]


# -- the generic 3D Poisson construction ---------------------------------------


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


# -- the numeric bialgebra report from LieAlgebras ------------------------------


def dense_table(g: LieAlgebra) -> np.ndarray:
    """f[k, i, j] of a float or complex LieAlgebra, filled from its signed
    table one term at a time."""
    coeffs = [c for terms in g.structure.values() for _, c in terms]
    f = np.zeros((g.dim,) * 3, dtype=complex if any(isinstance(c, complex) for c in coeffs)
                 else float)
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in g.bracket_basis(i, j):
                f[k, i, j] = c
    return f


def stacked(delta: dict, dim: int = DIM) -> np.ndarray:
    """A map index -> Bivector as the tensor D[m, a, b], zero where m is missing."""
    return np.array([delta[m].matrix(dim) if m in delta else np.zeros((dim, dim))
                     for m in range(dim)])


def sparse_bialgebra_report(cfg: RunConfig) -> dict:
    """``check-bialgebra`` at a numeric lambda from ads_algebra(float): the
    cocommutator maps by the sparse loops, the 2+1 and Lorentz subalgebras
    as LieAlgebras and coisotropy by the support scan of each map.  The
    residuals take the dense kernels the program takes, the mCYBE on
    ``ads_tensor(lam)`` and on the 2+1 subalgebra's table filled by
    :func:`dense_table`, dual Jacobi on each map stacked into a tensor."""
    lam, kv, vt = float(cfg.lam), float(cfg.kappa_inv), float(cfg.twist)
    eta = eta_of(lam)
    curved, flat = (ads_algebra(lam), ads_tensor(lam)), (ads_algebra(0.0), ads_tensor(0.0))
    entries = [
        ("r_flat", flat, r_poincare(kv)),
        ("r_flat_twisted", flat, r_poincare_twisted(kv, vt)),
        ("r_curved", curved, r_kads(kv, eta)),
        ("r_curved_twisted", curved, r_kads_twisted(kv, eta, vt)),
        ("r_2plus1", curved, r_2plus1(kv)),
    ]
    tol = cfg.tolerance
    checks = []
    for name, (g, f), r in entries:
        if name == "r_2plus1":
            sub = subalgebra(g, SUBALG_2PLUS1)
            remap = {gi: p for p, gi in enumerate(SUBALG_2PLUS1)}
            r_sub = Bivector({(remap[i], remap[j]): c for (i, j), c in r.components.items()})
            checks.append(_check(f"{name}.mcybe", B.mcybe_residual_dense(
                dense_table(sub), r_sub.matrix(sub.dim)), tol))
            continue
        delta = B.cocommutator(g, r)
        if cfg.inject_fault and name == "r_curved":
            delta[IDX["P0"]] = delta[IDX["P0"]] + Bivector.from_terms(
                (IDX["J1"], IDX["J2"], 1.0))
        checks.append(_check(f"{name}.mcybe", B.mcybe_residual_dense(f, r.matrix(DIM)), tol))
        checks.append(_check(f"{name}.dual_jacobi", jacobi_residual_dense(stacked(delta)), tol))
        coiso = B.coisotropy_check(g, delta, LORENTZ)
        checks.append({"name": f"{name}.coisotropy_lorentz", "residual": 0 if coiso else 1,
                       "tolerance": 0, "pass": bool(coiso)})
        checks.append(_check(f"{name}.time_translation_primitive",
                             delta[IDX["P0"]].norm(), tol))
    return {"suite": "bialgebra", "config": cfg.echo(), "checks": checks,
            "pass": all(c["pass"] for c in checks)}


# -- the Schouten bracket from all three of its terms ---------------------------


def schouten_three_terms(g, r: Bivector) -> dict:
    """[[r, r]] summing [r12, r13], [r12, r23] and [r13, r23] over every pair
    of signed entries, under the same antisymmetry checks as ``schouten``."""
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
    tol = 0 if all(is_exact(c) for c in full.values()) else SKEW_TOL
    out: dict = {}
    for (a, b, c3), v in full.items():
        if a == b or b == c3 or a == c3:
            if coeff_norm(v) > tol:
                raise NotAntisymmetric(f"repeated-index component {(a, b, c3)} = {v}")
            continue
        if a < b < c3:
            out[(a, b, c3)] = v
    for (a, b, c3), v in out.items():
        for perm, sign in B._SIGN3.items():
            key = tuple((a, b, c3)[p] for p in perm)
            got = full.get(key)
            if got is None or coeff_norm(got - (v if sign == 1 else -v)) > tol:
                raise NotAntisymmetric(f"component {key} breaks antisymmetry")
    return out


# the sign of each permutation in ``B._PERMS``, as a column against the rows
# of ``permuted_triples(dim, B._PERMS)``
PERM_SIGNS = np.array([[B._SIGN3[p]] for p in B._PERMS])


def schouten_dense_three_terms(f: np.ndarray, rmat: np.ndarray) -> np.ndarray:
    """The dense [[r, r]] as R.T@f@R + (R@f@R).transpose(1, 0, 2) +
    (R@f@R.T).transpose(1, 2, 0), each term one matmul against the products
    R[i, j] * R[k, l], under the 1e-9 antisymmetry checks and no skew test."""
    dim = f.shape[0]
    flat = f.reshape(dim, dim * dim)
    pairs = np.multiply.outer(rmat, rmat)  # [i, j, k, l] = R[i, j] * R[k, l]

    def term(a, b):
        """Contract f's two lower legs with legs a, b of R (x) R."""
        rest = [x for x in range(4) if x not in (a, b)]
        square = pairs.transpose(a, b, *rest).reshape(dim * dim, dim * dim)
        return (flat @ square).reshape(dim, dim, dim)

    t = (term(0, 2) + term(1, 2).transpose(1, 0, 2)
         + term(1, 3).transpose(1, 2, 0))
    bad = B._repeated_index_mask(dim) & (np.abs(t) > SKEW_TOL)
    if bad.any():
        key = tuple(int(k) for k in np.argwhere(bad)[0])
        raise NotAntisymmetric(f"repeated-index component {key} = {t[key]}")
    keys = permuted_triples(dim, B._PERMS)
    perm_vals = t[keys].reshape(len(B._PERMS), -1)
    if (np.abs(perm_vals - PERM_SIGNS * perm_vals[0]) > SKEW_TOL).any():
        raise NotAntisymmetric("a component breaks antisymmetry")
    return t



# -- the algebra and its certificates, one piece at a time ----------------------


def ads_algebra_by_brackets(lam) -> LieAlgebra:
    """``ads_algebra`` putting each bracket into a fresh table in turn."""
    if isinstance(lam, (int, Fraction)):
        lam = Scalar.rational(lam)
    exact = isinstance(lam, Scalar)
    one = Scalar.rational(1) if exact else 1.0
    structure: dict = {}

    def put(a: str, b: str, *terms):
        i, j = IDX[a], IDX[b]
        if i > j:
            i, j = j, i
            terms = [(k, -c) for k, c in terms]
        structure[(i, j)] = structure.get((i, j), ()) + tuple((IDX[k], c) for k, c in terms)

    for (a, b, c), s in _EPS.items():
        put(f"J{a}", f"P{b}", (f"P{c}", s * one))
        put(f"J{a}", f"K{b}", (f"K{c}", s * one))
        if a < b:
            put(f"J{a}", f"J{b}", (f"J{c}", s * one))
            put(f"K{a}", f"K{b}", (f"J{c}", -(s * one)))
            put(f"P{a}", f"P{b}", (f"J{c}", s * lam))
    for a in (1, 2, 3):
        put(f"K{a}", "P0", (f"P{a}", one))
        put(f"K{a}", f"P{a}", ("P0", one))
        put("P0", f"P{a}", (f"K{a}", -lam))
    return LieAlgebra(structure)


def _wedge3(store: dict, i: int, j: int, k: int, c):
    """Add c * T_i ^ T_j ^ T_k into a trivector's sorted components."""
    if i == j or j == k or i == k or not c:
        return
    odd = i > j
    if odd:
        i, j = j, i
    if j > k:
        j, k, odd = k, j, not odd
        if i > j:
            i, j, odd = j, i, not odd
    accumulate(store, (i, j, k), -c if odd else c)


def ad_action_trivector(g, t: dict, m: int) -> dict:
    """[T_m (x) 1 (x) 1 + 1 (x) T_m (x) 1 + 1 (x) 1 (x) T_m, t] for a
    trivector map (i, j, k) -> c."""
    store: dict = {}
    for (i, j, k), c in t.items():
        for n, cb in g.bracket_basis(m, i):
            _wedge3(store, n, j, k, c * cb)
        for n, cb in g.bracket_basis(m, j):
            _wedge3(store, i, n, k, c * cb)
        for n, cb in g.bracket_basis(m, k):
            _wedge3(store, i, j, n, c * cb)
    return store


def mcybe_components_by_generator(g, r: Bivector) -> list:
    """``mcybe_residual_components`` with one ad action per generator."""
    t = B.schouten(g, r)
    comps = []
    for m in range(g.dim):
        comps.extend(ad_action_trivector(g, t, m).values())
    return comps


def normalized_distinct(components: list) -> list:
    """``constraint_residuals``' polynomials from the mCYBE components,
    normalizing every nonzero one and keeping one per text."""
    seen = {}
    for c in components:
        if c:
            n = c.normalized()
            seen.setdefault(str(n), n)
    return [seen[k] for k in sorted(seen)]


def dual_jacobi_by_dual_algebra(delta: dict, dim: int | None = None):
    """``dual_jacobi_residual`` of a map index -> Bivector, through a dual
    LieAlgebra and its ``jacobi_residual_sparse``."""
    if dim is None:
        dim = max(delta) + 1
    pairs: dict = {}
    for m, biv in delta.items():
        for (a, b), c in biv.components.items():
            pairs.setdefault((a, b), []).append((m, c))
    structure = {key: tuple(terms) for key, terms in pairs.items()}
    return jacobi_residual_sparse(LieAlgebra(structure, dim=dim,
                                             labels=[f"e{i}" for i in range(dim)]))


def mcybe_residual_dense_by_transposes(f: np.ndarray, rmat: np.ndarray):
    """``mcybe_residual_dense`` with the skew test, the products of R and
    each ad leg formed on transposed copies, the legs summed out of place."""
    if not np.array_equal(rmat, -rmat.T, equal_nan=True):
        raise NotAntisymmetric("the r-matrix is not skew",
                               float(np.max(np.abs(rmat + rmat.T))))
    dim = f.shape[0]
    flat = f.reshape(dim, dim * dim)
    square = np.multiply.outer(rmat, rmat).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    term = (flat @ square).reshape(dim, dim, dim)
    t = term - term.transpose(1, 0, 2) + term.transpose(1, 2, 0)
    bad = B._repeated_index_mask(dim) & (np.abs(t) > SKEW_TOL)
    if bad.any():
        key = tuple(int(k) for k in np.argwhere(bad)[0])
        raise NotAntisymmetric(f"repeated-index component {key} = {t[key]}",
                               float(abs(t[key])))
    keys = permuted_triples(dim, B._PERMS)
    perm_vals = t[keys].reshape(len(B._PERMS), -1)
    dev = np.abs(perm_vals - PERM_SIGNS * perm_vals[0])
    bad = dev > SKEW_TOL
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise NotAntisymmetric(
            f"component {tuple(int(k[col]) for k in keys)} breaks antisymmetry",
            float(dev.flat[col]))
    ad = f.transpose(1, 0, 2).reshape(dim * dim, dim)

    def on_leg(leg):
        rest = [a for a in range(3) if a != leg]
        return (ad @ t.transpose(leg, *rest).reshape(dim, dim * dim)).reshape((dim,) * 4)

    res = (on_leg(0) + on_leg(1).transpose(0, 2, 1, 3)
           + on_leg(2).transpose(0, 2, 3, 1))
    return float(np.max(np.abs(res))) or 0


# -- the Sklyanin tables' per-element loops --------------------------------------


def jacobiators_by_triples(table: BracketTable, coords) -> np.ndarray:
    """``table_jacobiators`` as a loop over the triples, their cyclic terms
    and mu, each gradient broadcast to (n, N) on its own."""
    n, count = table.dim, len(coords[0])
    xd = [Dual(c, e[:, None]) for c, e in zip(coords, np.eye(n))]
    val = [[0.0] * n for _ in range(n)]
    grad = {}
    for (b, c), v in table.entries(xd).items():
        val[b][c], val[c][b] = re_part(v), -re_part(v)
        grad[b, c] = np.broadcast_to(eps_part(v), (n, count))
        grad[c, b] = -grad[b, c]
    out = []
    for i, j, k in combinations(range(n), 3):
        total = 0.0
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            g = grad[b, c]
            total = total + sum(val[a][mu] * g[mu] for mu in range(n))
        out.append(np.broadcast_to(total, (count,)))
    return np.array(out)


def reading_terms_by_eval_numeric(make, labels, values) -> dict:
    """``reading_terms`` with each coefficient evaluated by
    ``Scalar.eval_numeric``, which unpacks it on every call."""
    idx = {name: k for k, name in enumerate(labels)}
    return {(idx[a], idx[b]): [(c.eval_numeric(values), tuple(idx[n] for n in word))
                               for word, c in terms.items()]
            for (a, b), terms in formal_reading(make).items()}


# -- the report encoding ----------------------------------------------------------


def stdlib_report_text(report) -> str:
    """What ``cli.report_text`` must write, byte for byte."""
    return json.dumps(report, sort_keys=True, indent=1, default=repr)
