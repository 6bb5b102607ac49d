"""r-matrix families: the generic ansatz, primitivity reduction, the
quadratic constraint surface, its sphere parametrization, and the rotation
bringing any solution to canonical form.

The symbolic route works in the exact Scalar ring with the curvature kept
as ``Lambda = -eta^2``, by the sparse loops on a LieAlgebra; the numeric
route (sampling, canonicalization) works with floats on the dense table
``ads_tensor(lam)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bialgebra import (Bivector, cocommutator_of, mcybe_residual_components,
                        mcybe_residual_dense)
from .liealg import DIM, IDX, LieAlgebra, ads_algebra, ads_tensor, rotate_basis
from .scalars import ONE, Scalar, accumulate, make_rule, poly_divmod, reduce_mod, sym


class ConstraintViolated(ValueError):
    """A family point off the constraint surface was passed to canonicalize.

    ``residual`` is the point's Yang-Baxter residual (inf when not measured).
    """

    def __init__(self, message: str, residual: float = math.inf):
        super().__init__(message)
        self.residual = residual


# -- the named r-matrices -----------------------------------------------------


def r_poincare(kinv) -> Bivector:
    """kinv * (K1^P1 + K2^P2 + K3^P3)."""
    return Bivector.from_terms(
        (IDX["K1"], IDX["P1"], kinv),
        (IDX["K2"], IDX["P2"], kinv),
        (IDX["K3"], IDX["P3"], kinv),
    )


def r_poincare_twisted(kinv, vtheta) -> Bivector:
    """The flat r-matrix plus the twist term vtheta * J3^P0."""
    return r_poincare(kinv) + Bivector.from_terms((IDX["J3"], IDX["P0"], vtheta))


def r_kads(kinv, eta) -> Bivector:
    """kinv * (sum_a Ka^Pa + eta * J1^J2): the canonical curved r-matrix."""
    return r_poincare(kinv) + Bivector.from_terms((IDX["J1"], IDX["J2"], kinv * eta))


def r_kads_twisted(kinv, eta, vtheta) -> Bivector:
    return r_kads(kinv, eta) + Bivector.from_terms((IDX["J3"], IDX["P0"], vtheta))


def r_2plus1(kinv) -> Bivector:
    """kinv * (K1^P1 + K2^P2), embedded in the 10-dim basis."""
    return Bivector.from_terms(
        (IDX["K1"], IDX["P1"], kinv),
        (IDX["K2"], IDX["P2"], kinv),
    )


SUBALG_2PLUS1 = tuple(IDX[n] for n in ("P0", "P1", "P2", "K1", "K2", "J3"))
LORENTZ = tuple(IDX[n] for n in ("K1", "K2", "K3", "J1", "J2", "J3"))


def family_r(alpha, beta, kinv) -> Bivector:
    """The six-parameter family on top of the fixed boost-translation part.

    r = kinv * sum_a Ka^Pa + P0 ^ (beta . J)
        + alpha3 J1^J2 - alpha2 J1^J3 + alpha1 J2^J3
    """
    a1, a2, a3 = alpha
    b1, b2, b3 = beta
    return Bivector.from_terms(
        (IDX["K1"], IDX["P1"], kinv),
        (IDX["K2"], IDX["P2"], kinv),
        (IDX["K3"], IDX["P3"], kinv),
        (IDX["P0"], IDX["J1"], b1),
        (IDX["P0"], IDX["J2"], b2),
        (IDX["P0"], IDX["J3"], b3),
        (IDX["J1"], IDX["J2"], a3),
        (IDX["J1"], IDX["J3"], -a2),
        (IDX["J2"], IDX["J3"], a1),
    )


# -- parametric families and the primitivity reduction -------------------------


@dataclass
class RFamily:
    """Affine family const + sum_p c_p * direction_p with formal parameters c_p."""

    const: Bivector
    params: list
    directions: dict


WEDGE_PAIRS = [(i, j) for i in range(DIM) for j in range(i + 1, DIM)]


def generic_ansatz() -> RFamily:
    """Fully generic skewsymmetric ansatz: one parameter per wedge pair (45)."""
    params = []
    directions = {}
    from .liealg import BASIS
    for (i, j) in WEDGE_PAIRS:
        name = f"c_{BASIS[i]}_{BASIS[j]}"
        params.append(name)
        directions[name] = Bivector.from_terms((i, j, Scalar.rational(1)))
    return RFamily(const=Bivector(), params=params, directions=directions)


class NotPolynomial(ValueError):
    """A pivot of the primitivity system does not divide its row in the
    Scalar ring: the family's kernel needs a fraction."""


def _exact_div(p: Scalar, d: Scalar) -> Scalar:
    q, r = poly_divmod(p, d)
    if r:
        raise NotPolynomial(f"pivot {d} does not divide {p}; "
                            "re-parametrize the family")
    return q


def impose_primitivity(fam: RFamily, g: LieAlgebra, x_index: int) -> RFamily:
    """Solve delta(T_x) = 0, linear in the family parameters, exactly.

    Returns the reduced family: the affine solution set re-parametrized by
    fresh parameters t0, t1, ... (directions with polynomial entries).  The
    elimination stays in the Scalar ring: each pivot divides its row and
    right-hand side exactly, or :class:`NotPolynomial` is raised.
    """
    delta_const = cocommutator_of(g, fam.const, x_index).components

    # rows: one per wedge component; columns: family parameters, each
    # row's in the order of fam.params.  Rows and kernel vectors hold only
    # their nonzero entries, and a zero right-hand side, the one shared
    # zero, takes no part in the elimination.
    entries: dict = {}
    for p in fam.params:
        for key, c in cocommutator_of(g, fam.directions[p], x_index).components.items():
            if c:
                entries.setdefault(key, {})[p] = c
    zero = Scalar()
    rows = []
    for key in sorted(entries.keys() | delta_const.keys()):
        rhs = delta_const.get(key)
        rows.append((entries.get(key, {}), -rhs if rhs is not None else zero))

    # Gauss-Jordan in the Scalar ring.  Pivot rows hold free columns only,
    # so eliminating a pivot column from a row brings in no other: each row
    # eliminates the pivot columns it holds, in the order the pivots were
    # found.
    pivots = {}  # col -> row index
    reduced = []
    for row, rhs in rows:
        for ri, col in sorted((pivots[col], col) for col in row if col in pivots):
            c = row.pop(col)
            prow, prhs = reduced[ri]
            for k, v in prow.items():
                accumulate(row, k, -(c * v))
            if prhs:
                rhs = rhs - c * prhs
        if not row:
            if rhs:
                raise ConstraintViolated("primitivity system is inconsistent")
            continue
        pcol = min(row)
        pval = row.pop(pcol)
        row = {k: _exact_div(v, pval) for k, v in row.items()}
        if rhs:
            rhs = _exact_div(rhs, pval)
        # back-substitute into previous rows
        for i, (prow, prhs) in enumerate(reduced):
            c = prow.pop(pcol, None)
            if not c:
                continue
            for k, v in row.items():
                accumulate(prow, k, -(c * v))
            if rhs:
                reduced[i] = (prow, prhs - c * rhs)
        pivots[pcol] = len(reduced)
        reduced.append((row, rhs))

    # particular solution (nonzero only when the constant part is constrained)
    new_const = fam.const
    for p in fam.params:
        sol = reduced[pivots[p]][1] if p in pivots else zero
        if sol:
            new_const = new_const + fam.directions[p].scale(sol)

    params = []
    directions = {}
    for fc in (p for p in fam.params if p not in pivots):
        vec = {fc: ONE}
        for col, ri in pivots.items():
            coeff = reduced[ri][0].get(fc)
            if coeff is not None:
                vec[col] = -coeff
        direction = Bivector()
        for p in fam.params:
            if p in vec:
                direction = direction + fam.directions[p].scale(vec[p])
        name = f"t{len(params)}"
        params.append(name)
        directions[name] = direction
    return RFamily(const=new_const, params=params, directions=directions)


# -- the constraint surface -----------------------------------------------------


def eq_constraint_polynomials() -> list:
    """The generating set of the constraint ideal, in formal parameters."""
    a1, a2, a3 = sym("alpha1"), sym("alpha2"), sym("alpha3")
    b1, b2, b3 = sym("beta1"), sym("beta2"), sym("beta3")
    radius = sym("eta") * sym("kinv")
    return [
        b1 * a3 - b3 * a1,
        b1 * a2 - b2 * a1,
        b2 * a3 - b3 * a2,
        a1 ** 2 + a2 ** 2 + a3 ** 2 - radius ** 2,
    ]


def constraint_residuals() -> list:
    """Distinct normalized components of the Yang-Baxter residual of the
    family in fully formal parameters.

    The returned polynomials generate the constraint ideal (up to factors
    of the deformation scales, which are stripped by the normalization).
    """
    alpha = (sym("alpha1"), sym("alpha2"), sym("alpha3"))
    beta = (sym("beta1"), sym("beta2"), sym("beta3"))
    g = ads_algebra(-(sym("eta") ** 2))
    return distinct_normalized(mcybe_residual_components(g, family_r(alpha, beta, sym("kinv"))))


def distinct_normalized(components) -> list:
    """The nonzero Scalar components, one of each set equal up to sign,
    normalized and kept once per text, sorted by text."""
    # components equal up to sign normalize alike: keep the first of each
    distinct: dict = {}
    for c in components:
        if c:
            key = frozenset(c.terms.items())
            if key not in distinct and frozenset(
                    (m, -v) for m, v in c.terms.items()) not in distinct:
                distinct[key] = c
    seen = {}
    for c in distinct.values():
        n = c.normalized()
        seen.setdefault(str(n), n)
    return [seen[k] for k in sorted(seen)]


def ideal_equivalence(extracted: list, reference: list) -> dict:
    """Mutual reduction of two generating sets; both directions must vanish."""
    rules_ref = [make_rule(p) for p in reference]
    rules_ext = [make_rule(p) for p in extracted]
    fwd = [str(reduce_mod(p, rules_ref)) for p in extracted]
    bwd = [str(reduce_mod(p, rules_ext)) for p in reference]
    return {
        "extracted_mod_reference": fwd,
        "reference_mod_extracted": bwd,
        "equal": all(s == "0" for s in fwd + bwd),
    }


def sphere_param(ct, st, cp, sp, radius):
    """Point on the constraint sphere: (R st cp, -R st sp, R ct)."""
    return (radius * st * cp, -(radius * st * sp), radius * ct)


def beta_aligned(ct, st, cp, sp, t):
    """Twist vector parallel to the sphere point, with canonical size t."""
    return (t * st * cp, -(t * st * sp), t * ct)


# -- numeric sampling and canonicalization ---------------------------------------

SURFACE_TOL = 1e-9  # float Yang-Baxter residual a constraint-surface point may keep


def numeric_family_residual(alpha, beta, kinv: float, lam: float) -> float:
    """Float Yang-Baxter residual of the family at a numeric point."""
    r = family_r(tuple(float(a) for a in alpha), tuple(float(b) for b in beta),
                 float(kinv))
    return mcybe_residual_dense(ads_tensor(float(lam)), r.matrix(DIM))


def constraint_distance(alpha, beta, radius: float) -> float:
    """Euclidean distance to the nearest point of the constraint surface.

    The surface is {(R n, t n) : |n| = 1, t real}; the nearest point for
    the direction n = alpha/|alpha| is used (exact for the alpha factor).
    """
    na = math.sqrt(sum(a * a for a in alpha))
    if na == 0.0:
        unit = (0.0, 0.0, 1.0)
    else:
        unit = tuple(a / na for a in alpha)
    d_alpha2 = sum((a - radius * u) ** 2 for a, u in zip(alpha, unit))
    dot = sum(b * u for b, u in zip(beta, unit))
    d_beta2 = sum((b - dot * u) ** 2 for b, u in zip(beta, unit))
    return math.sqrt(d_alpha2 + d_beta2)


def rotation_to_pole(theta: float, phi: float):
    """Rows (u, v, n) of the rotation taking n(theta, phi) to the 3-axis."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    n = (st * cp, -st * sp, ct)
    u = (ct * cp, -ct * sp, -st)
    v = (sp, cp, 0.0)
    return [list(u), list(v), list(n)]


def rotate_bivector(m, r: Bivector) -> Bivector:
    """Push a bivector through the basis automorphism with matrix ``m``, a
    float lift from ``rotate_basis`` or an exact one: each leg T_i maps to
    its column, sum_a m[a][i] T_a, and zero entries are skipped."""
    cols = list(zip(*m))
    return Bivector.from_terms(*(
        (a, b, c * ma * mb)
        for (i, j), c in r.components.items()
        for a, ma in enumerate(cols[i]) if ma
        for b, mb in enumerate(cols[j]) if mb))


def require_on_surface(alpha, beta, kinv: float, lam: float) -> float:
    """Raise ConstraintViolated unless the point solves the quadratic
    relations; a NaN residual does not."""
    resid = numeric_family_residual(alpha, beta, kinv, lam)
    if not resid <= SURFACE_TOL:
        raise ConstraintViolated(f"sample violates the constraint surface: {resid}", resid)
    return resid


CANONICAL_LAMBDA = -1.0  # the AdS point (real eta = 1) that canonicalize samples at


def canonicalize(theta: float, phi: float, twist: float, kinv: float):
    """Rotate a constraint-surface sample at lambda = ``CANONICAL_LAMBDA``
    to the canonical r-matrix.

    The sample is alpha = R n(theta, phi), beta = twist * n(theta, phi)
    with R = eta * kinv.  Returns (rotated bivector, expected canonical
    bivector, transcript).  The expected twist parameter is -twist.
    """
    lam = CANONICAL_LAMBDA
    eta = math.sqrt(-lam)
    radius = eta * kinv
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    alpha = sphere_param(ct, st, cp, sp, radius)
    beta = beta_aligned(ct, st, cp, sp, twist)

    resid = require_on_surface(alpha, beta, kinv, lam)

    if theta == 0.0:
        r3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    else:
        # column-convention pushforward moves the axial vector by the matrix
        # itself, and rows (u, v, n) send n to the third axis
        r3 = rotation_to_pole(theta, phi)
    rot = rotate_basis(ads_tensor(lam), r3)
    rotated = rotate_bivector(rot, family_r(alpha, beta, kinv))
    expected = r_kads(kinv, eta)
    if twist:
        # rotated twist vector is t * e3, i.e. the term t * P0^J3
        expected = expected + Bivector.from_terms((IDX["P0"], IDX["J3"], twist))
    transcript = {
        "theta": theta, "phi": phi, "twist_input": twist,
        "canonical_twist": -twist, "lambda": lam, "kinv": kinv,
        "residual_before": resid,
    }
    return rotated, expected, transcript
