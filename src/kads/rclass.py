"""r-matrix families: the generic ansatz, primitivity reduction, the
quadratic constraint surface, its sphere parametrization, and the rotation
bringing any solution to canonical form.

The symbolic route works in the exact Scalar ring with the curvature kept
as ``Lambda = -eta^2``; the numeric route (sampling, canonicalization)
works with floats through the same generic tensor code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bialgebra import Bivector, cocommutator, mcybe_residual, mcybe_residual_components
from .liealg import DIM, IDX, BasisRotation, LieAlgebra, ads_algebra, rotate_basis
from .scalars import ONE, Frac, Scalar, make_rule, reduce_mod, sym


class ConstraintViolated(ValueError):
    """A family point off the constraint surface was passed to canonicalize."""


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
    return r_poincare(kinv) + Bivector.from_terms(
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
    relations: list = field(default_factory=list)

    def at(self, values: dict) -> Bivector:
        r = self.const
        for p in self.params:
            c = values.get(p, 0)
            if c:
                r = r + self.directions[p].scale(c)
        return r


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


def _clear_denominators(entries: dict) -> dict:
    """Turn a vector of Fracs into Scalars: multiply by the lcm of the
    (reduced) denominators."""
    dens = [f.den for f in entries.values() if f.den != ONE]
    if not dens:
        return {k: f.num for k, f in entries.items()}
    lcm = ONE
    for d in dens:
        lcm = lcm * Frac(lcm, d).den  # lcm * d / gcd(lcm, d)
    # f.den divides lcm, so Frac(lcm, f.den) is the polynomial lcm / f.den
    return {k: f.num * Frac(lcm, f.den).num for k, f in entries.items()}


def impose_primitivity(fam: RFamily, g: LieAlgebra, x_index: int) -> RFamily:
    """Solve delta(T_x) = 0, linear in the family parameters, exactly.

    Returns the reduced family: the affine solution set re-parametrized by
    fresh parameters t0, t1, ... (directions with polynomial entries).
    """
    delta_const = cocommutator(g, fam.const)[x_index]
    delta_dirs = {p: cocommutator(g, fam.directions[p])[x_index] for p in fam.params}

    keys = set(delta_const.components)
    for d in delta_dirs.values():
        keys.update(d.components)
    keys = sorted(keys)

    # rows: one per wedge component; columns: family parameters
    rows = []
    for key in keys:
        row = {}
        for p in fam.params:
            c = delta_dirs[p].components.get(key)
            if c is not None and not (isinstance(c, Scalar) and c.is_zero()):
                row[p] = Frac.of(c)
        rhs = delta_const.components.get(key)
        rows.append((row, Frac.of(-rhs) if rhs is not None else Frac.of(0)))

    # Gauss-Jordan over the fraction field of the Scalar ring
    pivots = {}  # col -> row index
    reduced = []
    for row, rhs in rows:
        row = dict(row)
        for col, ri in pivots.items():
            c = row.pop(col, None)
            if c is None or c.is_zero():
                continue
            prow, prhs = reduced[ri]
            for k, v in prow.items():
                cur = row.get(k, Frac.of(0)) - c * v
                if cur.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = cur
            rhs = rhs - c * prhs
        row = {k: v for k, v in row.items() if not v.is_zero()}
        if not row:
            if not rhs.is_zero():
                raise ConstraintViolated("primitivity system is inconsistent")
            continue
        pcol = sorted(row)[0]
        pval = row.pop(pcol)
        row = {k: v / pval for k, v in row.items()}
        rhs = rhs / pval
        # back-substitute into previous rows
        for i, (prow, prhs) in enumerate(reduced):
            c = prow.pop(pcol, None)
            if c is None or c.is_zero():
                continue
            for k, v in row.items():
                cur = prow.get(k, Frac.of(0)) - c * v
                if cur.is_zero():
                    prow.pop(k, None)
                else:
                    prow[k] = cur
            reduced[i] = (prow, prhs - c * rhs)
        pivots[pcol] = len(reduced)
        reduced.append((row, rhs))

    free_cols = [p for p in fam.params if p not in pivots]

    # particular solution (nonzero only when the constant part is constrained)
    particular = {p: Frac.of(0) for p in fam.params}
    for col, ri in pivots.items():
        particular[col] = reduced[ri][1]

    new_const = fam.const
    for p in fam.params:
        sol = particular[p]
        if sol.is_zero():
            continue
        if sol.den != Scalar.rational(1):
            raise ValueError("particular solution is not polynomial; "
                             "re-parametrize the family constant")
        new_const = new_const + fam.directions[p].scale(sol.num)

    params = []
    directions = {}
    for n, fc in enumerate(free_cols):
        vec = {p: Frac.of(0) for p in fam.params}
        vec[fc] = Frac.of(1)
        for col, ri in pivots.items():
            coeff = reduced[ri][0].get(fc)
            if coeff is not None:
                vec[col] = -coeff
        vec = _clear_denominators(vec)
        direction = Bivector()
        for p, c in vec.items():
            if not c.is_zero():
                direction = direction + fam.directions[p].scale(c)
        name = f"t{n}"
        params.append(name)
        directions[name] = direction
    return RFamily(const=new_const, params=params, directions=directions,
                   relations=list(fam.relations))


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


def constraint_residuals(alpha=None, beta=None, kinv=None, eta=None) -> list:
    """Distinct normalized components of the Yang-Baxter residual of the family.

    Defaults to fully formal parameters.  The returned polynomials generate
    the constraint ideal (up to factors of the deformation scales, which
    are stripped by the normalization).
    """
    if alpha is None:
        alpha = (sym("alpha1"), sym("alpha2"), sym("alpha3"))
    if beta is None:
        beta = (sym("beta1"), sym("beta2"), sym("beta3"))
    if kinv is None:
        kinv = sym("kinv")
    if eta is None:
        eta = sym("eta")
    if not all(isinstance(v, Scalar) for v in (*alpha, *beta, kinv, eta)):
        raise TypeError("constraint_residuals is symbolic; use "
                        "numeric_family_residual for float points")
    g = ads_algebra(-(eta ** 2))
    r = family_r(alpha, beta, kinv)
    comps = mcybe_residual_components(g, r)
    seen = {}
    for c in comps:
        if isinstance(c, Scalar) and not c.is_zero():
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


def numeric_family_residual(alpha, beta, kinv: float, lam: float) -> float:
    """Float Yang-Baxter residual of the family at a numeric point."""
    g = ads_algebra(float(lam))
    r = family_r(tuple(float(a) for a in alpha), tuple(float(b) for b in beta),
                 float(kinv))
    return mcybe_residual(g, r)


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


def rotate_bivector(rot: BasisRotation, r: Bivector) -> Bivector:
    """Push a bivector through a basis automorphism (legs mapped by columns)."""
    out = Bivector()
    for (i, j), c in r.components.items():
        ei = rot.generator_image(i)
        ej = rot.generator_image(j)
        for a, ma in enumerate(ei):
            if ma == 0 or (isinstance(ma, Scalar) and ma.is_zero()):
                continue
            for b, mb in enumerate(ej):
                if mb == 0 or (isinstance(mb, Scalar) and mb.is_zero()):
                    continue
                out = out + Bivector.from_terms((a, b, c * ma * mb))
    return out


def require_on_surface(alpha, beta, kinv: float, lam: float, tol: float = 1e-9) -> float:
    """Raise ConstraintViolated unless the point solves the quadratic relations."""
    resid = numeric_family_residual(alpha, beta, kinv, lam)
    if resid > tol:
        raise ConstraintViolated(f"sample violates the constraint surface: {resid}")
    return resid


def canonicalize(theta: float, phi: float, twist: float, kinv: float,
                 lam: float = -1.0, tol: float = 1e-9):
    """Rotate a constraint-surface sample to the canonical r-matrix.

    The sample is alpha = R n(theta, phi), beta = twist * n(theta, phi)
    with R = eta * kinv.  Returns (rotated bivector, expected canonical
    bivector, transcript).  The expected twist parameter is -twist.
    """
    if lam >= 0:
        raise ValueError("canonicalization sampling expects lam < 0 (real eta)")
    eta = math.sqrt(-lam)
    radius = eta * kinv
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    alpha = (radius * st * cp, -radius * st * sp, radius * ct)
    beta = (twist * st * cp, -twist * st * sp, twist * ct)

    resid = require_on_surface(alpha, beta, kinv, lam, tol)

    if theta == 0.0:
        r3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    else:
        # column-convention pushforward moves the axial vector by the matrix
        # itself, and rows (u, v, n) send n to the third axis
        r3 = rotation_to_pole(theta, phi)
    g_num = ads_algebra(float(lam))
    rot = rotate_basis(g_num, r3)
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
