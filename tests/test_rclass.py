import itertools
import math

import numpy as np
import pytest
import sympy

from kads.bialgebra import (Bivector, cocommutator, cocommutator_of, mcybe_residual,
                            mcybe_residual_components)
from kads.liealg import BASIS, IDX, ads_algebra
from kads.rclass import (CANONICAL_LAMBDA, ConstraintViolated, NotPolynomial, RFamily,
                         beta_aligned, canonicalize,
                         constraint_distance, constraint_residuals, distinct_normalized,
                         eq_constraint_polynomials, family_r, generic_ansatz,
                         ideal_equivalence, impose_primitivity,
                         numeric_family_residual, r_2plus1, r_kads,
                         r_poincare, sphere_param)
from kads.scalars import Scalar, rat, reduce_mod, sym

from oracles import normalized_distinct, trig_rules
from tables import biv

eta, kinv = sym("eta"), sym("kinv")


def test_generic_ansatz_shape():
    fam = generic_ansatz()
    assert len(fam.params) == 45
    assert len({p for p in fam.params}) == 45
    assert fam.const.norm() == 0
    # every direction is an independent single wedge
    seen = set()
    for p in fam.params:
        comps = fam.directions[p].components
        assert len(comps) == 1
        seen.add(next(iter(comps)))
    assert len(seen) == 45


def test_impose_primitivity_generic_kernel():
    g = ads_algebra(sym("Lambda"))
    red = impose_primitivity(generic_ansatz(), g, IDX["P0"])
    assert len(red.params) == 15
    # every returned direction really is in the kernel, exactly
    for p in red.params:
        assert cocommutator(g, red.directions[p])[IDX["P0"]].norm() == 0
    # the six-parameter family directions all lie in the kernel
    delta = cocommutator(g, family_r((sym("alpha1"), sym("alpha2"), sym("alpha3")),
                                     (sym("beta1"), sym("beta2"), sym("beta3")),
                                     kinv))
    assert delta[IDX["P0"]].norm() == 0
    # and the kernel collapse is curvature-driven: the flat algebra keeps
    # more directions (the translation-rotation wedges decouple)
    red0 = impose_primitivity(generic_ansatz(), ads_algebra(0), IDX["P0"])
    assert len(red0.params) == 27
    for p in red0.params:
        assert cocommutator(ads_algebra(0), red0.directions[p])[IDX["P0"]].norm() == 0


# the primitivity kernels of the generic ansatz, direction by direction, as
# the dense elimination gave them (components in insertion order)
CURVED_PRIMITIVE_DIRECTIONS = (
    "P0^J1: 1", "P0^J2: 1", "P0^J3: 1",
    "P1^P2: 1, K1^K2: -Lambda", "P1^P3: 1, K1^K3: -Lambda", "P1^K1: 1",
    "P2^P3: 1, K2^K3: -Lambda", "P1^K2: 1, P2^K1: 1", "P2^K2: 1",
    "P1^K3: 1, P3^K1: 1", "P2^K3: 1, P3^K2: 1", "P3^K3: 1",
    "J1^J2: 1", "J1^J3: 1", "J2^J3: 1",
)
FLAT_PRIMITIVE_DIRECTIONS = (
    "P0^P1: 1", "P0^P2: 1", "P0^P3: 1", "P0^J1: 1", "P0^J2: 1", "P0^J3: 1",
    "P1^P2: 1", "P1^P3: 1", "P1^K1: 1", "P1^J1: 1", "P1^J2: 1", "P1^J3: 1",
    "P2^P3: 1", "P1^K2: 1, P2^K1: 1", "P2^K2: 1", "P2^J1: 1", "P2^J2: 1",
    "P2^J3: 1", "P1^K3: 1, P3^K1: 1", "P2^K3: 1, P3^K2: 1", "P3^K3: 1",
    "P3^J1: 1", "P3^J2: 1", "P3^J3: 1", "J1^J2: 1", "J1^J3: 1", "J2^J3: 1",
)


def _terms(b: Bivector) -> str:
    return ", ".join(f"{BASIS[i]}^{BASIS[j]}: {c}" for (i, j), c in b.components.items())


def test_impose_primitivity_directions_are_pinned():
    for g, pinned in ((ads_algebra(sym("Lambda")), CURVED_PRIMITIVE_DIRECTIONS),
                      (ads_algebra(0), FLAT_PRIMITIVE_DIRECTIONS)):
        red = impose_primitivity(generic_ansatz(), g, IDX["P0"])
        assert red.params == [f"t{n}" for n in range(len(pinned))]
        assert tuple(_terms(red.directions[p]) for p in red.params) == pinned
        assert red.const.components == {}


def test_impose_primitivity_solves_for_a_constant_part():
    # the particular solution cancels what the directions can reach of
    # delta(P0) of the constant; a constant they cannot reach is inconsistent
    lam, g = sym("Lambda"), ads_algebra(sym("Lambda"))
    fam = generic_ansatz()
    for const, want in (
            (biv(("K1", "P0", kinv), ("P1", "P2", lam)), "P1^P2: Lambda, K1^K2: -Lambda^2"),
            (biv(("K1", "K2", kinv), ("J1", "J2", kinv)), "J1^J2: kinv")):
        red = impose_primitivity(RFamily(const, fam.params, fam.directions), g, IDX["P0"])
        assert _terms(red.const) == want
        assert tuple(_terms(red.directions[p]) for p in red.params) == CURVED_PRIMITIVE_DIRECTIONS
        assert cocommutator_of(g, red.const, IDX["P0"]).norm() == 0
    # P0^P1 is a direction: its row (P0, K1) reads -Lambda, which divides
    # the constant's right-hand side exactly and cancels it
    red = impose_primitivity(RFamily(biv(("P0", "P1", kinv)), fam.params, fam.directions),
                             g, IDX["P0"])
    assert red.const.components == {}
    assert tuple(_terms(red.directions[p]) for p in red.params) == CURVED_PRIMITIVE_DIRECTIONS
    stuck = RFamily(const=biv(("K1", "P0", kinv)), params=["c"],
                    directions={"c": biv(("K2", "P0", kinv))})
    with pytest.raises(ConstraintViolated, match="inconsistent"):
        impose_primitivity(stuck, g, IDX["P0"])
    # the solution c = 1/Lambda is no polynomial
    fractional = RFamily(const=biv(("K1", "K2", 1)), params=["c"],
                         directions={"c": biv(("P1", "P2", 1))})
    with pytest.raises(NotPolynomial):
        impose_primitivity(fractional, g, IDX["P0"])


def test_impose_primitivity_rejects_a_kernel_that_needs_a_fraction():
    # the kernel of this family is Lambda * a + b = 0: the pivot -Lambda^2
    # of column a does not divide the -Lambda of column b
    lam = sym("Lambda")
    fam = RFamily(const=Bivector(), params=["a", "b"],
                  directions={"a": biv(("K1", "K2", lam ** 2)), "b": biv(("P1", "P2", 1))})
    with pytest.raises(NotPolynomial, match="does not divide"):
        impose_primitivity(fam, ads_algebra(lam), IDX["P0"])


def _primitivity_matrix(lam) -> tuple:
    """delta(P0) on the 45 wedges, built in sympy from the brackets of the
    algebra, and the wedges (i, j), i < j: column (i, j) holds
    [P0, e_i]^e_j + e_i^[P0, e_j]."""
    n = {name: k for k, name in enumerate(BASIS)}
    bracket: dict = {}

    def put(a, b, c, v):
        bracket.setdefault((n[a], n[b]), {})[n[c]] = v
        bracket.setdefault((n[b], n[a]), {})[n[c]] = -v

    for a, b, c in itertools.permutations((1, 2, 3)):
        s = sympy.LeviCivita(a, b, c)
        put(f"J{a}", f"P{b}", f"P{c}", s)
        put(f"J{a}", f"K{b}", f"K{c}", s)
        put(f"J{a}", f"J{b}", f"J{c}", s)
        put(f"K{a}", f"K{b}", f"J{c}", -s)
        put(f"P{a}", f"P{b}", f"J{c}", s * lam)
    for a in (1, 2, 3):
        put(f"K{a}", "P0", f"P{a}", 1)
        put(f"K{a}", f"P{a}", "P0", 1)
        put("P0", f"P{a}", f"K{a}", -lam)
    pairs = list(itertools.combinations(range(len(BASIS)), 2))
    row = {pair: k for k, pair in enumerate(pairs)}
    m = sympy.zeros(len(pairs), len(pairs))

    def add(col, a, b, v):
        if a != b:
            m[row[(min(a, b), max(a, b))], col] += v if a < b else -v

    for col, (i, j) in enumerate(pairs):
        for c, v in bracket.get((n["P0"], i), {}).items():
            add(col, c, j, v)
        for c, v in bracket.get((n["P0"], j), {}).items():
            add(col, i, c, v)
    return m, pairs


def test_impose_primitivity_matches_the_sympy_nullspace():
    lam = sympy.Symbol("Lambda")
    for value, g, dim in ((lam, ads_algebra(sym("Lambda")), 15), (0, ads_algebra(0), 27)):
        m, pairs = _primitivity_matrix(value)
        red = impose_primitivity(generic_ansatz(), g, IDX["P0"])
        got = sympy.Matrix.hstack(*(
            sympy.Matrix([sympy.sympify(str(red.directions[p].components.get(pair, 0))
                                        .replace("^", "**"), locals={"Lambda": lam})
                          for pair in pairs]) for p in red.params))
        assert (m * got).expand() == sympy.zeros(len(pairs), dim)
        kernel = m.nullspace()
        assert len(kernel) == got.rank() == dim
        assert sympy.Matrix.hstack(got, *kernel).rank() == dim
    # a family whose reduction needs back-substitution: the second pivot
    # must leave the first row, or the one direction comes out as
    # 2 P0^P2 + J1^J2, whose delta(P0) is -2 Lambda P0^K2
    g = ads_algebra(sym("Lambda"))
    fam = RFamily(const=Bivector(), params=["c0", "c1", "c2"], directions={
        "c0": biv(("P0", "P2", rat(-1))),
        "c1": biv(("P3", "J3", rat(1)), ("P0", "P2", rat(-1))),
        "c2": biv(("P3", "J3", rat(2)), ("J1", "J2", rat(1)))})
    red = impose_primitivity(fam, g, IDX["P0"])
    assert [red.directions[p] for p in red.params] == [biv(("J1", "J2", rat(1)))]
    assert all(cocommutator_of(g, d, IDX["P0"]).norm() == 0 for d in red.directions.values())


def _kernel_point(red, values: dict, lam: float) -> Bivector:
    """sum of t * direction over the reduced family's parameters, at a float Lambda."""
    r = Bivector()
    for name, t in values.items():
        r = r + Bivector({key: c.eval_numeric({"Lambda": lam}) * t
                          for key, c in red.directions[name].components.items()})
    return r


def test_exotic_primitive_solution_outside_the_family():
    # a real mCYBE solution in the 15-dimensional primitivity kernel at
    # Lambda = -1, every extra direction switched on: only the flat-limit
    # hypothesis keeps it out of family_r
    red = impose_primitivity(generic_ansatz(), ads_algebra(sym("Lambda")), IDX["P0"])
    r3 = math.sqrt(3.0)
    values = dict.fromkeys(("t0", "t1", "t2"), 0.0)
    values.update(dict.fromkeys(("t3", "t6", "t13"), r3))
    values.update(dict.fromkeys(("t4", "t12", "t14"), -r3))
    values.update(dict.fromkeys(("t5", "t7", "t8", "t9", "t10", "t11"), -1.0))
    assert sorted(values) == sorted(red.params)
    g = ads_algebra(-1.0)
    r = _kernel_point(red, values, -1.0)
    assert mcybe_residual(g, r) < 1e-12
    assert cocommutator_of(g, r, IDX["P0"]).norm() == 0
    assert mcybe_residual(g, _kernel_point(red, dict(values, t3=-r3), -1.0)) > 1


def test_exotic_primitive_solution_at_a_quarter_of_the_curvature():
    # the same solution at Lambda = -1/4 (eta = 1/2): the P^P coefficients
    # scale as 1/eta, the J^J ones as eta, the kappa-Poincare part stays
    red = impose_primitivity(generic_ansatz(), ads_algebra(sym("Lambda")), IDX["P0"])
    r3 = math.sqrt(3.0)
    values = dict.fromkeys(("t0", "t1", "t2"), 0.0)
    values.update(t3=2 * r3, t6=2 * r3, t4=-2 * r3)
    values.update(t12=-r3 / 2, t14=-r3 / 2, t13=r3 / 2)
    values.update(dict.fromkeys(("t5", "t7", "t8", "t9", "t10", "t11"), -1.0))
    assert sorted(values) == sorted(red.params)
    g = ads_algebra(-0.25)
    r = _kernel_point(red, values, -0.25)
    assert mcybe_residual(g, r) < 1e-12
    assert cocommutator_of(g, r, IDX["P0"]).norm() == 0
    assert mcybe_residual(g, _kernel_point(red, dict(values, t3=-2 * r3), -0.25)) > 1


def test_constraint_residuals_equal_normalizing_every_component():
    # dropping the components equal up to sign first keeps the same
    # polynomials, with the same terms in the same order
    a = (sym("alpha1"), sym("alpha2"), sym("alpha3"))
    b = (sym("beta1"), sym("beta2"), sym("beta3"))
    for kw in ({}, {"eta": Scalar()}, {"kinv": rat(2)}, {"eta": rat(1, 3), "kinv": kinv},
               {"alpha": (rat(1), a[1], a[2]), "beta": (b[0], rat(0), b[2])}):
        comps = mcybe_residual_components(
            ads_algebra(-(kw.get("eta", eta) ** 2)),
            family_r(kw.get("alpha", a), kw.get("beta", b), kw.get("kinv", kinv)))
        got = distinct_normalized(comps) if kw else constraint_residuals()
        want = normalized_distinct(comps)
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]
    assert [str(p) for p in constraint_residuals()] == [
        "alpha1*beta2 - alpha2*beta1", "alpha1*beta3 - alpha3*beta1",
        "alpha1^2 + alpha2^2 + alpha3^2 - eta^2*kinv^2", "alpha2*beta3 - alpha3*beta2"]


def test_impose_primitivity_kills_k1_p0():
    g = ads_algebra(sym("Lambda"))
    fam = generic_ansatz()
    # restrict to the single direction K1 ^ P0: primitivity forces it to zero
    name = [p for p in fam.params if "K1" in p and "P0" in p][0]
    from kads.rclass import RFamily
    sub = RFamily(const=Bivector(), params=[name],
                  directions={name: fam.directions[name]})
    red = impose_primitivity(sub, g, IDX["P0"])
    assert red.params == []
    assert red.const.norm() == 0


def test_impose_primitivity_zero_family():
    g = ads_algebra(0)
    from kads.rclass import RFamily
    red = impose_primitivity(RFamily(const=Bivector(), params=[], directions={}),
                             g, IDX["P0"])
    assert red.params == [] and red.const.norm() == 0


def test_family_r_special_points():
    zero = Scalar()
    # alpha = (0, 0, eta*kinv), beta = 0 gives the canonical curved r-matrix
    r = family_r((zero, zero, eta * kinv), (zero, zero, zero), kinv)
    assert r == r_kads(kinv, eta)
    # alpha = beta = 0 gives the flat one
    assert family_r((zero,) * 3, (zero,) * 3, kinv) == r_poincare(kinv)
    # beta3 = -vtheta gives the twisted canonical form
    vth = sym("vtheta")
    r_tw = family_r((zero, zero, eta * kinv), (zero, zero, -vth), kinv)
    from kads.rclass import r_kads_twisted
    assert r_tw == r_kads_twisted(kinv, eta, vth)


def test_constraint_ideal_matches_reference():
    extracted = constraint_residuals()
    ref = eq_constraint_polynomials()
    eq = ideal_equivalence(extracted, ref)
    assert eq["equal"]
    # and the extracted set normalizes to exactly four polynomials
    assert len(extracted) == 4


def test_constraints_at_zero_curvature_force_alpha_zero():
    # with eta = 0 the sphere relation becomes sum alpha_i^2 = 0 and the
    # remaining residuals vanish when alpha = 0, for any beta
    alpha = (sym("alpha1"), sym("alpha2"), sym("alpha3"))
    beta = (sym("beta1"), sym("beta2"), sym("beta3"))
    res = distinct_normalized(mcybe_residual_components(ads_algebra(0), family_r(alpha, beta, kinv)))
    beta_free = {"alpha1": Scalar(), "alpha2": Scalar(), "alpha3": Scalar()}
    for p in res:
        assert p.substitute(beta_free).is_zero()
    sphere = [p for p in res if p.degree_in("alpha1") == 2]
    assert sphere and all(
        p.substitute({"alpha2": Scalar(), "alpha3": Scalar()})
         .substitute({"alpha1": rat(1)}) == rat(1) for p in sphere)


def test_sphere_param_reductions():
    ct, stv = sym("ctheta"), sym("stheta")
    cp, sp = sym("cphi"), sym("sphi")
    radius = sym("R")
    a1, a2, a3 = sphere_param(ct, stv, cp, sp, radius)
    assert reduce_mod(a1 ** 2 + a2 ** 2 + a3 ** 2 - radius ** 2,
                      trig_rules()) == Scalar()
    # polar point
    one, zero = rat(1), Scalar()
    assert sphere_param(one, zero, one, zero, radius) == (zero, zero, radius)
    # equatorial axis point
    assert sphere_param(zero, one, one, zero, radius) == (radius, zero, zero)
    # aligned twist vector satisfies the cross relations identically
    b1, b2, b3 = beta_aligned(ct, stv, cp, sp, sym("vtheta"))
    for lhs, rhs in (((b1, a3), (b3, a1)), ((b1, a2), (b2, a1)),
                     ((b2, a3), (b3, a2))):
        assert reduce_mod(lhs[0] * lhs[1] - rhs[0] * rhs[1], trig_rules()) == Scalar()


def test_rotated_generator_is_primitive_symbolically():
    """delta of the rotated third rotation generator vanishes identically
    on the sphere-parametrized family (checked with trig stand-ins)."""
    ct, stv = sym("ctheta"), sym("stheta")
    cp, sp = sym("cphi"), sym("sphi")
    radius = eta * kinv
    alpha = sphere_param(ct, stv, cp, sp, radius)
    zero = Scalar()
    r = family_r(alpha, (zero, zero, zero), kinv)
    g = ads_algebra(-(eta ** 2))
    delta = cocommutator(g, r)
    # J~3 = st*cp J1 - st*sp J2 + ct J3; delta is linear in the generator
    combo = (delta[IDX["J1"]].scale(stv * cp)
             + delta[IDX["J2"]].scale(-(stv * sp))
             + delta[IDX["J3"]].scale(ct))
    for c in combo.components.values():
        assert reduce_mod(c, trig_rules()) == Scalar()
    # and the time translation generator stays primitive for the whole family
    assert delta[IDX["P0"]].norm() == 0


def test_extra_primitivity_directions_fail_yang_baxter():
    """The primitivity kernel beyond the six-parameter family consists of
    symmetric boost-translation and translation-translation directions;
    switching any of them on (with a coefficient vanishing in the flat
    limit, so the limit condition stays satisfied) breaks the equation."""
    lam, kv = -1.0, 0.31
    eta = math.sqrt(-lam)
    base = family_r((0.0, 0.0, eta * kv), (0.0, 0.0, 0.0), kv)
    extras = [
        Bivector.from_terms((IDX["P1"], IDX["K2"], 1.0), (IDX["P2"], IDX["K1"], 1.0)),
        Bivector.from_terms((IDX["P1"], IDX["K3"], 1.0), (IDX["P3"], IDX["K1"], 1.0)),
        Bivector.from_terms((IDX["P2"], IDX["K3"], 1.0), (IDX["P3"], IDX["K2"], 1.0)),
        Bivector.from_terms((IDX["P1"], IDX["P2"], 1.0),
                            (IDX["K1"], IDX["K2"], -lam)),
        Bivector.from_terms((IDX["P1"], IDX["P3"], 1.0),
                            (IDX["K1"], IDX["K3"], -lam)),
        Bivector.from_terms((IDX["P2"], IDX["P3"], 1.0),
                            (IDX["K2"], IDX["K3"], -lam)),
        # unequal diagonal boost-translation weights also break it
        Bivector.from_terms((IDX["K1"], IDX["P1"], 1.0)),
    ]
    g = ads_algebra(lam)
    delta_p0_ok = 0
    for d in extras:
        r = base + d.scale(0.3 * lam)  # coefficient ~ lam: flat limit intact
        from kads.bialgebra import cocommutator
        delta = cocommutator(g, r)
        if delta[IDX["P0"]].norm() < 1e-12:
            delta_p0_ok += 1
        assert mcybe_residual(g, r) > 1e-6
    assert delta_p0_ok == len(extras)  # all stay primitive, so mCYBE does the work


def test_constraint_surface_numeric_split():
    rng = np.random.default_rng(42)
    sat_worst, vio_best = 0.0, math.inf
    for _ in range(60):
        lam = float(rng.uniform(-2.0, -0.2))
        kv = float(rng.uniform(0.1, 1.0))
        radius = math.sqrt(-lam) * kv
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = float(rng.uniform(-1, 1))
        alpha = tuple(radius * v for v in n)
        beta = tuple(t * v for v in n)
        sat_worst = max(sat_worst, numeric_family_residual(alpha, beta, kv, lam))
        while True:
            av = tuple(rng.uniform(-1.5, 1.5, 3))
            bv = tuple(rng.uniform(-1.5, 1.5, 3))
            if constraint_distance(av, bv, radius) > 0.1:
                break
        vio_best = min(vio_best, numeric_family_residual(av, bv, kv, lam))
    assert sat_worst < 1e-10
    assert vio_best > 1e-6


def test_canonicalize_matches_canonical_forms():
    rng = np.random.default_rng(9)
    for _ in range(25):
        th = float(rng.uniform(0.05, 3.0))
        if abs(th - math.pi / 2) < 0.05:
            continue
        ph = float(rng.uniform(0, 2 * math.pi))
        tw = float(rng.uniform(-1, 1))
        rot, expected, transcript = canonicalize(th, ph, tw, kinv=0.31)
        keys = set(rot.components) | set(expected.components)
        dev = max(abs(rot.components.get(k, 0.0) - expected.components.get(k, 0.0))
                  for k in keys)
        assert dev < 1e-12
        assert transcript["canonical_twist"] == -tw


def test_canonicalize_identity_at_pole():
    rot, expected, _ = canonicalize(0.0, 1.1, 0.0, kinv=0.5)
    dev = max(abs(rot.components.get(k, 0.0) - expected.components.get(k, 0.0))
              for k in set(rot.components) | set(expected.components))
    assert dev == 0.0


def test_canonicalize_preserves_solution_properties():
    # automorphisms preserve both the Yang-Baxter property and primitivity
    g = ads_algebra(CANONICAL_LAMBDA)
    rot, _, _ = canonicalize(0.8, 2.1, 0.3, kinv=0.4)
    assert mcybe_residual(g, rot) < 1e-10
    delta = cocommutator(g, rot)
    assert delta[IDX["P0"]].norm() < 1e-12


def test_off_surface_points_are_rejected():
    from kads.rclass import require_on_surface
    # alpha off the sphere of radius eta*kinv
    with pytest.raises(ConstraintViolated):
        require_on_surface((0.9, 0.0, 0.0), (0.0, 0.0, 0.0), 0.31, -1.0)
    # beta not parallel to alpha
    with pytest.raises(ConstraintViolated):
        require_on_surface((0.31, 0.0, 0.0), (0.0, 0.4, 0.0), 0.31, -1.0)


def test_r_2plus1_flat_limit():
    # no curvature dependence: the same bivector serves the flat case
    assert r_2plus1(kinv) == r_2plus1(kinv)
    assert (IDX["K3"], IDX["P3"]) not in r_2plus1(kinv).components
