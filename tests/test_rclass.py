import math

import numpy as np
import pytest

from kads.bialgebra import Bivector, cocommutator, mcybe_residual
from kads.liealg import IDX, ads_algebra
from kads.rclass import (ConstraintViolated, beta_aligned, canonicalize,
                         constraint_distance, constraint_residuals,
                         eq_constraint_polynomials, family_r, generic_ansatz,
                         ideal_equivalence, impose_primitivity,
                         numeric_family_residual, r_2plus1, r_kads,
                         r_poincare, sphere_param)
from kads.scalars import Scalar, rat, reduce_mod, sym, trig_rules

eta, kinv = sym("eta"), sym("kinv")


def test_generic_ansatz_shape():
    fam = generic_ansatz()
    assert len(fam.params) == 45
    assert len({p for p in fam.params}) == 45
    assert fam.at({}).norm() == 0
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
    res = constraint_residuals(eta=Scalar())
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


def test_constraint_residuals_rejects_floats():
    with pytest.raises(TypeError):
        constraint_residuals(alpha=(0.1, 0.2, 0.3))


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
        rot, expected, transcript = canonicalize(th, ph, tw, kinv=0.31, lam=-1.0)
        keys = set(rot.components) | set(expected.components)
        dev = max(abs(rot.components.get(k, 0.0) - expected.components.get(k, 0.0))
                  for k in keys)
        assert dev < 1e-12
        assert transcript["canonical_twist"] == -tw


def test_canonicalize_identity_at_pole():
    rot, expected, _ = canonicalize(0.0, 1.1, 0.0, kinv=0.5, lam=-1.0)
    dev = max(abs(rot.components.get(k, 0.0) - expected.components.get(k, 0.0))
              for k in set(rot.components) | set(expected.components))
    assert dev == 0.0


def test_canonicalize_preserves_solution_properties():
    # automorphisms preserve both the Yang-Baxter property and primitivity
    lam, kv = -1.0, 0.4
    g = ads_algebra(lam)
    rot, _, _ = canonicalize(0.8, 2.1, 0.3, kinv=kv, lam=lam)
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


def test_clear_denominators_multiplies_by_the_lcm():
    from kads.rclass import _clear_denominators
    from kads.scalars import Frac
    lam = sym("Lambda")
    vec = {"a": Frac(rat(1), 1 - lam), "b": Frac(lam, 1 - lam ** 2),
           "c": Frac(eta, lam), "d": Frac(rat(3))}
    out = _clear_denominators(vec)
    lcm = lam ** 3 - lam  # lcm of 1 - Lambda, 1 - Lambda^2 and Lambda, monic
    assert all(out[k] == (vec[k] * lcm).num for k in vec)
    assert all((vec[k] * lcm).den == Scalar.rational(1) for k in vec)
    assert out["d"] == 3 * lcm
