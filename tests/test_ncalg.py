import numpy as np
import pytest

from kads.ncalg import (NCAlgebra, NCPoly, SingularSpecialization,
                        ambient_algebra, builtin_algebras,
                        displayed_brackets_ok, flat_limits_ok,
                        kappa_minkowski, local_first_order, quantum_sphere,
                        space_casimir)
from kads.scalars import Frac, NonTerminating, rat, sym

eta, kinv, vth = sym("eta"), sym("kinv"), sym("vtheta")


def test_flat_normal_form_example():
    A = kappa_minkowski()
    i0, i1 = A.pos["x0"], A.pos["x1"]
    # x1 x0 -> x0 x1 + kinv x1
    nf = A.normal_form(NCPoly.word((i1, i0)))
    assert nf == NCPoly({(i0, i1): Frac.of(1), (i1,): Frac.of(kinv)})
    # an already ordered word is untouched
    w = (i0, i0, i1)
    assert A.normal_form(NCPoly.word(w)) == NCPoly.word(w)


def test_sphere_normal_form_example():
    A = quantum_sphere()
    i1, i3, i2 = A.pos["x1"], A.pos["x3"], A.pos["x2"]
    # x2 x1 -> x1 x2 + eta kinv x3^2
    nf = A.normal_form(NCPoly.word((i2, i1)))
    assert nf == NCPoly({(i1, i2): Frac.of(1), (i3, i3): Frac.of(eta * kinv)})


def test_commutators_match_defining_relations():
    A = ambient_algebra()
    pos = A.pos
    ek = eta * kinv
    e2k = eta * eta * kinv
    sfr = space_casimir(A)
    # [s0, s4] = -eta^2 kinv * (space casimir)
    got = A.commutator(NCPoly.gen(pos["s0"]), NCPoly.gen(pos["s4"]))
    assert got == sfr.scale(-e2k)
    # [s1, s2] = -eta kinv s3^2
    got = A.commutator(NCPoly.gen(pos["s1"]), NCPoly.gen(pos["s2"]))
    assert got == NCPoly({(pos["s3"], pos["s3"]): Frac.of(-ek)})
    # [s0, sa] = -kinv sa s4
    got = A.commutator(NCPoly.gen(pos["s0"]), NCPoly.gen(pos["s2"]))
    assert got == NCPoly({(pos["s2"], pos["s4"]): Frac.of(-kinv)})


def test_commutator_antisymmetry_and_bilinearity():
    A = quantum_sphere()
    p = NCPoly({(0, 1): Frac.of(eta), (2,): Frac.of(rat(2))})
    q = NCPoly({(1,): Frac.of(kinv), (0, 2): Frac.of(rat(1))})
    assert A.commutator(p, p).is_zero()
    assert (A.commutator(p, q) + A.commutator(q, p)).is_zero()
    r = NCPoly.gen(1)
    lhs = A.commutator(p + q, r)
    assert lhs == A.commutator(p, r) + A.commutator(q, r)


def test_commutator_jacobi_on_random_polynomials():
    rng = np.random.default_rng(17)

    def random_poly(ngen, maxlen):
        out = NCPoly.zero()
        for _ in range(2):
            w = tuple(int(v) for v in rng.integers(0, ngen, rng.integers(1, maxlen + 1)))
            out = out + NCPoly.word(w, rat(int(rng.integers(-3, 4))))
        return out

    # linear relations: triples up to degree 3
    A = kappa_minkowski()
    for _ in range(6):
        p, q, r = (random_poly(4, 3) for _ in range(3))
        j = (A.commutator(p, A.commutator(q, r))
             + A.commutator(q, A.commutator(r, p))
             + A.commutator(r, A.commutator(p, q)))
        assert j.is_zero()
    # quadratic relations with straightening fixpoints: smaller words
    A = quantum_sphere()
    for _ in range(4):
        p, q, r = (random_poly(3, 2) for _ in range(3))
        j = (A.commutator(p, A.commutator(q, r))
             + A.commutator(q, A.commutator(r, p))
             + A.commutator(r, A.commutator(p, q)))
        assert j.is_zero()


def test_jacobi_certificates_all_algebras():
    for name, bundle in builtin_algebras().items():
        assert bundle["algebra"].jacobi_certificate() == 0, name


def test_casimir_centrality():
    bundles = builtin_algebras()
    sphere = bundles["quantum_sphere"]["algebra"]
    cas, subset = bundles["quantum_sphere"]["casimirs"]["sphere"]
    assert sphere.casimir_check(cas, subset) == 0
    amb = bundles["ambient"]["algebra"]
    sfr, space = bundles["ambient"]["casimirs"]["sphere"]
    assert amb.casimir_check(sfr, space) == 0
    # but the space casimir does NOT commute with the time-like coordinates
    assert amb.casimir_check(sfr, ("s0",)) > 0
    assert amb.casimir_check(sfr, ("s4",)) > 0
    sig, allgens = bundles["ambient"]["casimirs"]["pseudosphere"]
    assert amb.casimir_check(sig, allgens) == 0
    # and the two central elements commute with each other
    assert amb.commutator(sig, sfr).is_zero()


def test_displayed_casimir_cross_brackets():
    assert displayed_brackets_ok()


def test_flat_limits():
    assert flat_limits_ok()


def test_degree_never_raised():
    A = ambient_algebra()
    rng = np.random.default_rng(18)
    for _ in range(40):
        w = tuple(int(v) for v in rng.integers(0, 5, rng.integers(2, 5)))
        nf = A.normal_form(NCPoly.word(w))
        assert nf.max_degree() <= len(w)


def test_strategy_independence():
    rng = np.random.default_rng(19)
    total = 0
    for A, ngen, count, maxlen in (
        (kappa_minkowski(), 4, 300, 6),
        (kappa_minkowski(twist=vth), 4, 250, 6),
        (quantum_sphere(), 3, 250, 6),
        (local_first_order(), 4, 120, 6),
        (ambient_algebra(), 5, 80, 6),
    ):
        for _ in range(count):
            n = int(rng.integers(2, maxlen + 1))
            w = tuple(int(v) for v in rng.integers(0, ngen, n))
            a = A.normal_form(NCPoly.word(w), strategy="leftmost")
            b = A.normal_form(NCPoly.word(w), strategy="rightmost")
            assert (a - b).is_zero(), (w,)
            total += 1
    assert total == 1000


def test_semiclassical_leading_order():
    """The commutator tables reduce to the Poisson tables at leading order
    in the deformation scale (corrections carry kinv^2 at least)."""
    def leading_matches(alg, pairs):
        for (a, b), want in pairs.items():
            i, j = alg.pos[a], alg.pos[b]
            rhs = alg.commutator_rhs[(i, j)] if i < j else -alg.commutator_rhs[(j, i)]
            diff = rhs - want
            for w, c in diff.terms.items():
                assert c.num.degree_in("kinv") >= 2, (a, b, w, str(c))

    flat = kappa_minkowski()
    pairs = {("x0", f"x{a}"): NCPoly.gen(flat.pos[f"x{a}"], -kinv) for a in (1, 2, 3)}
    leading_matches(flat, pairs)

    amb = ambient_algebra()
    pos = amb.pos
    ek, e2k = eta * kinv, eta * eta * kinv
    pairs = {
        ("s0", "s1"): NCPoly({(pos["s1"], pos["s4"]): Frac.of(-kinv)}),
        ("s4", "s1"): NCPoly({(pos["s0"], pos["s1"]): Frac.of(e2k)}),
        ("s1", "s2"): NCPoly({(pos["s3"], pos["s3"]): Frac.of(-ek)}),
        ("s1", "s3"): NCPoly({(pos["s3"], pos["s2"]): Frac.of(ek)}),
        ("s2", "s3"): NCPoly({(pos["s1"], pos["s3"]): Frac.of(-ek)}),
    }
    # note (s4, s1): positions put s1 before s4, so compare [s1,s4] = -that
    pairs[("s1", "s4")] = pairs.pop(("s4", "s1")).scale(rat(-1))
    leading_matches(amb, pairs)


def test_render_format():
    A = ambient_algebra()
    pos = A.pos
    p = NCPoly({(pos["s0"], pos["s1"], pos["s1"], pos["s4"]): Frac.of(eta * eta * kinv)})
    assert p.render(A.gens) == "s0^1 s1^2 s4^1 * (eta^2*kinv)"
    assert NCPoly.zero().render(A.gens) == "0"


def test_relation_validation():
    with pytest.raises(ValueError):
        NCAlgebra(("a", "b"), {("b", "a"): NCPoly.zero()})  # out of order
    with pytest.raises(ValueError):
        # RHS not normal ordered
        NCAlgebra(("a", "b"), {("a", "b"): NCPoly({(1, 0): Frac.of(1)})})


def test_certificates_json():
    A = quantum_sphere()
    cert = A.certificates_json()
    assert all(v == "0" for v in cert.values())
    assert "[x1,x3,x2]" in cert


def test_jacobi_residuals_feed_both_certificates():
    # [a,b] = a, [a,c] = a, [b,c] = b breaks Jacobi: the cyclic sum is a
    bad = NCAlgebra(("a", "b", "c"), {("a", "b"): NCPoly.gen(0),
                                      ("a", "c"): NCPoly.gen(0),
                                      ("b", "c"): NCPoly.gen(1)})
    res = bad.jacobi_residuals()
    assert list(res) == ["[a,b,c]"] and res["[a,b,c]"] == NCPoly.gen(0)
    assert bad.jacobi_certificate() == bad.jacobi_certificate(res) == 1
    assert bad.certificates_json() == bad.certificates_json(res) == {
        "[a,b,c]": "a^1 * (1)"}


def test_singular_specialization_is_named():
    # E = eta*kinv = 1 is a root of 1 - E^2, a pole of the fixpoint solve
    alg = quantum_sphere(rat(1), rat(1))
    with pytest.raises(SingularSpecialization) as err:
        alg.normal_form({(2, 2, 0): 1})
    assert isinstance(err.value, ZeroDivisionError)
    assert not isinstance(err.value, NonTerminating)
