import hashlib
import subprocess
import sys
from itertools import combinations, product

import numpy as np
import pytest
import sympy

from kads.group_geom import pseudosphere_residual
from kads.ncalg import (NCAlgebra, NCPoly, SingularSpecialization,
                        ambient_algebra, builtin_algebras,
                        displayed_brackets_ok, flat_limits_ok,
                        kappa_minkowski, local_first_order, poisson_reading,
                        pseudosphere_casimir, quantum_sphere, space_casimir)
from kads.scalars import (FRAC_ONE, ONE, PARAM_INDEX, PARAMS, Frac, NonTerminating, rat,
                          sym)
from oracles import quadratic_space_poisson
from tables import expected_ambient_poisson

eta, kinv, vth = sym("eta"), sym("kinv"), sym("vtheta")


def test_the_nc_engine_runs_without_numpy():
    # the exact layer never touches a float: importing it and normal-ordering
    # a ladder in a fresh interpreter loads scalars and ncalg and no numpy
    probe = ("import sys\n"
             "from kads import ncalg\n"
             "alg = ncalg.builtin_algebras()['quantum_sphere']['algebra']\n"
             "word = (alg.pos['x2'],) * 2 + (alg.pos['x1'],) * 2\n"
             "nf = alg.normal_form({word: 1})\n"
             "print(len(nf.terms), 'numpy' in sys.modules,\n"
             "      sorted(m for m in sys.modules if m.split('.')[0] == 'kads'))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    terms, numpy_loaded, kads_modules = proc.stdout.split(maxsplit=2)
    assert int(terms) > 1
    assert numpy_loaded == "False"
    assert kads_modules.strip() == "['kads', 'kads.ncalg', 'kads.scalars']"


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


def test_quantum_sphere_reads_commutatively_as_the_poisson_sphere():
    # {x_p, x_q} of the formal space-sector Poisson tensor at (a1, a2, a3)
    # equals [x_p, x_q] of the quantum sphere with its letters commuting
    point = (sym("a1"), sym("a2"), sym("a3"))
    poisson = quadratic_space_poisson(eta, kinv).matrix(point)
    A = quantum_sphere()
    assert len(A.commutator_rhs) == 3
    for (i, j), rhs in A.commutator_rhs.items():
        p, q = (int(A.gens[k][1:]) - 1 for k in (i, j))
        read = Frac.of(0)
        for word, c in rhs.terms.items():
            monomial = rat(1)
            for letter in word:
                monomial = monomial * point[int(A.gens[letter][1:]) - 1]
            read = read + c * Frac.of(monomial)
        assert read == poisson[p][q], (A.gens[i], A.gens[j])


def test_ambient_poisson_reading_matches_the_expected_table():
    # the kinv-linear part of every commutator, letters commuting; the
    # ordering word -eta^3 kinv^2 s1 s2 of [s0, s4] is second order
    reading = poisson_reading(ambient_algebra())
    expected = expected_ambient_poisson()
    assert len(reading) == 2 * len(expected) == 20
    for (a, b), terms in expected.items():
        assert reading[a, b] == terms, (a, b)
        assert reading[b, a] == {w: -c for w, c in terms.items()}, (b, a)


def _sympy(c):
    """A Scalar as a sympy polynomial in its parameters."""
    return sympy.Add(*(sympy.Rational(q.numerator, q.denominator)
                       * sympy.Mul(*(sympy.Symbol(PARAMS[i]) ** e for i, e in enumerate(m)))
                       for m, q in c.exponents().items()))


AMBIENT = {n: sympy.Symbol(n) for n in ("s0", "s1", "s2", "s3", "s4")}


def _jacobiators(tensor):
    """{s^a, {s^b, s^c}} + cyclic for every triple, from {pair: sympy entry}."""
    def bracket(f, g):
        return sympy.Add(*(sympy.diff(f, AMBIENT[a]) * sympy.diff(g, AMBIENT[b]) * v
                           for (a, b), v in tensor.items()))
    s = AMBIENT
    return [sympy.expand(bracket(s[a], bracket(s[b], s[c]))
                         + bracket(s[b], bracket(s[c], s[a]))
                         + bracket(s[c], bracket(s[a], s[b])))
            for a, b, c in combinations(AMBIENT, 3)]


def test_ambient_poisson_reading_satisfies_jacobi_identically():
    # an exact oracle in the ambient coordinates, which Scalar does not have
    tensor = {pair: sympy.Add(*(_sympy(c) * sympy.Mul(*(AMBIENT[n] for n in w))
                                for w, c in terms.items()))
              for pair, terms in poisson_reading(ambient_algebra()).items()}
    assert _jacobiators(tensor) == [0] * 10
    # not vacuous: one flipped sign breaks it
    tensor["s1", "s2"], tensor["s2", "s1"] = tensor["s2", "s1"], tensor["s1", "s2"]
    assert any(_jacobiators(tensor))


def test_pseudosphere_casimir_reads_as_the_quadric():
    # at kinv = 0, with commuting letters, the central element is the
    # quadric s4^2 - lam s0^2 + lam |s|^2 of the chart, with lam = -eta^2
    alg = ambient_algebra()
    cas = pseudosphere_casimir(alg).substitute({"kinv": rat(0)})
    read = sympy.Add(*(_sympy(c.num) * sympy.Mul(*(AMBIENT[alg.gens[g]] for g in w))
                       for w, c in cas.terms.items()))
    s = tuple(AMBIENT[n] for n in ("s4", "s0", "s1", "s2", "s3"))
    lam = -sympy.Symbol("eta") ** 2
    assert sympy.expand(read - pseudosphere_residual(s, lam) - 1) == 0


def test_poisson_reading_needs_polynomial_relations():
    alg = NCAlgebra(("a", "b"), {("a", "b"): NCPoly.gen(0, Frac(kinv, eta))})
    with pytest.raises(ValueError, match="non-polynomial"):
        poisson_reading(alg)


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
        assert max((len(t) for t in nf.terms), default=0) <= len(w)


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


def test_memo_entries_are_never_mutated():
    """Memo identities are shared with callers, not copied: reducing more
    words after a ladder with fixpoints must leave every memo dict seen
    before unchanged, and repeated normal forms must agree."""
    A = ambient_algebra()
    s1, s2 = A.pos["s1"], A.pos["s2"]
    ladder = NCPoly.word((s2,) * 3 + (s1,) * 3)
    first = A.normal_form(ladder)
    seen = [(d, dict(d)) for memo in A._memo.values()
            for entry in memo.values() for d in entry]
    # words whose memo identity still refers to other words symbolically
    symbolic = [w for w, (_, syms) in A._memo["leftmost"].items() if syms]
    assert symbolic
    rng = np.random.default_rng(5)
    words = symbolic + [(s2, s2, s1, s1), (s2, s1, s2, s1, s1)] + [
        tuple(int(v) for v in rng.integers(0, 5, 4)) for _ in range(12)]
    results = {w: A.normal_form(NCPoly.word(w)) for w in words}
    for w in words:
        assert A.normal_form(NCPoly.word(w)) == results[w], w
    assert A.normal_form(ladder) == first
    assert all(d == snapshot for d, snapshot in seen)


def test_a_memo_hit_returns_a_copy():
    """Changing the NCPoly that normal_form returns, on a memo miss or a
    memo hit, leaves the memo as it was."""
    A, fresh = ambient_algebra(), ambient_algebra()
    s1, s2 = A.pos["s1"], A.pos["s2"]
    for strategy in ("leftmost", "rightmost"):
        for w in [(s2, s2, s1), (s1, s2), (s1, s1)]:
            want = fresh.normal_form(NCPoly.word(w), strategy)
            for _ in range(3):
                got = A.normal_form(NCPoly.word(w), strategy)
                assert got.terms == want.terms, (strategy, w)
                del got.terms[next(iter(got.terms))]
                got.terms[(9,)] = Frac.of(7)
            assert (A.normal_form(NCPoly.word(w, eta), strategy).terms
                    == want.scale(eta).terms)


def test_warm_memo_reads_equal_fresh_reductions():
    """Every word of length 2-4, both strategies, on one warm instance per
    algebra equals its reduction on a fresh instance; the sweep meets
    memo misses, clean memo hits and entries still holding symbolic
    references."""
    kinds = {"miss": 0, "hit": 0, "symbolic": 0}
    for name, bundle in builtin_algebras().items():
        A = bundle["algebra"]
        relations = {(A.gens[i], A.gens[j]): p for (i, j), p in A.commutator_rhs.items()}
        words = [w for n in (4, 3, 2) for w in product(range(len(A.gens)), repeat=n)]
        want = {}
        for w in words:
            fresh = NCAlgebra(A.gens, relations)
            for strategy in ("leftmost", "rightmost"):
                want[w, strategy] = fresh.normal_form({w: 1}, strategy).terms
        for _ in range(2):
            for strategy in ("leftmost", "rightmost"):
                for w in words:
                    entry = A._memo[strategy].get(w)
                    kinds["miss" if entry is None else
                          "symbolic" if entry[1] else "hit"] += 1
                    assert A.normal_form({w: 1}, strategy).terms == want[w, strategy], (
                        name, strategy, w)
    assert min(kinds.values()) > 0, kinds


def test_the_shared_one_survives_a_kads_nc_run(tmp_path):
    from kads import cli
    assert cli.main(["nc", "--out", str(tmp_path / "nc.json")]) == 0
    one = Frac.of(1)
    assert one is FRAC_ONE and one.is_one() and one == Frac(ONE)
    assert one.num == ONE and one.den == ONE


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


def test_substitute_at_a_pole_is_named():
    A = quantum_sphere()
    x1, x2 = A.pos["x1"], A.pos["x2"]
    nf = A.normal_form(NCPoly.word((x2, x1, x1)))
    with pytest.raises(SingularSpecialization, match=r"word \(0, 1, 1\)"):
        nf.substitute({"eta": rat(1), "kinv": rat(1)})
    # off the pole E = eta*kinv = 1 the same coefficients specialize
    assert not nf.substitute({"eta": rat(1), "kinv": rat(1, 2)}).is_zero()


# (a, b): largest total denominator degree of the x2^a x1^b ladder, and the
# sha256 of its coefficients' exact values at eta = 3/7, kinv = 5/11
LADDERS = {
    (3, 3): (36, "c7866f0b8f692b12641ea22e0b894e39998c5df299c3cf0d14eac18ec9c60bfc"),
    (4, 4): (84, "3ff0f8596f9884cbb42415d2d3746205e79f72d9e86bd26505689d04ac7063d9"),
}


def test_reduced_denominator_degree():
    # 68 for x2^3 x1^3 without gcd cancellation; x2^4 x1^4 (degree 42 in
    # eta) is longer than any ladder of the benchmark
    point = {"eta": rat(3, 7), "kinv": rat(5, 11)}
    for (a, b), (degree, digest) in LADDERS.items():
        A = quantum_sphere()
        nf = A.normal_form(NCPoly.word((A.pos["x2"],) * a + (A.pos["x1"],) * b))
        assert max(c.den.total_degree() for c in nf.terms.values()) == degree
        text = ";".join(f"{w}={nf.terms[w].substitute(point)}" for w in sorted(nf.terms))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


E = sympy.Symbol("E")
CHEBYSHEV_U = {n: sympy.Poly(sympy.chebyshevu(n, E / 2), E) for n in range(2, 9, 2)}


def _den_in_E(den):
    ie, ik = PARAM_INDEX["eta"], PARAM_INDEX["kinv"]
    out = sympy.Integer(0)
    for m, c in den.exponents().items():
        assert m[ie] == m[ik] and sum(m) == 2 * m[ie], den
        out += sympy.Rational(c.numerator, c.denominator) * E ** m[ie]
    return sympy.Poly(out, E)


def _chebyshev_orders(nf):
    """For each irreducible denominator factor, the least 2m with the factor
    dividing U_2m(E/2), E = eta*kinv (None when no U_2m up to U_8 has it)."""
    out = []
    for c in nf.terms.values():
        for fac, _ in _den_in_E(c.den).factor_list()[1]:
            out.append(next((n for n, u in CHEBYSHEV_U.items()
                             if u.rem(fac).is_zero), None))
    return out


def test_denominators_divide_chebyshev_u():
    """Every irreducible factor of a reduced denominator of a word of length
    n divides some U_2m(E/2) with 2m <= 2(n - 2), and the bound is reached;
    2m <= n fails from length 5 on."""
    A = quantum_sphere()
    x1, x3 = A.pos["x1"], A.pos["x3"]
    counter = A.normal_form(NCPoly.word((x3, x1, x3, x1, x1)))
    factors = {str(fac.as_expr()) for c in counter.terms.values()
               for fac, _ in _den_in_E(c.den).factor_list()[1]}
    assert "E**3 - E**2 - 2*E + 1" in factors  # a factor of U_6(E/2)
    assert max(_chebyshev_orders(counter)) == 6
    # words reaching 2m = 2(n - 2) at n = 3, 4, 5, 6
    for w in ((x3, x1, x3), (x3, x1, x1, x1), (x3, x1, x1, x1, x3),
              (x3,) + (x1,) * 5):
        assert max(_chebyshev_orders(A.normal_form(NCPoly.word(w)))) == 2 * (len(w) - 2)

    rng = np.random.default_rng(23)
    for make, hi, lo in ((quantum_sphere, "x2", "x1"), (local_first_order, "x2", "x1"),
                         (ambient_algebra, "s2", "s1")):
        alg = make()
        words = [(alg.pos[hi],) * (n // 2) + (alg.pos[lo],) * (n - n // 2)
                 for n in range(3, 7)]
        words += [tuple(int(v) for v in rng.integers(0, len(alg.gens), n))
                  for n in (3, 4, 5) for _ in range(4)]
        for w in words:
            orders = _chebyshev_orders(alg.normal_form(NCPoly.word(w)))
            assert None not in orders, w
            assert max(orders, default=0) <= 2 * (len(w) - 2), w
