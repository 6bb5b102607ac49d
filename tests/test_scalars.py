import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kads import scalars
from kads.curvtrig import Dual
from kads.scalars import (EXP_MAX, NPARAMS, PARAMS, WEIGHTS, CyclicSubstitution,
                          ExponentOverflow, Frac, NonTerminating, Scalar,
                          UnboundParameter, UnsupportedDenominator, _gcd_with,
                          _shift, _umul, accumulate, make_rule, mono_divides,
                          mono_min, mono_mul, pack, poly_divmod, rat, reduce_mod,
                          sym, unpack)

from oracles import sphere_rules, trig_rules

eta, kinv = sym("eta"), sym("kinv")
a1, a2, a3 = sym("alpha1"), sym("alpha2"), sym("alpha3")


# -- a dense-polynomial oracle over two fixed variables -------------------------
# Independent representation: nested coefficient lists [ [c00, c01...], ... ]
# for sums c_ij * eta^i * kinv^j.

def dense_of(s: Scalar, vi=0, vj=1):
    rows = {}
    for m, c in s.exponents().items():
        for k, e in enumerate(m):
            if e and k not in (vi, vj):
                raise ValueError("oracle handles two variables only")
        rows[(m[vi], m[vj])] = c
    ni = max((i for i, _ in rows), default=0) + 1
    nj = max((j for _, j in rows), default=0) + 1
    out = [[Fraction(0)] * nj for _ in range(ni)]
    for (i, j), c in rows.items():
        out[i][j] = c
    return out


def dense_mul(a, b):
    out = [[Fraction(0)] * (len(a[0]) + len(b[0]) - 1)
           for _ in range(len(a) + len(b) - 1)]
    for i, row in enumerate(a):
        for j, c in enumerate(row):
            if not c:
                continue
            for k, brow in enumerate(b):
                for l, d in enumerate(brow):
                    out[i + k][j + l] += c * d
    return out


def dense_trim(a):
    return {(i, j): c for i, row in enumerate(a) for j, c in enumerate(row) if c}


def test_mul_matches_dense_oracle():
    p = rat(3, 2) * eta ** 2 + kinv - 1
    q = eta * kinv - rat(2) * eta
    prod = p * q
    oracle = dense_trim(dense_mul(dense_of(p), dense_of(q)))
    assert dense_trim(dense_of(prod)) == oracle


def test_difference_of_squares():
    a, b = sym("a1"), sym("a2")
    assert (a + b) * (a - b) == a ** 2 - b ** 2


def test_additive_identity_and_inverse():
    assert eta + Scalar() == eta
    assert (eta * kinv) + (-(eta * kinv)) == Scalar()


def test_term_merge():
    p = a1 ** 2 + a2 ** 2
    assert len(p.terms) == 2
    assert all(c == 1 for c in p.terms.values())


# (nonzero value, a zero of the same kind) for every coefficient type in use
ACCUMULATE_CASES = {
    "Scalar": (eta * kinv - 2, Scalar()),
    "Frac": (Frac(eta, kinv + 1), Frac.of(0)),
    "Fraction": (Fraction(3, 7), Fraction(0)),
    "int": (5, 0),
    "float": (0.25, 0.0),
    "complex": (1.5 - 2j, 0j),
    "numpy.float64": (np.float64(0.125), np.float64(0.0)),
    "-0.0": (2.0, -0.0),
}


@pytest.mark.parametrize("x, zero", ACCUMULATE_CASES.values(), ids=ACCUMULATE_CASES)
def test_accumulate_keeps_exactly_the_nonzero_sums(x, zero):
    store = {"other": x}
    accumulate(store, "k", zero)
    assert "k" not in store          # a zero onto a missing key stores nothing
    accumulate(store, "k", x)
    accumulate(store, "k", zero)
    assert store["k"] == x           # nonzero sum: kept
    accumulate(store, "k", x)
    assert store["k"] == x + x
    accumulate(store, "k", -(x + x))
    assert list(store) == ["other"]  # zero sum: the key is dropped


def test_accumulate_keeps_nan():
    store = {}
    accumulate(store, "k", math.nan)
    assert math.isnan(store["k"])


scalars_st = st.builds(
    lambda coeffs: sum(
        (Scalar.monomial(Fraction(c), eta=i % 3, kinv=(i // 3) % 3, alpha1=i % 2)
         for i, c in enumerate(coeffs)),
        Scalar()),
    st.lists(st.integers(-6, 6), min_size=0, max_size=6),
)


@settings(max_examples=120, deadline=None)
@given(scalars_st, scalars_st, scalars_st)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(scalars_st, scalars_st)
def test_eval_is_additive(p, q):
    vals = {"eta": 1.37, "kinv": -0.42, "alpha1": 0.91}
    lhs = (p + q).eval_numeric(vals)
    rhs = p.eval_numeric(vals) + q.eval_numeric(vals)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_eval_examples():
    assert (eta * kinv).eval_numeric({"eta": 2.0, "kinv": 0.5}) == 1.0
    assert (eta ** 2).eval_numeric({"eta": 3.0}) == 9.0
    with pytest.raises(UnboundParameter):
        (eta + kinv).eval_numeric({"eta": 1.0})


def test_eval_by_ring_operations():
    # one evaluator for complex, dual and exact values
    p = eta * eta * kinv - 3 * eta + rat(1, 2)
    assert p.eval_numeric({"eta": 1j, "kinv": 2.0}) == -1.5 - 3j
    d = p.eval_numeric({"eta": Dual(0.0, 1.0), "kinv": 2.0})
    assert (d.re, d.eps) == (0.5, -3.0)
    assert p.eval_numeric({"eta": eta, "kinv": kinv}) == p
    assert p.eval_numeric({"eta": rat(2), "kinv": rat(1, 4)}) == rat(-9, 2)
    assert Scalar().eval_numeric({}) == 0.0


def test_substitute_examples():
    # the polar point of the sphere parametrization
    assert sym("alpha3").substitute({"alpha3": sym("R")}) == sym("R")
    assert eta.substitute({}) == eta
    with pytest.raises(CyclicSubstitution):
        eta.substitute({"eta": eta + 1})


def test_substitute_on_sphere_stand_ins():
    p = a1 ** 2 + a2 ** 2 + a3 ** 2
    subbed = p.substitute({"alpha1": sym("a1"), "alpha2": sym("a2"),
                           "alpha3": sym("a3")})
    reduced = reduce_mod(subbed, sphere_rules())
    assert reduced == sym("R") ** 2


def test_reduce_mod_examples():
    rule = make_rule(a1 ** 2 + a2 ** 2 + a3 ** 2 - (eta * kinv) ** 2)
    out = reduce_mod(a1 ** 2 + a2 ** 2 + a3 ** 2, [rule])
    assert out == (eta * kinv) ** 2
    assert reduce_mod(Scalar(), [rule]) == Scalar()
    # numeric follow-up on the reduced value
    assert out.eval_numeric({"eta": 1.3, "kinv": 0.7}) == pytest.approx(0.8281, abs=1e-15)


def test_reduce_mod_trig_alignment():
    # beta parallel to the sphere point: the cleared-denominator identities
    ct, stv, cp, sp = sym("ctheta"), sym("stheta"), sym("cphi"), sym("sphi")
    t = sym("vtheta")
    beta1 = t * stv * cp
    beta3 = t * ct
    assert reduce_mod(ct * beta1 - beta3 * stv * cp, trig_rules()) == Scalar()
    # the sphere constraint reduces through the Pythagorean rules
    r = sym("R")
    alpha = (r * stv * cp, -(r * stv * sp), r * ct)
    total = sum((x * x for x in alpha), Scalar()) - r ** 2
    assert reduce_mod(total, trig_rules()) == Scalar()


def test_reduce_mod_idempotent():
    rule = make_rule(a1 ** 2 + a2 ** 2 + a3 ** 2 - (eta * kinv) ** 2)
    p = (a1 ** 2 + a2 ** 2) * (a1 ** 2 + kinv) + a3 * a1
    once = reduce_mod(p, [rule])
    assert reduce_mod(once, [rule]) == once


def test_rules_must_decrease_order():
    # orienting Lambda -> -eta^2 by hand increases the order and is rejected
    from kads.scalars import RewriteRule
    lam_mono = next(iter(sym("Lambda").terms))
    with pytest.raises(NonTerminating):
        RewriteRule(lam_mono, -(eta ** 2))
    # make_rule picks the decreasing orientation for the same polynomial
    rule = make_rule(sym("Lambda") + eta ** 2)
    assert rule.rhs == -sym("Lambda")


def test_serialization_round_trip():
    p = rat(3, 2) * eta ** 2 * kinv - 1
    assert str(p) == "3/2*eta^2*kinv - 1"
    assert str(Scalar()) == "0"
    q = -eta + rat(1, 3) * sym("vtheta") ** 2
    assert str(q) == "1/3*vtheta^2 - eta"


def test_poly_divmod_exact_and_remainder():
    p = (eta - kinv) * (eta + kinv)
    q, r = poly_divmod(p, eta - kinv)
    assert r == Scalar() and q == eta + kinv
    q, r = poly_divmod(eta ** 2 + 1, eta)
    assert r == rat(1) and q == eta


def test_frac_arithmetic():
    t = eta * kinv
    f = Frac(t ** 2 - 1, t - 1)
    assert f == Frac(t + 1)
    with pytest.raises(UnsupportedDenominator):  # eta - kinv is no x^c * f(t)
        Frac(eta ** 2 - kinv ** 2, eta - kinv)
    g = Frac(rat(1), 1 - (eta * kinv) ** 2)
    h = g + g
    assert h == Frac(rat(2), 1 - (eta * kinv) ** 2)
    assert (g - g).is_zero()
    assert (g * Frac(1 - (eta * kinv) ** 2)) == Frac(rat(1))


# numerators a Frac can divide by: x^c * f(eta*kinv)
view_st = st.builds(
    lambda coeffs, c: sum((Scalar.monomial(Fraction(a), eta=k, kinv=k + c, alpha1=c)
                           for k, a in enumerate(coeffs)), Scalar()),
    st.lists(st.integers(-6, 6), min_size=0, max_size=4), st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(scalars_st, scalars_st, view_st)
def test_frac_field_axioms(p, q, v):
    den = eta * kinv - 1  # nonzero localized denominator
    a = Frac(p, den)
    b = Frac(q, den * den)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    c = Frac(v, den * den)
    if not c.is_zero():
        assert (a / c) * c == a
    with pytest.raises(UnsupportedDenominator):  # a divisor with numerator eta + kinv
        a / Frac(eta + kinv, den)


def test_frac_eq_with_foreign_operands():
    one = Frac.of(1)
    assert one in [None, 1]
    assert one != None and one != "1" and one != 1.0  # noqa: E711
    assert Frac.of(2) not in [None, "2", 2.5]
    assert one == 1 and one == Fraction(1) and one == Scalar.rational(1)


# -- canonical form against sympy.cancel ------------------------------------------

SYMPY_PARAMS = sympy.symbols(PARAMS)
T_MONOMIALS = {"eta*kinv": eta * kinv, "kinv": kinv, "Lambda": sym("Lambda")}


def sympy_of(s: Scalar):
    out = sympy.Integer(0)
    for m, c in s.exponents().items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(SYMPY_PARAMS, m):
            term *= x ** e
        out += term
    return out


def upoly(t: Scalar, coeffs) -> Scalar:
    return sum((c * t ** k for k, c in enumerate(coeffs)), Scalar())


numerators_st = st.builds(
    lambda terms: sum((Scalar.monomial(c, eta=a, kinv=b, vtheta=v, Lambda=lam)
                       for c, a, b, v, lam in terms), Scalar()),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2),
                       st.integers(0, 1), st.integers(0, 2)), max_size=5))
ucoeffs_st = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(T_MONOMIALS)), numerators_st, ucoeffs_st,
       st.integers(0, 1), ucoeffs_st)
def test_frac_canonical_form_matches_sympy_cancel(tname, p, qc, shift, gc):
    t = T_MONOMIALS[tname]
    q = t ** shift * upoly(t, qc)
    g = upoly(t, gc)
    f = Frac(p * g, q * g)
    if p.is_zero():
        assert f.is_zero() and f.den == Scalar.rational(1)
        return
    assert_cancelled(f, p, q)


def assert_cancelled(f: Frac, p: Scalar, q: Scalar):
    """f is p/q in lowest terms with a monic denominator (sympy.cancel)."""
    assert f.den.leading()[1] == 1
    num, den = sympy.fraction(sympy.cancel(sympy_of(p) / sympy_of(q)))
    k = sympy.cancel(den / sympy_of(f.den))
    assert k.is_Rational and k != 0
    assert sympy.expand(sympy_of(f.den) * k - den) == 0
    assert sympy.expand(sympy_of(f.num) * k - num) == 0


@settings(max_examples=60, deadline=None)
@given(numerators_st, ucoeffs_st, st.integers(0, 1), numerators_st, ucoeffs_st, ucoeffs_st)
def test_frac_ops_give_the_canonical_form(p1, qc1, shift, p2, qc2, vc):
    t = eta * kinv
    q1, q2 = t ** shift * upoly(t, qc1), upoly(t, qc2)
    x, y = Frac(p1, q1), Frac(p2, q2)
    for got, want in ((x + y, Frac(p1 * q2 + p2 * q1, q1 * q2)),
                      (x - y, Frac(p1 * q2 - p2 * q1, q1 * q2)),
                      (x * y, Frac(p1 * p2, q1 * q2))):
        assert (got.num, got.den) == (want.num, want.den)
    v = upoly(t, vc)  # a divisor numerator of the form f(t)
    assert x / Frac(v, q2) == Frac(p1 * q2, q1 * v)
    with pytest.raises(UnsupportedDenominator):  # a divisor with numerator eta + kinv
        x / Frac(eta + kinv, q2)


def test_monomial_order_is_multiplicative():
    # packed monomials compare as ints: weighted degree, then lex
    m1 = pack(sorted((eta ** 2).exponents())[0])
    m2 = pack(sorted((sym("Lambda")).exponents())[0])
    m3 = pack(sorted((kinv).exponents())[0])
    assert m1 > m2
    assert mono_mul(m1, m3) > mono_mul(m2, m3)


# -- packed monomials against a tuple reference ----------------------------------

exponent_st = st.one_of(st.integers(0, 3), st.integers(0, EXP_MAX))
exponents_st = st.lists(exponent_st, min_size=NPARAMS, max_size=NPARAMS).map(tuple)


def tuple_key(e):
    """The reference monomial order: weighted degree, then lex."""
    return sum(w * x for w, x in zip(WEIGHTS, e)), e


@settings(max_examples=150, deadline=None)
@given(exponents_st, exponents_st)
def test_packed_monomials_match_the_tuple_reference(a, b):
    pa, pb = pack(a), pack(b)
    assert unpack(pa) == a and unpack(pb) == b
    assert (pa < pb) == (tuple_key(a) < tuple_key(b))
    assert (pa == pb) == (a == b)
    prod = tuple(x + y for x, y in zip(a, b))
    if max(prod) > EXP_MAX:
        with pytest.raises(ExponentOverflow):
            mono_mul(pa, pb)
    else:
        assert mono_mul(pa, pb) == pack(prod)
    divides = all(x <= y for x, y in zip(a, b))
    assert mono_divides(pa, pb) == divides
    if divides:
        assert pb - pa == pack(tuple(y - x for x, y in zip(a, b)))
    assert mono_min(pa, pb) == pack(tuple(map(min, a, b)))


def test_exponent_overflow_is_named_and_never_carries():
    with pytest.raises(ExponentOverflow):
        pack((EXP_MAX + 1,) + (0,) * (NPARAMS - 1))
    with pytest.raises(ExponentOverflow):
        sym("kinv", EXP_MAX + 1)
    # the last field (sphi) and a middle one: no carry into the neighbour
    for name in ("sphi", "kinv", "eta"):
        top = sym(name, EXP_MAX)
        assert top.degree_in(name) == EXP_MAX
        with pytest.raises(ExponentOverflow):
            top * sym(name)
    with pytest.raises(ExponentOverflow):
        (eta * kinv - 1) * sym("kinv", EXP_MAX)
    with pytest.raises(ExponentOverflow):
        eta ** 40000
    # raised up front: squaring a dense base to degree 16384 first takes minutes
    with pytest.raises(ExponentOverflow):
        (eta + kinv ** 2 + 1) ** 20000
    # square-and-multiply squares no further than the highest bit needs
    assert (eta ** 20000).exponents() == {(20000,) + (0,) * (NPARAMS - 1): 1}


def test_shift_past_the_weight_bound():
    # alpha1^12000 weighs 36000 > EXP_MAX, yet every exponent fits
    m, t = pack((0, 0, 0, 12000) + (0,) * (NPARAMS - 4)), pack((1, 1) + (0,) * (NPARAMS - 2))
    assert unpack(_shift(m, t, 3)) == (3, 3, 0, 12000) + (0,) * (NPARAMS - 4)
    assert _shift(_shift(m, t, 3), t, -3) == m
    with pytest.raises(ExponentOverflow):
        _shift(m, t, EXP_MAX + 1)


# -- the modular gcd and its cofactors ---------------------------------------------

P61 = (1 << 61) - 1

# common factor G, cofactors of f and P (in t, constant term first), and
# whether Euclid over Q must run
GCD_CASES = {
    "lift divides": ([3, 1], [2, 1], [-1, 1], False),
    "lift beyond 2^60": ([2 ** 62 + 3, 1], [2, 1], [-1, 1], True),
    "f denominator divisible by p": ([Fraction(1, P61), 1], [3, 1], [-1, 1], True),
    "P denominator divisible by p": ([1, 1], [3, 1], [Fraction(-1, P61), 1], True),
    "non-integer f coefficient": ([Fraction(1, 2), 1], [3, 1], [-1, 1], True),
}


def assert_cofactors(f: list, polys: list) -> list:
    """_gcd_with's monic gcd, after checking G * cofactor == input for each."""
    g, fq, quots = _gcd_with(f, polys)
    assert g[-1] == 1
    for p, q in zip([f, *polys], [fq, *quots]):
        assert _umul(g, q) == list(p)
    return g


@pytest.mark.parametrize("case", sorted(GCD_CASES))
def test_gcd_branches_match_sympy_cancel(case, monkeypatch):
    g, fc, pc, euclid = GCD_CASES[case]
    ugcd, calls = scalars._ugcd, []
    monkeypatch.setattr(scalars, "_ugcd", lambda a, b: calls.append(1) or ugcd(a, b))
    f, p = _umul(g, fc), _umul(g, pc)
    assert assert_cofactors(f, [p]) == g
    assert bool(calls) == euclid
    t = eta * kinv
    x = Frac(upoly(t, p), upoly(t, f))
    assert (x.num, x.den) == (upoly(t, pc), upoly(t, fc))
    assert_cancelled(x, upoly(t, p), upoly(t, f))


ucoeff_st = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4))
upoly_st = st.lists(ucoeff_st, min_size=1, max_size=4).filter(lambda c: c[-1] != 0)


@settings(max_examples=80, deadline=None)
@given(upoly_st, upoly_st, st.lists(upoly_st, min_size=1, max_size=3), view_st)
def test_gcd_cofactors_multiply_back(gc, fc, pcs, v):
    # every gcd that building and combining view-form fractions takes
    t = eta * kinv
    g, q = upoly(t, gc), upoly(t, fc)
    num = sum((sym("vtheta", r) * upoly(t, pc) for r, pc in enumerate(pcs)), Scalar())
    seen = []

    def recording(f, polys):
        seen.append((f, polys))
        return _gcd_with(f, polys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_gcd_with", recording)
        x = Frac(num * g, q * g)
        y = Frac(v, q * g * g)
        x + y, x * y
    for f, polys in seen:
        assert_cofactors(f, polys)
    if num:
        assert_cancelled(x, num, q)


# -- exactness: coefficients stay int or Fraction ---------------------------------

def canonical_exact(x) -> bool:
    """Every coefficient of a Scalar or Frac is an int, or a Fraction that is
    not an integer."""
    polys = (x.num, x.den) if isinstance(x, Frac) else (x,)
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for p in polys for c in p.terms.values())


rational_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
rational_scalars_st = st.builds(
    lambda coeffs: sum(
        (Scalar.monomial(c, eta=i % 3, kinv=(i // 3) % 3, alpha1=i % 2)
         for i, c in enumerate(coeffs)),
        Scalar()),
    st.lists(rational_st, min_size=0, max_size=6),
)


def test_make_rule_divides_exactly():
    rule = make_rule(eta - 1)
    assert rule.rhs == 1 and type(rule.rhs.terms[pack((0,) * NPARAMS)]) is int
    rule = make_rule(2 * eta - 1)
    assert rule.rhs.terms == {pack((0,) * NPARAMS): Fraction(1, 2)}


@settings(max_examples=120, deadline=None)
@given(rational_scalars_st, rational_scalars_st, rational_st.filter(bool))
def test_exact_kernel_makes_no_float(p, q, k):
    out = [p + q, p - q, p * q, -p, p * k, p / k, p ** 3, p.normalized(),
           p.substitute({"eta": rat(1, 2), "kinv": sym("vtheta") / 3}),
           p.substitute({"alpha1": sym("eta") * k})]
    if not q.is_zero():
        rule = make_rule(q)
        out += [rule.rhs, reduce_mod(p, [rule]), *poly_divmod(p * q + p, q)]
    # a polynomial in eta alone is x^c * f(t) with t = eta: a valid
    # denominator and divisor
    pe, qe = (s.substitute({"kinv": rat(1), "alpha1": rat(1)}) for s in (p, q))
    if not qe.is_zero():
        x, y = Frac(p, qe), Frac(q + 1, (eta - 2) * k)
        out += [x, y, x + y, x - y, x * y, -x, x + 1, y * k]
        if not pe.is_zero():
            out.append(y / Frac(pe, qe))
    for r in out:
        assert canonical_exact(r), r
    with pytest.raises(UnsupportedDenominator):  # polynomials in different t
        Frac(rat(1), 1 - eta * kinv) + Frac(rat(1), 1 - sym("Lambda"))
