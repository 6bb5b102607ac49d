from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kads.scalars import (PARAMS, CyclicSubstitution, Frac, NonTerminating, Scalar,
                          UnboundParameter, make_rule, mono_key, poly_divmod,
                          rat, reduce_mod, sphere_rules, sym, trig_rules)

eta, kinv = sym("eta"), sym("kinv")
a1, a2, a3 = sym("alpha1"), sym("alpha2"), sym("alpha3")


# -- a dense-polynomial oracle over two fixed variables -------------------------
# Independent representation: nested coefficient lists [ [c00, c01...], ... ]
# for sums c_ij * eta^i * kinv^j.

def dense_of(s: Scalar, vi=0, vj=1):
    rows = {}
    for m, c in s.terms.items():
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
    assert Scalar.parse(str(p)) == p
    assert Scalar.parse("0") == Scalar()
    q = -eta + rat(1, 3) * sym("vtheta") ** 2
    assert Scalar.parse(str(q)) == q
    # unicode minus accepted
    assert Scalar.parse("eta − kinv") == eta - kinv


def test_poly_divmod_exact_and_remainder():
    p = (eta - kinv) * (eta + kinv)
    q, r = poly_divmod(p, eta - kinv)
    assert r == Scalar() and q == eta + kinv
    q, r = poly_divmod(eta ** 2 + 1, eta)
    assert r == rat(1) and q == eta


def test_frac_arithmetic():
    f = Frac(eta ** 2 - kinv ** 2, eta - kinv)
    assert f == Frac(eta + kinv)
    g = Frac(rat(1), 1 - (eta * kinv) ** 2)
    h = g + g
    assert h == Frac(rat(2), 1 - (eta * kinv) ** 2)
    assert (g - g).is_zero()
    assert (g * Frac(1 - (eta * kinv) ** 2)) == Frac(rat(1))


@settings(max_examples=80, deadline=None)
@given(scalars_st)
def test_serialization_round_trips_random(p):
    assert Scalar.parse(str(p)) == p


@settings(max_examples=60, deadline=None)
@given(scalars_st, scalars_st)
def test_frac_field_axioms(p, q):
    den = eta * kinv - 1  # nonzero localized denominator
    a = Frac(p, den)
    b = Frac(q, den * den)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    if not b.is_zero():
        assert (a / b) * b == a


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
    for m, c in s.terms.items():
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
    assert f.den.leading()[1] == 1
    if p.is_zero():
        assert f.is_zero() and f.den == Scalar.rational(1)
        return
    num, den = sympy.fraction(sympy.cancel(sympy_of(p) / sympy_of(q)))
    k = sympy.cancel(den / sympy_of(f.den))
    assert k.is_Rational and k != 0
    assert sympy.expand(sympy_of(f.den) * k - den) == 0
    assert sympy.expand(sympy_of(f.num) * k - num) == 0


@settings(max_examples=60, deadline=None)
@given(numerators_st, ucoeffs_st, st.integers(0, 1), numerators_st, ucoeffs_st)
def test_frac_ops_give_the_canonical_form(p1, qc1, shift, p2, qc2):
    t = eta * kinv
    q1, q2 = t ** shift * upoly(t, qc1), upoly(t, qc2)
    x, y = Frac(p1, q1), Frac(p2, q2)
    for got, want in ((x + y, Frac(p1 * q2 + p2 * q1, q1 * q2)),
                      (x - y, Frac(p1 * q2 - p2 * q1, q1 * q2)),
                      (x * y, Frac(p1 * p2, q1 * q2))):
        assert (got.num, got.den) == (want.num, want.den)
    if not p2.is_zero():
        assert x / y == Frac(p1 * q2, q1 * p2)


def test_monomial_order_is_multiplicative():
    m1 = sorted((eta ** 2).terms)[0]
    m2 = sorted((sym("Lambda")).terms)[0]
    m3 = sorted((kinv).terms)[0]
    from kads.scalars import mono_mul
    assert mono_key(m1) > mono_key(m2)
    assert mono_key(mono_mul(m1, m3)) > mono_key(mono_mul(m2, m3))
