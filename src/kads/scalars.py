"""Exact arithmetic kernel: sparse multivariate polynomials over the rationals.

A :class:`Scalar` is a finite sum of monomials in a fixed, closed set of
formal parameters (deformation scales, family parameters, algebraic
stand-ins for the trigonometric functions of the two sphere angles).  The
representation is a dict mapping packed monomials (see below) to
coefficients.  A coefficient is an ``int`` when its value is an integer and
a ``Fraction`` otherwise, e.g.::

    {pack((2, 1, 0, ..., 0)): Fraction(3, 2), pack((0, ..., 0)): -1}

which prints as ``3/2*eta^2*kinv - 1``.  Zero coefficients are never
stored, so equality and zero-tests are structural.

A monomial is one ``int``.  Each parameter has a 16-bit field, ``PARAMS[0]``
in the most significant one; the top bit of a field is a guard bit, so an
exponent is at most ``EXP_MAX`` = 2^15 - 1, and the weighted degree sits
above all the fields.  Packing is linear: the product of two monomials is
the sum of their ints, a quotient is the difference, and m * t^k is
m + k*t.  A product whose exponent reaches a guard bit raises
:class:`ExponentOverflow`; it never carries into the next field.
:func:`unpack` gives the exponent vector back, and
:meth:`Scalar.exponents` the whole polynomial by exponent vectors.

Monomials are compared by a weighted degree (weights below) with a
lexicographic tie-break on the exponent vector, which with this layout is
the order of the ints themselves.  The weights are chosen so that every
rewrite rule used in this project (sphere constraint, trig Pythagoras,
curvature relation) replaces a monomial by strictly smaller ones, which
makes :func:`reduce_mod` terminate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

# The parameter set is closed: adding a parameter is a code change here,
# nowhere else.  Order matters (it is the lex tie-break priority).
PARAMS = (
    "eta",      # curvature scale, eta^2 = -Lambda
    "kinv",     # inverse deformation mass scale
    "vtheta",   # twist parameter
    "alpha1", "alpha2", "alpha3",
    "beta1", "beta2", "beta3",
    "Lambda",   # cosmological constant kept formal
    "R",        # sphere radius
    "a1", "a2", "a3",          # algebraic sphere-point coordinates
    "ctheta", "stheta",         # cos/sin stand-ins for the polar angle
    "cphi", "sphi",             # cos/sin stand-ins for the azimuthal angle
)
NPARAMS = len(PARAMS)
PARAM_INDEX = {name: i for i, name in enumerate(PARAMS)}

# Weighted grading: family parameters are "heavy" so that e.g.
# alpha1^2 -> (eta*kinv)^2 - alpha2^2 - alpha3^2 is order-decreasing.
_WEIGHTS = {
    "eta": 1, "kinv": 1, "vtheta": 1, "Lambda": 1,
    "R": 2,
    "alpha1": 3, "alpha2": 3, "alpha3": 3,
    "beta1": 3, "beta2": 3, "beta3": 3,
    "a1": 3, "a2": 3, "a3": 3,
    "ctheta": 1, "stheta": 1, "cphi": 1, "sphi": 1,
}
WEIGHTS = tuple(_WEIGHTS[p] for p in PARAMS)

# Packed monomial layout.
_BITS = 16
EXP_MAX = (1 << (_BITS - 1)) - 1
_FIELD = (1 << _BITS) - 1
_SHIFTS = tuple(_BITS * (NPARAMS - 1 - i) for i in range(NPARAMS))
_WSHIFT = _BITS * NPARAMS                     # the weighted degree sits here
_FIELDS = (1 << _WSHIFT) - 1                  # every exponent field
_GUARDS = sum(1 << (s + _BITS - 1) for s in _SHIFTS)

_ZERO_MONO = 0
_ONE_TERMS = {_ZERO_MONO: 1}


class CyclicSubstitution(ValueError):
    """A substitution binds a parameter that occurs in a binding value."""


class UnboundParameter(KeyError):
    """Numeric evaluation hit a parameter without a value."""


class NonTerminating(ValueError):
    """A rewrite rule does not strictly decrease the monomial order."""


class ExponentOverflow(OverflowError):
    """An exponent exceeds ``EXP_MAX``, the largest one a packed monomial holds."""


class UnsupportedDenominator(ValueError):
    """A Frac denominator is not x^c * f(t) for one primitive monomial t, or
    two denominators are polynomials in different monomials t."""


def pack(exps) -> int:
    """The packed monomial of an exponent vector (one entry per ``PARAMS``)."""
    if len(exps) != NPARAMS:
        raise ValueError(f"an exponent vector has {NPARAMS} entries")
    m = w = 0
    for s, wt, e in zip(_SHIFTS, WEIGHTS, exps):
        if e < 0:
            raise ValueError("negative powers are not representable")
        if e > EXP_MAX:
            raise ExponentOverflow(f"exponent {e} exceeds {EXP_MAX}")
        m |= e << s
        w += wt * e
    return m | w << _WSHIFT


def unpack(m: int) -> tuple:
    """The exponent vector of a packed monomial."""
    return tuple(m >> s & _FIELD for s in _SHIFTS)


def _weighted(fields: int) -> int:
    """The monomial with these exponent fields (its weighted degree added)."""
    w = sum(wt * (fields >> s & _FIELD) for s, wt in zip(_SHIFTS, WEIGHTS))
    return fields | w << _WSHIFT


def _overflow(m: int) -> ExponentOverflow:
    """The error for a sum of two monomials with a guard bit set."""
    name = next(p for p, s in zip(PARAMS, _SHIFTS) if m >> s & _FIELD > EXP_MAX)
    return ExponentOverflow(f"the exponent of {name} exceeds {EXP_MAX}")


def mono_mul(a: int, b: int) -> int:
    m = a + b
    if m & _GUARDS:
        raise _overflow(m)
    return m


def mono_divides(d: int, m: int) -> bool:
    # a field's guard bit survives the subtraction iff its exponent in m is
    # at least the one in d; no field borrows from the next
    return ((m | _GUARDS) - d) & _GUARDS == _GUARDS


def mono_min(a: int, b: int) -> int:
    """Componentwise minimum of two monomials (their gcd)."""
    a &= _FIELDS
    b &= _FIELDS
    ge = (((a | _GUARDS) - b) & _GUARDS) >> (_BITS - 1)  # 1 where a_i >= b_i
    take_b = ge * EXP_MAX
    return _weighted(b & take_b | a & ~take_b)


def _canon(q):
    """An exact coefficient in canonical form: an integral Fraction as int."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _coerce(x):
    """``x`` as a canonical exact coefficient."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return _canon(x)
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


def _qdiv(a, b):
    """a/b as a canonical exact coefficient; two ints give no float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canon(Fraction(a) / b)


_new = object.__new__


def _wrap(terms: dict) -> "Scalar":
    """A Scalar owning ``terms`` (packed monomials, canonical coefficients)."""
    s = _new(Scalar)
    s.terms = terms
    return s


class Scalar:
    """Exact polynomial in the fixed parameter set, immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int | Fraction] | None = None):
        # Internal constructor; assumes packed monomials and canonical
        # coefficients (int when integral, else Fraction).
        self.terms = dict(terms) if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "Scalar":
        q = _coerce(q)
        return _wrap({_ZERO_MONO: q}) if q else cls()

    @classmethod
    def param(cls, name: str, power: int = 1) -> "Scalar":
        if name not in PARAM_INDEX:
            raise KeyError(f"unknown parameter {name!r}")
        if power < 0:
            raise ValueError("negative powers are not representable")
        if power == 0:
            return cls.rational(1)
        return cls.monomial(1, **{name: power})

    @classmethod
    def monomial(cls, coeff, **powers: int) -> "Scalar":
        mono = [0] * NPARAMS
        for name, e in powers.items():
            mono[PARAM_INDEX[name]] = e
        m = pack(mono)
        c = _coerce(coeff)
        return _wrap({m: c}) if c else cls()

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is Scalar:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Scalar.rational(other).terms
        return NotImplemented

    __hash__ = None  # mutable-dict backed; not hashable

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.rational(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s:
                    out[m] = s if type(s) is int else _canon(s)
                else:
                    del out[m]
            else:
                out[m] = c
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.rational(other)
        return self + -other

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = _coerce(other)
            if not q:
                return Scalar()
            return _wrap({m: _canon(c * q) for m, c in self.terms.items()})
        a, b = self.terms, other.terms
        if a == _ONE_TERMS:
            return other
        if b == _ONE_TERMS:
            return self
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                if m & _GUARDS:
                    raise _overflow(m)
                if m in out:
                    s = out[m] + c1 * c2
                    if s:
                        out[m] = s if type(s) is int else _canon(s)
                    else:
                        del out[m]
                else:
                    s = c1 * c2
                    out[m] = s if type(s) is int else _canon(s)
        return _wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        return self * _qdiv(1, _coerce(other))

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # self^n has a term with n times self's largest exponent (in a lex
        # order led by that parameter, its leading term is the n-th power of
        # self's), so an overflow is known before any squaring; the weighted
        # degree bounds every exponent
        if self.terms and n * (max(self.terms) >> _WSHIFT) > EXP_MAX:
            top = max(max(unpack(m)) for m in self.terms)
            if n * top > EXP_MAX:
                raise ExponentOverflow(f"exponent {n * top} exceeds {EXP_MAX}")
        out = Scalar.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square beyond the highest bit: it could overflow
                base = base * base
        return out

    # -- structure queries --------------------------------------------------

    def exponents(self) -> dict:
        """The terms by exponent vector: {(e_0, ..., e_17): coefficient}."""
        return {unpack(m): c for m, c in self.terms.items()}

    def params(self) -> set:
        used = 0
        for m in self.terms:
            used |= m
        return {p for p, s in zip(PARAMS, _SHIFTS) if used >> s & _FIELD}

    def leading(self) -> tuple:
        """(monomial, coefficient) of the largest term; raises on zero."""
        m = max(self.terms)
        return m, self.terms[m]

    def total_degree(self) -> int:
        return max((sum(unpack(m)) for m in self.terms), default=0)

    def monomial_content(self) -> int:
        """Componentwise min exponent over all terms (the monomial gcd)."""
        its = iter(self.terms)
        lo = next(its)
        for m in its:
            if not lo:
                break
            lo = mono_min(lo, m)
        return lo

    def normalized(self) -> "Scalar":
        """Strip the monomial content and divide by the leading coefficient."""
        if not self.terms:
            return self
        content = self.monomial_content()
        inv = _qdiv(1, self.terms[max(self.terms)])
        return _wrap({m - content: _canon(c * inv) for m, c in self.terms.items()})

    def degree_in(self, name: str) -> int:
        s = _SHIFTS[PARAM_INDEX[name]]
        return max((m >> s & _FIELD for m in self.terms), default=0)

    def homogeneous_part(self, name: str, degree: int) -> "Scalar":
        """The terms in which ``name`` has exponent ``degree``."""
        s = _SHIFTS[PARAM_INDEX[name]]
        return _wrap({m: c for m, c in self.terms.items() if m >> s & _FIELD == degree})

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Simultaneous exact substitution; bindings must be acyclic."""
        if not bindings:
            return self
        bound = set(bindings)
        vals = {}
        for name, v in bindings.items():
            if not isinstance(v, Scalar):
                v = Scalar.rational(v)
            if v.params() & bound:
                raise CyclicSubstitution(
                    f"binding for {name!r} mentions a bound parameter")
            vals[name] = v
        out = Scalar()
        for m, c in self.terms.items():
            factor = Scalar.rational(c)
            for i, e in enumerate(unpack(m)):
                if not e:
                    continue
                name = PARAMS[i]
                if name in vals:
                    factor = factor * vals[name] ** e
                else:
                    factor = factor * Scalar.param(name, e)
            out = out + factor
        return out

    def eval_numeric(self, values: Mapping[str, object]):
        """Value at ``values`` by ring operations only, so floats, complex
        numbers, dual numbers and Scalars all work; every used parameter must
        be bound.  The zero polynomial evaluates to 0.0."""
        missing = self.params() - set(values)
        if missing:
            raise UnboundParameter(f"unbound parameters: {sorted(missing)}")
        return eval_monomials(self.monomials(), values)

    def monomials(self) -> tuple:
        """The terms in storage order, unpacked for ``eval_monomials``:
        ((coefficient, ((parameter, exponent), ...)), ...), nonzero
        exponents only."""
        return tuple((c, tuple((PARAMS[i], e) for i, e in enumerate(unpack(m)) if e))
                     for m, c in self.terms.items())

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [
                PARAMS[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(unpack(m)) if e
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(c)) + "*" + "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


ONE = Scalar.rational(1)


def eval_monomials(monomials: tuple, values: Mapping[str, object]):
    """The value of ``Scalar.monomials`` at ``values``, which must bind every
    parameter they use, by ring operations in the order of
    ``Scalar.eval_numeric``: each coefficient times its powers, the terms
    summed in storage order; 0.0 for no terms."""
    total = None
    for c, powers in monomials:
        term = c
        for name, e in powers:
            term = term * values[name] ** e
        total = term if total is None else total + term
    return 0.0 if total is None else total


def sym(name: str, power: int = 1) -> Scalar:
    return Scalar.param(name, power)


def rat(p, q: int = 1) -> Scalar:
    return Scalar.rational(Fraction(p, q))


def accumulate(store: dict, key, value) -> None:
    """Add ``value`` into ``store[key]``, dropping the key when the sum is zero.

    The zero test is truthiness, on which Scalar, Frac, Fraction, int,
    float, complex and numpy scalars agree (NaN is kept, -0.0 dropped).
    """
    cur = store.get(key)
    s = value if cur is None else cur + value
    if s:
        store[key] = s
    else:
        store.pop(key, None)


# -- normal-form rewriting ----------------------------------------------------


class RewriteRule:
    """One oriented rewrite ``lead -> rhs`` with lead > every rhs monomial."""

    __slots__ = ("lead", "rhs")

    def __init__(self, lead: int, rhs: Scalar):
        if any(m >= lead for m in rhs.terms):
            raise NonTerminating(
                f"rule does not decrease the monomial order: "
                f"{_wrap({lead: 1})} -> {rhs}")
        self.lead = lead
        self.rhs = rhs


def make_rule(poly: Scalar) -> RewriteRule:
    """Orient ``poly = 0`` as ``leading-monomial -> rest`` (made monic)."""
    if poly.is_zero():
        raise ValueError("cannot orient the zero polynomial")
    lead, lc = poly.leading()
    rest = _wrap({m: _qdiv(-c, lc) for m, c in poly.terms.items() if m != lead})
    return RewriteRule(lead, rest)


REDUCE_STEPS = 2_000_000  # rewrite budget of reduce_mod


def reduce_mod(p: Scalar, rules: Iterable[RewriteRule]) -> Scalar:
    """Exhaustively rewrite ``p`` modulo the oriented rules.

    Terminates because every step replaces one monomial occurrence by
    strictly smaller ones and the order is multiplication-compatible.
    """
    rules = list(rules)
    steps = 0
    while True:
        hit = None
        for m in sorted(p.terms, reverse=True):
            for r in rules:
                if mono_divides(r.lead, m):
                    hit = (m, r)
                    break
            if hit:
                break
        if hit is None:
            return p
        m, r = hit
        c = p.terms[m]
        replacement = _wrap({m - r.lead: c}) * r.rhs
        p = p + replacement - _wrap({m: c})
        steps += 1
        if steps > REDUCE_STEPS:
            raise NonTerminating("rewriting exceeded the step budget")


# -- polynomial division and fractions ----------------------------------------


def poly_divmod(p: Scalar, d: Scalar) -> tuple:
    """Single-divisor multivariate division: p = q*d + r with no term of r
    divisible by the leading monomial of d."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead, lc = d.leading()
    q = Scalar()
    r = Scalar()
    work = p
    while work.terms:
        m = max(work.terms)
        c = work.terms[m]
        if mono_divides(lead, m):
            factor = _wrap({m - lead: _qdiv(c, lc)})
            q = q + factor
            work = work - factor * d
        else:
            t = _wrap({m: c})
            r = r + t
            work = work - t
    return q, r


# Univariate polynomials over Q, as lists of coefficients, constant term
# first, without trailing zeros.  Coefficients are ints or Fractions, not
# necessarily canonical; they are made canonical where they enter a Scalar.

_PRIME = (1 << 61) - 1  # modulus of the modular gcd


def _dense(coeffs: dict) -> list:
    """The list of a {power: coefficient} map."""
    out = [0] * (max(coeffs) + 1)
    for k, a in coeffs.items():
        out[k] = a
    return out


def _umul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _udivmod(a: list, b: list) -> tuple:
    """Quotient and remainder of a by the nonzero b."""
    nb = len(b) - 1
    if len(a) <= nb:
        return [], list(a)
    rem = list(a)
    inv = _qdiv(1, b[-1])
    q = [0] * (len(a) - nb)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + nb] * inv
        if c:
            q[i] = c
            for j in range(nb):
                rem[i + j] -= c * b[j]
    del rem[nb:]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def _ugcd(a: list, b: list) -> list:
    """Monic gcd (Euclid over Q)."""
    while b:
        a, b = b, _udivmod(a, b)[1]
    inv = _qdiv(1, a[-1])
    return [x * inv for x in a]


def _mod_p(a: list):
    """a modulo _PRIME, or None when a coefficient denominator is not invertible."""
    out = []
    for x in a:
        d = x.denominator
        if d == 1:
            out.append(x.numerator % _PRIME)
        elif d % _PRIME:
            out.append(x.numerator * pow(d, -1, _PRIME) % _PRIME)
        else:
            return None
    while out and not out[-1]:
        out.pop()
    return out


def _ugcd_p(a: list, b: list) -> list:
    """A gcd over GF(_PRIME), not monic (see _lift)."""
    while b:
        nb = len(b) - 1
        inv = pow(b[-1], -1, _PRIME)
        a = list(a)
        for i in range(len(a) - 1 - nb, -1, -1):
            c = a[i + nb] * inv % _PRIME
            if c:
                for j in range(nb):
                    a[i + j] = (a[i + j] - c * b[j]) % _PRIME
        del a[nb:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _lift(g: list) -> list:
    """The monic form of g over GF(_PRIME), lifted to symmetric integers."""
    inv = pow(g[-1], -1, _PRIME)
    out = []
    for x in g:
        x = x * inv % _PRIME
        out.append(x - _PRIME if x > _PRIME >> 1 else x)
    return out


def _cofactors(g: list, f: list, polys: list):
    """(f/g, [P/g, ...]) when the monic g divides f and every P, else None."""
    out = []
    for p in (f, *polys):
        q, r = _udivmod(p, g)
        if r:
            return None
        out.append(q)
    return out[0], out[1:]


def _gcd_with(f: list, polys: list) -> tuple:
    """Monic gcd G of the monic f and every polynomial of ``polys``, with its
    cofactors: (G, f/G, [P/G for P in polys]).

    Modular gcd (Brown 1971) with p = 2^61 - 1.  When no coefficient
    denominator is divisible by p, G is monic with p-integral coefficients
    (f is), so G mod p divides every image and deg gcd_p >= deg G.  A gcd
    of degree 0 mod p thus proves G = 1.  Otherwise, when f has integer
    coefficients (so has G, by Gauss's lemma), the monic gcd_p is lifted to
    symmetric integers; a lift that divides f and every P exactly is a
    monic common divisor of degree >= deg G, so it is G, and the divisions
    give the cofactors.  Euclid over Q runs only when a coefficient
    denominator is divisible by p, a coefficient of f is not an integer, or
    the lift does not divide: G has a coefficient beyond +-2^60, or p
    divides a resultant and deg gcd_p > deg G.
    """
    g = _mod_p(f)
    if g is not None:
        for p in sorted(polys, key=len):
            pp = _mod_p(p)
            if pp is None:
                break
            g = _ugcd_p(g, pp)
            if len(g) == 1:
                return [1], f, polys
        else:
            if all(type(a) is int for a in f):
                g = _lift(g)
                cof = _cofactors(g, f, polys)
                if cof is not None:
                    return (g, *cof)
    g = f
    for p in polys:
        g = _ugcd(g, p)
        if len(g) == 1:
            return [1], f, polys
    return (g, *_cofactors(g, f, polys))


def _shift(m: int, t: int, k: int) -> int:
    """The monomial m * t^k; k < 0 when t^-k divides m."""
    # the weighted degree bounds every exponent, so below EXP_MAX nothing overflows
    if k > 0 and (m >> _WSHIFT) + k * (t >> _WSHIFT) > EXP_MAX:
        return pack(tuple(x + k * y for x, y in zip(unpack(m), unpack(t))))
    return m + k * t


def _den_view(den: Scalar):
    """Write den = x^c * f(t), t a primitive monomial, f(0) != 0.

    Returns (c, t, f) with f a coefficient list (t is None when f is a
    constant); raises UnsupportedDenominator when den has no such form.
    """
    terms = den.terms
    if _ZERO_MONO in terms:
        c = _ZERO_MONO
    else:
        c = den.monomial_content()
        terms = {m - c: a for m, a in terms.items()}
        if _ZERO_MONO not in terms:
            raise UnsupportedDenominator(f"{den} is not x^c * f(t) for one t")
    if len(terms) == 1:
        return c, None, [terms[_ZERO_MONO]]
    t = None
    coeffs = {}
    for m, a in terms.items():
        if m == _ZERO_MONO:
            coeffs[0] = a
            continue
        if t is None:
            exps = unpack(m)
            g = gcd(*exps)
            te = tuple(e // g for e in exps)
            t, tmax = pack(te), max(te)
            s0, e0 = next((s, e) for s, e in zip(_SHIFTS, te) if e)
        k = (m >> s0 & _FIELD) // e0
        if k * tmax > EXP_MAX or k * t != m:
            raise UnsupportedDenominator(f"{den} is not x^c * f(t) for one t")
        coeffs[k] = a
    return c, t, _dense(coeffs)


def _den_scalar(c: int, t, f: list) -> Scalar:
    if t is None:
        return _wrap({c: _canon(f[0])})
    return _wrap({_shift(c, t, k): _canon(a) for k, a in enumerate(f) if a})


def _cancel(num: Scalar, c: int, t, f: list) -> tuple:
    """Divide num and x^c * f(t) (f monic) by their gcd.

    The gcd is x^e * G with e the componentwise min of c and the monomial
    content of num.  G = gcd(f, P_r ...) over Q[t], where num = sum_r r *
    P_r(t) over the monomials r not divisible by t: Q[x] is a free
    Q[t]-module on those r, and every factor of f is a polynomial in t
    because t is primitive and f(0) != 0.
    """
    if not num.terms:
        return num, c, t, f
    if c != _ZERO_MONO:
        e = mono_min(num.monomial_content(), c)
        if e:
            num = _wrap({m - e: a for m, a in num.terms.items()})
            c -= e
    if len(f) == 1 or len(num.terms) == 1:
        return num, c, t, f
    supp = [(s, e) for s, e in zip(_SHIFTS, unpack(t)) if e]
    coords: dict = {}
    for m, a in num.terms.items():
        k = min((m >> s & _FIELD) // e for s, e in supp)
        r = m - k * t
        p = coords.get(r)
        if p is None:
            coords[r] = p = {}
        p[k] = a
    g, fg, quots = _gcd_with(f, [_dense(p) for p in coords.values()])
    if len(g) == 1:
        return num, c, t, f
    out = {}
    for r, q in zip(coords, quots):
        for k, a in enumerate(q):
            if a:
                out[_shift(r, t, k)] = _canon(a)
    return _wrap(out), c, t, fg


def _same_t(v1, v2):
    """The common t of two denominator views; UnsupportedDenominator when
    they have none."""
    t1, t2 = v1[1], v2[1]
    if t1 is None or t1 == t2:
        return t2
    if t2 is None:
        return t1
    raise UnsupportedDenominator("denominators in different monomials t")


_ONE_VIEW = (_ZERO_MONO, None, (1,))


class Frac:
    """Fraction of Scalars; used where rewriting demands a localization.

    Canonical form: the denominator is a monomial x^c times a monic
    polynomial f(t) in one primitive monomial t, coprime to the numerator,
    so equal values have equal ``num`` and ``den``.  That covers every
    denominator the NC engine builds (t = eta*kinv, kinv, or a constant);
    any other denominator, or a sum or product of two in different t, raises
    :class:`UnsupportedDenominator`.  Addition follows Henrici: with
    g = gcd(b, d), a/b + c/d = (a*(d/g) + c*(b/g)) / (b*d/g), and only
    gcd(num, g) is left to cancel; multiplication cancels crosswise.
    Every gcd over Q[t] is a modular one (:func:`_gcd_with`): taken modulo
    p = 2^61 - 1, lifted to integers and accepted when it divides exactly,
    the divisions giving the cofactors; Euclid over Q is the fallback.
    ``_dv`` is the view (c, t, f) of the denominator, c and t packed
    monomials.  A ``Frac`` is never mutated: its fields are set once, on a
    fresh object, so ``Frac.of(1)`` returns one shared one, ``FRAC_ONE``.
    """

    __slots__ = ("num", "den", "_dv")

    def __init__(self, num: Scalar, den: Scalar | None = None):
        if den is None or den.terms == _ONE_TERMS:
            self.num, self.den, self._dv = num, ONE, _ONE_VIEW
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        c, t, f = _den_view(den) if num.terms else _ONE_VIEW
        if f[-1] != 1:
            inv = _qdiv(1, f[-1])
            num, f = num * inv, [a * inv for a in f]
        _fill(self, *_cancel(num, c, t, f))

    @classmethod
    def of(cls, x) -> "Frac":
        if type(x) is Frac:
            return x
        if type(x) is int and x == 1:
            return FRAC_ONE
        if type(x) is Scalar:
            return cls(x)
        return cls(Scalar.rational(x))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other) -> "Frac":
        other = Frac.of(other)
        a, b, v1 = self.num, self.den, self._dv
        c, d, v2 = other.num, other.den, other._dv
        # gcd(a + c*b, b) = gcd(a, b) = 1
        if v2 is _ONE_VIEW:
            return _frac(a + c * b, *v1)
        if v1 is _ONE_VIEW:
            return _frac(a * d + c, *v2)
        if b == d:
            return _frac(*_cancel(a + c, *v1))
        t = _same_t(v1, v2)
        (c1, _, f1), (c2, _, f2) = v1, v2
        cm = mono_min(c1, c2)
        if len(f1) > 1 and len(f2) > 1:
            g, f1g, (f2g,) = _gcd_with(f1, [f2])
        else:
            g, f1g, f2g = [1], f1, f2
        num = (a * _den_scalar(c2 - cm, t, f2g)
               + c * _den_scalar(c1 - cm, t, f1g))
        num, cg, _, gr = _cancel(num, cm, t, g)
        # b*d/g over what gcd(num, g) = x^(cm - cg) * (g/gr) leaves of it
        cd = c1 + c2 - 2 * cm + cg
        return _frac(num, cd, t, _umul(_umul(f1g, f2g), gr))

    __radd__ = __add__

    def __neg__(self) -> "Frac":
        out = _new(Frac)
        out.num, out.den, out._dv = -self.num, self.den, self._dv
        return out

    def __sub__(self, other) -> "Frac":
        return self + (-Frac.of(other))

    def is_one(self) -> bool:
        return self._dv is _ONE_VIEW and self.num.terms == _ONE_TERMS

    def __mul__(self, other) -> "Frac":
        other = Frac.of(other)
        if self.is_one():
            return other
        if other.is_one():
            return self
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Frac":
        other = Frac.of(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero Frac")
        # the reciprocal of a canonical fraction is canonical once monic
        c, t, f = _den_view(other.num)
        inv = _qdiv(1, f[-1])
        return _mul(self, _frac(other.den * inv, c, t, [a * inv for a in f]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Frac, Scalar, int, Fraction)):
            return NotImplemented
        other = Frac.of(other)
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__

    def substitute(self, bindings) -> "Frac":
        return Frac(self.num.substitute(bindings), self.den.substitute(bindings))


FRAC_ONE = Frac(ONE)


def _fill(out: Frac, num: Scalar, c: int, t, f: list) -> Frac:
    """Set ``out`` to num / (x^c * f(t)), given coprime and f monic."""
    if len(f) == 1:
        t = None
    if not num.terms or (t is None and c == _ZERO_MONO):
        out.num, out.den, out._dv = num, ONE, _ONE_VIEW
    else:
        out.num, out.den, out._dv = num, _den_scalar(c, t, f), (c, t, tuple(f))
    return out


def _frac(num: Scalar, c: int, t, f: list) -> Frac:
    return _fill(_new(Frac), num, c, t, f)


def _mul(x: Frac, y: Frac) -> Frac:
    """x * y, cancelling gcd(x.num, y.den) and gcd(y.num, x.den)."""
    v1, v2 = x._dv, y._dv
    if v1 is _ONE_VIEW and v2 is _ONE_VIEW:
        return _frac(x.num * y.num, *_ONE_VIEW)
    t = _same_t(v1, v2)
    a, c2, _, f2 = _cancel(x.num, *v2)
    c, c1, _, f1 = _cancel(y.num, *v1)
    return _frac(a * c, mono_mul(c1, c2), t, _umul(f1, f2))
