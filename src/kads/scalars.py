"""Exact arithmetic kernel: sparse multivariate polynomials over the rationals.

A :class:`Scalar` is a finite sum of monomials in a fixed, closed set of
formal parameters (deformation scales, family parameters, algebraic
stand-ins for the trigonometric functions of the two sphere angles).  The
representation is a dict mapping exponent vectors to ``Fraction``
coefficients, e.g.::

    {(2, 1, 0, ..., 0): Fraction(3, 2), (0, ..., 0): Fraction(-1)}

which prints as ``3/2*eta^2*kinv - 1``.  Zero coefficients are never
stored, so equality and zero-tests are structural.

Monomials are compared by a weighted degree (weights below) with a
lexicographic tie-break on the exponent vector.  The weights are chosen so
that every rewrite rule used in this project (sphere constraint, trig
Pythagoras, curvature relation) replaces a monomial by strictly smaller
ones, which makes :func:`reduce_mod` terminate.
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

_ZERO_MONO = (0,) * NPARAMS
_ONE_TERMS = {_ZERO_MONO: Fraction(1)}

Rational = Fraction  # invariants (gcd-reduced, positive denominator) hold by construction


class CyclicSubstitution(ValueError):
    """A substitution binds a parameter that occurs in a binding value."""


class UnboundParameter(KeyError):
    """Numeric evaluation hit a parameter without a value."""


class NonTerminating(ValueError):
    """A rewrite rule does not strictly decrease the monomial order."""


def mono_weight(mono: tuple) -> int:
    return sum(w * e for w, e in zip(WEIGHTS, mono))


_KEY_CACHE: dict = {}


def mono_key(mono: tuple):
    """Total order on monomials: weighted degree, then lex on exponents."""
    k = _KEY_CACHE.get(mono)
    if k is None:
        k = (mono_weight(mono), mono)
        _KEY_CACHE[mono] = k
    return k


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(d: tuple, m: tuple) -> bool:
    return all(x <= y for x, y in zip(d, m))


def mono_div(m: tuple, d: tuple) -> tuple:
    return tuple(x - y for x, y in zip(m, d))


def _coerce_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


class Scalar:
    """Exact polynomial in the fixed parameter set, immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        # Internal constructor; assumes exponent vectors are canonical.
        self.terms = dict(terms) if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "Scalar":
        q = _coerce_fraction(q)
        return cls({_ZERO_MONO: q}) if q else cls()

    @classmethod
    def param(cls, name: str, power: int = 1) -> "Scalar":
        if name not in PARAM_INDEX:
            raise KeyError(f"unknown parameter {name!r}")
        if power < 0:
            raise ValueError("negative powers are not representable")
        if power == 0:
            return cls.rational(1)
        mono = list(_ZERO_MONO)
        mono[PARAM_INDEX[name]] = power
        return cls({tuple(mono): Fraction(1)})

    @classmethod
    def monomial(cls, coeff, **powers: int) -> "Scalar":
        mono = list(_ZERO_MONO)
        for name, e in powers.items():
            mono[PARAM_INDEX[name]] = e
        c = _coerce_fraction(coeff)
        return cls({tuple(mono): c}) if c else cls()

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not hashable

    def __add__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        return self + (-other if isinstance(other, Scalar) else Scalar.rational(-_coerce_fraction(other)))

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            q = _coerce_fraction(other)
            if not q:
                return Scalar()
            return Scalar({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.terms == _ONE_TERMS:
            return other
        if other.terms == _ONE_TERMS:
            return self
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Scalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        q = _coerce_fraction(other)
        return self * (Fraction(1) / q)

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Scalar.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure queries --------------------------------------------------

    def params(self) -> set:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(PARAMS[i])
        return used

    def leading(self) -> tuple:
        """(monomial, coefficient) of the largest term; raises on zero."""
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def monomial_content(self) -> tuple:
        """Componentwise min exponent over all terms (the monomial gcd)."""
        its = iter(self.terms)
        first = next(its)
        lo = list(first)
        for m in its:
            for i, e in enumerate(m):
                if e < lo[i]:
                    lo[i] = e
        return tuple(lo)

    def normalized(self) -> "Scalar":
        """Strip the monomial content and divide by the leading coefficient."""
        if not self.terms:
            return self
        content = self.monomial_content()
        _, lc = max(((m, c) for m, c in self.terms.items()), key=lambda t: mono_key(t[0]))
        inv = Fraction(1) / lc
        return Scalar({mono_div(m, content): c * inv for m, c in self.terms.items()})

    def degree_in(self, name: str) -> int:
        i = PARAM_INDEX[name]
        return max((m[i] for m in self.terms), default=0)

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
            for i, e in enumerate(m):
                if not e:
                    continue
                name = PARAMS[i]
                if name in vals:
                    factor = factor * vals[name] ** e
                else:
                    factor = factor * Scalar.param(name, e)
            out = out + factor
        return out

    def eval_numeric(self, values: Mapping[str, float]) -> float:
        """Horner-style floating evaluation; every used parameter must be bound."""
        missing = self.params() - set(values)
        if missing:
            raise UnboundParameter(f"unbound parameters: {sorted(missing)}")
        items = list(self.terms.items())

        def rec(group, vi):
            if not group:
                return 0.0
            if vi == NPARAMS:
                return float(sum(c for _, c in group))
            buckets: dict = {}
            for m, c in group:
                buckets.setdefault(m[vi], []).append((m, c))
            if len(buckets) == 1 and 0 in buckets:
                return rec(group, vi + 1)
            x = float(values[PARAMS[vi]])
            acc = 0.0
            prev = None
            for e in sorted(buckets, reverse=True):
                if prev is not None:
                    acc *= x ** (prev - e)
                acc += rec(buckets[e], vi + 1)
                prev = e
            if prev:
                acc *= x ** prev
            return acc

        return rec(items, 0)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            factors = [
                PARAMS[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m) if e
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

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Inverse of ``str``; also accepts a unicode minus."""
        text = text.replace("−", "-").replace(" ", "")
        if text in ("", "0"):
            return cls()
        # split into signed terms
        terms = []
        sign, start = 1, 0
        if text[0] in "+-":
            sign = -1 if text[0] == "-" else 1
            start = 1
        i = start
        cur = []
        while i <= len(text):
            if i == len(text) or text[i] in "+-":
                terms.append((sign, "".join(cur)))
                if i < len(text):
                    sign = -1 if text[i] == "-" else 1
                    cur = []
            else:
                cur.append(text[i])
            i += 1
        out = cls()
        for sgn, body in terms:
            coeff = Fraction(sgn)
            mono = list(_ZERO_MONO)
            for factor in body.split("*"):
                if not factor:
                    continue
                if factor[0].isdigit():
                    coeff *= Fraction(factor)
                    continue
                if "^" in factor:
                    name, e = factor.split("^")
                    mono[PARAM_INDEX[name]] += int(e)
                else:
                    mono[PARAM_INDEX[factor]] += 1
            out = out + cls({tuple(mono): coeff} if coeff else {})
        return out


ZERO = Scalar()
ONE = Scalar.rational(1)


def sym(name: str, power: int = 1) -> Scalar:
    return Scalar.param(name, power)


def rat(p, q: int = 1) -> Scalar:
    return Scalar.rational(Fraction(p, q))


# -- normal-form rewriting ----------------------------------------------------


class RewriteRule:
    """One oriented rewrite ``lead -> rhs`` with lead > every rhs monomial."""

    __slots__ = ("lead", "rhs")

    def __init__(self, lead: tuple, rhs: Scalar):
        lk = mono_key(lead)
        for m in rhs.terms:
            if mono_key(m) >= lk:
                raise NonTerminating(
                    f"rule does not decrease the monomial order: "
                    f"{Scalar({lead: Fraction(1)})} -> {rhs}")
        self.lead = lead
        self.rhs = rhs


def make_rule(poly: Scalar) -> RewriteRule:
    """Orient ``poly = 0`` as ``leading-monomial -> rest`` (made monic)."""
    if poly.is_zero():
        raise ValueError("cannot orient the zero polynomial")
    lead, lc = poly.leading()
    rest = Scalar({m: -c / lc for m, c in poly.terms.items() if m != lead})
    return RewriteRule(lead, rest)


def reduce_mod(p: Scalar, rules: Iterable[RewriteRule], max_steps: int = 2_000_000) -> Scalar:
    """Exhaustively rewrite ``p`` modulo the oriented rules.

    Terminates because every step replaces one monomial occurrence by
    strictly smaller ones and the order is multiplication-compatible.
    """
    rules = list(rules)
    steps = 0
    while True:
        hit = None
        for m in sorted(p.terms, key=mono_key, reverse=True):
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
        q = mono_div(m, r.lead)
        replacement = Scalar({q: c}) * r.rhs
        p = p + replacement - Scalar({m: c})
        steps += 1
        if steps > max_steps:
            raise NonTerminating("rewriting exceeded the step budget")


# Standard rule sets.

def trig_rules() -> list:
    """ctheta^2 -> 1 - stheta^2 and cphi^2 -> 1 - sphi^2."""
    return [
        make_rule(sym("ctheta") ** 2 + sym("stheta") ** 2 - 1),
        make_rule(sym("cphi") ** 2 + sym("sphi") ** 2 - 1),
    ]


def sphere_rules() -> list:
    """a1^2 + a2^2 + a3^2 = R^2 oriented as a1^2 -> R^2 - a2^2 - a3^2."""
    return [make_rule(sym("a1") ** 2 + sym("a2") ** 2 + sym("a3") ** 2 - sym("R") ** 2)]


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
        m = max(work.terms, key=mono_key)
        c = work.terms[m]
        if mono_divides(lead, m):
            factor = Scalar({mono_div(m, lead): c / lc})
            q = q + factor
            work = work - factor * d
        else:
            t = Scalar({m: c})
            r = r + t
            work = work - t
    return q, r


# Univariate polynomials over Q, as lists of coefficients, constant term
# first, without trailing zeros.  Zero coefficients may be the int 0.

_Q1 = Fraction(1)
_PRIME = (1 << 61) - 1  # modulus of the coprimality pre-test


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
    inv = _Q1 / b[-1]
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
    inv = _Q1 / a[-1]
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
    """A gcd over GF(_PRIME) (not normalized; only its degree is used)."""
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


def _gcd_with(f: list, polys: list) -> list:
    """Monic gcd of the monic f and every polynomial of ``polys``.

    Pre-test modulo p = 2^61 - 1: if no coefficient denominator is
    divisible by p, the rational gcd G is monic with p-integral coefficients
    (f is) and G mod p divides every image, so a gcd of degree 0 mod p
    proves G = 1.  Otherwise Euclid runs over Q.
    """
    polys = sorted(polys, key=len)
    g = _mod_p(f)
    if g is not None:
        for p in polys:
            pp = _mod_p(p)
            if pp is None:
                break
            g = _ugcd_p(g, pp)
            if len(g) == 1:
                return [_Q1]
    g = f
    for p in polys:
        g = _ugcd(g, p)
        if len(g) == 1:
            break
    return g


def _shift(m: tuple, t: tuple, k: int) -> tuple:
    """The monomial m * t^k."""
    return tuple(x + k * y for x, y in zip(m, t)) if k else m


def _den_view(den: Scalar):
    """Write den = x^c * f(t), t a primitive monomial, f(0) != 0.

    Returns (c, t, f) with f a coefficient list (t is None when f is a
    constant), or None when den has no such form.
    """
    terms = den.terms
    if _ZERO_MONO in terms:
        c = _ZERO_MONO
    else:
        c = den.monomial_content()
        terms = {mono_div(m, c): a for m, a in terms.items()}
        if _ZERO_MONO not in terms:
            return None
    if len(terms) == 1:
        return c, None, [terms[_ZERO_MONO]]
    t = None
    coeffs = {}
    for m, a in terms.items():
        if m == _ZERO_MONO:
            coeffs[0] = a
            continue
        if t is None:
            g = gcd(*m)
            t = tuple(e // g for e in m)
            i0 = next(i for i, e in enumerate(t) if e)
        k = m[i0] // t[i0]
        if _shift(_ZERO_MONO, t, k) != m:
            return None
        coeffs[k] = a
    return c, t, _dense(coeffs)


def _den_scalar(c: tuple, t, f: list) -> Scalar:
    if t is None:
        return Scalar({c: f[0]})
    return Scalar({_shift(c, t, k): a for k, a in enumerate(f) if a})


def _cancel(num: Scalar, c: tuple, t, f: list) -> tuple:
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
        e = tuple(map(min, num.monomial_content(), c))
        if any(e):
            num = Scalar({mono_div(m, e): a for m, a in num.terms.items()})
            c = mono_div(c, e)
    if len(f) == 1 or len(num.terms) == 1:
        return num, c, t, f
    supp = [(i, e) for i, e in enumerate(t) if e]
    coords: dict = {}
    for m, a in num.terms.items():
        k = min(m[i] // e for i, e in supp)
        r = _shift(m, t, -k)
        p = coords.get(r)
        if p is None:
            coords[r] = p = {}
        p[k] = a
    polys = {r: _dense(p) for r, p in coords.items()}
    g = _gcd_with(f, list(polys.values()))
    if len(g) == 1:
        return num, c, t, f
    out = {}
    for r, p in polys.items():
        for k, a in enumerate(_udivmod(p, g)[0]):
            if a:
                out[_shift(r, t, k)] = a
    return Scalar(out), c, t, _udivmod(f, g)[0]


def _same_t(v1, v2):
    """The common t of two denominator views, False when they have none."""
    t1, t2 = v1[1], v2[1]
    if t1 is None or t1 == t2:
        return t2
    return t1 if t2 is None else False


_ONE_VIEW = (_ZERO_MONO, None, (_Q1,))
_new = object.__new__


class Frac:
    """Fraction of Scalars; used where rewriting demands a localization.

    Canonical form: when the denominator is a monomial x^c times a
    polynomial f(t) in one primitive monomial t, numerator and denominator
    are coprime and the denominator is monic (leading coefficient 1).  That
    covers every denominator the NC engine and the r-matrix reduction
    build (t = eta*kinv, kinv, Lambda, or a constant), and there equal
    values have equal ``num`` and ``den``.  Addition follows Henrici:
    with g = gcd(b, d), a/b + c/d = (a*(d/g) + c*(b/g)) / (b*d/g), and only
    gcd(num, g) is left to cancel; multiplication cancels crosswise.  Any
    other denominator keeps the plain rule (exact division of numerator by
    denominator, else a monic denominator) and has ``_dv`` None; otherwise
    ``_dv`` is the view (c, t, f) of the denominator.
    """

    __slots__ = ("num", "den", "_dv")

    def __init__(self, num: Scalar, den: Scalar | None = None):
        if den is None or den.terms == _ONE_TERMS:
            self.num, self.den, self._dv = num, ONE, _ONE_VIEW
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        dv = _den_view(den) if num.terms else _ONE_VIEW
        if dv is None:
            q, r = poly_divmod(num, den)
            if r.is_zero():
                num, den, dv = q, ONE, _ONE_VIEW
            else:
                _, lc = den.leading()
                if lc != 1:
                    num, den = num * (_Q1 / lc), den * (_Q1 / lc)
            self.num, self.den, self._dv = num, den, dv
            return
        c, t, f = dv
        if f[-1] != 1:
            inv = _Q1 / f[-1]
            num, f = num * inv, [a * inv for a in f]
        _fill(self, *_cancel(num, c, t, f))

    @classmethod
    def of(cls, x) -> "Frac":
        if isinstance(x, Frac):
            return x
        if isinstance(x, Scalar):
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
        if v2 is _ONE_VIEW and v1 is not None:
            return _frac(a + c * b, *v1)
        if v1 is _ONE_VIEW and v2 is not None:
            return _frac(a * d + c, *v2)
        t = False if v1 is None or v2 is None else _same_t(v1, v2)
        if t is False:
            if b == d:
                return Frac(a + c, b)
            return Frac(a * d + c * b, b * d)
        if b == d:
            return _frac(*_cancel(a + c, *v1))
        (c1, _, f1), (c2, _, f2) = v1, v2
        cm = tuple(map(min, c1, c2))
        g = _gcd_with(f1, [f2]) if len(f1) > 1 and len(f2) > 1 else [_Q1]
        f1g, f2g = _udivmod(f1, g)[0], _udivmod(f2, g)[0]
        num = (a * _den_scalar(mono_div(c2, cm), t, f2g)
               + c * _den_scalar(mono_div(c1, cm), t, f1g))
        num, cg, _, gr = _cancel(num, cm, t, g)
        # b*d/g over what gcd(num, g) = x^(cm - cg) * (g/gr) leaves of it
        cd = tuple(x + y - 2 * z + w for x, y, z, w in zip(c1, c2, cm, cg))
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
        v = None if other._dv is None else _den_view(other.num)
        if v is None:
            return Frac(self.num * other.den, self.den * other.num)
        # the reciprocal of a canonical fraction is canonical once monic
        c, t, f = v
        inv = _Q1 / f[-1]
        return _mul(self, _frac(other.den * inv, c, t, [a * inv for a in f]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Frac, Scalar, int, Fraction)):
            return NotImplemented
        other = Frac.of(other)
        if self.den == other.den:
            return self.num == other.num
        if self._dv is not None and other._dv is not None:
            return False  # distinct canonical forms
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__

    def eval_numeric(self, values: Mapping[str, float]) -> float:
        return self.num.eval_numeric(values) / self.den.eval_numeric(values)

    def substitute(self, bindings) -> "Frac":
        return Frac(self.num.substitute(bindings), self.den.substitute(bindings))


def _fill(out: Frac, num: Scalar, c: tuple, t, f: list) -> Frac:
    """Set ``out`` to num / (x^c * f(t)), given coprime and f monic."""
    if len(f) == 1:
        t = None
    if not num.terms or (t is None and c == _ZERO_MONO):
        out.num, out.den, out._dv = num, ONE, _ONE_VIEW
    else:
        out.num, out.den, out._dv = num, _den_scalar(c, t, f), (c, t, tuple(f))
    return out


def _frac(num: Scalar, c: tuple, t, f: list) -> Frac:
    return _fill(_new(Frac), num, c, t, f)


def _mul(x: Frac, y: Frac) -> Frac:
    """x * y, cancelling gcd(x.num, y.den) and gcd(y.num, x.den)."""
    v1, v2 = x._dv, y._dv
    if v1 is _ONE_VIEW and v2 is _ONE_VIEW:
        return _frac(x.num * y.num, *_ONE_VIEW)
    t = False if v1 is None or v2 is None else _same_t(v1, v2)
    if t is False:
        return Frac(x.num * y.num, x.den * y.den)
    a, c2, _, f2 = _cancel(x.num, *v2)
    c, c1, _, f1 = _cancel(y.num, *v1)
    return _frac(a * c, mono_mul(c1, c2), t, _umul(f1, f2))
