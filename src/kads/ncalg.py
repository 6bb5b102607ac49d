"""Normal-ordering engine for the quadratic quantum algebras.

Words are tuples of generator positions; a word is normal when positions
are non-decreasing.  Every relation is a straightening rule

    g_b g_a  ->  g_a g_b + (correction words, already normal-ordered)

for b after a in the fixed order.  Plain iterative rewriting does NOT
terminate here: in the curved algebras a three-letter word can reproduce
itself with coefficient (eta*kinv)^2 after two steps.  The reducer
therefore memoizes words, detects re-entry, and solves the resulting
one-dimensional linear fixpoints x = p + c*x exactly, which localizes
coefficients at the zeros of 1 - c.  Coefficients are exact fractions of
Scalars in canonical form (coprime, monic denominator; see ``Frac``), so
every denominator is a polynomial in E = eta*kinv (in kinv alone, or a
constant, once parameters are specialized) whose roots are true poles.
Specializing the parameters at such a root, in the fixpoint solve or in
``NCPoly.substitute``, raises :class:`SingularSpecialization`.
Confluence is certified a posteriori by the Jacobi certificates and a
rewrite-strategy independence check.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import Frac, NonTerminating, Scalar, sym

Word = tuple


class SingularSpecialization(ZeroDivisionError):
    """The parameters sit on a pole of the straightening coefficients."""


class NCPoly:
    """Noncommutative polynomial: map from word to exact Frac coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = Frac.of(c)
                if not c.is_zero():
                    self.terms[tuple(w)] = c

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def word(cls, w, coeff=1) -> "NCPoly":
        return cls({tuple(w): Frac.of(coeff)})

    @classmethod
    def gen(cls, i: int, coeff=1) -> "NCPoly":
        return cls.word((i,), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        p = NCPoly()
        p.terms = out
        return p

    def __neg__(self) -> "NCPoly":
        p = NCPoly()
        p.terms = {w: -c for w, c in self.terms.items()}
        return p

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """Free product (no reduction): concatenate words."""
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        p = NCPoly()
        p.terms = out
        return p

    def scale(self, c) -> "NCPoly":
        c = Frac.of(c)
        p = NCPoly()
        if not c.is_zero():
            p.terms = {w: v * c for w, v in self.terms.items()}
        return p

    def substitute(self, bindings) -> "NCPoly":
        p = NCPoly()
        for w, c in self.terms.items():
            try:
                c2 = c.substitute(bindings)
            except ZeroDivisionError:
                raise SingularSpecialization(
                    f"the coefficient of word {w} has a pole there: "
                    f"its denominator {c.den} vanishes") from None
            if not c2.is_zero():
                p.terms[w] = c2
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def render(self, labels) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            factors = []
            for g in w:
                if factors and factors[-1][0] == g:
                    factors[-1][1] += 1
                else:
                    factors.append([g, 1])
            body = " ".join(f"{labels[g]}^{e}" for g, e in factors) or "1"
            parts.append(f"{body} * ({self.terms[w]})")
        return " + ".join(parts)


class NCAlgebra:
    """Quadratic algebra with a fixed normal order and straightening rules."""

    def __init__(self, gens, commutators: dict):
        """``gens``: ordered generator names.  ``commutators``: map from a
        name pair (a, b), a before b in the order, to the NCPoly value of
        [g_a, g_b] (whose words must already be normal-ordered)."""
        self.gens = tuple(gens)
        self.pos = {g: i for i, g in enumerate(self.gens)}
        self.commutator_rhs: dict = {}
        self.rewrite: dict = {}
        for (a, b), p in commutators.items():
            i, j = self.pos[a], self.pos[b]
            if i >= j:
                raise ValueError(f"commutator key {(a, b)} out of order")
            if not isinstance(p, NCPoly):
                p = NCPoly(p)
            for w in p.terms:
                if not self.is_normal(w):
                    raise ValueError(f"relation RHS word {w} is not normal-ordered")
                if len(w) > 2:
                    raise ValueError("relations must be at most quadratic")
            self.commutator_rhs[(i, j)] = p
            # g_j g_i = g_i g_j - [g_i, g_j]
            self.rewrite[(j, i)] = (-p).terms
        self._memo = {"leftmost": {}, "rightmost": {}}

    def is_normal(self, w: Word) -> bool:
        return all(w[p] <= w[p + 1] for p in range(len(w) - 1))

    def _find_redex(self, w: Word, strategy: str):
        rng = range(len(w) - 1)
        if strategy == "rightmost":
            rng = reversed(rng)
        for p in rng:
            if w[p] > w[p + 1]:
                return p
        return None

    @staticmethod
    def _merge(store: dict, key, val):
        s = store.get(key)
        s = val if s is None else s + val
        if s.is_zero():
            store.pop(key, None)
        else:
            store[key] = s

    def _reduce_word(self, w: Word, strategy: str, active: set, budget: list):
        """Returns (poly, syms) with w = poly + sum syms[v] * v as an algebra
        identity; symbolic references only point at words on the active
        stack.  Identities are memoized even while symbolic (they hold
        unconditionally) and stale symbols are resolved by substitution, so
        every word is expanded at most once per strategy."""
        memo = self._memo[strategy]
        entry = memo.get(w)
        if entry is not None:
            poly, syms = entry
            if not syms or all(s in active for s in syms):
                return dict(poly), dict(syms)
            newpoly, newsyms = dict(poly), {}
            for s, c in syms.items():
                if s in active:
                    self._merge(newsyms, s, c)
                    continue
                sp, ss = self._reduce_word(s, strategy, active, budget)
                for k, v in sp.items():
                    self._merge(newpoly, k, v * c)
                for k, v in ss.items():
                    self._merge(newsyms, k, v * c)
            memo[w] = (dict(newpoly), dict(newsyms))
            return dict(newpoly), dict(newsyms)
        if self.is_normal(w):
            memo[w] = ({w: Frac.of(1)}, {})
            return {w: Frac.of(1)}, {}
        if w in active:
            return {}, {w: Frac.of(1)}
        budget[0] -= 1
        if budget[0] < 0:
            raise NonTerminating("word reduction exceeded the step budget")
        active.add(w)
        p = self._find_redex(w, strategy)
        a, b = w[p], w[p + 1]
        pieces = [(w[:p] + (b, a) + w[p + 2:], Frac.of(1))]
        for u, c in self.rewrite[(a, b)].items():
            piece = w[:p] + u + w[p + 2:]
            if len(piece) > len(w):
                raise NonTerminating("a rewrite raised the word degree")
            pieces.append((piece, c))
        poly: dict = {}
        syms: dict = {}
        for word2, coeff in pieces:
            subpoly, subsyms = self._reduce_word(word2, strategy, active, budget)
            for k, v in subpoly.items():
                self._merge(poly, k, v * coeff)
            for k, v in subsyms.items():
                self._merge(syms, k, v * coeff)
        active.discard(w)
        lam = syms.pop(w, None)
        if lam is not None:
            denom = Frac.of(1) - lam
            if denom.is_zero():
                raise SingularSpecialization(
                    f"singular straightening fixpoint at word {w}")
            factor = Frac.of(1) / denom
            poly = {k: v * factor for k, v in poly.items()}
            syms = {k: v * factor for k, v in syms.items()}
        memo[w] = (dict(poly), dict(syms))
        return poly, syms

    def normal_form(self, p, strategy: str = "leftmost") -> NCPoly:
        """Reduce an NCPoly (or raw word dict) to the normal-ordered basis."""
        if not isinstance(p, NCPoly):
            p = NCPoly(p)
        out: dict = {}
        for w, c in p.terms.items():
            poly, syms = self._reduce_word(tuple(w), strategy, set(), [2_000_000])
            if syms:
                raise NonTerminating("unresolved straightening fixpoint")
            for k, v in poly.items():
                s = out.get(k)
                s = v * c if s is None else s + v * c
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        q = NCPoly()
        q.terms = out
        return q

    def commutator(self, p: NCPoly, q: NCPoly) -> NCPoly:
        return self.normal_form(p * q - q * p)

    def jacobi_residuals(self) -> dict:
        """[[a,[b,c]] + cyclic] for every generator triple, keyed "[a,b,c]".

        All zero certifies consistency of the straightening rules on all
        overlaps of the defining relations.
        """
        out = {}
        for i, j, k in combinations(range(len(self.gens)), 3):
            gi, gj, gk = (NCPoly.gen(t) for t in (i, j, k))
            key = f"[{self.gens[i]},{self.gens[j]},{self.gens[k]}]"
            out[key] = (self.commutator(gi, self.commutator(gj, gk))
                        + self.commutator(gj, self.commutator(gk, gi))
                        + self.commutator(gk, self.commutator(gi, gj)))
        return out

    def jacobi_certificate(self, residuals=None):
        """Max number of nonzero terms over the Jacobi residuals (exact count)."""
        if residuals is None:
            residuals = self.jacobi_residuals()
        return max((len(res.terms) for res in residuals.values()), default=0)

    def casimir_check(self, c: NCPoly, subset=None):
        """Number of nonzero terms in the worst [c, generator] residual."""
        worst = 0
        names = subset if subset is not None else self.gens
        for name in names:
            i = self.pos[name] if isinstance(name, str) else name
            res = self.commutator(c, NCPoly.gen(i))
            worst = max(worst, len(res.terms))
        return worst

    def certificates_json(self, residuals=None) -> dict:
        """The rendered Jacobi residual of every generator triple."""
        if residuals is None:
            residuals = self.jacobi_residuals()
        return {key: res.render(self.gens) for key, res in residuals.items()}


# -- the algebras of interest ----------------------------------------------------


def _flat_time_relations(space: tuple, kinv: Scalar, twist=None) -> dict:
    """[x0, xa] = -kinv xa (plus the twist rotation on the 1-2 plane)."""
    rel = {}
    for a, name in enumerate(space, start=1):
        p = NCPoly.gen(a, -kinv)
        if twist is not None:
            if name.endswith("1"):
                p = p + NCPoly.gen(space.index(name.replace("1", "2")) + 1, -twist)
            elif name.endswith("2"):
                p = p + NCPoly.gen(space.index(name.replace("2", "1")) + 1, twist)
        rel[("x0", name)] = p
    return rel


def kappa_minkowski(kinv=None, twist=None) -> NCAlgebra:
    """Flat noncommutative spacetime; optionally twisted."""
    kinv = sym("kinv") if kinv is None else kinv
    gens = ("x0", "x1", "x2", "x3")
    space = ("x1", "x2", "x3")
    rel = _flat_time_relations(space, kinv, twist)
    for a in range(1, 4):
        for b in range(a + 1, 4):
            rel[(gens[a], gens[b])] = NCPoly.zero()
    return NCAlgebra(gens, rel)


def _sphere_relations(names: dict, pos_of: dict, eta, kinv) -> dict:
    """Space-sector quadratic relations in terms of generator positions.

    names: mapping 'x1'/'x2'/'x3' -> actual generator name.
    """
    ek = eta * kinv
    x1, x2, x3 = names["x1"], names["x2"], names["x3"]
    i1, i2, i3 = pos_of[x1], pos_of[x2], pos_of[x3]
    rel = {}
    # [x1, x2] = -ek (x3)^2 ; [x1, x3] = ek x3 x2 ; [x2, x3] = -ek x1 x3
    rel[_okey(pos_of, x1, x2)] = _osign(pos_of, x1, x2, NCPoly.word((i3, i3), -ek))
    rel[_okey(pos_of, x1, x3)] = _osign(pos_of, x1, x3, NCPoly({(i3, i2): ek}))
    rel[_okey(pos_of, x2, x3)] = _osign(pos_of, x2, x3, NCPoly({(i1, i3): -ek}))
    return rel


def _okey(pos_of, a, b):
    return (a, b) if pos_of[a] < pos_of[b] else (b, a)


def _osign(pos_of, a, b, p: NCPoly) -> NCPoly:
    return p if pos_of[a] < pos_of[b] else -p


def quantum_sphere(eta=None, kinv=None) -> NCAlgebra:
    """The space-sector quadratic algebra with normal order (x1, x3, x2)."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    gens = ("x1", "x3", "x2")
    pos_of = {g: i for i, g in enumerate(gens)}
    rel = _sphere_relations({"x1": "x1", "x2": "x2", "x3": "x3"}, pos_of, eta, kinv)
    return NCAlgebra(gens, rel)


def local_first_order(eta=None, kinv=None) -> NCAlgebra:
    """First order in the curvature scale: flat time sector + quantum sphere."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    gens = ("x0", "x1", "x3", "x2")
    pos_of = {g: i for i, g in enumerate(gens)}
    rel = _sphere_relations({"x1": "x1", "x2": "x2", "x3": "x3"}, pos_of, eta, kinv)
    for name in ("x1", "x2", "x3"):
        rel[("x0", name)] = NCPoly.gen(pos_of[name], -kinv)
    return NCAlgebra(gens, rel)


def ambient_algebra(eta=None, kinv=None) -> NCAlgebra:
    """All-orders quantization in ambient coordinates, order (s0,s1,s3,s2,s4)."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    gens = ("s0", "s1", "s3", "s2", "s4")
    pos_of = {g: i for i, g in enumerate(gens)}
    e2k = eta * eta * kinv
    rel = _sphere_relations({"x1": "s1", "x2": "s2", "x3": "s3"}, pos_of, eta, kinv)
    sfr = sphere_casimir_words(pos_of, eta, kinv)
    for name in ("s1", "s2", "s3"):
        a = pos_of[name]
        rel[(("s0", name))] = NCPoly({(a, pos_of["s4"]): -kinv})
        rel[((name, "s4"))] = NCPoly({(pos_of["s0"], a): -e2k})
    rel[("s0", "s4")] = sfr.scale(-e2k)
    return NCAlgebra(gens, rel)


def sphere_casimir_words(pos_of: dict, eta, kinv) -> NCPoly:
    """|space|^2 + eta*kinv * (first space) (second space), normal-ordered."""
    names = [n for n in ("x1", "x2", "x3", "s1", "s2", "s3") if n in pos_of]
    one = {n[-1]: pos_of[n] for n in names}
    i1, i2, i3 = one["1"], one["2"], one["3"]
    terms = {(i1, i1): Frac.of(1), (i2, i2): Frac.of(1), (i3, i3): Frac.of(1)}
    key = (i1, i2) if i1 <= i2 else (i2, i1)
    terms[key] = Frac.of(eta) * Frac.of(kinv)
    return NCPoly(terms)


def space_casimir(alg: NCAlgebra, eta=None, kinv=None) -> NCPoly:
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    return sphere_casimir_words(alg.pos, eta, kinv)


def pseudosphere_casimir(alg: NCAlgebra, eta=None, kinv=None) -> NCPoly:
    """(s4)^2 + eta^2 (s0)^2 - eta^2 kinv s0 s4 - eta^2 * (space casimir)."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    e2 = eta * eta
    i0, i4 = alg.pos["s0"], alg.pos["s4"]
    p = NCPoly({(i4, i4): Frac.of(1), (i0, i0): Frac.of(e2),
                (i0, i4): Frac.of(-(e2 * kinv))})
    return p + space_casimir(alg, eta, kinv).scale(-e2)


def _drop_generator(p: NCPoly, gen: int) -> NCPoly:
    """Substitute a (central) generator by 1: erase its letters."""
    out = NCPoly()
    for w, c in p.terms.items():
        key = tuple(g for g in w if g != gen)
        cur = out.terms.get(key)
        cur = c if cur is None else cur + c
        if cur.is_zero():
            out.terms.pop(key, None)
        else:
            out.terms[key] = cur
    return out


def flat_limits_ok() -> bool:
    """eta -> 0 of every curved algebra gives the flat spacetime relations."""
    zero_eta = {"eta": Scalar.rational(0)}
    flat = kappa_minkowski()
    local = local_first_order()
    for (i, j), rhs in local.commutator_rhs.items():
        a, b = local.gens[i], local.gens[j]
        fa, fb = flat.pos[a], flat.pos[b]
        want = flat.commutator_rhs[(fa, fb) if fa < fb else (fb, fa)]
        if fa > fb:
            want = -want
        got = rhs.substitute(zero_eta)
        mapped = NCPoly({tuple(flat.pos[local.gens[g]] for g in w): c
                         for w, c in got.terms.items()})
        if not (mapped - want).is_zero():
            return False
    sphere = quantum_sphere()
    for rhs in sphere.commutator_rhs.values():
        if not rhs.substitute(zero_eta).is_zero():
            return False
    amb = ambient_algebra()
    i4 = amb.pos["s4"]
    for (i, j), rhs in amb.commutator_rhs.items():
        a, b = amb.gens[i], amb.gens[j]
        got = _drop_generator(rhs.substitute(zero_eta), i4)
        if "s4" in (a, b):
            want = NCPoly.zero()
        elif a == "s0":
            want = NCPoly.gen(amb.pos[b], -sym("kinv"))
        elif b == "s0":
            want = NCPoly.gen(amb.pos[a], sym("kinv"))
        else:
            want = NCPoly.zero()
        if not (got - want).is_zero():
            return False
    return True


def displayed_brackets_ok() -> bool:
    """The two cross-brackets of the space Casimir and the full centrality."""
    alg = ambient_algebra()
    eta, kinv = sym("eta"), sym("kinv")
    e2k = eta * eta * kinv
    sfr = space_casimir(alg)
    sig = pseudosphere_casimir(alg)
    s0 = NCPoly.gen(alg.pos["s0"])
    s4 = NCPoly.gen(alg.pos["s4"])
    lhs0 = alg.commutator(sfr, s0)
    rhs0 = alg.normal_form((s4 * sfr + sfr * s4).scale(kinv)
                           - (s0 * sfr).scale(e2k * kinv))
    lhs4 = alg.commutator(sfr, s4)
    rhs4 = alg.normal_form((s0 * sfr + sfr * s0).scale(-e2k)
                           + (sfr * s4).scale(e2k * kinv))
    return ((lhs0 - rhs0).is_zero() and (lhs4 - rhs4).is_zero()
            and not lhs0.is_zero() and not lhs4.is_zero()
            and alg.commutator(sig, sfr).is_zero())


def builtin_algebras(eta=None, kinv=None, vtheta=None) -> dict:
    """All named algebras with their central elements, formal by default."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    vtheta = sym("vtheta") if vtheta is None else vtheta
    sphere = quantum_sphere(eta, kinv)
    local = local_first_order(eta, kinv)
    ambient = ambient_algebra(eta, kinv)
    out = {
        "kappa_minkowski": {"algebra": kappa_minkowski(kinv), "casimirs": {}},
        "kappa_minkowski_twisted": {
            "algebra": kappa_minkowski(kinv, twist=vtheta), "casimirs": {}},
        "quantum_sphere": {
            "algebra": sphere,
            "casimirs": {"sphere": (space_casimir(sphere, eta, kinv),
                                    ("x1", "x2", "x3"))}},
        "local_first_order": {
            "algebra": local,
            "casimirs": {"sphere": (space_casimir(local, eta, kinv),
                                    ("x1", "x2", "x3"))}},
        "ambient": {
            "algebra": ambient,
            "casimirs": {
                "sphere": (space_casimir(ambient, eta, kinv), ("s1", "s2", "s3")),
                "pseudosphere": (pseudosphere_casimir(ambient, eta, kinv),
                                 ("s0", "s1", "s2", "s3", "s4")),
            }},
    }
    return out
