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
Scalars in ``Frac``'s one canonical form (coprime, with a monic
denominator x^c * f(t) in one monomial t), so every denominator is a
polynomial in E = eta*kinv (in kinv alone, or a constant, once parameters
are specialized) whose roots are true poles.
Specializing the parameters at such a root, in the fixpoint solve or in
``NCPoly.substitute``, raises :class:`SingularSpecialization`.
Confluence is certified a posteriori by the Jacobi certificates and a
rewrite-strategy independence check.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import ONE, Frac, NonTerminating, Scalar, accumulate, sym

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
                if c:
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
            accumulate(out, w, c)
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
                accumulate(out, w1 + w2, c1 * c2)
        p = NCPoly()
        p.terms = out
        return p

    def scale(self, c) -> "NCPoly":
        c = Frac.of(c)
        p = NCPoly()
        if c:
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
            if c2:
                p.terms[w] = c2
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return not (self - other)

    __hash__ = None

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

    def _reduce_word(self, w: Word, strategy: str, active: set, budget: list):
        """Returns (poly, syms) with w = poly + sum syms[v] * v as an algebra
        identity; symbolic references only point at words on the active
        stack.  Identities are memoized even while symbolic (they hold
        unconditionally) and stale symbols are resolved by substitution, so
        every word is expanded at most once per strategy.  The returned dicts
        are the memo's own: callers read them and never mutate them."""
        memo = self._memo[strategy]
        entry = memo.get(w)
        if entry is not None:
            poly, syms = entry
            if not syms or all(s in active for s in syms):
                return entry
            newpoly, newsyms = dict(poly), {}
            for s, c in syms.items():
                if s in active:
                    accumulate(newsyms, s, c)
                    continue
                sp, ss = self._reduce_word(s, strategy, active, budget)
                for k, v in sp.items():
                    accumulate(newpoly, k, v * c)
                for k, v in ss.items():
                    accumulate(newsyms, k, v * c)
            memo[w] = (newpoly, newsyms)
            return newpoly, newsyms
        if self.is_normal(w):
            memo[w] = entry = ({w: Frac.of(1)}, {})
            return entry
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
                accumulate(poly, k, v * coeff)
            for k, v in subsyms.items():
                accumulate(syms, k, v * coeff)
        active.discard(w)
        lam = syms.pop(w, None)
        if lam is not None:
            denom = Frac.of(1) - lam
            if not denom:
                raise SingularSpecialization(
                    f"singular straightening fixpoint at word {w}")
            factor = Frac.of(1) / denom
            poly = {k: v * factor for k, v in poly.items()}
            syms = {k: v * factor for k, v in syms.items()}
        memo[w] = (poly, syms)
        return poly, syms

    def normal_form(self, p, strategy: str = "leftmost") -> NCPoly:
        """Reduce an NCPoly (or raw word dict) to the normal-ordered basis.

        A word whose memo entry holds no symbolic references is read from
        the memo directly; with coefficient one its terms are copied."""
        if not isinstance(p, NCPoly):
            p = NCPoly(p)
        memo = self._memo[strategy]
        out: dict = {}
        for w, c in p.terms.items():
            entry = memo.get(w)
            if entry is None or entry[1]:
                entry = self._reduce_word(tuple(w), strategy, set(), [2_000_000])
                if entry[1]:
                    raise NonTerminating("unresolved straightening fixpoint")
            poly = entry[0]
            if not out and c.is_one():
                out = dict(poly)
                continue
            for k, v in poly.items():
                accumulate(out, k, v * c)
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


# The kappa-AdS relations, written once in the ambient labels of the paper
# and ordered (s0, s1, s3, s2, s4): every right-hand word is normal in that
# order and in its restrictions, (x1, x3, x2) and (x0, x1, x3, x2).
def sphere_casimir_words(eta, kinv) -> dict:
    """|s|^2 + eta*kinv s1 s2 as {label word: coefficient}."""
    return {("s1", "s1"): ONE, ("s3", "s3"): ONE, ("s2", "s2"): ONE,
            ("s1", "s2"): eta * kinv}


def kads_relations(eta, kinv) -> dict:
    """[a, b] for every pair a before b in the order (s0, s1, s3, s2, s4), as
    {label word: coefficient}: the quantum kappa-AdS spacetime to all orders."""
    ek, e2k = eta * kinv, eta * eta * kinv
    rel = {("s1", "s3"): {("s3", "s2"): ek},
           ("s1", "s2"): {("s3", "s3"): -ek},
           ("s3", "s2"): {("s1", "s3"): ek}}
    for a in ("s1", "s3", "s2"):
        rel["s0", a] = {(a, "s4"): -kinv}
        rel[a, "s4"] = {("s0", a): -e2k}
    rel["s0", "s4"] = {w: -e2k * c for w, c in sphere_casimir_words(eta, kinv).items()}
    return rel


def _label_positions(gens) -> dict:
    """Each generator's position, keyed by its ambient label (xa is sa)."""
    return {"s" + g[1:]: i for i, g in enumerate(gens)}


def _ncpoly(terms: dict, lpos: dict) -> NCPoly:
    """Label words as generator words; letters outside ``lpos`` are set to 1."""
    out: dict = {}
    for w, c in terms.items():
        accumulate(out, tuple(lpos[a] for a in w if a in lpos), c)
    return NCPoly(out)


def _restriction(gens, eta, kinv) -> NCAlgebra:
    """The table's relations among ``gens`` (ambient labels or their x names)."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    lpos = _label_positions(gens)
    rel = {(gens[lpos[a]], gens[lpos[b]]): _ncpoly(rhs, lpos)
           for (a, b), rhs in kads_relations(eta, kinv).items()
           if a in lpos and b in lpos}
    return NCAlgebra(gens, rel)


def quantum_sphere(eta=None, kinv=None) -> NCAlgebra:
    """The space sector (s1, s3, s2) renamed (x1, x3, x2), the normal order."""
    return _restriction(("x1", "x3", "x2"), eta, kinv)


def local_first_order(eta=None, kinv=None) -> NCAlgebra:
    """First order in the curvature scale: s4 = 1 is central, so dropping it
    leaves the flat time sector [x0, xa] = -kinv xa and the quantum sphere."""
    return _restriction(("x0", "x1", "x3", "x2"), eta, kinv)


def ambient_algebra(eta=None, kinv=None) -> NCAlgebra:
    """All-orders quantization in ambient coordinates, order (s0,s1,s3,s2,s4)."""
    return _restriction(("s0", "s1", "s3", "s2", "s4"), eta, kinv)


def space_casimir(alg: NCAlgebra, eta=None, kinv=None) -> NCPoly:
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    return _ncpoly(sphere_casimir_words(eta, kinv), _label_positions(alg.gens))


def pseudosphere_casimir(alg: NCAlgebra, eta=None, kinv=None) -> NCPoly:
    """(s4)^2 + eta^2 (s0)^2 - eta^2 kinv s0 s4 - eta^2 * (space casimir)."""
    eta = sym("eta") if eta is None else eta
    kinv = sym("kinv") if kinv is None else kinv
    e2 = eta * eta
    i0, i4 = alg.pos["s0"], alg.pos["s4"]
    p = NCPoly({(i4, i4): Frac.of(1), (i0, i0): Frac.of(e2),
                (i0, i4): Frac.of(-(e2 * kinv))})
    return p + space_casimir(alg, eta, kinv).scale(-e2)


def poisson_reading(alg: NCAlgebra) -> dict:
    """The first-order Poisson reading of ``alg``, the correspondence principle.

    For every ordered pair of generator names (a, b), both orders, the part
    of [a, b] linear in kinv with the letters commuting, as {sorted name
    word: Scalar}.  The relations must have polynomial coefficients.
    """
    out = {}
    for (i, j), rhs in alg.commutator_rhs.items():
        terms: dict = {}
        for w, c in rhs.terms.items():
            if c.den != ONE:
                raise ValueError(f"[{alg.gens[i]}, {alg.gens[j]}] has a "
                                 f"non-polynomial coefficient {c}")
            part = c.num.homogeneous_part("kinv", 1)
            accumulate(terms, tuple(sorted(alg.gens[g] for g in w)), part)
        a, b = alg.gens[i], alg.gens[j]
        out[a, b] = terms
        out[b, a] = {w: -c for w, c in terms.items()}
    return out


def _drop_generator(p: NCPoly, gen: int) -> NCPoly:
    """Substitute a (central) generator by 1: erase its letters."""
    out = NCPoly()
    for w, c in p.terms.items():
        accumulate(out.terms, tuple(g for g in w if g != gen), c)
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
        if mapped != want:
            return False
    sphere = quantum_sphere()
    for rhs in sphere.commutator_rhs.values():
        if rhs.substitute(zero_eta):
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
        if got != want:
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


def builtin_algebras() -> dict:
    """All named algebras with their central elements, at formal parameters."""
    eta, kinv, vtheta = sym("eta"), sym("kinv"), sym("vtheta")
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
