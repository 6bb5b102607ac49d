import math
import re
import subprocess
import sys

import numpy as np
import pytest

from kads import bialgebra as B
from kads.bialgebra import (Bivector, IncompleteCocommutator, NotAntisymmetric,
                            NotPartialPermutation, cocommutator, cocommutator_dense,
                            coisotropy_check, dual_jacobi_residual, mcybe_residual,
                            mcybe_residual_components, mcybe_residual_dense, schouten,
                            schouten_dense)
from kads.curvtrig import eta_of
from kads.liealg import (BASIS, DIM, IDX, NotSubalgebra, ads_algebra, ads_tensor,
                         components_norm, subalgebra, subalgebra_dense)
from kads.rclass import (LORENTZ, SUBALG_2PLUS1, family_r, r_2plus1, r_kads,
                         r_kads_twisted, r_poincare, r_poincare_twisted)
from kads.scalars import Scalar, rat, sym

from oracles import (dense_table, dual_jacobi_by_dual_algebra, mcybe_components_by_generator,
                     mcybe_residual_dense_by_transposes, schouten_dense_three_terms,
                     schouten_three_terms, stacked)
from tables import biv, expected_curved_table, expected_flat_table

eta, kinv, vth = sym("eta"), sym("kinv"), sym("vtheta")


def test_flat_cocommutator_table_exact():
    delta = cocommutator(ads_algebra(0), r_poincare(kinv))
    expected = expected_flat_table()
    for i in range(DIM):
        assert delta[i] == expected[i], BASIS[i]


def test_curved_cocommutator_table_exact():
    g = ads_algebra(-(eta ** 2))
    delta = cocommutator(g, r_kads(kinv, eta))
    expected = expected_curved_table()
    for i in range(DIM):
        assert delta[i] == expected[i], BASIS[i]


def test_cocommutator_of_zero_and_linearity():
    g = ads_algebra(-(eta ** 2))
    assert all(b.norm() == 0 for b in cocommutator(g, Bivector()).values())
    r1, r2 = r_poincare(kinv), biv(("J1", "J2", eta))
    a, b = rat(3), rat(-2)
    lhs = cocommutator(g, r1.scale(a) + r2.scale(b))
    d1, d2 = cocommutator(g, r1), cocommutator(g, r2)
    for i in range(DIM):
        assert lhs[i] == d1[i].scale(a) + d2[i].scale(b)
    # exact and float cancellation both leave an empty map
    for c in (eta * kinv, 0.31):
        r = biv(("J1", "J2", c), ("P0", "K1", c))
        assert (r - r).components == {}
        assert biv(("J1", "J2", c), ("J2", "J1", c)).components == {}
        assert r + r.scale(-1) == Bivector() != r


# -- independent Schouten oracle: full tensor contraction over 10^3 --------------

def schouten_oracle(lam: float, r: Bivector) -> np.ndarray:
    g = ads_algebra(lam)
    c = np.zeros((DIM, DIM, DIM))
    for (i, j), terms in g.structure.items():
        for k, coeff in terms:
            c[i, j, k] = coeff
            c[j, i, k] = -coeff
    rho = np.zeros((DIM, DIM))
    for (i, j), coeff in r.components.items():
        rho[i, j] = coeff
        rho[j, i] = -coeff
    t = np.einsum("ij,kl,ikm->mjl", rho, rho, c)
    t += np.einsum("ij,kl,jkm->iml", rho, rho, c)
    t += np.einsum("ij,kl,jlm->ikm", rho, rho, c)
    return t


def test_schouten_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for lam in (-1.0, 0.0, 0.8):
        g = ads_algebra(lam)
        for _ in range(6):
            pairs = set()
            while len(pairs) < 6:
                i, j = sorted(rng.integers(0, DIM, 2))
                if i != j:
                    pairs.add((int(i), int(j)))
            r = Bivector({p: float(c) for p, c in
                          zip(pairs, rng.uniform(-1, 1, len(pairs)))})
            t = schouten(g, r)
            oracle = schouten_oracle(lam, r)
            dense = np.zeros((DIM, DIM, DIM))
            for (a, b, cc), v in t.items():
                for (pa, pb, pc), s in {(a, b, cc): 1, (b, cc, a): 1, (cc, a, b): 1,
                                        (a, cc, b): -1, (b, a, cc): -1,
                                        (cc, b, a): -1}.items():
                    dense[pa, pb, pc] = s * v
            assert np.max(np.abs(dense - oracle)) < 1e-12


def schouten_oracle_exact(g, r: Bivector) -> dict:
    """Pure-python triple-tensor expansion with exact Scalar coefficients."""
    rho = {}
    for (i, j), c in r.components.items():
        rho[(i, j)] = c
        rho[(j, i)] = -c
    full: dict = {}

    def acc(key, c):
        cur = full.get(key)
        cur = c if cur is None else cur + c
        if cur == Scalar():
            full.pop(key, None)
        else:
            full[key] = cur

    for (i, j), c1 in rho.items():
        for (k, l), c2 in rho.items():
            c = c1 * c2
            for m, cb in g.bracket_basis(i, k):
                acc((m, j, l), c * cb)
            for m, cb in g.bracket_basis(j, k):
                acc((i, m, l), c * cb)
            for m, cb in g.bracket_basis(j, l):
                acc((i, k, m), c * cb)
    return full


def test_schouten_matches_exact_oracle():
    eta_ = sym("eta")
    g = ads_algebra(-(eta_ ** 2))
    for r in (r_kads(kinv, eta_),
              r_kads_twisted(kinv, eta_, vth),
              biv(("K1", "P2", rat(1)), ("J1", "J2", eta_), ("P0", "J3", vth))):
        t = schouten(g, r)
        oracle = schouten_oracle_exact(g, r)
        # every canonical component must equal the oracle's tensor entry
        seen = set()
        for (a, b, c3), v in t.items():
            assert oracle.get((a, b, c3), Scalar()) == v
            for perm, sign in (((a, b, c3), 1), ((b, c3, a), 1), ((c3, a, b), 1),
                               ((a, c3, b), -1), ((b, a, c3), -1), ((c3, b, a), -1)):
                seen.add(perm)
                assert oracle.get(perm, Scalar()) == (v if sign == 1 else -v)
        # no stray oracle entries outside the trivector support
        for key in oracle:
            assert key in seen, key


def test_schouten_equals_the_three_term_oracle():
    # for a skew r the terms [r12, r23] and [r13, r23] are leg relabelings of
    # [r12, r13]: the one-term kernel gives the three-term bracket key for key
    alpha = (sym("alpha1"), sym("alpha2"), sym("alpha3"))
    beta = (sym("beta1"), sym("beta2"), sym("beta3"))
    for g in (ads_algebra(-(eta ** 2)), ads_algebra(sym("Lambda"))):
        for r in (family_r(alpha, beta, kinv), r_poincare(kinv),
                  r_poincare_twisted(kinv, vth), r_kads(kinv, eta),
                  r_kads_twisted(kinv, eta, vth), r_2plus1(kinv),
                  biv(("K1", "P2", rat(1)), ("J1", "J2", eta), ("P0", "J3", vth))):
            got, want = schouten(g, r), schouten_three_terms(g, r)
            assert got.keys() == want.keys()
            assert all(got[k] == want[k] for k in want)


def test_schouten_zero_and_single_term():
    g0 = ads_algebra(0)
    assert components_norm(schouten(g0, Bivector()).values()) == 0
    single = biv(("K1", "P1", rat(1)))
    assert components_norm(schouten(g0, single).values()) > 0


def test_mcybe_residuals():
    g0 = ads_algebra(0)
    gc = ads_algebra(-(eta ** 2))
    assert mcybe_residual(g0, r_poincare(kinv)) == 0
    assert mcybe_residual(g0, r_poincare_twisted(kinv, vth)) == 0
    assert mcybe_residual(gc, r_kads(kinv, eta)) == 0
    assert mcybe_residual(gc, r_kads_twisted(kinv, eta, vth)) == 0
    # J1^P1 alone spans an abelian pair, so it actually solves the equation;
    # J1^P2 genuinely fails it
    assert mcybe_residual(g0, biv(("J1", "P1", rat(1)))) == 0
    assert mcybe_residual(g0, biv(("J1", "P2", rat(1)))) > 0


def test_mcybe_2plus1_on_subalgebra():
    gc = ads_algebra(-(eta ** 2))
    sub = subalgebra(gc, SUBALG_2PLUS1)
    remap = {gi: p for p, gi in enumerate(SUBALG_2PLUS1)}
    r = Bivector({(remap[i], remap[j]): c
                  for (i, j), c in r_2plus1(kinv).components.items()})
    assert mcybe_residual(sub, r) == 0
    # and no rotation-rotation term is present in the 2+1 r-matrix
    assert (IDX["J1"], IDX["J2"]) not in r_2plus1(kinv).components


def test_coisotropy():
    gc = ads_algebra(-(eta ** 2))
    delta = cocommutator(gc, r_kads(kinv, eta))
    assert coisotropy_check(gc, delta, LORENTZ)
    # the twisted deformation also stays coisotropic for the Lorentz sector
    delta_tw = cocommutator(gc, r_kads_twisted(kinv, eta, vth))
    assert coisotropy_check(gc, delta_tw, LORENTZ)
    g0 = ads_algebra(0)
    delta_tw0 = cocommutator(g0, r_poincare_twisted(kinv, vth))
    assert coisotropy_check(g0, delta_tw0, LORENTZ)
    # zero cocommutator is coisotropic for any subalgebra
    zero = {i: Bivector() for i in range(DIM)}
    assert coisotropy_check(gc, zero, LORENTZ)
    # the abelian pair (P0, J3) has vanishing cocommutators
    assert coisotropy_check(gc, delta, (IDX["P0"], IDX["J3"]))
    with pytest.raises(NotSubalgebra):
        coisotropy_check(gc, delta, (IDX["P1"], IDX["K1"]))
    # a cocommutator landing outside h ^ g fails the support scan
    bad = dict(delta)
    bad[IDX["J1"]] = biv(("P1", "P2", kinv))
    assert not coisotropy_check(gc, bad, LORENTZ)
    # the dense path: one tensor D, a mask test, and closure read off f
    for lam in (-0.7, 0.0, 0.5):
        f = ads_tensor(lam)
        for r in (r_kads(0.31, eta_of(lam)), r_kads_twisted(0.31, eta_of(lam), 0.17)):
            d = cocommutator_dense(f, r.matrix(DIM))
            assert coisotropy_check(f, d, LORENTZ)
            assert coisotropy_check(f, d, (IDX["P0"], IDX["J3"]))
            with pytest.raises(NotSubalgebra, match=r"\[P1,K1\] leaves the span"):
                coisotropy_check(f, d, (IDX["P1"], IDX["K1"]))
            bad = d.copy()
            bad[IDX["K1"]] += biv(("P1", "P2", 0.31)).matrix(DIM)
            assert not coisotropy_check(f, bad, LORENTZ)
        assert coisotropy_check(f, np.zeros((DIM,) * 3), LORENTZ)


def test_dual_jacobi():
    gc = ads_algebra(-(eta ** 2))
    delta = cocommutator(gc, r_kads(kinv, eta))
    assert dual_jacobi_residual(delta) == 0
    delta0 = cocommutator(ads_algebra(0), r_poincare(kinv))
    assert dual_jacobi_residual(delta0) == 0
    corrupted = dict(delta)
    corrupted[IDX["P1"]] = delta[IDX["P1"]] + biv(("J1", "J2", kinv))
    assert dual_jacobi_residual(corrupted) > 0
    # the dense tensor is the dual table itself
    for lam in (-0.7, 0.0, 0.5):
        r = r_kads(0.31, eta_of(lam))
        delta = cocommutator(ads_algebra(lam), r)
        d = cocommutator_dense(ads_tensor(lam), r.matrix(DIM))
        assert dual_jacobi_residual(d) == dual_jacobi_residual(delta) < 1e-15
        d[IDX["P1"]] += biv(("J1", "J2", 0.31)).matrix(DIM)
        assert dual_jacobi_residual(d) > 0.05


def test_twisted_flat_cocommutator_difference():
    # the twist only shifts delta within the coisotropy class
    g0 = ads_algebra(0)
    d0 = cocommutator(g0, r_poincare(kinv))
    dt = cocommutator(g0, r_poincare_twisted(kinv, vth))
    assert dt[IDX["P0"]].norm() == 0
    diff = dt[IDX["P1"]] - d0[IDX["P1"]]
    assert diff == biv(("P2", "P0", -vth))


def test_table_json_keys():
    g0 = ads_algebra(0)
    delta = cocommutator(g0, r_poincare(kinv))
    assert delta[IDX["P1"]] == biv(("P0", "P1", -kinv))
    assert delta[IDX["P0"]] == Bivector()


# -- the dense float kernel against the sparse loops -----------------------------

ORACLE_LAMBDAS = (-2.0, -1e-8, 0.0, 1e-8, 0.5, 2.0)


def assert_matches_sparse(dense, sparse, scale):
    """Relative agreement to 1e-12; residuals at round-off agree to 1e-12
    of the size of the terms that cancelled."""
    assert abs(dense - sparse) <= 1e-12 * max(abs(sparse), scale), (dense, sparse)


def random_bivector(rng, dim, imag=0.0):
    """All dim*(dim-1)/2 components nonzero; complex when imag != 0."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    vals = rng.uniform(-1, 1, len(pairs)) + imag * 1j * rng.uniform(-1, 1, len(pairs))
    return Bivector({p: complex(v) if imag else float(v.real) for p, v in zip(pairs, vals)})


def on_2plus1(r: Bivector) -> Bivector:
    remap = {gi: p for p, gi in enumerate(SUBALG_2PLUS1)}
    return Bivector({(remap[i], remap[j]): c for (i, j), c in r.components.items()})


def test_dense_mcybe_matches_sparse_oracle():
    rng = np.random.default_rng(0xB1A)
    kv, vt = 0.31, 0.17
    for lam in ORACLE_LAMBDAS:
        eta_ = eta_of(lam)  # imaginary for lam > 0
        g = ads_algebra(lam)
        sub = subalgebra(g, SUBALG_2PLUS1)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        cases = [(g, random_bivector(rng, DIM)), (g, random_bivector(rng, DIM, 0.5)),
                 (g, r_kads(kv, eta_)), (g, r_kads_twisted(kv, eta_, vt)),
                 (g, family_r(tuple(eta_ * kv * n), tuple(0.4 * n), kv)),
                 (g, family_r(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)),
                              kv)),
                 (sub, random_bivector(rng, 6)), (sub, on_2plus1(r_2plus1(kv)))]
        for alg, r in cases:
            dense = mcybe_residual_dense(dense_table(alg), r.matrix(alg.dim))
            sparse = mcybe_residual(alg, r)
            scale = max(abs(c) for c in r.components.values()) ** 2 * max(1.0, abs(lam))
            assert_matches_sparse(dense, sparse, scale)
    # full random r-matrices are far from solutions; the flat ones solve it
    assert mcybe_residual_dense(ads_tensor(-0.7), random_bivector(rng, DIM).matrix(DIM)) > 0.1
    for r in (r_poincare(kv), r_poincare_twisted(kv, vt)):
        res = mcybe_residual_dense(ads_tensor(0.0), r.matrix(DIM))
        assert res == 0 and type(res) is int


EDGE_LAMBDAS = (-1e9, -1.0, -5e-324, 0.0, 5e-324, 0.5, 1e9)


def test_dense_cocommutator_equals_sparse_oracle():
    # every entry is the difference of at most two products, formed as the
    # sparse loop forms them, so the two agree with ==, at every scale
    rng = np.random.default_rng(0xC0C)
    kv, vt = 0.31, 0.17
    for lam in EDGE_LAMBDAS:
        eta_ = eta_of(lam)
        g, f = ads_algebra(lam), ads_tensor(lam)
        assert np.array_equal(f, dense_table(g))
        named = (r_poincare(kv), r_poincare_twisted(kv, vt), r_kads(kv, eta_),
                 r_kads_twisted(kv, eta_, vt), r_2plus1(kv))
        for r in named + (random_bivector(rng, DIM), random_bivector(rng, DIM, 0.5)):
            d = cocommutator_dense(f, r.matrix(DIM))
            oracle = stacked(cocommutator(g, r))
            assert d.dtype == oracle.dtype and np.array_equal(d, oracle), (lam, r.components)
            assert np.array_equal(d, -d.transpose(0, 2, 1))
    assert not cocommutator_dense(ads_tensor(-0.7), np.zeros((DIM, DIM))).any()


def test_dense_subalgebra_matches_the_sparse_restriction():
    for lam in (-0.7, 0.0, 0.5):
        g, f = ads_algebra(lam), ads_tensor(lam)
        for idx in (SUBALG_2PLUS1, LORENTZ, (IDX["P0"], IDX["J3"])):
            assert np.array_equal(subalgebra_dense(f, idx), dense_table(subalgebra(g, idx)))
        for idx in ((IDX["P1"], IDX["K1"]), LORENTZ[:-1]):
            with pytest.raises(NotSubalgebra) as sparse:
                subalgebra(g, idx)
            with pytest.raises(NotSubalgebra, match=re.escape(str(sparse.value))):
                subalgebra_dense(f, idx)


def test_dense_dual_jacobi_matches_sparse_oracle():
    kv, vt = 0.31, 0.17
    for lam in ORACLE_LAMBDAS:
        eta_ = eta_of(lam)
        g = ads_algebra(lam)
        for r in (r_kads(kv, eta_), r_kads_twisted(kv, eta_, vt)):
            delta = cocommutator(g, r)
            corrupted = dict(delta)
            corrupted[IDX["P1"]] = delta[IDX["P1"]] + biv(("J1", "J2", kv))
            for d in (delta, corrupted):
                assert_matches_sparse(dual_jacobi_residual(stacked(d)),
                                      dual_jacobi_by_dual_algebra(d), 1.0)
            assert dual_jacobi_residual(stacked(corrupted)) > 1e-3


def test_dense_dual_jacobi_keeps_large_cancellations_exact():
    # at |lambda| ~ 1e6..1e7 the dual tables hold entries ~ 1e6 whose products
    # cancel in pairs; summed with fused multiply-adds they would leave
    # 1e-8..1e-6, at or above the 1e-8 tolerance of check-bialgebra
    for lam in (-3e6, -1.9e7, 3e6):
        delta = cocommutator(ads_algebra(lam), r_kads_twisted(0.31, eta_of(lam), 0.17))
        dense = dual_jacobi_residual(stacked(delta))
        assert abs(dense - dual_jacobi_by_dual_algebra(delta)) <= 1e-9, lam


def test_dense_schouten_rejects_a_non_skew_matrix():
    f = ads_tensor(-0.7)
    rmat = r_kads(0.31, eta_of(-0.7)).matrix(DIM)
    schouten_dense(f, rmat)  # skew: passes
    for bad in (np.abs(rmat), rmat + np.eye(DIM) * 1e-3):
        with pytest.raises(NotAntisymmetric, match="not skew") as err:
            schouten_dense(f, bad)
        assert err.value.residual == np.max(np.abs(bad + bad.T)) > 0
        with pytest.raises(NotAntisymmetric):
            mcybe_residual_dense(f, bad)
    # a NaN entry faces a NaN: skew, and the residual is NaN
    nan_r = r_kads(0.31, eta_of(-0.7)) + biv(("P0", "K1", math.nan))
    assert math.isnan(mcybe_residual_dense(f, nan_r.matrix(DIM)))
    one_sided = rmat.copy()
    one_sided[0, 4] = math.nan
    with pytest.raises(NotAntisymmetric, match="not skew"):
        schouten_dense(f, one_sided)


def dense_outcome(kernel, f, rmat):
    """The kernel's result, or the type of the error it raised."""
    try:
        return kernel(f, rmat)
    except NotAntisymmetric as exc:
        return type(exc)


def skew_matrix(rng, imag=0.0):
    upper = np.triu(rng.uniform(-1, 1, (DIM, DIM)) + imag * 1j * rng.uniform(-1, 1, (DIM, DIM)), 1)
    return upper - upper.T


def test_dense_one_term_kernels_are_bit_identical_to_three_terms(monkeypatch):
    # for a skew R the other two terms are products of bitwise negated or
    # equal operands, so the one-term tensor is the three-term sum bit for
    # bit, and so are the residuals, the integer 0 and which inputs raise
    rng = np.random.default_rng(0x5C0)
    kv, vt = 0.31, 0.17
    cases = []
    for lam in EDGE_LAMBDAS:
        eta_ = eta_of(lam)
        f = ads_tensor(lam)
        named = (r_poincare(kv), r_poincare_twisted(kv, vt), r_kads(kv, eta_),
                 r_kads_twisted(kv, eta_, vt), r_2plus1(kv))
        rmats = [r.matrix(DIM) for r in named]
        for _ in range(3):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            on = family_r(tuple(eta_ * kv * n), tuple(rng.uniform(-1, 1) * n), kv)
            off = family_r(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)), kv)
            rmats += [on.matrix(DIM), off.matrix(DIM), skew_matrix(rng),
                      skew_matrix(rng, 0.5)]
        cases += [(lam, f, rmat) for rmat in rmats]
    one_term = [(dense_outcome(schouten_dense, f, rm), dense_outcome(mcybe_residual_dense, f, rm))
                for _, f, rm in cases]
    monkeypatch.setattr(B, "schouten_dense", schouten_dense_three_terms)
    three_terms = [(dense_outcome(schouten_dense_three_terms, f, rm),
                    dense_outcome(B.mcybe_residual_dense, f, rm)) for _, f, rm in cases]
    raised = set()
    for (lam, _, _), (t1, m1), (t3, m3) in zip(cases, one_term, three_terms):
        if isinstance(t3, type):
            assert t1 is t3 and m1 is m3
            raised.add(lam)
            continue
        assert t1.dtype == t3.dtype and np.array_equal(t1, t3)
        assert type(m1) is type(m3) and m1 == m3
    # only inputs at |lambda| = 1e9 leave round-off above 1e-9
    assert raised == {-1e9, 1e9}


def test_dense_schouten_stays_antisymmetric_at_large_lambda():
    # f multiplies the products R[i, j] * R[k, l], as in the sparse loop, so
    # the repeated-index entries cancel exactly; evaluated as (R.T @ f) @ R
    # they reach 7e-9 at |lambda| = 1e9 and trip the 1e-9 check
    for lam in (-1e9, 1e9):
        for r in (r_kads(0.31, eta_of(lam)), r_kads_twisted(0.31, eta_of(lam), 0.17)):
            schouten_dense(ads_tensor(lam), r.matrix(DIM))


def test_dense_residuals_let_nan_win():
    g = ads_algebra(-0.7)
    r = r_kads(0.31, eta_of(-0.7)) + biv(("P0", "K1", math.nan))
    assert math.isnan(r.norm())
    assert math.isnan(mcybe_residual_dense(ads_tensor(-0.7), r.matrix(DIM)))
    assert math.isnan(mcybe_residual(g, r))
    delta = cocommutator(g, r_kads(0.31, eta_of(-0.7)))
    delta[IDX["P2"]] = delta[IDX["P2"]] + biv(("J1", "J2", math.nan))
    assert math.isnan(dual_jacobi_residual(stacked(delta)))
    assert math.isnan(dual_jacobi_residual(delta))
    assert math.isnan(Bivector.from_terms((0, 1, 1.0), (2, 3, math.nan)).norm())


# -- the one-pass and in-place kernels against their earlier forms ------------------


def _formal_family():
    return family_r((sym("alpha1"), sym("alpha2"), sym("alpha3")),
                    (sym("beta1"), sym("beta2"), sym("beta3")), kinv)


def test_one_pass_ad_action_equals_the_per_generator_one():
    # the same components in the same order; float sums bit for bit
    rng = np.random.default_rng(0xAD1)
    exact_cases = [(ads_algebra(-(eta ** 2)), _formal_family()),
                   (ads_algebra(sym("Lambda")), r_kads_twisted(kinv, eta, vth)),
                   (ads_algebra(0), biv(("J1", "P2", rat(1)), ("K1", "P0", kinv))),
                   (subalgebra(ads_algebra(-(eta ** 2)), SUBALG_2PLUS1), on_2plus1(r_2plus1(kinv)))]
    for g, r in exact_cases:
        got, want = mcybe_residual_components(g, r), mcybe_components_by_generator(g, r)
        assert len(got) == len(want) and all(a == b for a, b in zip(got, want))
    assert len(mcybe_residual_components(*exact_cases[0])) == 60
    for lam in (-0.7, 0.0, 0.5):
        g = ads_algebra(lam)
        for r in (random_bivector(rng, DIM), random_bivector(rng, DIM, 0.5),
                  r_kads(0.31, eta_of(lam))):
            got, want = mcybe_residual_components(g, r), mcybe_components_by_generator(g, r)
            assert [complex(v) for v in got] == [complex(v) for v in want]
            assert [type(v) for v in got] == [type(v) for v in want]


def _as_cocommutator(table: dict, dim: int) -> dict:
    """A bracket table read as a cocommutator: delta(T_m) = sum c T_i ^ T_j
    over the terms (m, c) of [T_i, T_j], so its dual bracket is the table."""
    delta = {m: Bivector() for m in range(dim)}
    for (i, j), terms in table.items():
        for m, c in terms:
            delta[m] = delta[m] + Bivector.from_terms((i, j, c))
    return delta


def test_dual_jacobi_on_signed_pairs_equals_the_dual_algebra():
    for g, r, c in ((ads_algebra(-(eta ** 2)), r_kads(kinv, eta), kinv),
                    (ads_algebra(-(eta ** 2)), r_kads_twisted(kinv, eta, vth), kinv),
                    (ads_algebra(0), r_poincare_twisted(kinv, vth), kinv),
                    (ads_algebra(-0.7), r_kads_twisted(0.31, eta_of(-0.7), 0.17), 0.31),
                    (ads_algebra(0.5), r_kads(0.31, eta_of(0.5)), 0.31)):
        delta = cocommutator(g, r)
        bad = dict(delta)
        bad[IDX["P1"]] = delta[IDX["P1"]] + biv(("J1", "J2", c))
        # the last map keeps the first four cocommutators and zeroes the rest
        for d in (delta, bad, {m: delta[m] if m < 4 else Bivector() for m in range(DIM)}):
            got, want = dual_jacobi_residual(d), dual_jacobi_by_dual_algebra(d, DIM)
            assert type(got) is type(want) and got == want
    # test_jacobi_detects_corruption's tables, read as cocommutators: the
    # dual residual counts the same broken components
    for g, pair, count in ((ads_algebra(0), ("J1", "J2"), 6),
                           (ads_algebra(-(eta ** 2)), ("P1", "P2"), 8)):
        table = dict(g.structure)
        key = (IDX[pair[0]], IDX[pair[1]])
        table[key] = tuple((k, c * 2) for k, c in table[key])
        delta = _as_cocommutator(table, DIM)
        assert dual_jacobi_residual(delta) == dual_jacobi_by_dual_algebra(delta) == count
        assert dual_jacobi_residual(_as_cocommutator(g.structure, DIM)) == 0


def test_dual_jacobi_takes_every_generator_a_map_implies():
    # the first four cocommutators mention all ten generators: read as a
    # four-generator dual they would check fewer triples and read 0
    delta = cocommutator(ads_algebra(-0.7), r_kads_twisted(0.31, eta_of(-0.7), 0.17))
    first = {m: delta[m] for m in range(4)}
    with pytest.raises(IncompleteCocommutator, match=re.escape("[4, 5, 6, 7, 8, 9] of 10")):
        dual_jacobi_residual(first)
    with pytest.raises(IncompleteCocommutator, match=re.escape("[1, 2] of 4")):
        dual_jacobi_residual({0: Bivector(), 3: Bivector()})
    full = {**first, **{m: Bivector() for m in range(4, DIM)}}
    got = dual_jacobi_residual(full)
    assert got == dual_jacobi_by_dual_algebra(full, DIM) and abs(got - 0.1126) < 1e-4


def test_the_exact_r_matrix_layers_run_without_numpy():
    # only the ndarray kernels import numpy: exact and float LieAlgebras,
    # their cocommutators and residuals and the formal
    # certificates in a fresh interpreter load none
    probe = ("import sys\n"
             "from kads import bialgebra as B, cli, liealg, rclass\n"
             "from kads.scalars import sym\n"
             "g, h = liealg.ads_algebra(sym('Lambda')), liealg.ads_algebra(-1.0)\n"
             "r = rclass.r_kads(0.31, 1.0)\n"
             "delta = B.cocommutator(h, r)\n"
             "report = cli.cmd_bialgebra(cli.RunConfig(lam='formal'))\n"
             "print(delta[0].norm(), report['pass'], len(report['checks']),\n"
             "      B.mcybe_residual(h, r) < 1e-15, B.dual_jacobi_residual(delta) < 1e-15,\n"
             "      B.coisotropy_check(h, delta, rclass.LORENTZ),\n"
             "      'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "17", "True", "True", "True", "False"]


def test_a_float_map_takes_the_signed_pair_loop(monkeypatch):
    # a cocommutator map index -> Bivector, exact or float, is read by the
    # loops; only a tensor reaches the dense kernel
    dense_calls, kernel = [], B.jacobi_residual_dense

    def spy(d):
        dense_calls.append(d)
        return kernel(d)

    monkeypatch.setattr(B, "jacobi_residual_dense", spy)
    for lam in (-0.7, 0.0, 0.5):
        r = r_kads_twisted(0.31, eta_of(lam), 0.17)
        delta = cocommutator(ads_algebra(lam), r)
        d = cocommutator_dense(ads_tensor(lam), r.matrix(DIM))
        for m in (delta, {**delta, IDX["P1"]: delta[IDX["P1"]] + biv(("J1", "J2", 0.31))}):
            dense_calls.clear()
            got = dual_jacobi_residual(m)
            assert dense_calls == []
            want = dual_jacobi_residual(stacked(m))
            assert len(dense_calls) == 1
            assert_matches_sparse(want, got, 1.0)
        # support scan of the map, mask of the tensor: the same verdicts
        for h in (LORENTZ, (IDX["P0"], IDX["J3"]), (IDX["K1"], IDX["J1"])):
            assert coisotropy_check(ads_algebra(lam), delta, h) == coisotropy_check(
                ads_tensor(lam), d, h)
    dense_calls.clear()
    assert dual_jacobi_residual(cocommutator(ads_algebra(-(eta ** 2)), r_kads(kinv, eta))) == 0
    assert dense_calls == []


def test_coisotropy_names_the_bracket_the_subalgebra_names():
    g = ads_algebra(-(eta ** 2))
    delta = cocommutator(g, r_kads(kinv, eta))
    for h in ((IDX["P1"], IDX["K1"]), LORENTZ[:-1], (IDX["J3"], IDX["P0"], IDX["P1"]),
              tuple(range(1, DIM))):
        with pytest.raises(NotSubalgebra) as sub:
            subalgebra(g, sorted(h))
        with pytest.raises(NotSubalgebra, match=re.escape(str(sub.value))):
            coisotropy_check(g, delta, h)


def _outcome(kernel, f, rmat):
    """A kernel's value as its type and bits, or its error's type, text and residual."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = kernel(f, rmat)
    except NotAntisymmetric as exc:
        return type(exc), str(exc), repr(exc.residual)
    return type(value), repr(value), np.float64(value).tobytes()


def test_dense_mcybe_is_bit_identical_to_the_transposing_kernel():
    rng = np.random.default_rng(0xD3E)
    kv, vt = 0.31, 0.17
    seen = set()
    for lam in EDGE_LAMBDAS + (1.3, -0.0, 1e300):
        eta_ = eta_of(lam)
        f = ads_tensor(lam)
        rmats = [r.matrix(DIM) for r in (r_poincare(kv), r_kads(kv, eta_),
                                         r_kads_twisted(kv, eta_, vt), r_2plus1(kv))]
        for _ in range(2):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            rmats += [family_r(tuple(eta_ * kv * n), tuple(rng.uniform(-1, 1) * n), kv).matrix(DIM),
                      skew_matrix(rng), skew_matrix(rng, 0.5)]
        nan_pair = rmats[1].copy()
        nan_pair[0, 4] = nan_pair[4, 0] = math.nan  # a NaN facing a NaN: skew
        one_sided = rmats[1].copy()
        one_sided[0, 4] = math.nan
        with np.errstate(over="ignore"):
            overflow = rmats[2] * 1e160  # products overflow to inf, then NaN
        rmats += [nan_pair, one_sided, overflow, rmats[1] + 1e-3 * np.eye(DIM)]
        sub = SUBALG_2PLUS1
        cases = [(f, rm) for rm in rmats]
        cases += [(subalgebra_dense(f, sub), rm[sub, :][:, sub]) for rm in rmats]
        for ff, rm in cases:
            got = _outcome(mcybe_residual_dense, ff, rm)
            assert got == _outcome(mcybe_residual_dense_by_transposes, ff, rm), (lam, got)
            seen.add(got[0] if got[0] is not float else ("nan" if "nan" in got[1] else float))
    # every kind of outcome was met: 0, finite, NaN, and the error
    assert seen == {int, float, "nan", NotAntisymmetric}


def test_dense_mcybe_rejects_a_table_that_is_no_partial_permutation():
    # a second source of P1 under ad_P0, or a second target of K1: an entry
    # of ad_m [[r, r]] would no longer be one product; R = 0 keeps t finite
    zero = np.zeros((DIM, DIM))
    assert mcybe_residual_dense(ads_tensor(0.0), zero) == 0
    for n, i, what in ((IDX["P1"], IDX["J1"], f"generator {IDX['P1']} has 2 sources"),
                       (IDX["K2"], IDX["K1"], f"generator {IDX['K1']} has 2 targets")):
        f = ads_tensor(0.0)
        f[n, IDX["P0"], i] = 1.0
        with pytest.raises(NotPartialPermutation, match=f"{what} under ad_{IDX['P0']}$"):
            mcybe_residual_dense(f, zero)
