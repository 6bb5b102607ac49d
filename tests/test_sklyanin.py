import math
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from batches import STRADDLE_LAMBDAS, assert_same, single, straddling_batch
from oracles import (Poisson3D, jacobiators_by_triples, push_local_to_ambient,
                     quadratic_space_poisson, reading_terms_by_eval_numeric, sklyanin_bracket)
from kads.bialgebra import Bivector
from kads.curvtrig import Dual, eta_of
from kads.group_geom import GroupPoint, ambient_from_local
from kads.ncalg import ambient_algebra, local_first_order, quantum_sphere
from kads.rclass import r_kads, r_kads_twisted, r_poincare, r_poincare_twisted
from kads.scalars import UnboundParameter
from kads.sklyanin import (AMBIENT_LABELS, LOCAL_LABELS, SampleBatch, _brackets,
                           _first_worst, bracket_matrix_ambient, bracket_matrix_local,
                           closed_form_ambient, closed_form_local, closed_form_twisted,
                           eta_expansion_entry, eta_expansion_table, reading_terms,
                           sample_points, table_jacobi_residual, table_jacobiators,
                           verify_table, worst_of)


KINV = 0.31
VTH = 0.17


def test_closed_form_spot_values():
    lam = -1.0  # eta = 1
    t = closed_form_local(lam, KINV)
    x = (0.2, 0.3, -0.4, 0.5)
    # {x0,x3} = -kinv * tanh(x3)
    assert abs(t.entry(0, 3, x) + KINV * math.tanh(0.5)) < 1e-15
    # {x1,x2} = -kinv * cosh(x1) * tanh(x3)^2
    assert abs(t.entry(1, 2, x) + KINV * math.cosh(0.3) * math.tanh(0.5) ** 2) < 1e-15
    # {x1,x3} = +kinv * cosh(x1) tanh(x2) tanh(x3)
    assert abs(t.entry(1, 3, x)
               - KINV * math.cosh(0.3) * math.tanh(-0.4) * math.tanh(0.5)) < 1e-15
    # {x2,x3} = -kinv * sinh(x1) tanh(x3)
    assert abs(t.entry(2, 3, x) + KINV * math.sinh(0.3) * math.tanh(0.5)) < 1e-15
    # {x0,x2} = -kinv tanh(x2)/cosh^2(x3)
    assert abs(t.entry(0, 2, x)
               + KINV * math.tanh(-0.4) / math.cosh(0.5) ** 2) < 1e-15


def test_closed_form_flat_limit_tables():
    x = (0.7, 0.2, -0.5, 0.4)
    t0 = closed_form_local(0.0, KINV)
    for a in (1, 2, 3):
        assert abs(t0.entry(0, a, x) + KINV * x[a]) < 1e-15
    for a in (1, 2):
        for b in range(a + 1, 4):
            assert t0.entry(a, b, x) == 0.0
    tw = closed_form_twisted(0.0, KINV, VTH)
    assert abs(tw.entry(0, 1, x) - (-KINV * x[1] - VTH * x[2])) < 1e-15
    assert abs(tw.entry(0, 2, x) - (-KINV * x[2] + VTH * x[1])) < 1e-15
    assert abs(tw.entry(0, 3, x) + KINV * x[3]) < 1e-15


def test_twisted_spot_value():
    lam = -1.0
    tw = closed_form_twisted(lam, KINV, VTH)
    x = (0.2, 0.3, -0.4, 0.5)
    want = (-KINV * math.tanh(-0.4) / math.cosh(0.5) ** 2 + VTH * math.sinh(0.3))
    assert abs(tw.entry(0, 2, x) - want) < 1e-15
    # space-space sector is untouched by the twist
    tl = closed_form_local(lam, KINV)
    for a in (1, 2):
        for b in range(a + 1, 4):
            assert tw.entry(a, b, x) == tl.entry(a, b, x)


def test_ambient_entries():
    lam = -1.0
    t = closed_form_ambient(lam, KINV)
    s = ambient_from_local((0.2, 0.3, -0.4, 0.5), lam)
    s4, s0, s1, s2, s3 = s
    # {s4,sa} = eta^2/kappa * sa s0 with eta^2 = -lam = 1
    assert abs(t.entry(0, 2, s) - KINV * s1 * s0) < 1e-15
    # {s0,sa} = -kinv sa s4
    assert abs(t.entry(1, 3, s) + KINV * s2 * s4) < 1e-15
    # {s1,s2} = -eta kinv s3^2
    assert abs(t.entry(2, 3, s) + KINV * s3 * s3) < 1e-15
    # {s4,s0} = +eta^2 kinv |s|^2
    assert abs(t.entry(0, 1, s) - KINV * (s1 * s1 + s2 * s2 + s3 * s3)) < 1e-15
    # flat limit: only {s0,sa} survives, with s4 = 1
    t0 = closed_form_ambient(0.0, KINV)
    sflat = (1.0, 0.4, 0.1, -0.2, 0.3)
    assert abs(t0.entry(1, 2, sflat) + KINV * 0.1 * 1.0) < 1e-15
    assert t0.entry(2, 3, sflat) == 0.0 and t0.entry(0, 1, sflat) == 0.0


def test_ambient_pseudosphere_is_casimir():
    # the quadric function commutes with every coordinate under the table
    rng = np.random.default_rng(3)
    for lam in (-1.0, 0.7):
        t = closed_form_ambient(lam, KINV)
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        for _ in range(40):
            x = tuple(rng.uniform(-box, box, 4))
            s = ambient_from_local(x, lam)

            def quadric(ss):
                s4, s0, s1, s2, s3 = ss
                return (s4 * s4 - lam * s0 * s0
                        + lam * (s1 * s1 + s2 * s2 + s3 * s3))

            for a in range(5):
                # {Sigma, s^a} = sum_b dSigma/ds^b {s^b, s^a}
                total = 0.0
                for b in range(5):
                    dual = tuple(Dual(float(v), 1.0 if k == b else 0.0)
                                 for k, v in enumerate(s))
                    grad = quadric(dual).eps
                    total += grad * t.entry(b, a, s)
                assert abs(total) < 1e-10


def test_sklyanin_matches_tables_small():
    for lam in (-1.0, 0.0, 1.0):
        eta = eta_of(lam)
        rep = verify_table(r_kads(KINV, eta), closed_form_local(lam, KINV),
                           SampleBatch(25, lam, seed=21))
        assert rep["max_deviation"] < 1e-8
        assert rep["lorentz_independence"] < 1e-8
        rep = verify_table(r_kads_twisted(KINV, eta, VTH),
                           closed_form_twisted(lam, KINV, VTH), SampleBatch(25, lam, seed=22))
        assert rep["max_deviation"] < 1e-8
        rep = verify_table(r_kads(KINV, eta), closed_form_ambient(lam, KINV),
                           SampleBatch(25, lam, seed=23))
        assert rep["max_deviation"] < 1e-8


def test_sklyanin_flat_analytic():
    # {x0, xa} = -xa/kappa on the flat group, any Lorentz sector
    rng = np.random.default_rng(5)
    r0 = r_poincare(KINV)
    rt = r_poincare_twisted(KINV, VTH)
    for _ in range(10):
        p = GroupPoint(x=tuple(rng.uniform(-0.8, 0.8, 4)),
                       xi=tuple(rng.uniform(-0.5, 0.5, 3)),
                       th=tuple(rng.uniform(-0.5, 0.5, 3)), lam=0.0)
        got = bracket_matrix_local(r0, p)[0]
        for a in (1, 2, 3):
            assert abs(got[0, a] + KINV * p.x[a]) < 1e-10
            for b in range(a + 1, 4):
                assert abs(got[a, b]) < 1e-10
        gtw = bracket_matrix_local(rt, p)[0]
        assert abs(gtw[0, 1] - (-KINV * p.x[1] - VTH * p.x[2])) < 1e-10
        assert abs(gtw[0, 2] - (-KINV * p.x[2] + VTH * p.x[1])) < 1e-10


def test_generic_bracket_antisymmetry_and_leibniz():
    lam = -1.0
    r = r_kads(KINV, 1.0)
    p = GroupPoint(x=(0.2, 0.1, -0.3, 0.25), xi=(0.1, 0.0, -0.2),
                   th=(0.3, -0.1, 0.2), lam=lam)
    f = lambda c: c[1]
    g = lambda c: c[2]
    h = lambda c: c[0] * c[3]
    fg = lambda c: f(c) * g(c)
    assert abs(sklyanin_bracket(r, f, f, p)) < 1e-15
    b1 = sklyanin_bracket(r, f, g, p)
    b2 = sklyanin_bracket(r, g, f, p)
    assert abs(b1 + b2) < 1e-14
    # Leibniz: {fg, h} = f {g,h} + g {f,h}
    lhs = sklyanin_bracket(r, fg, h, p)
    coords = tuple(float(v) for v in p.x)
    rhs = (f(coords) * sklyanin_bracket(r, g, h, p)
           + g(coords) * sklyanin_bracket(r, f, h, p))
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("lam", [-1.0, 1.0])
def test_zero_r_matrix_gives_zero_brackets(lam):
    # r_kads(0, eta) is the zero bivector: every bracket vanishes, in the usual
    # shape (a single point is a stack of one)
    assert not r_kads(0.0, eta_of(lam)).components
    p = GroupPoint(x=(0.2, 0.1, -0.3, 0.25), xi=(0.1, 0.0, -0.2), th=(0.3, -0.1, 0.2), lam=lam)
    batch = sample_points(3, lam, np.random.default_rng(4))
    for bracket, n in ((bracket_matrix_local, 4), (bracket_matrix_ambient, 5)):
        one, many = bracket(Bivector(), p), bracket(Bivector(), batch)
        assert one.shape == (1, n, n) and many.shape == (3, n, n)
        assert not one.any() and not many.any()


def test_sklyanin_bracket_matches_bracket_matrix():
    # both contract the same invariant-field derivatives, ordinary and near
    # flat, and for the complex positive-lambda r-matrix
    for lam in (-1.0, -1e-9, 0.5):
        r = r_kads_twisted(KINV, eta_of(lam), VTH)
        p = GroupPoint(x=(0.2, 0.1, -0.3, 0.25), xi=(0.1, 0.0, -0.2),
                       th=(0.3, -0.1, 0.2), lam=lam)
        got = bracket_matrix_local(r, p)[0]
        for mu in range(4):
            for nu in range(mu + 1, 4):
                val = sklyanin_bracket(r, lambda c: c[mu], lambda c: c[nu], p)
                assert val == got[mu, nu], (lam, mu, nu)


def test_table_jacobi():
    for lam in (-1.0, 1.0):
        assert table_jacobi_residual(closed_form_local(lam, KINV), 30, seed=31) < 1e-7
        assert table_jacobi_residual(closed_form_twisted(lam, KINV, VTH), 30,
                                     seed=32) < 1e-7
        assert table_jacobi_residual(closed_form_ambient(lam, KINV), 30,
                                     seed=33) < 1e-7


def test_eta_expansion():
    x = (0.4, -0.2, 0.2, 0.5)
    z, f = eta_expansion_entry("local", 0, 1, x, KINV)
    assert z == -KINV * x[1] and f == 0.0
    z, f = eta_expansion_entry("local", 0, 3, x, KINV)
    assert z == -KINV * x[3] and f == 0.0
    z, f = eta_expansion_entry("local", 1, 2, x, KINV)
    assert z == 0.0 and abs(f - (-KINV * x[3] * x[3])) < 1e-16
    z, f = eta_expansion_entry("local", 1, 3, x, KINV)
    assert abs(f - KINV * x[2] * x[3]) < 1e-16
    z, f = eta_expansion_entry("local", 2, 3, x, KINV)
    assert abs(f - (-KINV * x[1] * x[3])) < 1e-16
    # stated point: first order of {x1,x3} at (x2,x3) = (0.2, 0.5) and kinv=1
    _, f = eta_expansion_entry("local", 1, 3, (0.0, 0.0, 0.2, 0.5), 1.0)
    assert abs(f - 0.1) < 1e-16
    # twisted zeroth order reproduces the twisted flat table
    z, f = eta_expansion_entry("twisted", 0, 1, x, KINV, vtheta=VTH)
    assert abs(z - (-KINV * x[1] - VTH * x[2])) < 1e-15 and f == 0.0
    z, f = eta_expansion_entry("twisted", 0, 2, x, KINV, vtheta=VTH)
    assert abs(z - (-KINV * x[2] + VTH * x[1])) < 1e-15


def test_eta_expansion_table_wrapper():
    # every table name builds its own table at eta = 0
    x = (0.4, -0.2, 0.2, 0.5)
    assert eta_expansion_entry("local", 0, 1, x, KINV) == (-KINV * x[1], 0.0)
    _, f = eta_expansion_entry("local", 1, 2, x, KINV)
    assert abs(f - (-KINV * x[3] * x[3])) < 1e-16
    z, _ = eta_expansion_entry("twisted", 0, 2, x, KINV, vtheta=VTH)
    assert abs(z - (-KINV * x[2] + VTH * x[1])) < 1e-15
    s = (1.0, 0.3, -0.2, 0.4, 0.5)
    assert eta_expansion_entry("ambient", 1, 2, s, KINV) == (-KINV * s[2] * s[0], 0.0)
    z, f = eta_expansion_entry("ambient", 2, 3, s, KINV)
    assert z == 0.0 and abs(f - (-KINV * s[4] * s[4])) < 1e-16


def test_poisson_3d():
    # the curvature-deformed space brackets from (f, F)
    p3 = quadratic_space_poisson(1.0, KINV)
    x = (0.1, 0.2, 0.5)
    assert abs(p3.entry(0, 1, x) + KINV * x[2] * x[2]) < 1e-15
    assert abs(p3.entry(0, 2, x) - KINV * x[1] * x[2]) < 1e-15
    assert abs(p3.entry(1, 2, x) + KINV * x[0] * x[2]) < 1e-15
    # zero multiplier gives the zero bracket
    pz = Poisson3D(lambda c: 0.0, lambda c: c[0] ** 2 + c[1])
    assert pz.entry(0, 1, x) == 0.0
    # the second input is always a Casimir, for random polynomial choices
    rng = np.random.default_rng(13)
    for _ in range(5):
        coefs = rng.uniform(-1, 1, 6)
        F = lambda c: (coefs[0] * c[0] * c[0] + coefs[1] * c[1] * c[2]
                       + coefs[2] * c[2] ** 2 + coefs[3] * c[0]
                       + coefs[4] * c[1] + coefs[5])
        f = lambda c: 0.3 * c[0] - 0.2 * c[2]
        pp = Poisson3D(f, F)
        for _ in range(20):
            pt = tuple(rng.uniform(-1, 1, 3))
            resid = pp.bracket_with(F, pt)
            assert max(abs(v) for v in resid) < 1e-10


def test_poisson_3d_jacobi_random_functions():
    rng = np.random.default_rng(14)
    f = lambda c: 0.4 + 0.3 * c[0] * c[2]
    F = lambda c: c[0] ** 2 - 0.7 * c[1] * c[2] + c[2]
    pp = Poisson3D(f, F)
    worst = 0.0
    for _ in range(25):
        x = tuple(rng.uniform(-0.8, 0.8, 3))
        total = 0.0
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            def inner(c):
                return pp.entry(j, k, c)
            # {x_i, {x_j, x_k}} via the gradient chain
            for mu in range(3):
                dual = tuple(Dual(float(v), 1.0 if t == mu else 0.0)
                             for t, v in enumerate(x))
                total += pp.entry(i, mu, x) * inner(dual).eps
        worst = max(worst, abs(total))
    assert worst < 1e-10


def test_leaf_conservation():
    p3 = quadratic_space_poisson(1.0, KINV)
    ham = lambda c: 0.7 * c[0] - 0.3 * c[1] + 0.14 * c[2]
    x0 = [0.4, -0.3, 0.8]
    sol = solve_ivp(lambda t, y: p3.bracket_with(ham, y), (0.0, 1.0), x0,
                    rtol=1e-11, atol=1e-13)
    assert abs(sum(v * v for v in sol.y[:, -1]) - sum(v * v for v in x0)) < 1e-8


def test_projection_to_lower_dimension():
    lam = -1.0
    t = closed_form_local(lam, KINV)
    x = (0.1, 0.3, 0.2, 0.0)  # x3 = 0 pins the 2+1 slice
    assert t.entry(1, 2, x) == 0.0
    want = -KINV * math.tanh(0.3) / math.cosh(0.2) ** 2
    assert abs(t.entry(0, 1, x) - want) < 1e-15
    # flat limit of the slice
    t0 = closed_form_local(0.0, KINV)
    assert abs(t0.entry(0, 1, x) + KINV * 0.3) < 1e-15
    assert t0.entry(1, 2, x) == 0.0


def test_local_table_pushes_to_ambient_table():
    rng = np.random.default_rng(15)
    for lam in (-1.0, 0.6):
        tloc = closed_form_local(lam, KINV)
        tamb = closed_form_ambient(lam, KINV)
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        worst = 0.0
        for _ in range(25):
            x = tuple(rng.uniform(-box, box, 4))
            pushed = push_local_to_ambient(tloc, x)
            s = ambient_from_local(x, lam)
            for a in range(5):
                for b in range(a + 1, 5):
                    worst = max(worst, abs(pushed[a, b] - tamb.entry(a, b, s)))
        assert worst < 1e-8


def _naive_gradient(fn, x):
    return [fn(tuple(Dual(float(c), 1.0 if k == mu else 0.0)
                     for k, c in enumerate(x))).eps for mu in range(len(x))]


def _naive_entry(f, casimir, i, j, x):
    """One Casimir gradient per entry, antisymmetry by negation."""
    if i == j:
        return 0.0
    if i > j:
        return -_naive_entry(f, casimir, j, i, x)
    grad, fv = _naive_gradient(casimir, x), f(x)
    return {(0, 1): fv * grad[2], (1, 2): fv * grad[0], (0, 2): -fv * grad[1]}[i, j]


def test_poisson_3d_bracket_with_equals_naive_entry_sum():
    rng = np.random.default_rng(18)
    f = lambda c: 0.4 + 0.3 * c[0] * c[2]
    F = lambda c: c[0] ** 2 - 0.7 * c[1] * c[2] + c[2]
    h = lambda c: 0.7 * c[0] - 0.3 * c[1] * c[1] + 0.14 * c[2]
    pp = Poisson3D(f, F)
    for _ in range(25):
        x = tuple(rng.uniform(-0.8, 0.8, 3))
        gh = _naive_gradient(h, x)
        want = [sum(_naive_entry(f, F, a, b, x) * gh[b] for b in range(3))
                for a in range(3)]
        assert pp.bracket_with(h, x) == want
        for a in range(3):
            for b in range(3):
                assert pp.entry(a, b, x) == _naive_entry(f, F, a, b, x)


def _naive_jacobi_residual(table, samples, seed):
    """Every gradient and entry re-evaluated per triple and cyclic term."""
    rng = np.random.default_rng(seed)
    box = 0.8 / max(1.0, math.sqrt(abs(table.lam)))
    n = table.dim
    worst = 0.0
    for _ in range(samples):
        if table.name == "ambient":
            coords = ambient_from_local(tuple(rng.uniform(-box, box) for _ in range(4)),
                                        table.lam)
        else:
            coords = tuple(rng.uniform(-box, box) for _ in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total = 0.0
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        g = _naive_gradient(lambda d: table.entry(b, c, d), coords)
                        total = total + sum(table.entry(a, mu, coords) * g[mu]
                                            for mu in range(n))
                    worst = max(worst, abs(total))
    return worst


def test_table_jacobi_equals_per_triple_evaluation():
    for lam in (-1.0, -1e-8, 1.0):
        for table in (closed_form_local(lam, KINV), closed_form_twisted(lam, KINV, VTH),
                      closed_form_ambient(lam, KINV)):
            assert (table_jacobi_residual(table, 6, seed=34)
                    == _naive_jacobi_residual(table, 6, 34)), (lam, table.name)


@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS + (-5e-324, 5e-324, 0.0, 0.3, "dual eta"))
def test_table_jacobiators_equal_the_per_triple_loop(lam):
    # the same operations per element: equal bytes and dtype (complex for
    # lam > 0), on both sides of the flat limit and at a dual eta = 0 + eps
    rng = np.random.default_rng(41)
    curv = 0.0 if lam == "dual eta" else lam
    x = tuple(rng.uniform(-0.8, 0.8, (7, 4)).T)
    if lam == "dual eta":
        tables = [eta_expansion_table(name, KINV, VTH) for name in ("local", "twisted", "ambient")]
    else:
        tables = _tables(lam)
    for table in tables:
        coords = ambient_from_local(x, curv) if table.name == "ambient" else x
        got, want = table_jacobiators(table, coords), jacobiators_by_triples(table, coords)
        assert got.dtype == want.dtype == (complex if curv > 0 else float), table.name
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), table.name


READINGS = ((ambient_algebra, AMBIENT_LABELS), (local_first_order, LOCAL_LABELS),
            (quantum_sphere, ("x1", "x2", "x3")))


@pytest.mark.parametrize("values", [
    {"eta": 0.7, "kinv": KINV},
    {"eta": 1j * 0.7, "kinv": KINV},
    {"eta": Dual(0.0, 1.0), "kinv": KINV},
    {"eta": Dual(np.array([0.3, -0.2]), np.array([[1.0, 0.5]])), "kinv": 2},
], ids=["float", "complex", "dual", "dual-array"])
def test_reading_terms_equal_eval_numeric(values):
    # coefficients unpacked once take the ring operations of eval_numeric
    def parts(c):
        return [(type(p), np.asarray(p).tobytes()) for p in (c.re, c.eps)] \
            if isinstance(c, Dual) else [(type(c), np.asarray(c).tobytes())]

    for make, labels in READINGS:
        got = reading_terms(make, labels, values)
        want = reading_terms_by_eval_numeric(make, labels, values)
        assert list(got) == list(want)
        for pair, terms in want.items():
            assert [w for _, w in got[pair]] == [w for _, w in terms]
            assert [parts(c) for c, _ in got[pair]] == [parts(c) for c, _ in terms]
        with pytest.raises(UnboundParameter):
            reading_terms(make, labels, {"kinv": KINV})


def test_nan_deviations_are_the_worst():
    assert math.isnan(worst_of(0.0, math.nan)) and math.isnan(worst_of(math.nan, 1.0))
    assert worst_of(1.0, 2.0) == 2.0 and worst_of(2.0, 1.0) == 2.0
    table = closed_form_local(-1.0, KINV)
    entries = table.entries
    table.entries = lambda x: {**entries(x), (0, 2): math.nan}
    rep = verify_table(r_kads(KINV, 1.0), table, SampleBatch(3, -1.0, seed=5))
    assert math.isnan(rep["max_deviation"]) and math.isnan(rep["per_pair"]["x0^x2"])
    assert not math.isnan(rep["per_pair"]["x0^x1"])
    assert math.isnan(table_jacobi_residual(table, 2, seed=5))


# -- batches: N points at once equal N single-point calls ------------------------


def _tables(lam):
    return (closed_form_local(lam, KINV), closed_form_twisted(lam, KINV, VTH),
            closed_form_ambient(lam, KINV))


def _table_coords(table, batch):
    x = batch.x
    return ambient_from_local(x, batch.lam) if table.name == "ambient" else x


@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS)
def test_table_entries_and_jacobiators_on_a_mixed_batch_equal_single_points(lam):
    batch = straddling_batch(lam)
    for table in _tables(lam):
        coords = _table_coords(table, batch)
        jac = table_jacobiators(table, coords)
        for k in range(6):
            alone = tuple(c[k:k + 1] for c in coords)   # a batch of one
            assert_same(jac[:, k:k + 1], table_jacobiators(table, alone))
            for i in range(table.dim):
                for j in range(table.dim):
                    got = np.broadcast_to(table.entry(i, j, coords), (6,))[k]
                    assert_same(got, table.entry(i, j, tuple(float(c[k]) for c in coords)))


@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS)
def test_bracket_matrices_on_a_mixed_batch_equal_single_points(lam):
    batch = straddling_batch(lam)
    r = r_kads_twisted(KINV, eta_of(lam), VTH)
    local, amb = bracket_matrix_local(r, batch), bracket_matrix_ambient(r, batch)
    assert local.shape == (6, 4, 4) and amb.shape == (6, 5, 5)
    for got in (local, amb):
        assert (got == -np.swapaxes(got, 1, 2)).all()  # exactly antisymmetric
    for k in range(6):
        assert_same(local[k], bracket_matrix_local(r, single(batch, k))[0])
        assert_same(amb[k], bracket_matrix_ambient(r, single(batch, k))[0])


def test_worst_point_ties_go_to_the_first_sample():
    assert _first_worst(np.array([0.1, 0.3, 0.2, 0.3])) == 1
    assert _first_worst(np.array([0.4, math.nan, 0.5, math.nan])) == 1
    assert _first_worst(np.zeros(3)) is None
    # every sample deviates by inf: the first one is reported
    table = closed_form_local(-1.0, KINV)
    table.entries = lambda x: dict.fromkeys(combinations(range(4), 2), math.inf)
    rep = verify_table(r_kads(KINV, 1.0), table, SampleBatch(5, -1.0, seed=9))
    first = sample_points(5, -1.0, np.random.default_rng(9)).coords()
    assert rep["max_deviation"] == math.inf
    assert rep["worst_point"] == tuple(float(c[0]) for c in first)


def test_sample_points_keep_the_point_by_point_draw_order():
    rng = np.random.default_rng(12)
    pts = sample_points(3, -0.3, rng)
    ref = np.random.default_rng(12)
    box = 0.8  # |lam| < 1
    for k in range(3):
        want = ([ref.uniform(-box, box) for _ in range(4)]
                + [ref.uniform(-0.5, 0.5) for _ in range(6)])
        assert [float(c[k]) for c in pts.coords()] == want
    assert rng.uniform() == ref.uniform()


# -- one sample batch per run -------------------------------------------------------


@pytest.mark.parametrize("lam", [-1.0, 1e-8, 1.0])
def test_poisson_run_builds_one_stack_and_one_pass_per_side_and_kind(lam, monkeypatch, tmp_path):
    from kads import sklyanin
    from kads.cli import main
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name,) + ((args[2],) if len(args) == 3 else ()))
            return fn(*args)
        return wrapper

    for name in ("group_element", "coset_derivatives", "ambient_derivatives"):
        monkeypatch.setattr(sklyanin, name, counted(name, getattr(sklyanin, name)))
    out = tmp_path / "rep.json"
    assert main(["poisson", f"--lambda={lam!r}", "--samples=3", "--out", str(out)]) == 0
    assert sorted(calls) == [("ambient_derivatives", "L"), ("ambient_derivatives", "R"),
                             ("coset_derivatives", "L"), ("coset_derivatives", "R"),
                             ("group_element",)]


@pytest.mark.parametrize("lam", [-1.0, 0.0, 1e-8, 0.3])
@pytest.mark.parametrize("form", ["float", "array", "dual"])
def test_all_pairs_take_one_ch_and_one_sh_per_coordinate(lam, form, monkeypatch):
    from kads import sklyanin
    x = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2], [0.25, -0.35]])
    coords = {"float": tuple(float(c[0]) for c in x), "array": tuple(x),
              "dual": tuple(Dual(c, e[:, None]) for c, e in zip(x, np.eye(4)))}[form]
    for table in (closed_form_local(lam, KINV), closed_form_twisted(lam, KINV, VTH)):
        seen = {"ch": [], "sh": []}
        for name in seen:
            fn = getattr(sklyanin, name)
            monkeypatch.setattr(sklyanin, name,
                                lambda lam, v, fn=fn, log=seen[name]: log.append(v) or fn(lam, v))
        got = table.entries(coords)
        monkeypatch.undo()
        for log in seen.values():  # x1, x2, x3 once each; x0 never
            assert sorted(map(id, log)) == sorted(map(id, coords[1:]))
        assert list(got) == list(combinations(range(4), 2))


@pytest.mark.parametrize("lam", [-1.0, -1e-8, 0.5])
def test_batch_brackets_equal_the_bracket_matrices_on_its_stack(lam):
    # the batch's derivatives, shared by the tables, give each r-matrix at
    # the samples the brackets that bracket_matrix_* give on their own stack
    batch = SampleBatch(4, lam, seed=3)
    assert batch.matrix.shape == (8, 5, 5)
    assert batch.derivatives(False) is batch.derivatives(False)
    for r in (r_kads(KINV, eta_of(lam)), r_kads_twisted(KINV, eta_of(lam), VTH), Bivector()):
        for ambient, bracket in ((False, bracket_matrix_local), (True, bracket_matrix_ambient)):
            got = _brackets(r, *batch.derivatives(ambient))
            assert (got[:batch.samples] == bracket(r, batch.points)).all()
