"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from oracles import quadratic_space_poisson
from tables import expected_curved_table, expected_flat_table

from kads.bialgebra import Bivector, cocommutator, mcybe_residual
from kads.curvtrig import eta_of
from kads.group_geom import (GroupPoint, ambient_from_local, group_element,
                             isometry_residual, metric_at, metric_pullback,
                             pseudosphere_residual)
from kads.liealg import DIM, ads_algebra, subalgebra
from kads.ncalg import builtin_algebras, displayed_brackets_ok
from kads.rclass import (SUBALG_2PLUS1, canonicalize, constraint_distance,
                         constraint_residuals, eq_constraint_polynomials,
                         ideal_equivalence, numeric_family_residual, r_2plus1,
                         r_kads, r_kads_twisted, r_poincare,
                         r_poincare_twisted)
from kads.scalars import sym
from kads.sklyanin import (SampleBatch, closed_form_ambient, closed_form_local,
                           closed_form_twisted, eta_expansion_entry, verify_table)

ETA, KINV, VTH = sym("eta"), sym("kinv"), sym("vtheta")
KINV_NUM = 0.31
VTH_NUM = 0.17


def report(n, ok, detail):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_1_exact_cocommutator_tables():
    t0 = time.perf_counter()
    delta0 = cocommutator(ads_algebra(0), r_poincare(KINV))
    flat = expected_flat_table()
    ok_flat = all(delta0[i] == flat[i] for i in range(DIM))
    gc = ads_algebra(-(ETA ** 2))
    delta = cocommutator(gc, r_kads(KINV, ETA))
    curved = expected_curved_table()
    ok_curved = all(delta[i] == curved[i] for i in range(DIM))
    elapsed = time.perf_counter() - t0
    report(1, ok_flat and ok_curved and elapsed < 1.0,
           f"flat={ok_flat} curved={ok_curved} runtime={elapsed:.3f}s (< 1 s)")


def test_criterion_2_mcybe_certificates():
    t0 = time.perf_counter()
    g0 = ads_algebra(0)
    gc = ads_algebra(-(ETA ** 2))
    residuals = {
        "flat": mcybe_residual(g0, r_poincare(KINV)),
        "flat_twisted": mcybe_residual(g0, r_poincare_twisted(KINV, VTH)),
        "curved": mcybe_residual(gc, r_kads(KINV, ETA)),
        "curved_twisted": mcybe_residual(gc, r_kads_twisted(KINV, ETA, VTH)),
    }
    sub = subalgebra(gc, SUBALG_2PLUS1)
    remap = {gi: p for p, gi in enumerate(SUBALG_2PLUS1)}
    r21 = Bivector({(remap[i], remap[j]): c
                    for (i, j), c in r_2plus1(KINV).components.items()})
    residuals["2plus1"] = mcybe_residual(sub, r21)
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 for v in residuals.values()) and elapsed < 10.0
    report(2, ok, f"residuals={residuals} runtime={elapsed:.3f}s (< 10 s)")


def test_criterion_3_constraint_surface():
    extracted = constraint_residuals()
    eq = ideal_equivalence(extracted, eq_constraint_polynomials())
    rng = np.random.default_rng(0x5EED)
    sat_worst, vio_best = 0.0, math.inf
    for _ in range(1000):
        lam = float(rng.uniform(-2.0, -0.2))
        kv = float(rng.uniform(0.1, 1.0))
        radius = math.sqrt(-lam) * kv
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = float(rng.uniform(-1.0, 1.0))
        alpha = tuple(radius * v for v in n)
        beta = tuple(t * v for v in n)
        sat_worst = max(sat_worst, numeric_family_residual(alpha, beta, kv, lam))
        while True:
            av = tuple(rng.uniform(-1.5, 1.5, 3))
            bv = tuple(rng.uniform(-1.5, 1.5, 3))
            if constraint_distance(av, bv, radius) > 0.1:
                break
        vio_best = min(vio_best, numeric_family_residual(av, bv, kv, lam))
    ok = eq["equal"] and sat_worst < 1e-10 and vio_best > 1e-6
    report(3, ok, f"ideal_equal={eq['equal']} sat_max={sat_worst:.2e} (< 1e-10) "
                  f"vio_min={vio_best:.2e} (> 1e-6), 1000 samples each")


def test_criterion_4_canonicalization():
    rng = np.random.default_rng(0x5EED)
    worst = 0.0
    count = 0
    while count < 100:
        th = float(rng.uniform(0.05, 3.0))
        if abs(th - math.pi / 2) < 0.02:
            continue
        ph = float(rng.uniform(0.0, 2 * math.pi))
        tw = float(rng.uniform(-1.0, 1.0))
        rot, expected, _ = canonicalize(th, ph, tw, kinv=KINV_NUM)
        keys = set(rot.components) | set(expected.components)
        worst = max(worst, max(abs(rot.components.get(k, 0.0)
                                   - expected.components.get(k, 0.0))
                               for k in keys))
        count += 1
    report(4, worst < 1e-12, f"100 samples, worst component dev={worst:.2e} (< 1e-12)")


def test_criterion_5_group_geometry():
    rng = np.random.default_rng(0x5EED)
    worst_iso = worst_ps = worst_metric = 0.0
    for lam in (-1.0, -0.3, 0.0, 0.3, 1.0):
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        for _ in range(500):
            x = tuple(rng.uniform(-box, box, 4))
            p = GroupPoint(x=x, xi=tuple(rng.uniform(-0.5, 0.5, 3)),
                           th=tuple(rng.uniform(-0.5, 0.5, 3)), lam=lam)
            worst_iso = max(worst_iso, isometry_residual(group_element(p), lam))
            s = ambient_from_local(x, lam)
            worst_ps = max(worst_ps, abs(pseudosphere_residual(s, lam)))
            worst_metric = max(worst_metric, float(np.max(np.abs(
                metric_at(x, lam) - metric_pullback(x, lam)))))
    ok = worst_iso < 1e-10 and worst_ps < 1e-10 and worst_metric <= 1e-8
    report(5, ok, f"isometry={worst_iso:.2e} (< 1e-10) pseudosphere={worst_ps:.2e} "
                  f"(< 1e-10) metric_pullback={worst_metric:.2e} (<= 1e-8), "
                  f"500 points x 5 curvatures")


def test_criterion_6_sklyanin_verification():
    t0 = time.perf_counter()
    worst = {}
    indep = 0.0
    for lam in (-1.0, 1.0):
        eta = eta_of(lam)
        suite = [
            ("local", closed_form_local(lam, KINV_NUM), r_kads(KINV_NUM, eta)),
            ("twisted", closed_form_twisted(lam, KINV_NUM, VTH_NUM),
             r_kads_twisted(KINV_NUM, eta, VTH_NUM)),
            ("ambient", closed_form_ambient(lam, KINV_NUM), r_kads(KINV_NUM, eta)),
        ]
        batch = SampleBatch(200, lam, seed=0x5EED)
        for name, table, r in suite:
            rep = verify_table(r, table, batch)
            worst[f"{name}@{lam}"] = rep["max_deviation"]
            indep = max(indep, rep["lorentz_independence"])
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-8 for v in worst.values()) and indep < 1e-8 and elapsed < 60.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(6, ok, f"{detail} indep={indep:.1e} (all < 1e-8) "
                  f"runtime={elapsed:.1f}s (< 60 s)")


def test_criterion_7_limits_and_expansions():
    rng = np.random.default_rng(0x5EED)
    worst_limit = 0.0
    for _ in range(100):
        x = tuple(rng.uniform(-0.8, 0.8, 4))
        tloc = closed_form_local(0.0, KINV_NUM)
        ttw = closed_form_twisted(0.0, KINV_NUM, VTH_NUM)
        tamb = closed_form_ambient(0.0, KINV_NUM)
        for a in (1, 2, 3):
            worst_limit = max(worst_limit, abs(tloc.entry(0, a, x) + KINV_NUM * x[a]))
        worst_limit = max(worst_limit,
                          abs(ttw.entry(0, 1, x) - (-KINV_NUM * x[1] - VTH_NUM * x[2])),
                          abs(ttw.entry(0, 2, x) - (-KINV_NUM * x[2] + VTH_NUM * x[1])),
                          abs(ttw.entry(0, 3, x) + KINV_NUM * x[3]))
        for a in (1, 2):
            for b in range(a + 1, 4):
                worst_limit = max(worst_limit, abs(tloc.entry(a, b, x)),
                                  abs(ttw.entry(a, b, x)))
        s = (1.0, *x)
        for a in (2, 3, 4):
            worst_limit = max(worst_limit,
                              abs(tamb.entry(1, a, s) + KINV_NUM * s[a] * s[0]))
            worst_limit = max(worst_limit, abs(tamb.entry(0, a, s)))
    # first derivative in the curvature scale: exact dual-number equality
    exact_first = True
    for _ in range(50):
        x = tuple(rng.uniform(-0.8, 0.8, 4))
        z, f = eta_expansion_entry("local", 1, 2, x, KINV_NUM)
        exact_first &= (z == 0.0 and f == -(KINV_NUM * (x[3] * x[3])))
        z, f = eta_expansion_entry("local", 1, 3, x, KINV_NUM)
        exact_first &= (z == 0.0 and f == KINV_NUM * (x[2] * x[3]))
        z, f = eta_expansion_entry("local", 2, 3, x, KINV_NUM)
        exact_first &= (z == 0.0 and f == -(KINV_NUM * (x[1] * x[3])))
        for a in (1, 2, 3):
            z, f = eta_expansion_entry("local", 0, a, x, KINV_NUM)
            exact_first &= (f == 0.0)
    proj_zero = closed_form_local(-1.0, KINV_NUM).entry(1, 2, (0.4, 0.3, 0.2, 0.0)) == 0.0
    ok = worst_limit < 1e-10 and exact_first and proj_zero
    report(7, ok, f"flat_limit_dev={worst_limit:.2e} (< 1e-10) "
                  f"first_order_exact={exact_first} projection_zero={proj_zero}")


def test_criterion_8_quantum_certificates():
    t0 = time.perf_counter()
    results = {}
    bundles = builtin_algebras()
    for name, bundle in bundles.items():
        alg = bundle["algebra"]
        results[f"{name}.jacobi"] = alg.jacobi_certificate()
        for cname, (cas, subset) in bundle["casimirs"].items():
            results[f"{name}.{cname}"] = alg.casimir_check(cas, subset)
    displayed = displayed_brackets_ok()
    elapsed = time.perf_counter() - t0
    ok = (all(v == 0 for v in results.values()) and displayed and elapsed < 30.0)
    report(8, ok, f"certificates={results} displayed_brackets={displayed} "
                  f"runtime={elapsed:.2f}s (< 30 s)")


def test_criterion_9_poisson_3d():
    # exact reproduction of the quadratic space brackets over the rationals
    eta = Fraction(1)
    kinv = Fraction(31, 100)
    p3 = quadratic_space_poisson(eta, kinv)
    rng = np.random.default_rng(0x5EED)
    exact = True
    for _ in range(50):
        x = tuple(Fraction(int(v), 64) for v in rng.integers(-64, 64, 3))
        exact &= p3.entry(0, 1, x) == -eta * kinv * x[2] * x[2]
        exact &= p3.entry(0, 2, x) == eta * kinv * x[1] * x[2]
        exact &= p3.entry(1, 2, x) == -eta * kinv * x[0] * x[2]
    # conservation of the sphere function along a sampled flow
    p3f = quadratic_space_poisson(1.0, KINV_NUM)
    ham = lambda c: 0.7 * c[0] - 0.3 * c[1] + 0.14 * c[2]
    x0 = [0.4, -0.3, 0.8]
    sol = solve_ivp(lambda t, y: p3f.bracket_with(ham, y), (0.0, 1.0), x0,
                    rtol=1e-11, atol=1e-13)
    drift = abs(sum(v * v for v in sol.y[:, -1]) - sum(v * v for v in x0))
    ok = exact and drift < 1e-8
    report(9, ok, f"closed_forms_exact={exact} leaf_drift={drift:.2e} (< 1e-8)")


def test_criterion_10_cli_determinism(tmp_path):
    from kads.cli import main
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["classify", "--samples", "40", "--seed", "11"]
    code1 = main(args + ["--out", str(a)])
    code2 = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code1 == code2 == 0
    report(10, ok, f"byte_identical={identical} exit_codes=({code1},{code2})")
