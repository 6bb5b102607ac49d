import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from kads.curvtrig import Dual, ch, ct, sh, sh_inv, st, tn, tn_inv
from kads.group_geom import (ChartBoundary, GroupPoint, NumericOverflow,
                             OffPseudosphere, OutOfChart, ambient_from_local,
                             ambient_derivatives, ambient_jacobian,
                             coset_derivatives, group_element,
                             isometry_residual, local_from_ambient, metric_at,
                             metric_pullback, pseudosphere_residual)
from kads.liealg import DIM, IDX, ads_algebra, ads_tensor

from batches import SCALE, STRADDLE_LAMBDAS, assert_same, single, straddling_batch
from oracles import generator_matrix, invariant_field, vector_rep

LAMBDAS = (-1.0, -0.3, 0.0, 0.3, 1.0)


def test_vector_rep_entries():
    lam = -0.7
    m = vector_rep([1.0] + [0.0] * 9, lam)  # P0 direction
    assert m[0, 1] == lam and m[1, 0] == 1.0
    assert np.count_nonzero(m) == 2
    assert np.count_nonzero(vector_rep([0.0] * 10, lam)) == 0
    # rotation generator block
    j1 = vector_rep([0.0] * 7 + [1.0, 0.0, 0.0], lam)
    assert j1[3, 4] == -1.0 and j1[4, 3] == 1.0


def test_representation_property():
    rng = np.random.default_rng(4)
    for lam in (-1.0, 0.0, 1.0):
        f = ads_tensor(lam)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-1, 1, DIM)
            y = rng.uniform(-1, 1, DIM)
            mx, my = vector_rep(x, lam), vector_rep(y, lam)
            z = np.einsum("kij,i,j->k", f, x, y)  # [x, y]
            worst = max(worst, np.max(np.abs(mx @ my - my @ mx - vector_rep(z, lam))))
        assert worst < 1e-12


def test_group_element_identity_and_flat_form():
    p = GroupPoint(x=(0.0, 0.0, 0.0, 0.0), lam=-1.0)
    assert np.allclose(group_element(p), np.eye(5))
    # at zero curvature with no boosts or rotations: first column carries x
    x = (0.3, -0.2, 0.5, 0.1)
    m = group_element(GroupPoint(x=x, lam=0.0))
    assert np.allclose(m[:, 0], [1.0, *x])
    assert np.allclose(m[1:, 1:], np.eye(4))
    assert np.allclose(m[0, 1:], 0.0)


def test_flat_lorentz_block_ignores_translations():
    # at zero curvature the lower-right 4x4 block depends only on (xi, th)
    rng = np.random.default_rng(44)
    xi = tuple(rng.uniform(-0.5, 0.5, 3))
    th = tuple(rng.uniform(-0.5, 0.5, 3))
    m1 = group_element(GroupPoint(x=(0.0,) * 4, xi=xi, th=th, lam=0.0))
    m2 = group_element(GroupPoint(x=tuple(rng.uniform(-1, 1, 4)), xi=xi, th=th,
                                  lam=0.0))
    assert np.allclose(m1[1:, 1:], m2[1:, 1:], atol=1e-14)
    assert np.allclose(m2[0, :], [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_isometry_and_closure():
    rng = np.random.default_rng(6)
    for lam in LAMBDAS:
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        for _ in range(40):
            p = GroupPoint(x=tuple(rng.uniform(-box, box, 4)),
                           xi=tuple(rng.uniform(-0.5, 0.5, 3)),
                           th=tuple(rng.uniform(-0.5, 0.5, 3)), lam=lam)
            q = GroupPoint(x=tuple(rng.uniform(-box, box, 4)), lam=lam)
            m = group_element(p) @ group_element(q)
            assert isometry_residual(m, lam) < 1e-10
            assert abs(np.linalg.det(group_element(p)) - 1.0) < 1e-10


def test_overflow_guard():
    with pytest.raises(NumericOverflow):
        group_element(GroupPoint(x=(60.0, 0.0, 0.0, 0.0), lam=-1.0))
    with pytest.raises(NumericOverflow):
        group_element(GroupPoint(x=(0.0,) * 4, xi=(60.0, 0.0, 0.0), lam=0.0))
    with pytest.raises(NumericOverflow):
        group_element(GroupPoint(x=(0.0, 0.0, -30.0, 0.0), lam=4.0))
    with pytest.raises(NumericOverflow):
        group_element(GroupPoint(x=(0.0,) * 4, xi=(0.0, 0.0, -50.5), lam=-1.0))


EXPM_LAMBDAS = (-2.5, -1.0, -0.3, -1e-8, 0.0, 1e-8, 0.3, 1.0, 4.0)


@pytest.mark.parametrize("lam", EXPM_LAMBDAS)
def test_group_element_matches_ordered_expm_product(lam):
    rng = np.random.default_rng(16)
    box = 0.8 / max(1.0, math.sqrt(abs(lam)))
    for _ in range(20):
        p = GroupPoint(x=tuple(rng.uniform(-box, box, 4)),
                       xi=tuple(rng.uniform(-0.5, 0.5, 3)),
                       th=tuple(rng.uniform(-0.5, 0.5, 3)), lam=lam)
        want = np.eye(5)
        for i, c in enumerate(p.coords()):
            want = want @ expm(c * generator_matrix(i, lam))
        assert np.max(np.abs(group_element(p) - want)) <= 1e-14


def test_ambient_examples():
    # origin
    assert ambient_from_local((0.0,) * 4, -1.0) == (1.0, 0.0, 0.0, 0.0, 0.0)
    # flat limit: Cartesian
    x = (0.4, 0.1, -0.2, 0.3)
    s = ambient_from_local(x, 0.0)
    assert np.allclose(s, (1.0, *x))
    # curved point, written out against the raw formulas
    x = (0.3, 0.1, 0.2, 0.4)
    s4, s0, s1, s2, s3 = ambient_from_local(x, -1.0)
    assert abs(s3 - math.sinh(0.4)) < 1e-15
    assert abs(s2 - math.sinh(0.2) * math.cosh(0.4)) < 1e-15
    assert abs(s1 - math.sinh(0.1) * math.cosh(0.2) * math.cosh(0.4)) < 1e-15
    assert abs(s0 - math.sin(0.3) * math.cosh(0.1) * math.cosh(0.2) * math.cosh(0.4)) < 1e-15
    assert abs(s4 - math.cos(0.3) * math.cosh(0.1) * math.cosh(0.2) * math.cosh(0.4)) < 1e-15
    assert abs(pseudosphere_residual((s4, s0, s1, s2, s3), -1.0)) < 1e-12


def test_ambient_equals_first_column():
    rng = np.random.default_rng(7)
    for lam in LAMBDAS:
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        for _ in range(20):
            x = tuple(rng.uniform(-box, box, 4))
            s = ambient_from_local(x, lam)
            col = group_element(GroupPoint(x=x, lam=lam))[:, 0]
            assert max(abs(a - b) for a, b in zip(s, col)) < 1e-10


def test_local_from_ambient_round_trip():
    rng = np.random.default_rng(8)
    assert local_from_ambient((1.0, 0.0, 0.0, 0.0, 0.0), -1.0) == (0.0, 0.0, 0.0, 0.0)
    for lam in (-1.0, -0.3, 0.3, 1.0):
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        worst = 0.0
        for _ in range(120):
            x = tuple(rng.uniform(-box, box, 4))
            xr = local_from_ambient(ambient_from_local(x, lam), lam)
            worst = max(worst, max(abs(a - b) for a, b in zip(x, xr)))
        assert worst < 1e-9
    # flat limit: ambient IS local
    s = (1.0, 0.2, -0.4, 0.1, 0.3)
    assert np.allclose(local_from_ambient(s, 0.0), s[1:])


def test_chart_errors():
    with pytest.raises(OffPseudosphere):
        local_from_ambient((1.5, 0.0, 0.0, 0.0, 0.0), -1.0)
    # boost far enough to push s4 negative on the anti-curved side
    with pytest.raises(OutOfChart):
        local_from_ambient((-1.0, 0.9, 0.7, 0.0, math.sqrt(0.12)), -1.0, check=False)
    with pytest.raises(ChartBoundary):
        ambient_from_local((1.6, 0.0, 0.0, 0.0), -1.0)   # |x0| past pi/2
    with pytest.raises(ChartBoundary):
        ambient_from_local((0.0, 1.6, 0.0, 0.0), 1.0)    # space chart at lam > 0


@pytest.mark.parametrize("lam", [-3.0, -1.0, -0.25, 0.25, 1.0, 3.0])
def test_chart_bound_is_where_its_factor_vanishes(lam):
    # the bound pi/(2 sqrt|lam|) on x0 (lam < 0) or on a space coordinate
    # (lam > 0) is the zero of ct or ch: one float inside it the factor is
    # a positive round-off value and the chart map passes with s4 > 0; at
    # the bound ChartBoundary is raised
    bound = 0.5 * math.pi / math.sqrt(abs(lam))
    inside = math.nextafter(bound, 0.0)
    factor = ct if lam < 0 else ch
    assert 0.0 < factor(lam, inside) < 3e-16
    for mu in ((0,) if lam < 0 else (1, 2, 3)):
        for sign in (1.0, -1.0):
            x = [0.0] * 4
            x[mu] = sign * inside
            assert ambient_from_local(tuple(x), lam)[0] > 0.0
            x[mu] = sign * bound
            with pytest.raises(ChartBoundary):
                ambient_from_local(tuple(x), lam)


def test_metric_values_and_pullback():
    assert np.allclose(metric_at((0.0,) * 4, -1.0), np.diag([1, -1, -1, -1]))
    x = (0.4, 0.1, -0.2, 0.3)
    assert np.allclose(metric_at(x, 0.0), np.diag([1, -1, -1, -1]))
    g = metric_at((0.0, 0.5, 0.2, 0.1), -1.0)
    expected = (math.cosh(0.5) * math.cosh(0.2) * math.cosh(0.1)) ** 2
    assert abs(g[0, 0] - expected) < 1e-14
    rng = np.random.default_rng(9)
    for lam in LAMBDAS:
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        for _ in range(25):
            xx = tuple(rng.uniform(-box, box, 4))
            assert np.max(np.abs(metric_at(xx, lam) - metric_pullback(xx, lam))) < 1e-8


def test_curvtrig_identities_and_flat_limit():
    rng = np.random.default_rng(10)
    for lam in (-1.0, -0.3, 0.0, 0.3, 1.0, 1e-7, -1e-7):
        for _ in range(40):
            x = float(rng.uniform(-1.2, 1.2))
            assert abs(ch(lam, x) ** 2 + lam * sh(lam, x) ** 2 - 1.0) < 1e-12
            assert abs(ct(lam, x) ** 2 - lam * st(lam, x) ** 2 - 1.0) < 1e-12
    # smooth flat limit and invertibility at exactly lam = 0
    for x in (0.3, -0.9):
        for lam in (1e-9, -1e-9, 0.0):
            assert abs(ch(lam, x) - 1.0) < 1e-6
            assert abs(sh(lam, x) - x) < 1e-6
            assert abs(tn_inv(lam, tn(lam, x)) - x) < 1e-12
            assert abs(sh_inv(lam, sh(lam, x)) - x) < 1e-12


PRIMITIVES = {"ct": ct, "st": st, "ch": ch, "sh": sh, "sh_inv": sh_inv, "tn_inv": tn_inv}


def _reference(name, lam, x):
    """(value, d/dx) of a primitive at 50 digits, from its closed form."""
    if name in ("ct", "st"):  # ct(lam) = ch(-lam), st(lam) = sh(-lam)
        name, lam = {"ct": "ch", "st": "sh"}[name], -lam
    with mpmath.workdps(50):
        r = mpmath.sqrt(abs(mpmath.mpf(lam)))
        u = r * mpmath.mpf(x)
        neg = lam < 0
        if name == "ch":
            out = (mpmath.cosh(u), r * mpmath.sinh(u)) if neg else (mpmath.cos(u), -r * mpmath.sin(u))
        elif name == "sh":
            out = (mpmath.sinh(u) / r, mpmath.cosh(u)) if neg else (mpmath.sin(u) / r, mpmath.cos(u))
        elif name == "sh_inv":
            s = 1 if neg else -1
            out = ((mpmath.asinh(u) if neg else mpmath.asin(u)) / r, 1 / mpmath.sqrt(1 + s * u * u))
        else:  # tn_inv: tn is tan(r x)/r for lam < 0, tanh(r x)/r above
            s = 1 if neg else -1
            out = ((mpmath.atan(u) if neg else mpmath.atanh(u)) / r, 1 / (1 + s * u * u))
        return out


def _rel_err(got, want):
    with mpmath.workdps(50):
        return float(abs((mpmath.mpf(got) - want) / want))


@pytest.mark.parametrize("lam", [s * m for m in (1.0, 3e-5, 1e-8, 1e-300, 5e-324)
                                 for s in (-1.0, 1.0)])
def test_curvtrig_matches_a_50_digit_reference(lam):
    # |lam| x^2 from 1e-24 to 0.25, both signs of x, as one batch
    q = np.array([1e-24, 1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 0.25])
    x = np.concatenate([np.sqrt(q), -np.sqrt(q)]) / math.sqrt(abs(lam))
    assert np.isfinite(x).all()
    for name, prim in PRIMITIVES.items():
        vals, duals = prim(lam, x), prim(lam, Dual(x, np.ones_like(x)))
        for k, xk in enumerate(x):
            value, deriv = _reference(name, lam, float(xk))
            for got, want in ((vals[k], value), (duals.re[k], value), (duals.eps[k], deriv)):
                if abs(want) >= sys.float_info.min:  # a normal double
                    assert _rel_err(got, want) < 1e-15, (name, lam, xk, got, want)


@pytest.mark.parametrize("lam", [0.0, -0.0])
def test_curvtrig_flat_values_are_exact(lam):
    rng = np.random.default_rng(12)
    arr = rng.uniform(-2.0, 2.0, 5)
    eps = rng.uniform(-1.0, 1.0, (3, 5))
    for x in (0.7, -1.3, arr, Dual(0.7, eps[:, 0]), Dual(arr, eps)):
        for prim in (ct, ch):
            got = prim(lam, x)
            if isinstance(x, Dual):
                assert isinstance(got, Dual)
                assert np.shape(got.re) == np.shape(x.re) and np.shape(got.eps) == np.shape(x.eps)
                assert np.all(got.re == 1.0) and np.all(got.eps == 0.0)
            else:
                assert type(got) is type(x) and np.shape(got) == np.shape(x)
                assert np.all(got == 1.0)
        for prim in (st, sh, sh_inv, tn_inv, tn):
            got = prim(lam, x)
            if isinstance(x, Dual):
                assert isinstance(got, Dual)
                assert np.array_equal(got.re, x.re) and np.array_equal(got.eps, x.eps)
            else:
                assert type(got) is type(x) and np.array_equal(got, x)


def test_dual_arithmetic():
    d = Dual(2.0, 1.0)
    out = (d * d + 3.0) / d
    # f(x) = (x^2+3)/x, f'(x) = 1 - 3/x^2 at x=2 -> 0.25
    assert abs(out.re - 3.5) < 1e-15
    assert abs(out.eps - 0.25) < 1e-15


def test_dual_truthiness_with_tangent_arrays():
    # true when some part is nonzero, for scalar and vector eps parts alike
    assert not Dual(0.0, 0.0) and Dual(0.0, 1.0) and Dual(2.0, 0.0)
    assert not Dual(0.0, np.zeros(4))
    assert Dual(0.0, np.eye(4)[2]) and Dual(1.0, np.zeros(4))
    assert Dual(0.0, np.array([0.0, 1j]))


# -- invariant fields -----------------------------------------------------------


def test_invariant_field_at_identity():
    p = GroupPoint(x=(0.0,) * 4, lam=-1.0)
    assert abs(invariant_field("L", IDX["P0"], lambda c: c[0], p) - 1.0) < 1e-14
    # left and right derivatives agree at the identity for all generators
    for i in range(DIM):
        for mu in range(4):
            f = lambda c, mu=mu: c[mu]
            left = invariant_field("L", i, f, p)
            right = invariant_field("R", i, f, p)
            assert abs(left - right) < 1e-13


def finite_difference_field(side, i, f, point, step=1e-5):
    m = group_element(point)
    a = generator_matrix(i, point.lam)
    def val(mat):
        coords = local_from_ambient(tuple(mat[r, 0] for r in range(5)),
                                    point.lam, check=False)
        return f(coords)
    if side == "L":
        return (val(m @ expm(step * a)) - val(m @ expm(-step * a))) / (2 * step)
    return (val(expm(step * a) @ m) - val(expm(-step * a) @ m)) / (2 * step)


def test_invariant_field_matches_finite_differences():
    rng = np.random.default_rng(11)
    f = lambda c: c[0] + 0.3 * c[1] * c[2] - 0.1 * c[3] * c[3]
    for lam in (-1.0, 0.0, 0.7):
        box = 0.8 / max(1.0, math.sqrt(abs(lam)))
        for _ in range(6):
            p = GroupPoint(x=tuple(rng.uniform(-box / 2, box / 2, 4)),
                           xi=tuple(rng.uniform(-0.3, 0.3, 3)),
                           th=tuple(rng.uniform(-0.3, 0.3, 3)), lam=lam)
            for side in ("L", "R"):
                for i in (0, 2, 4, 7, 9):
                    dual = invariant_field(side, i, f, p)
                    fd = finite_difference_field(side, i, f, p)
                    assert abs(dual - fd) < 1e-6 * max(1.0, abs(fd))


def test_invariant_field_commutators():
    # [XL_i, XL_j] = +c_ij^k XL_k and [XR_i, XR_j] = -c_ij^k XR_k
    rng = np.random.default_rng(12)
    lam = -1.0
    g = ads_algebra(lam)
    gens = [generator_matrix(i, lam) for i in range(DIM)]
    f = lambda c: c[0] + 0.5 * c[1] * c[2] - 0.2 * c[3]
    step = 1e-5
    worst = 0.0
    for _ in range(10):
        p = GroupPoint(x=tuple(rng.uniform(-0.4, 0.4, 4)),
                       xi=tuple(rng.uniform(-0.3, 0.3, 3)),
                       th=tuple(rng.uniform(-0.3, 0.3, 3)), lam=lam)
        m = group_element(p)
        for (i, j) in ((0, 4), (4, 7), (7, 8), (1, 4), (0, 1)):
            for side, sign in (("L", 1.0), ("R", -1.0)):
                def fld(k, mat):
                    return invariant_field(side, k, f, p, matrix=mat)
                if side == "L":
                    d1 = (fld(j, m @ expm(step * gens[i]))
                          - fld(j, m @ expm(-step * gens[i]))) / (2 * step)
                    d2 = (fld(i, m @ expm(step * gens[j]))
                          - fld(i, m @ expm(-step * gens[j]))) / (2 * step)
                else:
                    d1 = (fld(j, expm(step * gens[i]) @ m)
                          - fld(j, expm(-step * gens[i]) @ m)) / (2 * step)
                    d2 = (fld(i, expm(step * gens[j]) @ m)
                          - fld(i, expm(-step * gens[j]) @ m)) / (2 * step)
                expect = 0.0
                for k, c in g.bracket_basis(i, j):
                    expect += float(c) * invariant_field(side, k, f, p, matrix=m)
                worst = max(worst, abs((d1 - d2) - sign * expect))
    assert worst < 1e-6


def _scalar_chain_derivatives(m, lam, i, side):
    """X_i x^mu from a scalar dual chain along one generator, by matrix products."""
    a = generator_matrix(i, lam)
    tangent = (m @ a if side == "L" else a @ m)[:, 0]
    col = tuple(Dual(float(m[r, 0]), float(tangent[r])) for r in range(5))
    return [c.eps for c in local_from_ambient(col, lam, check=False)], list(tangent)


@pytest.mark.parametrize("lam", (-1.0, -1e-8, 0.0, 1e-8, 0.7))
def test_coset_derivatives_equal_per_generator_scalar_chains(lam):
    rng = np.random.default_rng(17)
    box = 0.8 / max(1.0, math.sqrt(abs(lam)))
    for _ in range(8):
        p = GroupPoint(x=tuple(rng.uniform(-box, box, 4)),
                       xi=tuple(rng.uniform(-0.5, 0.5, 3)),
                       th=tuple(rng.uniform(-0.5, 0.5, 3)), lam=lam)
        m = group_element(p)
        for side in ("L", "R"):
            got = coset_derivatives(m[None], lam, side)
            amb = ambient_derivatives(m[None], lam, side)
            assert got.shape == (4, DIM, 1) and amb.shape == (5, DIM, 1)
            for i in range(DIM):
                want, tangent = _scalar_chain_derivatives(m, lam, i, side)
                assert got[:, i, 0].tolist() == want, (side, i)
                assert amb[:, i, 0].tolist() == tangent, (side, i)


def test_ambient_jacobian_shape():
    jac = ambient_jacobian((0.1, 0.2, -0.1, 0.3), -1.0)
    assert jac.shape == (5, 4)
    # flat limit: ds^A/dx^mu is the inclusion
    jac0 = ambient_jacobian((0.1, 0.2, -0.1, 0.3), 0.0)
    assert np.allclose(jac0[1:, :], np.eye(4))
    assert np.allclose(jac0[0, :], 0.0)


# -- batches: N points at once equal N single-point calls ------------------------

@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS)
def test_straddling_batch_is_mixed(lam):
    batch = straddling_batch(lam)
    for c, scale in zip(batch.coords(), [lam] * 4 + [1.0] * 6):
        tiny = abs(scale) * c * c < SCALE
        assert tiny.any() and not tiny.all()


@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS)
def test_primitives_on_a_mixed_batch_equal_single_points(lam):
    x = straddling_batch(lam).x[0]
    eps = np.array([np.ones_like(x), x])          # two tangents, tangent-major
    for prim in (ct, st, ch, sh, tn, sh_inv, tn_inv):
        arg = x if prim not in (sh_inv, tn_inv) else 0.5 * sh(lam, x)
        vals, duals = prim(lam, arg), prim(lam, Dual(arg, eps))
        # each element takes the arithmetic it takes alone, so the values
        # agree bit for bit
        for k in range(len(x)):
            assert vals[k] == prim(lam, float(arg[k]))
            one = prim(lam, Dual(float(arg[k]), eps[:, k]))
            assert duals.re[k] == one.re and (duals.eps[:, k] == one.eps).all()


@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS)
def test_group_element_and_fields_on_a_mixed_batch_equal_single_points(lam):
    batch = straddling_batch(lam)
    m = group_element(batch)
    assert m.shape == (6, 5, 5)
    for side in ("L", "R"):
        got = coset_derivatives(m, lam, side)
        amb = ambient_derivatives(m, lam, side)
        for k in range(6):
            mk = group_element(single(batch, k))
            assert_same(m[k], mk)
            alone = coset_derivatives(mk[None], lam, side)
            alone_amb = ambient_derivatives(mk[None], lam, side)
            for i in range(DIM):
                assert_same(got[:, i, k], alone[:, i, 0])
                assert_same(amb[:, i, k], alone_amb[:, i, 0])


@pytest.mark.parametrize("lam", STRADDLE_LAMBDAS)
def test_charts_and_metric_on_a_mixed_batch_equal_single_points(lam):
    x = straddling_batch(lam).x
    s = ambient_from_local(x, lam)
    back = local_from_ambient(s, lam)
    metric, pull, jac = metric_at(x, lam), metric_pullback(x, lam), ambient_jacobian(x, lam)
    assert pull.shape == (6, 4, 4) and jac.shape == (6, 5, 4)
    for k in range(6):
        xk = tuple(float(c[k]) for c in x)
        sk = ambient_from_local(xk, lam)
        assert_same([c[k] for c in s], sk)
        assert_same([c[k] for c in back], local_from_ambient(sk, lam))
        assert_same(metric[k], metric_at(xk, lam))
        assert_same(pull[k], metric_pullback(xk, lam))
        assert_same(jac[k], ambient_jacobian(xk, lam))


def _with_bad_point(good, bad):
    """Coordinates of three points, the bad one in the middle, as arrays."""
    return tuple(np.array([g, b, g]) for g, b in zip(good, bad))


BAD_POINTS = [
    # (error, call, a good point, a bad point)
    (ChartBoundary, lambda x: ambient_from_local(x, -1.0), (0.1, 0.2, 0.3, 1e-6),
     (1.6, 0.0, 0.0, 0.0)),
    (ChartBoundary, lambda x: metric_at(x, 1.0), (0.1, 0.2, 1e-6, 0.3), (0.0, 1.6, 0.0, 0.0)),
    (NumericOverflow, lambda x: ambient_from_local(x, -1.0), (0.1, 0.2, 0.3, 1e-6),
     (0.0, 800.0, 0.0, 0.0)),
    (NumericOverflow, lambda x: group_element(GroupPoint(x=x, lam=-1.0)),
     (0.1, 0.2, 0.3, 1e-6), (60.0, 0.0, 0.0, 0.0)),
    (OutOfChart, lambda s: local_from_ambient(s, -1.0, check=False),
     (1.0, 0.0, 1e-6, 0.2, 0.1), (-1.0, 0.9, 0.7, 0.0, math.sqrt(0.12))),
    (OutOfChart, lambda s: local_from_ambient(s, 1.0, check=False),   # sh_inv domain
     (1.0, 0.0, 1e-6, 0.2, 0.1), (1.0, 0.0, 0.0, 0.0, 1.5)),
    (OutOfChart, lambda s: local_from_ambient(s, 1.0, check=False),   # tn_inv domain
     (1.0, 1e-6, 0.2, 0.0, 0.1), (1.0, 1.2, 0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("error, call, good, bad", BAD_POINTS)
def test_one_bad_point_fails_a_batch_as_it_fails_alone(error, call, good, bad):
    call(good)
    call(_with_bad_point(good, good))
    with pytest.raises(error):
        call(bad)
    with pytest.raises(error):
        call(_with_bad_point(good, bad))


@pytest.mark.parametrize("lam", [5e-324, -5e-324, 1e-310, -4e-309])
def test_metric_pullback_below_one_over_dbl_max_takes_the_flat_form(lam):
    # -1/lam is +-inf there: the first row of the form drops out, as at
    # lam = 0, instead of making 0 * inf = NaN
    rng = np.random.default_rng(31)
    x = tuple(rng.uniform(-0.8, 0.8, (4, 5)))
    jac = ambient_jacobian(x, lam)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        pull = metric_pullback(x, lam)
    flat = np.swapaxes(jac, -1, -2) @ np.diag([0.0, 1.0, -1.0, -1.0, -1.0]) @ jac
    assert np.array_equal(pull, flat)
    assert np.max(np.abs(metric_at(x, lam) - pull)) < 1e-300
    # just above 1/DBL_MAX the curved form stays
    big = 6e-309 * np.sign(lam)
    assert np.isfinite(-1.0 / big)
    assert np.array_equal(metric_pullback(x, big), np.swapaxes(ambient_jacobian(x, big), -1, -2)
                          @ np.diag([-1.0 / big, 1.0, -1.0, -1.0, -1.0]) @ ambient_jacobian(x, big))
