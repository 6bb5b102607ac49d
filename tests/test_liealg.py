import math
import struct

import numpy as np
import pytest

from kads.bialgebra import Bivector
from kads.liealg import (BASIS, DIM, IDX, LieAlgebra, NotOrthogonal,
                         NotSubalgebra, _ads_pencil, ads_algebra, ads_tensor, components_norm,
                         jacobi_residual_dense, jacobi_residual_sparse, rotate_basis,
                         subalgebra)
from kads.rclass import beta_aligned, family_r, r_kads, rotate_bivector, sphere_param
from kads.scalars import Scalar, rat, reduce_mod, sym

from oracles import ads_algebra_by_brackets, dense_table, trig_rules

LAM = sym("Lambda")


def term_map(g, a, b):
    return {BASIS[k]: c for k, c in g.bracket_basis(IDX[a], IDX[b])}


def test_table_spot_checks():
    g = ads_algebra(LAM)
    assert term_map(g, "J1", "J2") == {"J3": rat(1)}
    assert term_map(g, "K1", "P0") == {"P1": rat(1)}
    assert term_map(g, "K1", "P1") == {"P0": rat(1)}
    assert term_map(g, "P0", "P1") == {"K1": -LAM}
    assert term_map(g, "P1", "P2") == {"J3": LAM}
    assert term_map(g, "P0", "J3") == {}
    assert term_map(g, "K1", "K2") == {"J3": rat(-1)}
    assert term_map(g, "J2", "P1") == {"P3": rat(-1)}


def hand_coded_flat_table():
    """Independent zero-curvature table, written out entry by entry."""
    eps = {(1, 2): (3, 1), (2, 3): (1, 1), (1, 3): (2, -1)}
    struct = {}

    def put(a, b, c, s):
        i, j = IDX[a], IDX[b]
        if i > j:
            i, j, s = j, i, -s
        struct.setdefault((i, j), []).append((IDX[c], rat(s)))

    for (a, b), (c, s) in eps.items():
        put(f"J{a}", f"J{b}", f"J{c}", s)
        put(f"K{a}", f"K{b}", f"J{c}", -s)
    for a in range(1, 4):
        for b in range(1, 4):
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            c, s = eps[key]
            sign = s if a < b else -s
            put(f"J{a}", f"P{b}", f"P{c}", sign)
            put(f"J{a}", f"K{b}", f"K{c}", sign)
        put(f"K{a}", "P0", f"P{a}", 1)
        put(f"K{a}", f"P{a}", "P0", 1)
    return LieAlgebra({k: tuple(v) for k, v in struct.items()})


def test_flat_limit_matches_hand_coded_table():
    flat = ads_algebra(0)
    hand = hand_coded_flat_table()
    keys = set(flat.structure) | set(hand.structure)
    for key in keys:
        assert dict(flat.structure.get(key, ())) == dict(hand.structure.get(key, ())), key


def test_jacobi_zero_for_all_lambdas():
    for lam in (-1, 0, 1, LAM):
        assert jacobi_residual_sparse(ads_algebra(lam)) == 0


def test_jacobi_detects_corruption():
    # the exact residual counts the nonzero Jacobi components: doubling one
    # bracket breaks 6 of them in the flat algebra, 8 in the formal curved one
    for g, pair, count in ((ads_algebra(0), ("J1", "J2"), 6),
                           (ads_algebra(-(sym("eta") ** 2)), ("P1", "P2"), 8)):
        bad = dict(g.structure)
        key = (IDX[pair[0]], IDX[pair[1]])
        bad[key] = tuple((k, c * 2) for k, c in bad[key])
        res = jacobi_residual_sparse(LieAlgebra(bad))
        assert res == count and type(res) is int


def numeric_rotation(theta, phi):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    ry = np.array([[ct, 0, st], [0, 1, 0], [-st, 0, ct]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry


def _lift(r3, one, zero):
    """The 10x10 basis automorphism of a 3x3 rotation, built as rotate_basis
    builds its float one: P0 fixed, each of (P, K, J) rotated by r3."""
    m = [[zero] * DIM for _ in range(DIM)]
    m[0][0] = one
    for block in (1, 4, 7):
        for a in range(3):
            for b in range(3):
                m[block + a][block + b] = r3[a][b]
    return m


def test_rotate_basis_identity_and_symbolic_row():
    assert rotate_basis(ads_tensor(-1.0), np.eye(3).tolist()) == np.eye(DIM).tolist()
    # rotation_to_pole's rows (u, v, n) in the trig stand-ins, lifted
    # exactly, take the sphere-parametrized family to the canonical
    # r-matrix, up to the relations cos^2 + sin^2 = 1
    ct, stv, cp, sp = sym("ctheta"), sym("stheta"), sym("cphi"), sym("sphi")
    r3 = [[ct * cp, -(ct * sp), -stv], [sp, cp, Scalar()], [stv * cp, -(stv * sp), ct]]
    eta, kinv, vth = sym("eta"), sym("kinv"), sym("vtheta")
    fam = family_r(sphere_param(ct, stv, cp, sp, eta * kinv),
                   beta_aligned(ct, stv, cp, sp, vth), kinv)
    rotated = rotate_bivector(_lift(r3, rat(1), Scalar()), fam)
    diff = rotated - (r_kads(kinv, eta) + Bivector.from_terms((IDX["P0"], IDX["J3"], vth)))
    assert diff.components
    assert [key for key, c in diff.components.items() if reduce_mod(c, trig_rules())] == []


def test_rotate_basis_rejects_non_orthogonal():
    bad = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NotOrthogonal):
        rotate_basis(ads_tensor(0.0), bad)


def test_rotation_composition_and_structure_invariance():
    rng = np.random.default_rng(5)
    for lam in (-1.0, 0.7):
        f = ads_tensor(lam)
        t1, p1, t2, p2 = rng.uniform(0, 3, 4)
        r1, r2 = numeric_rotation(t1, p1), numeric_rotation(t2, p2)
        m1 = np.array(rotate_basis(f, r1.tolist()))
        m2 = np.array(rotate_basis(f, r2.tolist()))
        m21 = np.array(rotate_basis(f, (r2 @ r1).tolist()))
        assert np.max(np.abs(m2 @ m1 - m21)) < 1e-12
        # pushforward invariance of the structure constants: conjugation
        # oracle on the sparse table
        mats = np.zeros((DIM, DIM, DIM))
        for (i, j), terms in ads_algebra(lam).structure.items():
            for k, c in terms:
                mats[i, j, k] = c
                mats[j, i, k] = -c
        # c'_{ijk} in the rotated basis must equal the original table
        pushed = np.einsum("ia,jb,abc,ck->ijk", m1, m1, mats, np.linalg.inv(m1))
        assert np.max(np.abs(pushed - mats)) < 1e-12


def test_rotation_composition_exact():
    # integer quarter turns, taken in floats, compose exactly
    f = ads_tensor(-1.0)
    rz = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    rx = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    rot_z, rot_x = rotate_basis(f, rz), rotate_basis(f, rx)
    prod = [[sum(rz[i][m] * rx[m][j] for m in range(3)) for j in range(3)]
            for i in range(3)]
    rot_zx = rotate_basis(f, prod)
    assert (np.array(rot_z) @ np.array(rot_x)).tolist() == rot_zx


def test_subalgebra_closure_and_rejection():
    g = ads_algebra(LAM)
    sub = subalgebra(g, [IDX[n] for n in ("P0", "P1", "P2", "K1", "K2", "J3")])
    assert sub.dim == 6
    with pytest.raises(NotSubalgebra):
        subalgebra(g, [IDX["P1"], IDX["K1"]])  # [K1,P1] = P0 leaves the span


def test_json_dump_keys():
    g = ads_algebra(LAM)
    for (a, b), want in ((("J1", "J2"), {"J3": "1"}), (("P0", "P1"), {"K1": "-Lambda"})):
        assert {k: str(c) for k, c in term_map(g, a, b).items()} == want


def test_bracket_basis_is_the_exact_negation_under_swap():
    for g in (ads_algebra(LAM), ads_algebra(-0.7)):
        for i in range(DIM):
            assert g.bracket_basis(i, i) == ()
            for j in range(DIM):
                assert g.bracket_basis(j, i) == tuple(
                    (k, -c) for k, c in g.bracket_basis(i, j)), (i, j)


def test_dense_table_matches_the_sparse_table():
    for lam in (-2.0, -1e-8, -0.0, 0.0, 1e-8, 0.5, 2.0):
        g = ads_algebra(lam)
        # the affine pencil gives the algebra's table without building it
        f = ads_tensor(lam)
        assert f.dtype == float
        for i in range(DIM):
            for j in range(DIM):
                want = np.zeros(DIM)
                for k, c in g.bracket_basis(i, j):
                    want[k] = c
                assert np.array_equal(f[:, i, j], want), (lam, i, j)
        assert f.tobytes() == dense_table(g).tobytes(), lam
    for bad in (math.inf, -math.inf, math.nan):  # lam * 0 is NaN
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(ads_tensor(bad)).any(), bad


def test_the_cached_pencil_is_read_only():
    # f(0) and f(1) - f(0) live for the whole process: a write into either
    # would change every later ads_tensor
    flat, curved = _ads_pencil()
    assert not flat.flags.writeable and not curved.flags.writeable
    for arr in (flat, curved):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 1.0
    for lam in (-0.7, 0.0, 2.0):
        want = ads_tensor(lam).copy()
        f = ads_tensor(lam)
        f[:] = 7.0
        assert np.array_equal(ads_tensor(lam), want), lam


def test_components_norm_lets_nan_win():
    for values in ([1.0, math.nan], [0.0, math.nan], [math.nan, 1.0],
                   [2.0, complex(math.nan, 0.0), 1.0]):
        assert math.isnan(components_norm(values)), values
    assert components_norm([0.5, -2.0, 1.0]) == 2.0
    assert components_norm([]) == 0 and components_norm([rat(1), Scalar()]) == 1


def test_float_jacobi_matches_the_sparse_loop():
    rng = np.random.default_rng(7)
    for lam in (-2.0, -1e-8, 0.0, 1e-8, 0.5, 2.0):
        g = ads_algebra(lam)
        dense, sparse = jacobi_residual_dense(ads_tensor(lam)), jacobi_residual_sparse(g)
        assert dense == sparse == 0.0 and type(dense) is type(sparse) is float
        # random tables violate Jacobi by O(1); real and complex coefficients
        for imag in (0.0, 0.5):
            table = {}
            for i in range(DIM):
                for j in range(i + 1, DIM):
                    vals = rng.uniform(-1, 1, 3) + imag * 1j * rng.uniform(-1, 1, 3)
                    table[(i, j)] = tuple(
                        (int(k), complex(v) if imag else float(v.real))
                        for k, v in zip(rng.choice(DIM, 3, replace=False), vals))
            bad = LieAlgebra(table)
            dense, sparse = jacobi_residual_dense(dense_table(bad)), jacobi_residual_sparse(bad)
            assert math.isclose(dense, sparse, rel_tol=1e-12) and dense > 0.1
    # no double bracket of three distinct generators: integer 0 on both paths
    for table in ({}, {(0, 1): ((2, 1.0),)}):
        g = LieAlgebra(table, dim=3)
        assert jacobi_residual_dense(dense_table(g)) == jacobi_residual_sparse(g) == 0
        assert type(jacobi_residual_dense(dense_table(g))) is int
    nan_table = dict(ads_algebra(-0.7).structure)
    nan_table[(IDX["J1"], IDX["J2"])] = ((IDX["J3"], math.nan),)
    assert math.isnan(jacobi_residual_dense(dense_table(LieAlgebra(nan_table))))
    assert math.isnan(jacobi_residual_sparse(LieAlgebra(nan_table)))


def test_float_rotation_checks_still_raise():
    rng = np.random.default_rng(3)
    for lam in (-0.7, 2.0):
        r = numeric_rotation(*rng.uniform(0, 3, 2))
        off = r.copy()
        off[0, 1] += 1e-9
        f = ads_tensor(lam)
        with pytest.raises(NotOrthogonal, match="R\\^T R"):
            rotate_basis(f, off.tolist())
        # an orthogonal reflection is no automorphism: [J1, J2] = J3 flips sign
        with pytest.raises(NotOrthogonal, match="automorphism"):
            rotate_basis(f, (np.diag([1.0, 1.0, -1.0]) @ r).tolist())
    # the first pair in index order that the reflection breaks: [P1, P2] = lambda J3
    with pytest.raises(NotOrthogonal) as refl:
        rotate_basis(ads_tensor(-0.7), np.diag([1.0, 1.0, -1.0]).tolist())
    assert str(refl.value) == "rotation is not an automorphism at [P1,P2]"


def test_nan_and_inf_rotations_fail_the_orthogonality_check():
    for bad in (math.nan, math.inf):
        with pytest.raises(NotOrthogonal, match="R\\^T R"):
            rotate_basis(ads_tensor(-1.0), [[bad, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_nan_and_inf_tables_fail_the_automorphism_checks():
    identity = np.eye(3).tolist()
    for bad in (math.nan, math.inf):
        with pytest.raises(NotOrthogonal, match="automorphism"), np.errstate(invalid="ignore"):
            rotate_basis(ads_tensor(bad), identity)


def test_exact_rotation_of_a_float_table_is_checked_in_floats():
    g = ads_tensor(-1.0)
    unit = np.eye(DIM).tolist()

    def column(m, name):
        return [row[IDX[name]] for row in m]

    rot = rotate_basis(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert column(rot, "J3") == unit[IDX["J3"]]
    quarter = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]  # a quarter turn about the third axis
    want = rotate_basis(g, np.array(quarter, dtype=float).tolist())
    got = rotate_basis(g, quarter)
    for name in ("P1", "K2", "J3"):
        assert column(got, name) == column(want, name)
    with pytest.raises(NotOrthogonal, match="automorphism"):  # a reflection
        rotate_basis(g, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    with pytest.raises(NotOrthogonal, match="R\\^T R"):
        rotate_basis(g, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def _bits(c):
    """A coefficient down to its type and bits (a float's sign of NaN too)."""
    if isinstance(c, float):
        return "float", struct.pack("<d", c)
    return type(c).__name__, str(c)


def _table_bits(g: LieAlgebra) -> tuple:
    """Both tables in their key and term order, every coefficient as bits."""
    return tuple([(key, tuple((k, _bits(c)) for k, c in terms)) for key, terms in table.items()]
                 for table in (g.structure, g._signed))


@pytest.mark.parametrize("lam", [LAM, -(sym("eta") ** 2), 0, rat(0), 0.0, -0.0, math.nan,
                                 -math.nan, -0.7, 1.3, 5e-324, -1e300, 1, rat(-3, 4)])
def test_ads_algebra_from_the_template_equals_the_bracket_builder(lam):
    # the substituted template has the builder's keys, term order, coefficient
    # bits and exactness; the zero lam drops the curvature terms in both
    g, want = ads_algebra(lam), ads_algebra_by_brackets(lam)
    assert _table_bits(g) == _table_bits(want)
    assert g.dim == want.dim and g.labels == want.labels
    if isinstance(lam, float):
        assert dense_table(g).tobytes() == dense_table(want).tobytes()
        if lam == lam:
            assert np.array_equal(ads_tensor(lam), dense_table(want))
    # a new algebra per call: nothing but the template is shared
    assert ads_algebra(lam).structure is not g.structure

