import math
import struct

import numpy as np
import pytest

from kads.liealg import (BASIS, DIM, IDX, ExactnessMismatch, LieAlgebra, NotOrthogonal,
                         NotSubalgebra, _ads_pencil, ads_algebra, ads_tensor, components_norm,
                         jacobi_residual_dense, jacobi_residual_sparse, rotate_basis,
                         subalgebra)
from kads.scalars import Scalar, rat, sym

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


def test_bracket_linearity_and_antisymmetry():
    g = ads_algebra(LAM)
    zero = Scalar()
    one = rat(1)
    x = [zero] * DIM
    x[IDX["K1"]] = one
    x[IDX["K2"]] = one
    p0 = [zero] * DIM
    p0[IDX["P0"]] = one
    out = g.bracket(x, p0)
    assert out[IDX["P1"]] == one and out[IDX["P2"]] == one
    assert all(c == Scalar() or c == 0 for i, c in enumerate(out)
               if i not in (IDX["P1"], IDX["P2"]))
    assert all(c == Scalar() for c in g.bracket(x, x))
    # flat limit of [P0, P1]
    assert all(c == Scalar() for c in ads_algebra(0).bracket(p0, _unit("P1")))


def _unit(name):
    v = [Scalar()] * DIM
    v[IDX[name]] = rat(1)
    return v


def numeric_rotation(theta, phi):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    ry = np.array([[ct, 0, st], [0, 1, 0], [-st, 0, ct]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry


def test_rotate_basis_identity_and_symbolic_row():
    g = ads_algebra(LAM)
    ident = [[rat(1) if i == j else Scalar() for j in range(3)] for i in range(3)]
    rot = rotate_basis(g, ident)
    x = _unit("J3")
    assert rot.apply(x) == x
    # symbolic rotation built from the trig stand-ins maps J3 as expected
    # (third column is the rotated axis)
    ct, stv, cp, sp = sym("ctheta"), sym("stheta"), sym("cphi"), sym("sphi")
    r3 = [
        [ct * cp, sp, stv * cp],
        [-(ct * sp), cp, -(stv * sp)],
        [-stv, Scalar(), ct],
    ]
    rot = rotate_basis(g, r3, rules=trig_rules())
    out = rot.apply(_unit("J3"))
    assert out[IDX["J1"]] == stv * cp
    assert out[IDX["J2"]] == -(stv * sp)
    assert out[IDX["J3"]] == ct
    assert out[IDX["P0"]] == Scalar()


def test_rotate_basis_rejects_non_orthogonal():
    g = ads_algebra(0)
    bad = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NotOrthogonal):
        rotate_basis(g, bad)


def test_rotation_composition_and_structure_invariance():
    rng = np.random.default_rng(5)
    for lam in (-1.0, 0.7):
        g = ads_algebra(lam)
        t1, p1, t2, p2 = rng.uniform(0, 3, 4)
        r1, r2 = numeric_rotation(t1, p1), numeric_rotation(t2, p2)
        rot1 = rotate_basis(g, r1.tolist())
        rot2 = rotate_basis(g, r2.tolist())
        rot21 = rotate_basis(g, (r2 @ r1).tolist())
        v = list(rng.uniform(-1, 1, DIM))
        lhs = rot2.apply(rot1.apply(v))
        rhs = rot21.apply(v)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12
        # pushforward invariance of the structure constants: conjugation oracle
        mats = np.zeros((DIM, DIM, DIM))
        for (i, j), terms in g.structure.items():
            for k, c in terms:
                mats[i, j, k] = c
                mats[j, i, k] = -c
        m = np.array(rot1.matrix, dtype=float)
        # c'_{ijk} in the rotated basis must equal the original table
        pushed = np.einsum("ia,jb,abc,ck->ijk", m, m, mats, np.linalg.inv(m))
        assert np.max(np.abs(pushed - mats)) < 1e-12


def test_rotation_composition_exact():
    # quarter-turn permutation matrices compose exactly over the rationals
    g = ads_algebra(LAM)
    zero, one = Scalar(), rat(1)
    rz = [[zero, -one, zero], [one, zero, zero], [zero, zero, one]]
    rx = [[one, zero, zero], [zero, zero, -one], [zero, one, zero]]
    rot_z, rot_x = rotate_basis(g, rz), rotate_basis(g, rx)
    prod = [[sum(rz[i][m] * rx[m][j] for m in range(3)) for j in range(3)]
            for i in range(3)]
    rot_zx = rotate_basis(g, prod)
    v = _unit("P1")
    v[IDX["J2"]] = rat(5)
    assert rot_z.apply(rot_x.apply(v)) == rot_zx.apply(v)


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
        for g in (ads_algebra(lam), ads_tensor(lam)):  # the loops, the contraction
            with pytest.raises(NotOrthogonal, match="R\\^T R"):
                rotate_basis(g, off.tolist())
            # an orthogonal reflection is no automorphism: [J1, J2] = J3 flips sign
            with pytest.raises(NotOrthogonal, match="automorphism"):
                rotate_basis(g, (np.diag([1.0, 1.0, -1.0]) @ r).tolist())
    # the dense check and the float loops name the pair the exact loop names
    one, zero = rat(1), Scalar()
    exact_refl = [[one, zero, zero], [zero, one, zero], [zero, zero, -one]]
    with pytest.raises(NotOrthogonal, match="automorphism") as exact:
        rotate_basis(ads_algebra(LAM), exact_refl)
    for g in (ads_tensor(-0.7), ads_algebra(-0.7)):
        with pytest.raises(NotOrthogonal, match="automorphism") as floats:
            rotate_basis(g, np.diag([1.0, 1.0, -1.0]).tolist())
        assert str(floats.value) == str(exact.value)


def test_nan_and_inf_rotations_fail_the_orthogonality_check():
    for bad in (math.nan, math.inf):
        for g in (ads_algebra(-1.0), ads_tensor(-1.0)):
            with pytest.raises(NotOrthogonal, match="R\\^T R"):
                rotate_basis(g, [[bad, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_nan_and_inf_tables_fail_the_automorphism_checks():
    identity = np.eye(3).tolist()
    for bad in (math.nan, math.inf):
        # dense: the tensor
        with pytest.raises(NotOrthogonal, match="automorphism"), np.errstate(invalid="ignore"):
            rotate_basis(ads_tensor(bad), identity)
        # loops: a float LieAlgebra, and one with an exact entry
        mixed = LieAlgebra({(IDX["J1"], IDX["J2"]): ((IDX["J3"], 1),),
                            (IDX["P1"], IDX["P2"]): ((IDX["J3"], bad),)})
        for g in (ads_algebra(bad), mixed):
            with pytest.raises(NotOrthogonal, match="automorphism"):
                rotate_basis(g, identity)


def test_exact_rotation_of_a_float_table_is_checked_in_floats():
    g = ads_tensor(-1.0)
    unit = np.eye(DIM).tolist()
    rot = rotate_basis(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rot.apply(unit[IDX["J3"]]) == unit[IDX["J3"]]
    quarter = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]  # a quarter turn about the third axis
    want = rotate_basis(g, np.array(quarter, dtype=float).tolist())
    got = rotate_basis(g, quarter)
    for name in ("P1", "K2", "J3"):
        assert got.apply(unit[IDX[name]]) == want.apply(unit[IDX[name]])
    with pytest.raises(NotOrthogonal, match="automorphism"):  # a reflection
        rotate_basis(g, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    with pytest.raises(NotOrthogonal, match="R\\^T R"):
        rotate_basis(g, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_float_rotation_of_an_exact_table_raises_a_named_error():
    with pytest.raises(ExactnessMismatch, match="float rotation"):
        rotate_basis(ads_algebra(-1), np.eye(3).tolist())
    # and the reverse: the loops take no exact rotation of float entries
    one, zero = rat(1), Scalar()
    for r3 in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[one, zero, zero], [zero, one, zero], [zero, zero, one]]):
        for g in (ads_algebra(-1.0), ads_algebra(0.5)):
            with pytest.raises(ExactnessMismatch, match="exact rotation"):
                rotate_basis(g, r3)


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

