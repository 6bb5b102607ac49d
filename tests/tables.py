"""Expected cocommutator tables, entered coefficient by coefficient."""

from kads.bialgebra import Bivector
from kads.liealg import BASIS, IDX
from kads.scalars import sym

eta, kinv = sym("eta"), sym("kinv")


def biv(*terms):
    """terms like ('P1', 'P0', coeff)."""
    return Bivector.from_terms(*((IDX[a], IDX[b], c) for a, b, c in terms))


def expected_flat_table():
    e = {name: Bivector() for name in BASIS}
    for a in (1, 2, 3):
        e[f"P{a}"] = biv((f"P{a}", "P0", kinv))
    e["K1"] = biv(("K1", "P0", kinv), ("P2", "J3", kinv), ("P3", "J2", -kinv))
    e["K2"] = biv(("K2", "P0", kinv), ("P3", "J1", kinv), ("P1", "J3", -kinv))
    e["K3"] = biv(("K3", "P0", kinv), ("P1", "J2", kinv), ("P2", "J1", -kinv))
    return {IDX[n]: b for n, b in e.items()}


def expected_curved_table():
    ek = eta * kinv
    e2k = eta * eta * kinv
    e = {name: Bivector() for name in BASIS}
    e["J1"] = biv(("J1", "J3", ek))
    e["J2"] = biv(("J2", "J3", ek))
    e["P1"] = biv(("P1", "P0", kinv), ("P3", "J1", -ek),
                  ("K2", "J3", -e2k), ("K3", "J2", e2k))
    e["P2"] = biv(("P2", "P0", kinv), ("P3", "J2", -ek),
                  ("K1", "J3", e2k), ("K3", "J1", -e2k))
    e["P3"] = biv(("P3", "P0", kinv), ("P1", "J1", ek), ("P2", "J2", ek),
                  ("K1", "J2", -e2k), ("K2", "J1", e2k))
    e["K1"] = biv(("K1", "P0", kinv), ("P2", "J3", kinv), ("P3", "J2", -kinv),
                  ("K3", "J1", -ek))
    e["K2"] = biv(("K2", "P0", kinv), ("P1", "J3", -kinv), ("P3", "J1", kinv),
                  ("K3", "J2", -ek))
    e["K3"] = biv(("K3", "P0", kinv), ("P1", "J2", kinv), ("P2", "J1", -kinv),
                  ("K1", "J1", ek), ("K2", "J2", ek))
    return {IDX[n]: b for n, b in e.items()}


def expected_ambient_poisson():
    """{s^a, s^b} of the ambient Poisson homogeneous space for a before b in
    (s0, s1, s2, s3, s4), as {sorted label word: coefficient}."""
    ek = eta * kinv
    e2k = eta * eta * kinv
    return {
        ("s0", "s1"): {("s1", "s4"): -kinv},
        ("s0", "s2"): {("s2", "s4"): -kinv},
        ("s0", "s3"): {("s3", "s4"): -kinv},
        ("s0", "s4"): {("s1", "s1"): -e2k, ("s2", "s2"): -e2k, ("s3", "s3"): -e2k},
        ("s1", "s2"): {("s3", "s3"): -ek},
        ("s1", "s3"): {("s2", "s3"): ek},
        ("s1", "s4"): {("s0", "s1"): -e2k},
        ("s2", "s3"): {("s1", "s3"): -ek},
        ("s2", "s4"): {("s0", "s2"): -e2k},
        ("s3", "s4"): {("s0", "s3"): -e2k},
    }
