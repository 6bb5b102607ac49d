"""Group points for the batch tests: tiny and ordinary coordinates mixed.

Half of a batch's coordinates have |lam| x^2 = 0.09 * ``SCALE``, half
9 * ``SCALE``, so one batch holds points near the flat limit and ordinary
ones.
"""

import math

import numpy as np

from kads.group_geom import GroupPoint

STRADDLE_LAMBDAS = (-1.0, -1e-8, 1e-8, 1.0)
SCALE = 1e-8


def straddling_batch(lam, n=6):
    """n group points whose |lam| x^2 lie on both sides of SCALE: the
    translations at lam, the boosts and rotations at curvature +-1."""
    rng = np.random.default_rng(29)

    def coords(cut, count):
        mag = np.where(np.arange(n) % 2 == 0, 0.3, 3.0) * cut  # tiny, ordinary, ...
        return tuple(rng.permutation(mag) * rng.choice((-1.0, 1.0), n) for _ in range(count))

    x = coords(math.sqrt(SCALE / abs(lam)), 4)
    lorentz = coords(math.sqrt(SCALE), 6)
    return GroupPoint(x=x, xi=lorentz[:3], th=lorentz[3:], lam=lam)


def single(batch, k):
    return GroupPoint(x=tuple(float(c[k]) for c in batch.x),
                      xi=tuple(float(c[k]) for c in batch.xi),
                      th=tuple(float(c[k]) for c in batch.th), lam=batch.lam)


def assert_same(batched, alone):
    np.testing.assert_allclose(batched, alone, rtol=1e-14, atol=0)
