"""Group points for the batch tests: coordinates on both sides of SERIES_CUT."""

import math

import numpy as np

from kads.curvtrig import SERIES_CUT
from kads.group_geom import GroupPoint

STRADDLE_LAMBDAS = (-1.0, -1e-8, 1e-8, 1.0)


def straddling_batch(lam, n=6):
    """n group points whose coordinates lie on both sides of SERIES_CUT: the
    translations at lam, the boosts and rotations at curvature +-1."""
    rng = np.random.default_rng(29)

    def coords(cut, count):
        mag = np.where(np.arange(n) % 2 == 0, 0.3, 3.0) * cut  # series, closed, ...
        return tuple(rng.permutation(mag) * rng.choice((-1.0, 1.0), n) for _ in range(count))

    x = coords(math.sqrt(SERIES_CUT / abs(lam)), 4)
    lorentz = coords(math.sqrt(SERIES_CUT), 6)
    return GroupPoint(x=x, xi=lorentz[:3], th=lorentz[3:], lam=lam)


def single(batch, k):
    return GroupPoint(x=tuple(float(c[k]) for c in batch.x),
                      xi=tuple(float(c[k]) for c in batch.xi),
                      th=tuple(float(c[k]) for c in batch.th), lam=batch.lam)


def assert_same(batched, alone):
    np.testing.assert_allclose(batched, alone, rtol=1e-14, atol=0)
