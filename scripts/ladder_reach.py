#!/usr/bin/env python3
"""How long a word each curved algebra's NC engine can normal-order.

For each curved algebra, times the formal reversed-word ladder
x_hi^(n//2) x_lo^(n - n//2) (the letters of the benchmark's ladders) on a
fresh instance for n = 3, 4, ... until one exceeds BUDGET_S, which stops
it.  Prints each time and the largest n normal-ordered within the budget.

Usage:  PYTHONPATH=src python scripts/ladder_reach.py
"""

import signal
import time

from kads import ncalg

BUDGET_S = 30.0
ALGEBRAS = (
    ("quantum_sphere", ncalg.quantum_sphere, "x2", "x1"),
    ("local_first_order", ncalg.local_first_order, "x2", "x1"),
    ("ambient", ncalg.ambient_algebra, "s2", "s1"),
)


def _stop(signum, frame):
    raise TimeoutError


def reach(make, hi: str, lo: str) -> int:
    """Print each ladder's time; return the largest n within the budget."""
    n = 2
    while True:
        n += 1
        alg = make()
        a, b = n // 2, n - n // 2
        word = (alg.pos[hi],) * a + (alg.pos[lo],) * b
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            alg.normal_form({word: 1}, "leftmost")
        except TimeoutError:
            print(f"  n={n:<3d} {hi}^{a} {lo}^{b}  > {BUDGET_S:.0f} s")
            return n - 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(f"  n={n:<3d} {hi}^{a} {lo}^{b}  {time.perf_counter() - start:.3f} s",
              flush=True)


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _stop)
    for name, make, hi, lo in ALGEBRAS:
        print(name, flush=True)
        print(f"{name}: largest n = {reach(make, hi, lo)}", flush=True)
