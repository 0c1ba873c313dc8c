"""A fixed reference kernel that measures how fast the machine is right now.

On a shared 2-vCPU VM (2.0 GHz Xeon) the same requests ran up to twice as
slowly for bursts of several seconds, with CPU time equal to wall time: the
machine slowed down, nothing waited.  Timing this kernel next to every
request and scaling the request by it cancels those swings.  On one fixed
block of 12 check requests repeated for a minute, the coefficient of
variation of the block time fell from 0.17 unscaled to 0.04 scaled.

The kernel mixes what the package spends its time on: complex exponentials
in a Python loop, dict-of-monomial products and small complex SVDs.  It
never calls the package, so a change to the package cannot move it.
"""
from __future__ import annotations

import cmath
import math
import time

import numpy as np

# kernel time on an uncontended 2.0 GHz Xeon vCPU; scaled times are in
# seconds at that speed
NOMINAL_S = 3.5e-3

_SVD_INPUT = (np.arange(324).reshape(18, 18) % 7
              + 1j * (np.arange(324).reshape(18, 18) % 5)) / 7.0


def _kernel() -> complex:
    acc = 0j
    for n in range(-400, 400):
        t = n + 1 / 6
        acc += (cmath.exp(1j * math.pi * t * t * 0.01j + 2j * math.pi * t * 0.3)
                * (2j * math.pi * t) ** 2)
    p = {(i, j, 3 - i - j): complex(i + 1, j) for i in range(4) for j in range(4 - i)}
    q = p
    for _ in range(3):
        out: dict = {}
        for e1, c1 in q.items():
            for e2, c2 in p.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        q = out
    for _ in range(10):
        acc += np.linalg.svd(_SVD_INPUT, compute_uv=False)[0]
    return acc


def probe() -> float:
    """Seconds the kernel takes now, three times over."""
    t0 = time.perf_counter()
    for _ in range(3):
        _kernel()
    return time.perf_counter() - t0
