"""The host's current speed, from a fixed reference computation.

On a shared host the speed of a virtual CPU changes on its own: other
guests slow single-threaded code by up to 2x for seconds to tens of
seconds at a time.  The slowdown reaches CPU time as well as wall time,
so process time does not remove it.  It slows a fixed computation about
as much as it slows symlap.  Over 34 forward-grid rounds whose wall
time ranged from 1.07 to 1.93 s, the spread between quartiles was 0.35
for the round time and 0.06 for its ratio to a fixed numpy computation
timed between its jobs.

The benchmark times ``unit()`` right before every job, and once more
after a round's last job.  A job's speed factor is the mean time per unit of
the samples on either side of it.  Its times are divided by that factor
and multiplied by ``REF_UNIT_S``, which rescales them to a nominal host
on which one unit takes ``REF_UNIT_S`` seconds.  The reference shares no
code with symlap, so a change to symlap moves the rescaled times and
leaves the factor alone.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the median time of one unit on the reference machine (see
# perfbench/README.md), so that rescaled times read close to its seconds.
REF_UNIT_S = 0.67e-3

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.linspace(0.02, 0.2, 15)
_EDGES = np.linspace(0.0, 40.0, 129)
_MID = 0.5 * (_EDGES[1:] + _EDGES[:-1])
_HALF = 0.5 * (_EDGES[1:] - _EDGES[:-1])
_POINTS = (0.5 + 1j, 1.0 - 2j, 2.0 + 3j)
_COEFFS = (1.0, -0.5, 0.25, 2.0, -1.0, 0.5)
_STARTS = tuple(complex(math.cos(k), math.sin(k)) for k in range(8))


def unit() -> complex:
    """One reference unit, in two halves of about equal time, since
    neither alone follows every workload's slowdowns as well as both:

    - numpy: 15-node panel sums of exp(-s u) over 128 panels for three
      values of s.  It calls no BLAS routine, so the OpenBLAS thread
      pool does not change its time.
    - pure Python: Horner evaluations and Newton-like steps in complex
      arithmetic on eight points, the kind of work the root finder does.

    The work is fixed."""
    acc = 0j
    u = _MID[:, None] + _HALF[:, None] * _NODES
    for s in _POINTS:
        panels = (np.exp(-s * u) * _WEIGHTS).sum(axis=1) * _HALF
        acc += complex(panels.sum())
    roots = list(_STARTS)
    for _ in range(20):
        for i, r in enumerate(roots):
            p, d = 1 + 0j, 0j
            for c in _COEFFS:
                d = d * r + p
                p = p * r + c
            acc += p / (d + 1e-9) * 1e-6
            roots[i] = r - 1e-4 * p / (abs(d) + 1.0)
    return acc


def seconds_per_unit(n: int) -> float:
    """Time n units back to back; the mean wall time of one."""
    t0 = time.perf_counter()
    for _ in range(n):
        unit()
    return (time.perf_counter() - t0) / n


def rescale(seconds: float, before: float, after: float) -> float:
    """A time taken between two samples of ``seconds_per_unit``,
    rescaled to the nominal host."""
    return seconds * REF_UNIT_S / (0.5 * (before + after))
