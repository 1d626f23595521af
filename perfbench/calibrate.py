"""A fixed reference computation that measures how fast the host is running.

On a shared host the speed the benchmark gets drifts by tens of per cent over
minutes, with other tenants' load. The timed run interleaves calls of
``reference_seconds`` with its operations and reports operation time in
multiples of the reference's mean time in the same run, so drift that slows
both alike cancels. The reference is benchmark code with fixed inputs and does
not use gradpce, so a change to the package cannot move it. It mixes the kinds
of work the workloads do: a small projected-gradient loop (interpreter-bound
numpy calls and an l1-ball projection by sort) and a dense Gram product.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20180223)
_A = _rng.standard_normal((80, 231))
_B = _rng.standard_normal(80)
_STEP = 1.0 / np.linalg.norm(_A, 2) ** 2
_TALL = _rng.standard_normal((800, 286))
_ITERS = 2000
_GRAMS = 8


def _project(v: np.ndarray, radius: float) -> np.ndarray:
    a = np.abs(v)
    if a.sum() <= radius:
        return v
    u = np.sort(a)[::-1]
    c = np.cumsum(u) - radius
    k = np.nonzero(u * np.arange(1, u.size + 1) > c)[0][-1]
    return np.sign(v) * np.maximum(a - c[k] / (k + 1), 0.0)


def reference_work() -> float:
    """The reference computation; returns a checksum of its result."""
    x = np.zeros(_A.shape[1])
    for _ in range(_ITERS):
        x = _project(x - _STEP * (_A.T @ (_A @ x - _B)), 5.0)
    gram = 0.0
    for _ in range(_GRAMS):
        gram += float(np.abs(_TALL.T @ _TALL).max())
    return float(x @ x) + gram


def reference_seconds() -> float:
    """Wall seconds of one call of the reference computation."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
