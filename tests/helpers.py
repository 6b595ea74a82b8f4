"""Shared numerical oracles and instances for the test suite."""

import numpy as np


def central_diff(fn, x, h=1e-5):
    """Gradient of the scalar function ``fn`` at ``x`` by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = x.copy()
        lo = x.copy()
        hi[idx] += h
        lo[idx] -= h
        grad[idx] = (fn(hi) - fn(lo)) / (2.0 * h)
        it.iternext()
    return grad


def rel_error(a, b, floor=1e-12):
    """Scale-free gradient mismatch: ||a - b|| / max(||a||, ||b||, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), floor)
    return np.linalg.norm((a - b).ravel()) / denom


def memory_probe_features(n=5120):
    """Unit rows in clusters of 20 around n/20 random centers (noise 0.6,
    d=32, seed 0): the instance of the memory probes."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((n // 20, 32))
    f = np.repeat(centers, 20, axis=0) + 0.6 * rng.standard_normal((n, 32))
    return f / np.linalg.norm(f, axis=1, keepdims=True)
