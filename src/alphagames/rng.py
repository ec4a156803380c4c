"""Counter-based random number generation.

Every random quantity in this package is a pure function of
``(seed, path, step, driver, stream)``.  That makes path-parallel
execution, resimulation under common random numbers, and bit-exact
reproducibility across thread counts trivial: there is no generator
state to share or advance.

The generator is Philox-4x32 with 10 rounds, implemented directly on
numpy uint64 arrays (32-bit lanes held in 64-bit containers, so the
multiplies never overflow).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK32 = np.uint64(0xFFFFFFFF)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)

# stream ids: 0 = driving increments, 1 = initial states, 2 = scratch draws
STREAM_INCREMENTS = 0
STREAM_INITIAL = 1
STREAM_SCRATCH = 2

# counters per path block of ``normal_grid``: bounds the Philox
# temporaries (about a dozen uint64 arrays per counter) independently
# of the number of paths
_BLOCK_COUNTERS = 1 << 16


def philox4x32(c0, c1, c2, c3, key):
    """Run Philox-4x32-10 on broadcastable uint64 counter lanes.

    Returns four uint64 arrays, each holding a 32-bit word.
    """
    x0 = np.asarray(c0, dtype=np.uint64) & _MASK32
    x1 = np.asarray(c1, dtype=np.uint64) & _MASK32
    x2 = np.asarray(c2, dtype=np.uint64) & _MASK32
    x3 = np.asarray(c3, dtype=np.uint64) & _MASK32
    x0, x1, x2, x3 = np.broadcast_arrays(x0, x1, x2, x3)
    x0, x1, x2, x3 = (a.copy() for a in (x0, x1, x2, x3))
    key = int(key) & 0xFFFFFFFFFFFFFFFF
    k0 = np.uint64(key & 0xFFFFFFFF)
    k1 = np.uint64(key >> 32)
    for _ in range(10):
        p0 = _M0 * x0
        p1 = _M1 * x2
        hi0, lo0 = p0 >> np.uint64(32), p0 & _MASK32
        hi1, lo1 = p1 >> np.uint64(32), p1 & _MASK32
        x0 = hi1 ^ x1 ^ k0
        x1 = lo1
        x2 = hi0 ^ x3 ^ k1
        x3 = lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return x0, x1, x2, x3


def uniform(seed, c0, c1, c2, c3):
    """Uniform double in (0, 1), one per counter tuple.

    The first two output words form 64 bits; the top 53 are used so the
    result is strictly inside the open interval.
    """
    w0, w1, _, _ = philox4x32(c0, c1, c2, c3, seed)
    bits = (w0 << np.uint64(32)) | w1
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def standard_normal(seed, c0, c1, c2, c3):
    """Standard normal via inverse CDF of the counter-based uniform."""
    return ndtri(uniform(seed, c0, c1, c2, c3))


def normal_grid(seed, n_paths, n_steps, n_drivers, stream=STREAM_INCREMENTS):
    """Standard normals of shape (n_paths, n_steps, n_drivers).

    Entry (p, k, j) depends only on (seed, p, k, j, stream), so the
    grid is filled block by block of paths.
    """
    out = np.empty((n_paths, n_steps, n_drivers))
    k = np.arange(n_steps, dtype=np.uint64)[None, :, None]
    j = np.arange(n_drivers, dtype=np.uint64)[None, None, :]
    rows = max(1, _BLOCK_COUNTERS // max(1, n_steps * n_drivers))
    for start in range(0, n_paths, rows):
        stop = min(start + rows, n_paths)
        p = np.arange(start, stop, dtype=np.uint64)[:, None, None]
        out[start:stop] = standard_normal(seed, p, k, j, np.uint64(stream))
    return out
