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
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85

# stream ids: 0 = driving increments, 1 = initial states, 2 = scratch draws
STREAM_INCREMENTS = 0
STREAM_INITIAL = 1
STREAM_SCRATCH = 2

# counters per path block of ``normal_grid``: bounds the Philox
# buffers (six uint64 arrays per counter, plus the counters and the
# uniform) independently of the number of paths
_BLOCK_COUNTERS = 1 << 16


def philox4x32(c0, c1, c2, c3, key):
    """Run Philox-4x32-10 on broadcastable uint64 counter lanes.

    Returns four new uint64 arrays, each holding a 32-bit word; the
    counter arguments are not modified.  The rounds run in place on the
    four lanes and two product buffers.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in (c0, c1, c2, c3)))
    x0, x1, x2, x3 = (np.bitwise_and(np.asarray(c, dtype=np.uint64),
                                     _MASK32,
                                     out=np.empty(shape, dtype=np.uint64))
                      for c in (c0, c1, c2, c3))
    p0 = np.empty(shape, dtype=np.uint64)
    p1 = np.empty(shape, dtype=np.uint64)
    key = int(key) & 0xFFFFFFFFFFFFFFFF
    k0, k1 = key & 0xFFFFFFFF, key >> 32
    for _ in range(10):
        np.multiply(x0, _M0, out=p0)
        np.multiply(x2, _M1, out=p1)
        # x0 <- hi(p1) ^ x1 ^ k0, x1 <- lo(p1)
        np.right_shift(p1, 32, out=x0)
        x0 ^= x1
        x0 ^= k0
        p1 &= _MASK32
        x1, p1 = p1, x1
        # x2 <- hi(p0) ^ x3 ^ k1, x3 <- lo(p0)
        np.right_shift(p0, 32, out=x2)
        x2 ^= x3
        x2 ^= k1
        p0 &= _MASK32
        x3, p0 = p0, x3
        k0 = (k0 + _W0) & 0xFFFFFFFF
        k1 = (k1 + _W1) & 0xFFFFFFFF
    return x0, x1, x2, x3


def uniform(seed, c0, c1, c2, c3):
    """Uniform double in (0, 1), one per counter tuple.

    The first two output words form 64 bits; the top 53 are used so the
    result is strictly inside the open interval.
    """
    bits, w1, _, _ = philox4x32(c0, c1, c2, c3, seed)
    bits <<= 32
    bits |= w1
    bits >>= 11
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def standard_normal(seed, c0, c1, c2, c3):
    """Standard normal via inverse CDF of the counter-based uniform."""
    u = uniform(seed, c0, c1, c2, c3)
    return ndtri(u, out=u)


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
        ndtri(uniform(seed, p, k, j, np.uint64(stream)),
              out=out[start:stop])
    return out
