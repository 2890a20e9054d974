"""Counter-based Gaussian variate generation (Philox4x32-10).

Every (seed, path index, step index) triple maps to a fixed 64-bit word
through the keyed Philox4x32-10 block cipher, so any path is reproducible in
isolation and whole blocks of paths can be generated in any order or in
parallel with bitwise-identical results.  Normals come from the inverse CDF
applied to 53-bit uniforms (no rejection sampling), keeping streams platform
independent.  The inverse CDF is ``scipy.special.ndtri``, imported at the
first draw rather than with this module, so that a process that never draws
(the noise-free oracle, C1 and expansion commands) does not load
``scipy.special``.

Layout: the 128-bit Philox counter holds (block index within the path, low
and high words of the path index, 0); the 64-bit key is the seed.  Each
128-bit output block yields two 64-bit words, i.e. two normal draws, so the
32-bit block index gives a path the steps 0 .. 2^33 - 1 (``STEP_LIMIT``),
and a draw past them is refused.  A window of steps that starts at an even
step is drawn on its own with the bytes of the same columns of the whole
draw: a Monte Carlo batch draws its fine grid that way, one window at a
time, and never holds all of it.
Normals are generated in chunks of rows of 2^15 Philox blocks, sized to the
L2 cache and large enough that threads drawing side by side seldom wait for
the GIL between numpy calls; every draw depends on its own counter alone, so
the stream does not depend on the chunk size.

The output is step-major (Fortran order): each step's draws for all paths
are one contiguous column, the layout the steppers read.  Each chunk is
written path by path into one C-ordered buffer (about 512 KB, still in
L2 cache) and copied into its rows of the output; ``tobytes()`` reads the
same path-major bytes as before.  The four counter arrays, which the rounds
turn into their outputs, are made once a call and refilled for every chunk.
"""

from __future__ import annotations

import math

import numpy as np

from .counts import is_count, is_uint64

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)

# Philox blocks per chunk of rows: a chunk's six uint64 round arrays (256 KB
# each, 1.5 MB in all) stay in the 2 MB L2 cache through the ten rounds.
# Every numpy call releases and retakes the GIL, so a larger chunk means
# fewer round-trips per normal for threads drawing side by side.  Swept on a
# 2-vCPU Xeon (numpy 2.4.6), median of 9 mc-affine jobs at two threads, the
# output then copied in blocks of 2 chunks: 2.79 s at 2^14 (80k voluntary
# context switches per job), 2.24 s at 2^15 (22k) and 2.35 s at 2^16 (9k),
# whose arrays spill out of L2.  One 16384 x 512 call on one thread: 423,
# 404 and 484 ms.  Each chunk is copied out on its own: against 2-chunk
# blocks, 10 alternating processes read 446 vs 448 ms (16384 x 512), 54.2
# vs 53.4 ms (16384 x 64) and 62.7 vs 73.2 ms (two threads, 16384 x 64 each).
_CHUNK_BLOCKS = 2**15

# A path's steps are 0 .. STEP_LIMIT - 1: the block index step // 2 fills a 32-bit word.
STEP_LIMIT = 2**33


def _philox_rounds(c0, c1, c2, c3, k0: int, k1: int):
    """Ten Philox4x32 rounds on uint64 arrays holding 32-bit words.

    Mutates its argument arrays (they are consumed as scratch space) and
    returns the four output-word arrays.
    """
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c0)
    for rnd in range(10):
        np.multiply(_M0, c0, out=p0)
        np.multiply(_M1, c2, out=p1)
        # c0' = hi(p1) ^ c1 ^ k0 computed into the retired c0 buffer; same for c2'.
        np.right_shift(p1, _S32, out=c0)
        np.bitwise_xor(c0, c1, out=c0)
        np.bitwise_xor(c0, np.uint64((k0 + rnd * _W0) & 0xFFFFFFFF), out=c0)
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _S32, out=c2)
        np.bitwise_xor(c2, c3, out=c2)
        np.bitwise_xor(c2, np.uint64((k1 + rnd * _W1) & 0xFFFFFFFF), out=c2)
        np.bitwise_and(p0, _MASK32, out=c3)
    return c0, c1, c2, c3


def _check_paths(path_indices) -> np.ndarray:
    """Path indices as a 1-D uint64 array; refuses anything but integers in [0, 2^64)."""
    paths = np.asarray(path_indices)
    if paths.dtype.kind not in "iu":
        # Python ints above 2^63 beside smaller ones arrive as float64 or object.
        paths = np.asarray(path_indices, dtype=object)
        valid = all(is_uint64(i) for i in paths.flat)
    else:
        valid = not paths.size or paths.min() >= 0
    if not valid or paths.ndim > 1:
        raise ValueError("path_indices must be nonnegative 64-bit integers in one dimension")
    return np.atleast_1d(paths.astype(np.uint64))


def gaussian_increments(seed: int, path_indices, n_steps: int, dt: float,
                        first_step: int = 0) -> np.ndarray:
    """Brownian increments N(0, dt), shape (n_paths, n_steps), step-major; dt = 1.0 gives N(0, 1).

    Column k is step ``first_step + k`` of each path: a window of a longer
    draw, byte for byte its columns.  ``first_step`` must be even, since a
    Philox block holds two steps.  Each chunk of rows runs the whole chain --
    counters, Philox rounds, 53-bit uniforms, inverse CDF, times sqrt(dt) --
    into a C-ordered chunk buffer, which is then copied into its rows of the
    output.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not is_count(n_steps):
        raise ValueError("n_steps must be a positive integer")
    if not is_uint64(seed):
        raise ValueError("seed must be an integer that fits in 64 unsigned bits")
    if not is_count(first_step, 0) or first_step % 2:
        raise ValueError(f"first_step must be an even nonnegative integer, got {first_step!r}")
    if first_step + n_steps > STEP_LIMIT:
        raise ValueError(f"steps {first_step} .. {first_step + n_steps - 1} run past the "
                         f"generator's last step {STEP_LIMIT - 1}")
    paths = _check_paths(path_indices)
    # Once per call: loading scipy.special takes about 0.25 s and 20 MB of
    # resident memory, and only a draw needs it.
    from scipy.special import ndtri
    k0, k1 = int(seed) & 0xFFFFFFFF, int(seed) >> 32
    n_blocks = (n_steps + 1) // 2
    blocks = np.arange(first_step // 2, first_step // 2 + n_blocks, dtype=np.uint64)
    rows = max(1, _CHUNK_BLOCKS // n_blocks)
    scale = np.sqrt(dt)
    out = np.empty((paths.size, n_steps), order="F")
    buf = np.empty((min(rows, paths.size), n_steps))
    counters = [np.empty((buf.shape[0], n_blocks), dtype=np.uint64) for _ in range(4)]
    for lo in range(0, paths.size, rows):
        chunk = paths[lo:lo + rows, None]
        c0, c1, c2, c3 = (c[:chunk.shape[0]] for c in counters)
        c0[:] = blocks
        np.bitwise_and(chunk, _MASK32, out=c1)
        np.right_shift(chunk, _S32, out=c2)
        c3.fill(0)
        y0, y1, y2, y3 = _philox_rounds(c0, c1, c2, c3, k0, k1)
        # Pack pairs of 32-bit outputs into 64-bit words and keep their top
        # 53 bits: block j covers steps 2j (words y0:y1) and 2j+1 (y2:y3).
        for upper, lower in ((y0, y1), (y2, y3)):
            np.left_shift(upper, _S32, out=upper)
            np.bitwise_or(upper, lower, out=upper)
            np.right_shift(upper, _S11, out=upper)
        z = buf[:chunk.shape[0]]
        z[:, 0::2] = y0
        z[:, 1::2] = y2[:, :n_steps // 2]
        # Offset by half an ulp: the uniforms lie strictly inside (0, 1).
        z += 0.5
        z *= 2.0**-53
        ndtri(z, out=z)
        z *= scale
        out[lo:lo + rows] = z
    return out
