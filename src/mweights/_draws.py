"""Seeded random draws without :mod:`numpy.random`.

The audit and the invariant battery draw their random inputs from
:class:`Draws`, which has the four :class:`numpy.random.Generator` methods
they call, fed by Python's MT19937 (:class:`random.Random`).  The standard
library's :mod:`random` is small and often already loaded (:mod:`tempfile`
imports it), while :mod:`numpy.random` costs several milliseconds and about
2 MiB to import.
"""
import math
import operator
import random as _random

import numpy as np


def _shape(size) -> tuple:
    return (size,) if isinstance(size, int) else tuple(size)


class Draws:
    """``random``, ``uniform``, ``integers`` and ``lognormal`` as on a
    :class:`numpy.random.Generator`: a scalar when ``size`` is None, else an
    array of that shape.  One seed gives one stream."""

    def __init__(self, seed: int):
        seed = operator.index(seed)  # TypeError for a non-integer
        if seed < 0:
            # random.Random(-s) would give the stream of s
            raise ValueError(f"expected non-negative integer, got seed {seed}")
        self._random = _random.Random(seed)

    def random(self, size=None):
        """Uniforms on the 2^-53 grid of [0, 1): the top 53 bits of each
        64-bit word, as in numpy's ``Generator.random``."""
        if size is None:
            return self._random.random()
        shape = _shape(size)
        n = math.prod(shape)
        words = self._random.getrandbits(64 * n).to_bytes(8 * n, "little")
        return ((np.frombuffer(words, "<u8") >> 11) * 2.0**-53).reshape(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, low, high=None, size=None):
        """Integers in [low, high), or in [0, low) without ``high``.

        ``floor(u k)`` for k = high - low: each value takes floor or ceil of
        2^53/k grid points of u, give or take one that the rounding of
        ``u k`` moves across a boundary, so its probability is within 2^-52
        of 1/k, and the draws are within k 2^-53 of uniform in total
        variation.  ``u k`` never rounds up to k.
        """
        if high is None:
            low, high = 0, low
        k = high - low
        if k < 1:
            raise ValueError(f"empty range [{low}, {high})")
        if size is None:
            return low + int(self.random(None) * k)
        return low + (self.random(size) * k).astype(np.int64)

    def lognormal(self, mean=0.0, sigma=1.0, size=None):
        """``exp(mean + sigma z)``, with ``z`` standard normal by Box–Muller:
        the first half of the uniforms sets the radii and the second half the
        angles; ``log1p(-u)`` is finite since u < 1.  The cosines fill the
        first half of ``z`` and the sines the second."""
        shape = () if size is None else _shape(size)
        n = math.prod(shape)
        u1, u2 = self.random(n + n % 2).reshape(2, -1)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * math.pi * u2
        z = np.concatenate((r * np.cos(theta), r * np.sin(theta)))[:n]
        out = np.exp(mean + sigma * z).reshape(shape)
        return float(out) if size is None else out
