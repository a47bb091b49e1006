"""Zipf-distributed sampling for skewed workloads.

Table 1 of the paper shows a heavy-tailed distribution of intrusion-rule
hits (465,770 for rank 1 down to 7,277 for rank 10); file-sharing term
popularity is likewise Zipfian. This module provides an exact inverse-CDF
sampler over a finite rank set, which is all the workload generators
need.
"""

import bisect
import itertools


class ZipfSampler:
    """Sample ranks ``1..n`` with probability proportional to ``1/rank^s``."""

    def __init__(self, n, exponent, rng):
        if n <= 0:
            raise ValueError("n must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        self._rng = rng
        weights = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        # Guard against float round-off leaving the last bucket shy of 1.0.
        self._cdf[-1] = 1.0

    def sample(self):
        """Draw one rank in ``1..n`` (rank 1 is the most popular)."""
        return bisect.bisect_left(self._cdf, self._rng.random()) + 1
