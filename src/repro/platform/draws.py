"""Scalar draws that consume the RNG stream exactly as ``rng.choice`` does.

The world generators pick one word, syllable or TLD at a time, hundreds
of thousands of times per world, and ``Generator.choice`` spends most of
each call validating its arguments and (for weighted draws) rebuilding
the cumulative distribution.  These helpers make the same underlying
calls ``Generator.choice`` makes for a scalar draw:

* unweighted: one ``rng.integers(0, len(pool))``;
* weighted: one ``rng.random()``, searched right-sided in
  ``cdf = p.cumsum(); cdf /= cdf[-1]``, here built once per pool.

So a world built through them is byte-identical to one built through
``rng.choice``; ``tests/platform/test_draws.py`` pins the equivalence
against the installed numpy, and the world fingerprint test pins the
result.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, TypeVar

import numpy as np

__all__ = ["cumulative", "pick", "pick_weighted"]

T = TypeVar("T")


def cumulative(probs: Sequence[float] | np.ndarray) -> list[float]:
    """The cumulative distribution ``Generator.choice`` builds from ``p``."""
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def pick(rng: np.random.Generator, pool: Sequence[T]) -> T:
    """``rng.choice(pool)`` for a scalar draw."""
    return pool[rng.integers(0, len(pool))]


def pick_weighted(
    rng: np.random.Generator, pool: Sequence[T], cdf: list[float]
) -> T:
    """``rng.choice(pool, p=p)`` for a scalar draw, given ``cumulative(p)``."""
    return pool[bisect_right(cdf, rng.random())]
