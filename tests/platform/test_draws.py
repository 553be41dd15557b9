"""The scalar draw helpers consume the stream exactly like ``rng.choice``.

World bytes depend on this: the generators replaced ``rng.choice`` with
these helpers on the promise that both make the same underlying calls.
A numpy upgrade that changes ``Generator.choice`` internals fails here
first (and then in the world fingerprint test).
"""

import numpy as np
import pytest

from repro.nlp.lexicons import BENIGN_VOCAB, OFFENSIVE_VOCAB, hate_vocab
from repro.platform.draws import cumulative, pick, pick_weighted


def _zipf(n: int) -> np.ndarray:
    probs = 1.0 / (np.arange(1, n + 1, dtype=float) + 4.0)
    return probs / probs.sum()


POOLS = [
    ("benign", BENIGN_VOCAB, _zipf(len(BENIGN_VOCAB))),
    ("offensive", OFFENSIVE_VOCAB, np.full(len(OFFENSIVE_VOCAB), 1.0 / len(OFFENSIVE_VOCAB))),
    ("hate", tuple(hate_vocab()), _zipf(len(hate_vocab()))[::-1].copy()),
    ("pair", ("heads", "tails"), np.asarray([0.3, 0.7])),
    ("skewed", ("a", "b", "c", "d"), np.asarray([0.0, 0.5, 0.0, 0.5])),
]


@pytest.mark.parametrize("seed", [0, 1, 2020, 2**40 + 7])
@pytest.mark.parametrize("name,pool,probs", POOLS, ids=[p[0] for p in POOLS])
def test_interleaved_draws_match_choice(seed, name, pool, probs):
    reference = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    array = np.asarray(pool)
    cdf = cumulative(probs)
    expected, actual = [], []
    for i in range(1000):
        if i % 3:
            expected.append(str(reference.choice(array, p=probs)))
            actual.append(pick_weighted(fast, pool, cdf))
        else:
            expected.append(str(reference.choice(array)))
            actual.append(pick(fast, pool))
        if i % 7 == 0:
            # Other draws in between, as in the world generators.
            expected.append(str(reference.integers(1, 10_000)))
            actual.append(str(fast.integers(1, 10_000)))
    assert actual == expected
    assert fast.bit_generator.state == reference.bit_generator.state

