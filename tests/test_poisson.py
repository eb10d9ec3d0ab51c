"""The package's Poisson stream against numpy's, draw for draw."""

import math
import random

import pytest

from temporalsim._poisson import MAX_MEAN, _doubles, _seed_words, poisson

np = pytest.importorskip("numpy")

SEEDS = [*range(51), 2 ** 64, 2 ** 64 + 1, 2 ** 96 + 7, 2 ** 128 - 1,
         2 ** 160 + 3]
MEANS = [0.0, 1e-9, 2.5, 9.999999, 10.0, 13.7, 1500.0, 1e6, 1e12, 1e18,
         MAX_MEAN]


def _numpy(seed, mean):
    return int(np.random.default_rng(seed).poisson(mean))


def test_bound_is_numpys():
    int64_max = np.iinfo(np.int64).max
    assert MAX_MEAN == float(int64_max - np.sqrt(int64_max) * 10)
    with pytest.raises(ValueError):
        np.random.default_rng(0).poisson(math.nextafter(MAX_MEAN, math.inf))


@pytest.mark.parametrize("seed", SEEDS)
def test_each_stage_matches_numpy(seed):
    assert _seed_words(seed) == [
        int(w) for w in np.random.SeedSequence(seed).generate_state(
            4, np.uint64)]
    ref = np.random.Generator(np.random.PCG64(seed))
    draw = _doubles(seed)
    assert [next(draw) for _ in range(8)] == [ref.random() for _ in range(8)]


def test_grid_matches_numpy():
    mismatches = [(s, m) for s in SEEDS for m in MEANS
                  if poisson(s, m) != _numpy(s, m)]
    assert mismatches == []


def test_random_pairs_match_numpy():
    # Means spread over both of numpy's methods, its rejection tail near
    # 10 and every decade up to the bound; seeds of one to seven words.
    rng = random.Random(20240)
    pairs = []
    for _ in range(20_000):
        seed = rng.getrandbits(rng.choice([4, 16, 32, 64, 100, 128, 224]))
        mean = rng.choice([rng.uniform(0, 10), rng.uniform(10, 40),
                           10 ** rng.uniform(1, 18.9),
                           rng.uniform(0, MAX_MEAN)])
        pairs.append((seed, mean))
    mismatches = [(s, m) for s, m in pairs if poisson(s, m) != _numpy(s, m)]
    assert mismatches == []
