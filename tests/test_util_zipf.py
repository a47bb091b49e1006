"""Zipf sampler: rank frequencies against 1/rank^s."""

import pytest

from repro.util.rng import SeededRng
from repro.util.zipf import ZipfSampler


@pytest.fixture
def rng():
    return SeededRng(7, "zipf")


class TestConstruction:
    def test_rejects_zero_n(self, rng):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, rng)

    def test_rejects_negative_exponent(self, rng):
        with pytest.raises(ValueError):
            ZipfSampler(5, -0.5, rng)


class _FixedDraw:
    """An rng whose every ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestProbabilities:
    def test_sum_to_one(self):
        # The CDF ends at exactly 1.0: a draw just below 1 still lands
        # on rank n, however the weights' float sum rounded.
        for n, exponent in ((10, 1.2), (7, 0.0), (1000, 0.9)):
            top = ZipfSampler(n, exponent, _FixedDraw(1.0 - 2**-53))
            assert top.sample() == n
            assert ZipfSampler(n, exponent, _FixedDraw(0.0)).sample() == 1

    def test_monotone_decreasing(self, rng):
        sampler = ZipfSampler(6, 1.0, rng)
        counts = [0] * 6
        for _ in range(30000):
            counts[sampler.sample() - 1] += 1
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_exponent_zero_is_uniform(self, rng):
        sampler = ZipfSampler(4, 0.0, rng)
        n = 20000
        counts = {r: 0 for r in range(1, 5)}
        for _ in range(n):
            counts[sampler.sample()] += 1
        for r in range(1, 5):
            assert abs(counts[r] / n - 0.25) < 0.02


class TestSampling:
    def test_samples_in_range(self, rng):
        sampler = ZipfSampler(7, 1.1, rng)
        for _ in range(500):
            rank = sampler.sample()
            assert 1 <= rank <= 7

    def test_rank1_most_frequent(self, rng):
        sampler = ZipfSampler(10, 1.3, rng)
        counts = {}
        for _ in range(5000):
            rank = sampler.sample()
            counts[rank] = counts.get(rank, 0) + 1
        assert counts[1] == max(counts.values())

    def test_single_rank_is_always_drawn(self, rng):
        sampler = ZipfSampler(1, 2.0, rng)
        assert {sampler.sample() for _ in range(50)} == {1}

    def test_same_seed_same_draws(self):
        def draws():
            sampler = ZipfSampler(50, 1.1, SeededRng(7, "zipf"))
            return [sampler.sample() for _ in range(200)]

        assert draws() == draws()

    def test_steeper_exponent_concentrates_on_rank1(self):
        share = {}
        for exponent in (0.5, 1.0, 2.0):
            sampler = ZipfSampler(20, exponent, SeededRng(3, "zipf"))
            draws = [sampler.sample() for _ in range(5000)]
            share[exponent] = draws.count(1) / len(draws)
        assert share[0.5] < share[1.0] < share[2.0]

    def test_empirical_matches_theoretical(self, rng):
        sampler = ZipfSampler(5, 1.0, rng)
        n = 20000
        counts = {r: 0 for r in range(1, 6)}
        for _ in range(n):
            counts[sampler.sample()] += 1
        harmonic = sum(1.0 / r for r in range(1, 6))
        for r in range(1, 6):
            expected = 1.0 / r / harmonic
            assert abs(counts[r] / n - expected) < 0.02
