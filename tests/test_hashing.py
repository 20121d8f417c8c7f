"""Tests for repro.hashing: mixers, k-wise hashing, nested sampling."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.hashing.kwise import MERSENNE_P, KWiseHash
from repro.hashing.mix import SplitMix64, splitmix64
from repro.hashing.sampling import SamplingHash

KEYS = st.integers(min_value=0, max_value=2**64 - 1)


class TestSplitMix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_range(self):
        for key in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(key) < 2**64

    def test_distinct_keys_usually_distinct_values(self):
        values = {splitmix64(k) for k in range(1000)}
        assert len(values) == 1000

    def test_seeded_instances_agree(self):
        a, b = SplitMix64(7), SplitMix64(7)
        assert all(a(k) == b(k) for k in range(100))

    def test_different_seeds_differ(self):
        a, b = SplitMix64(1), SplitMix64(2)
        assert any(a(k) != b(k) for k in range(10))

    def test_avalanche_rough(self):
        # Flipping one input bit should flip ~half the output bits.
        h = SplitMix64(0)
        total = 0
        trials = 200
        for k in range(trials):
            flipped = h(k) ^ h(k ^ 1)
            total += bin(flipped).count("1")
        assert 20 < total / trials < 44

    @given(KEYS)
    @settings(max_examples=200)
    def test_output_in_range_property(self, key):
        assert 0 <= splitmix64(key) < 2**64


class TestKWiseHash:
    def test_rejects_small_k(self):
        with pytest.raises(ParameterError):
            KWiseHash(k=1)

    def test_deterministic(self):
        h = KWiseHash(k=4, seed=9)
        assert h(123) == h(123)

    def test_range(self):
        h = KWiseHash(k=4, seed=9)
        for key in (0, 1, MERSENNE_P - 1, MERSENNE_P, 2**64):
            assert 0 <= h(key) < MERSENNE_P

    @pytest.mark.parametrize("k", [2, 4, 20])
    def test_matches_big_int_horner(self, k):
        # The division-free Mersenne fold against plain big-int Horner
        # evaluation, including keys at and beyond p.
        p = MERSENNE_P
        rng = random.Random(k)
        keys = [0, 1, p - 1, p, p + 1, 2 * p, 1 << 61, 2**64 - 1, 2**80]
        keys += [rng.randrange(2**64) for _ in range(500)]
        extreme = KWiseHash.from_coefficients((p - 1,) * k)
        for h in (KWiseHash(k=k, seed=k), extreme):
            for key in keys:
                acc = 0
                for coefficient in h.coefficients:
                    acc = (acc * key + coefficient) % p
                assert h(key) == acc

    def test_pairwise_independence_statistics(self):
        # For random seeds, Pr[h(a) mod 2 == h(b) mod 2] should be ~1/2.
        agree = 0
        trials = 400
        for seed in range(trials):
            h = KWiseHash(k=2, seed=seed)
            agree += (h(17) & 1) == (h(29) & 1)
        assert 0.4 < agree / trials < 0.6

    def test_k_property(self):
        assert KWiseHash(k=7, seed=0).k == 7

    @given(st.integers(min_value=0, max_value=2**80))
    @settings(max_examples=100)
    def test_range_property(self, key):
        h = KWiseHash(k=3, seed=5)
        assert 0 <= h(key) < MERSENNE_P


class TestSamplingHash:
    def test_rate_one_samples_everything(self):
        h = SamplingHash(seed=1)
        assert all(h.is_sampled(k, 1) for k in range(200))

    def test_rejects_non_power_of_two(self):
        h = SamplingHash(seed=1)
        with pytest.raises(ParameterError):
            h.is_sampled(5, 3)
        with pytest.raises(ParameterError):
            h.is_sampled(5, 0)

    def test_residue_matches_mod(self):
        h = SamplingHash(seed=2)
        for key in range(50):
            assert h.residue(key, 8) == h.value(key) % 8

    @given(KEYS, st.integers(min_value=0, max_value=20))
    @settings(max_examples=300)
    def test_nested_sampling_property(self, key, log_rate):
        """Fact 1(b): sampled at rate 1/2R implies sampled at rate 1/R."""
        h = SamplingHash(seed=77)
        rate = 2**log_rate
        if h.is_sampled(key, 2 * rate):
            assert h.is_sampled(key, rate)

    def test_sampling_rate_statistics(self):
        h = SamplingHash(seed=3)
        rate = 8
        sampled = sum(h.is_sampled(k, rate) for k in range(8000))
        expected = 8000 / rate
        assert abs(sampled - expected) < 4 * math.sqrt(expected)

    def test_kwise_base_also_nests(self):
        h = SamplingHash(KWiseHash(k=8, seed=4))
        for key in range(2000):
            if h.is_sampled(key, 16):
                assert h.is_sampled(key, 8)
                assert h.is_sampled(key, 4)

    def test_independent_seeds_sample_different_sets(self):
        a = SamplingHash(seed=10)
        b = SamplingHash(seed=11)
        sampled_a = {k for k in range(4000) if a.is_sampled(k, 8)}
        sampled_b = {k for k in range(4000) if b.is_sampled(k, 8)}
        assert sampled_a != sampled_b


class TestSamplingUniformity:
    def test_low_bits_unbiased(self):
        h = SamplingHash(seed=5)
        rng = random.Random(0)
        ones = sum(h.value(rng.randrange(2**60)) & 1 for _ in range(4000))
        assert 1800 < ones < 2200
