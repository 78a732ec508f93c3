"""Unit tests for the delay models."""

import random

import pytest

from repro.sim.latency import (
    AsynchronousWindows,
    FixedDelay,
    LogNormalDelay,
    PerLinkDelay,
    SlowProcessDelay,
    UniformDelay,
)


@pytest.fixture
def rng():
    return random.Random(42)


class TestFixedDelay:
    def test_sample_is_constant(self, rng):
        model = FixedDelay(2.0)
        assert model.sample("a", "b", 0.0, rng) == 2.0
        assert model.bound("a", "b") == 2.0

    def test_suggested_timer_covers_round_trip(self):
        assert FixedDelay(1.0).suggested_timer(margin=0.5) == 2.5


class TestUniformDelay:
    def test_samples_within_bounds(self, rng):
        model = UniformDelay(0.5, 1.5)
        for _ in range(100):
            sample = model.sample("a", "b", 0.0, rng)
            assert 0.5 <= sample <= 1.5
        assert model.bound("a", "b") == 1.5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)


class TestLogNormalDelay:
    def test_unbounded_model_has_no_bound(self, rng):
        model = LogNormalDelay(median=1.0, sigma=0.5)
        assert model.bound("a", "b") is None
        assert model.sample("a", "b", 0.0, rng) > 0

    def test_suggested_timer_falls_back_to_constant(self):
        assert LogNormalDelay().suggested_timer() == 50.0


class TestPerLinkDelay:
    def test_override_applies_to_specific_link_only(self, rng):
        model = PerLinkDelay(base=FixedDelay(1.0), overrides={("w", "s1"): FixedDelay(9.0)})
        assert model.sample("w", "s1", 0.0, rng) == 9.0
        assert model.sample("w", "s2", 0.0, rng) == 1.0

    def test_bound_is_per_link_and_timer_covers_the_slowest(self):
        model = PerLinkDelay(base=FixedDelay(1.0), overrides={("w", "s1"): FixedDelay(9.0)})
        assert model.bound("w", "s1") == 9.0
        assert model.bound("w", "s2") == 1.0
        assert model.suggested_timer(margin=0.5) == 18.5

    def test_unbounded_override_leaves_other_links_bounded(self):
        model = PerLinkDelay(base=FixedDelay(1.0), overrides={("w", "s1"): LogNormalDelay()})
        assert model.bound("w", "s1") is None
        assert model.bound("w", "s2") == 1.0
        assert model.suggested_timer() == model.unbounded_fallback


class TestSlowProcessDelay:
    def test_extra_delay_applies_to_slow_processes(self, rng):
        model = SlowProcessDelay(base=FixedDelay(1.0), slow_processes={"s3"}, extra_delay=50.0)
        assert model.sample("w", "s3", 0.0, rng) == 51.0
        assert model.sample("s3", "w", 0.0, rng) == 51.0
        assert model.sample("w", "s1", 0.0, rng) == 1.0

    def test_clients_keep_their_base_timer(self):
        model = SlowProcessDelay(base=FixedDelay(1.0), slow_processes={"s3"}, extra_delay=50.0)
        assert model.suggested_timer(margin=0.5) == 2.5


class TestAsynchronousWindows:
    def test_extra_delay_only_inside_window(self, rng):
        model = AsynchronousWindows(base=FixedDelay(1.0), windows=((10.0, 20.0, 30.0),))
        assert model.sample("w", "s1", 5.0, rng) == 1.0
        assert model.sample("w", "s1", 15.0, rng) == 31.0
        assert model.sample("w", "s1", 25.0, rng) == 1.0

    def test_timer_uses_base_bound(self):
        model = AsynchronousWindows(base=FixedDelay(1.0), windows=((10.0, 20.0, 30.0),))
        assert model.suggested_timer(margin=0.5) == 2.5
