"""Unit tests for the open-loop arrival processes."""

import random

import pytest

from repro.core.driver.arrivals import (
    ConstantRate,
    PhasedArrivals,
    PoissonArrivals,
    RampArrivals,
    SinusoidArrivals,
)


def times(process, start=0.0, until=10.0, seed=1):
    return list(process.arrival_times(random.Random(seed), start, until))


class TestConstantRate:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)

    def test_exact_spacing(self):
        arrivals = times(ConstantRate(10.0), until=1.0)
        assert len(arrivals) == 9  # 0.1 .. 0.9; 1.0 is excluded
        for index, at in enumerate(arrivals, start=1):
            assert at == pytest.approx(index * 0.1)

    def test_respects_start_offset(self):
        arrivals = times(ConstantRate(10.0), start=5.0, until=6.0)
        assert arrivals[0] == pytest.approx(5.1)
        assert all(5.0 < at < 6.0 for at in arrivals)

    def test_scaled(self):
        assert ConstantRate(10.0).scaled(2.0).rate == 20.0


class TestPoissonArrivals:
    def test_deterministic_under_seeded_rng(self):
        a = times(PoissonArrivals(50.0), seed=7)
        b = times(PoissonArrivals(50.0), seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        assert times(PoissonArrivals(50.0), seed=1) != \
            times(PoissonArrivals(50.0), seed=2)

    def test_mean_rate_within_tolerance(self):
        # 200/s over 50s -> ~10k arrivals; CLT bound ~ +-3% at 3 sigma.
        rate, horizon = 200.0, 50.0
        arrivals = times(PoissonArrivals(rate), until=horizon, seed=3)
        observed = len(arrivals) / horizon
        assert observed == pytest.approx(rate, rel=0.05)

    def test_strictly_inside_window(self):
        arrivals = times(PoissonArrivals(100.0), start=2.0, until=3.0)
        assert all(2.0 < at < 3.0 for at in arrivals)
        assert arrivals == sorted(arrivals)


class TestPhasedArrivals:
    def test_rejects_empty_or_bad_phases(self):
        with pytest.raises(ValueError):
            PhasedArrivals([])
        with pytest.raises(ValueError):
            PhasedArrivals([(0.0, ConstantRate(1.0))])

    def test_burst_phase_density(self):
        process = PhasedArrivals([
            (1.0, ConstantRate(10.0)),
            (1.0, ConstantRate(100.0)),
            (1.0, ConstantRate(10.0)),
        ])
        arrivals = times(process, until=3.0)
        calm_1 = [at for at in arrivals if at < 1.0]
        burst = [at for at in arrivals if 1.0 <= at < 2.0]
        calm_2 = [at for at in arrivals if at >= 2.0]
        assert len(calm_1) == 9
        assert len(burst) == 99  # the phase-start point is excluded
        assert len(calm_2) == 9

    def test_mean_rate_is_duration_weighted(self):
        process = PhasedArrivals([(3.0, ConstantRate(10.0)),
                                  (1.0, ConstantRate(50.0))])
        # 29 + 49 arrivals (each phase start point excluded) in 4 s.
        assert len(times(process, until=4.0)) / 4.0 == pytest.approx(19.5)

    def test_last_phase_repeats_past_schedule(self):
        process = PhasedArrivals([(1.0, ConstantRate(10.0)),
                                  (1.0, ConstantRate(100.0))])
        arrivals = times(process, until=4.0)
        tail = [at for at in arrivals if at >= 2.0]
        assert len(tail) == pytest.approx(198, abs=4)

    def test_time_scaled_preserves_shape(self):
        # Rates stay fixed while the time axis shrinks: arrivals halve
        # but the burst's *share* of the window is preserved.
        process = PhasedArrivals([(1.0, ConstantRate(10.0)),
                                  (1.0, ConstantRate(100.0))])
        full = times(process, until=2.0)
        half = times(process.time_scaled(0.5), until=1.0)
        assert len(half) == pytest.approx(len(full) / 2, abs=2)
        burst_share_full = len([at for at in full if at >= 1.0]) \
            / len(full)
        burst_share_half = len([at for at in half if at >= 0.5]) \
            / len(half)
        assert burst_share_half == pytest.approx(burst_share_full,
                                                 abs=0.02)


class TestRampArrivals:
    def test_rate_interpolates_and_clamps(self):
        ramp = RampArrivals(10.0, 110.0, ramp_duration=10.0)
        assert ramp.rate_at(0.0) == 10.0
        assert ramp.rate_at(5.0) == 60.0
        assert ramp.rate_at(10.0) == 110.0
        assert ramp.rate_at(20.0) == 110.0  # holds past the ramp

    def test_density_increases_along_ramp(self):
        ramp = RampArrivals(20.0, 200.0, ramp_duration=10.0,
                            poisson=False)
        arrivals = times(ramp, until=10.0)
        first = len([at for at in arrivals if at < 2.0])
        last = len([at for at in arrivals if at >= 8.0])
        assert last > 3 * first

    def test_deterministic_under_seeded_rng(self):
        ramp = RampArrivals(20.0, 200.0, ramp_duration=5.0)
        assert times(ramp, until=5.0, seed=9) == \
            times(ramp, until=5.0, seed=9)

    def test_time_scaled_stretches_ramp(self):
        ramp = RampArrivals(10.0, 100.0, ramp_duration=4.0)
        stretched = ramp.time_scaled(0.5)
        assert stretched.ramp_duration == 2.0
        assert stretched.rate_at(2.0) == 100.0


class TestSinusoidArrivals:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SinusoidArrivals(0.0)
        with pytest.raises(ValueError):
            SinusoidArrivals(100.0, amplitude=1.0)
        with pytest.raises(ValueError):
            SinusoidArrivals(100.0, period=0.0)

    def test_rate_swings_around_the_base(self):
        wave = SinusoidArrivals(100.0, amplitude=0.5, period=4.0)
        assert wave.rate_at(0.0) == pytest.approx(100.0)
        assert wave.rate_at(1.0) == pytest.approx(150.0)  # crest
        assert wave.rate_at(3.0) == pytest.approx(50.0)   # trough

    def test_phase_shifts_the_crest(self):
        wave = SinusoidArrivals(100.0, amplitude=0.5, period=4.0,
                                phase=0.25)
        assert wave.rate_at(0.0) == pytest.approx(150.0)

    def test_density_follows_the_wave(self):
        wave = SinusoidArrivals(120.0, amplitude=0.8, period=8.0,
                                poisson=False)
        arrivals = times(wave, until=8.0)
        crest = len([at for at in arrivals if 1.0 <= at < 3.0])
        trough = len([at for at in arrivals if 5.0 <= at < 7.0])
        assert crest > 3 * trough

    def test_deterministic_under_seeded_rng(self):
        wave = SinusoidArrivals(80.0, amplitude=0.6, period=5.0)
        assert times(wave, until=5.0, seed=9) == \
            times(wave, until=5.0, seed=9)

    def test_scaled_and_time_scaled(self):
        wave = SinusoidArrivals(100.0, amplitude=0.5, period=4.0)
        assert wave.scaled(2.0).base_rate == 200.0
        stretched = wave.time_scaled(2.0)
        assert stretched.period == 8.0
        # The same fraction through the cycle gives the same rate.
        assert stretched.rate_at(2.0) == pytest.approx(
            wave.rate_at(1.0))
