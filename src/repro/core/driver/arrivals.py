"""Arrival processes for open-loop (rate-controlled) load generation.

A closed-loop driver can only offer as much load as its workers can
sustain; overload, bursts and flash sales need an *open-loop* schedule
where transactions arrive at externally generated times regardless of
how fast the system answers.  An :class:`ArrivalProcess` turns a seeded
RNG into a monotone stream of absolute arrival timestamps; the
:class:`~repro.core.driver.open_loop.OpenLoopDriver` replays them on
the simulated clock.

All processes are deterministic for a given RNG state, so experiment
traces are reproducible end to end.
"""

from __future__ import annotations

import math
import random
import typing


def _require_positive(**values: float) -> None:
    """Reject a rate or span that is not finite and > 0 (NaN fails the
    comparison too): a schedule built on one never ends or never
    starts."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


class ArrivalProcess:
    """Generates absolute arrival times inside ``[start, until)``."""

    def arrival_times(self, rng: random.Random, start: float,
                      until: float) -> typing.Iterator[float]:
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalProcess":
        """A copy of this process with all rates multiplied."""
        raise NotImplementedError

    def time_scaled(self, factor: float) -> "ArrivalProcess":
        """A copy with the time axis stretched by ``factor`` (phase and
        ramp durations multiply; rates are unchanged), so shrinking an
        experiment window keeps the workload's *shape*."""
        return self


class ConstantRate(ArrivalProcess):
    """Deterministic arrivals every ``1 / rate`` seconds."""

    def __init__(self, rate: float) -> None:
        _require_positive(rate=rate)
        self.rate = rate

    def arrival_times(self, rng: random.Random, start: float,
                      until: float) -> typing.Iterator[float]:
        # Multiplicative spacing: repeated addition of 1/rate drifts
        # (0.1 * 10 < 1.0 in floats) and leaks arrivals past `until`.
        gap = 1.0 / self.rate
        index = 1
        while True:
            at = start + index * gap
            if at >= until:
                return
            yield at
            index += 1

    def scaled(self, factor: float) -> "ConstantRate":
        return ConstantRate(self.rate * factor)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps."""

    def __init__(self, rate: float) -> None:
        _require_positive(rate=rate)
        self.rate = rate

    def arrival_times(self, rng: random.Random, start: float,
                      until: float) -> typing.Iterator[float]:
        at = start + rng.expovariate(self.rate)
        while at < until:
            yield at
            at += rng.expovariate(self.rate)

    def scaled(self, factor: float) -> "PoissonArrivals":
        return PoissonArrivals(self.rate * factor)


class PhasedArrivals(ArrivalProcess):
    """A sequence of (duration, sub-process) phases played back to back.

    This is how bursty shapes are composed: a flash sale is a normal
    phase, a high-rate phase, and a normal phase again; burst-then-
    quiesce is a high-rate phase followed by a trickle.  The final
    phase is repeated if the requested window outlasts the schedule.
    """

    def __init__(self, phases: typing.Sequence[
            tuple[float, ArrivalProcess]]) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        for duration, _ in phases:
            _require_positive(duration=duration)
        self.phases = list(phases)

    def arrival_times(self, rng: random.Random, start: float,
                      until: float) -> typing.Iterator[float]:
        at = start
        index = 0
        while at < until:
            duration, process = self.phases[min(index,
                                                len(self.phases) - 1)]
            phase_end = min(at + duration, until)
            yield from process.arrival_times(rng, at, phase_end)
            at = phase_end
            index += 1

    def scaled(self, factor: float) -> "PhasedArrivals":
        return PhasedArrivals([(duration, process.scaled(factor))
                               for duration, process in self.phases])

    def time_scaled(self, factor: float) -> "PhasedArrivals":
        return PhasedArrivals([(duration * factor,
                                process.time_scaled(factor))
                               for duration, process in self.phases])


class RampArrivals(ArrivalProcess):
    """Arrival rate ramping linearly from ``start_rate`` to ``end_rate``.

    Gaps are drawn from the instantaneous rate (exponential when
    ``poisson``, deterministic otherwise), approximating a
    non-homogeneous process; past ``ramp_duration`` the end rate holds.
    Used by the overload-ramp scenario to locate the saturation knee.
    """

    def __init__(self, start_rate: float, end_rate: float,
                 ramp_duration: float, poisson: bool = True) -> None:
        _require_positive(start_rate=start_rate, end_rate=end_rate,
                          ramp_duration=ramp_duration)
        self.start_rate = start_rate
        self.end_rate = end_rate
        self.ramp_duration = ramp_duration
        self.poisson = poisson

    def rate_at(self, elapsed: float) -> float:
        fraction = min(max(elapsed / self.ramp_duration, 0.0), 1.0)
        return (self.start_rate
                + (self.end_rate - self.start_rate) * fraction)

    def arrival_times(self, rng: random.Random, start: float,
                      until: float) -> typing.Iterator[float]:
        at = start
        while True:
            rate = self.rate_at(at - start)
            gap = rng.expovariate(rate) if self.poisson else 1.0 / rate
            at += gap
            if at >= until:
                return
            yield at

    def scaled(self, factor: float) -> "RampArrivals":
        return RampArrivals(self.start_rate * factor,
                            self.end_rate * factor,
                            self.ramp_duration, self.poisson)

    def time_scaled(self, factor: float) -> "RampArrivals":
        return RampArrivals(self.start_rate, self.end_rate,
                            self.ramp_duration * factor, self.poisson)


class SinusoidArrivals(ArrivalProcess):
    """Arrival rate oscillating sinusoidally around ``base_rate``.

    ``rate(t) = base_rate * (1 + amplitude * sin(2*pi*t / period))``,
    with gaps drawn from the instantaneous rate like
    :class:`RampArrivals`.  One period is a compressed day: traffic
    swells to ``(1+amplitude)`` times the base and ebbs to
    ``(1-amplitude)`` — the diurnal shape elasticity controllers are
    sized against.  ``phase`` (fraction of a period) shifts where in
    the cycle the run starts.
    """

    def __init__(self, base_rate: float, amplitude: float = 0.6,
                 period: float = 8.0, phase: float = 0.0,
                 poisson: bool = True) -> None:
        _require_positive(base_rate=base_rate, period=period)
        if not 0 < amplitude < 1:
            raise ValueError("amplitude must be in (0, 1) so the rate "
                             "stays positive")
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period = period
        self.phase = phase
        self.poisson = poisson

    def rate_at(self, elapsed: float) -> float:
        angle = 2 * math.pi * (elapsed / self.period + self.phase)
        return self.base_rate * (1 + self.amplitude * math.sin(angle))

    def arrival_times(self, rng: random.Random, start: float,
                      until: float) -> typing.Iterator[float]:
        at = start
        while True:
            rate = self.rate_at(at - start)
            gap = rng.expovariate(rate) if self.poisson else 1.0 / rate
            at += gap
            if at >= until:
                return
            yield at

    def scaled(self, factor: float) -> "SinusoidArrivals":
        return SinusoidArrivals(self.base_rate * factor, self.amplitude,
                                self.period, self.phase, self.poisson)

    def time_scaled(self, factor: float) -> "SinusoidArrivals":
        return SinusoidArrivals(self.base_rate, self.amplitude,
                                self.period * factor, self.phase,
                                self.poisson)
