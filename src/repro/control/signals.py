"""Typed runtime signals: the one schema every stack reports through.

Before the control plane each stack exposed its own ad-hoc
``runtime_stats()`` dict (four shapes, four key sets) and anything that
wanted a cross-platform signal — the autoscaler, the elasticity report,
a test — had to know all four.  This module defines the two typed
snapshots that replace those reads for control purposes:

:class:`PlatformStats`
    The *app-side* half: cluster shape (live/draining/total silos),
    working-set residency and substrate message counts.  Every
    implementation of :class:`~repro.apps.base.MarketplaceApp` returns
    one from ``platform_stats()`` with identical fields and types —
    the dataclass is the documented contract and
    ``tests/test_control.py`` holds the four stacks to it.  The legacy
    ``runtime_stats()`` dicts are untouched (their shapes are baked
    into committed payloads); they are now the *extras*, not the API.

:class:`RuntimeSignals`
    The full control snapshot: platform stats plus the *driver-side*
    half — queue-delay percentiles over a sliding window, error rate,
    backlog and offered rate — assembled by a
    :class:`~repro.control.plane.ControlPlane`.  This is what the
    :class:`~repro.control.autoscaler.Autoscaler` samples once per
    simulated second.

:class:`SignalWindow` is the sliding-window aggregator the open-loop
driver feeds on every dispatch/completion; it never touches an RNG, so
tapping it is invisible to run determinism.
"""

from __future__ import annotations

import collections
import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class PlatformStats:
    """App-side control counters, uniform across the four stacks.

    ``silos`` means whatever the platform scales by: Orleans silos on
    the actor stacks, partition workers on the dataflow stack.
    ``resident``/``paged`` are the working-set split (hot activations
    vs. state paged to storage); ``messages`` counts substrate messages
    handled (sent on the actor stacks, processed on the dataflow one).
    """

    silos_live: int
    silos_draining: int
    silos_total: int
    resident: int
    paged: int
    messages: int


@dataclasses.dataclass(frozen=True)
class RuntimeSignals:
    """One control-plane snapshot: driver-side load + app-side shape.

    Queue-delay figures are seconds over the plane's sliding window
    (arrival -> dispatch, the open-loop driver's queueing delay);
    ``error_rate`` is failed+aborted over all completions in the same
    window; ``arrival_rate`` is offered arrivals/second over it.
    """

    time: float
    queue_delay_p95: float
    queue_delay_mean: float
    queue_samples: int
    error_rate: float
    errors: int
    completions: int
    arrival_rate: float
    queue_length: int
    in_flight: int
    silos_live: int
    silos_draining: int
    silos_total: int
    resident: int
    paged: int
    messages: int


class SignalWindow:
    """Sliding-window aggregation of driver-side load observations.

    The open-loop driver feeds it on every arrival, dispatch and
    completion (warm-up included — the controller must see load the
    metrics window deliberately discards).  Observations older than
    ``window`` seconds are pruned on read.  Pure bookkeeping: no RNG,
    no simulated time, so the tap cannot perturb a run.
    """

    def __init__(self, window: float = 3.0) -> None:
        if not 0 < window < math.inf:
            raise ValueError(f"window must be finite and > 0, got {window}")
        self.window = window
        self._delays: collections.deque[tuple[float, float]] = \
            collections.deque()
        self._outcomes: collections.deque[tuple[float, bool]] = \
            collections.deque()
        self._arrivals: collections.deque[float] = collections.deque()

    # ------------------------------------------------------------------
    # feeds (called by the open-loop driver)
    # ------------------------------------------------------------------
    def observe_arrival(self, at: float) -> None:
        self._arrivals.append(at)

    def observe_queue_delay(self, at: float, delay: float) -> None:
        self._delays.append((at, delay))

    def observe_outcome(self, at: float, status: str) -> None:
        # "rejected" is a business outcome (e.g. product unavailable),
        # not a platform error; the availability timeline counts only
        # failed/aborted and the error-rate signal matches it.
        self._outcomes.append((at, status in ("failed", "aborted")))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        horizon = now - self.window
        for series in (self._delays, self._outcomes):
            while series and series[0][0] < horizon:
                series.popleft()
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()

    def snapshot(self, now: float) -> dict:
        """The driver-side half of a :class:`RuntimeSignals`."""
        self._prune(now)
        delays = [delay for _, delay in self._delays]
        errors = sum(1 for _, failed in self._outcomes if failed)
        completions = len(self._outcomes)
        span = min(self.window, now) or self.window
        ordered = sorted(delays)
        p95 = 0.0
        if ordered:
            p95 = ordered[max(1, math.ceil(0.95 * len(ordered))) - 1]
        return {
            "queue_delay_p95": p95,
            "queue_delay_mean": (sum(delays) / len(delays)
                                 if delays else 0.0),
            "queue_samples": len(delays),
            "error_rate": errors / completions if completions else 0.0,
            "errors": errors,
            "completions": completions,
            "arrival_rate": len(self._arrivals) / span,
        }
