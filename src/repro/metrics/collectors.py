"""Measurement collectors with warmup-aware windows.

httperf semantics are preserved deliberately:

* only *successful* replies contribute to response-time statistics (the
  paper explains httpd2's deceptively low response times by exactly this
  exclusion);
* client-timeout and connection-reset errors are counted separately;
* rates are computed over the measurement window, which starts after a
  warmup period so steady-state behaviour is reported.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from ..sim.core import Simulator

__all__ = [
    "StatAccumulator",
    "IntervalSeries",
    "MetricsHub",
    "CLIENT_TIMEOUT",
    "CONNECTION_RESET",
]

#: Error kinds, matching httperf's client-timo / connreset counters.
CLIENT_TIMEOUT = "client_timeout"
CONNECTION_RESET = "connection_reset"

#: Cap on retained samples per accumulator (memory guard for long runs).
_MAX_SAMPLES = 250_000


class StatAccumulator:
    """Streaming summary statistics plus retained samples for quantiles.

    Mean/std/min/max are exact.  Percentiles come from the retained
    samples: all of them up to ``_MAX_SAMPLES``, beyond which a seeded
    reservoir (Vitter's Algorithm R) keeps a uniform random subset —
    so quantiles of very long runs stay unbiased instead of reflecting
    only the first N observations.  ``samples_dropped`` counts the
    observations not retained.
    """

    __slots__ = ("count", "total", "total_sq", "min", "max", "_samples",
                 "samples_dropped", "_rng")

    def __init__(self, seed: int = 0x5EED) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self.samples_dropped = 0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < _MAX_SAMPLES:
            self._samples.append(value)
        else:
            # Reservoir: keep each of the `count` values with equal
            # probability _MAX_SAMPLES / count.
            j = self._rng.randrange(self.count)
            if j < _MAX_SAMPLES:
                self._samples[j] = value
            self.samples_dropped += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.total_sq / self.count - self.mean**2
        return math.sqrt(max(0.0, var))

    def percentile(self, q: float) -> float:
        """q in [0, 100]; 0.0 when no samples."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> Dict[str, float]:
        """Dict of count/mean/std/min/max and key percentiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "samples_dropped": self.samples_dropped,
        }


class IntervalSeries:
    """Per-interval event counts (1-second bins by default)."""

    __slots__ = ("bin_width", "_bins")

    def __init__(self, bin_width: float = 1.0) -> None:
        self.bin_width = bin_width
        self._bins: Dict[int, float] = defaultdict(float)

    def add(self, t: float, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into the bin containing time ``t``."""
        self._bins[int(t // self.bin_width)] += amount

    def rates(self) -> List[float]:
        """Per-bin rates over the observed span (gaps are zeros)."""
        if not self._bins:
            return []
        lo, hi = min(self._bins), max(self._bins)
        return [
            self._bins.get(i, 0.0) / self.bin_width for i in range(lo, hi + 1)
        ]

    def coefficient_of_variation(self) -> float:
        """Stability measure: std/mean of per-bin rates (0 = steady)."""
        rates = self.rates()
        if len(rates) < 2:
            return 0.0
        arr = np.asarray(rates)
        mean = arr.mean()
        return float(arr.std() / mean) if mean > 0 else 0.0


class MetricsHub:
    """All measurement for one run, gated to [warmup, warmup + duration)."""

    def __init__(
        self,
        sim: Simulator,
        warmup: float,
        duration: float,
        stat_seed: int = 0x5EED,
    ) -> None:
        if warmup < 0 or duration <= 0:
            raise ValueError("warmup must be >= 0 and duration > 0")
        self.sim = sim
        self.window_start = warmup
        self.window_end = warmup + duration
        self.duration = duration

        self.replies = 0
        self.errors: Dict[str, int] = defaultdict(int)
        self.bytes_received = 0
        self.sessions_completed = 0
        self.connections_established = 0

        # stat_seed only matters past _MAX_SAMPLES retained samples, but
        # per-replica hubs in a cluster derive distinct seeds from
        # (seed, rid) so reservoir decisions never alias across replicas.
        self.response_time = StatAccumulator(seed=stat_seed)
        self.time_to_first_byte = StatAccumulator(seed=stat_seed)
        self.connection_time = StatAccumulator(seed=stat_seed)

        self.reply_series = IntervalSeries()

    # -- gating ------------------------------------------------------------
    def in_window(self, t: Optional[float] = None) -> bool:
        """True when ``t`` (default: now) is inside the measured window."""
        t = self.sim.now if t is None else t
        return self.window_start <= t < self.window_end

    @property
    def samples_dropped(self) -> int:
        """Observations the quantile reservoirs did not retain.

        Nonzero means reported percentiles are estimates over a uniform
        subsample; surfaced per replica in the cluster aggregate stats
        so reservoir truncation is never silent.
        """
        return (
            self.response_time.samples_dropped
            + self.time_to_first_byte.samples_dropped
            + self.connection_time.samples_dropped
        )

    # -- recording ---------------------------------------------------------
    def record_reply(
        self, response_time: float, ttfb: float, nbytes: int
    ) -> None:
        """A successful reply completed now."""
        if not self.in_window():
            return
        self.replies += 1
        self.bytes_received += nbytes
        self.response_time.add(response_time)
        self.time_to_first_byte.add(ttfb)
        self.reply_series.add(self.sim.now - self.window_start)

    def record_error(self, kind: str) -> None:
        """Count one error of ``kind`` (httperf error classes)."""
        if not self.in_window():
            return
        self.errors[kind] += 1

    def record_errors(self, kind: str, count: int) -> None:
        """Count ``count`` errors of ``kind`` in one batch.

        The aggregated twin of :meth:`record_error`, used by the fluid
        client model when a whole cohort abandons at once.
        """
        if count <= 0 or not self.in_window():
            return
        self.errors[kind] += count

    def record_connection(self, connection_time: float) -> None:
        """Record one successful TCP establishment."""
        if not self.in_window():
            return
        self.connections_established += 1
        self.connection_time.add(connection_time)

    def record_session(self) -> None:
        """Count one fully completed session."""
        if self.in_window():
            self.sessions_completed += 1

    # -- derived -------------------------------------------------------------
    @property
    def throughput_rps(self) -> float:
        return self.replies / self.duration

    def error_rate(self, kind: str) -> float:
        """Errors of ``kind`` per second of measurement window."""
        return self.errors.get(kind, 0) / self.duration

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bytes_received / self.duration
