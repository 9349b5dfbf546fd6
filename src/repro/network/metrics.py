"""Traffic accounting for the simulated network.

Metrics are collected per directed link (source node, destination node) and
aggregated network-wide.  The benchmark harness uses them to report message
counts, bytes on the wire and per-transport overhead — the quantities behind
the paper's comparative claims (wrapper overhead, transport interchange,
redistribution benefit).

Since links gained finite capacity (FIFO transmission queueing in
:mod:`repro.network.simnet`), the per-link counters also track how long
messages waited for the wire and how deep the transmission queue grew, and
:class:`LatencyHistogram` summarises per-request latency distributions
(p50/p99/p999) for the load benchmarks.

A link's counters are created on its first message and held by the
simulated network's record of the link, so counting a message needs no
lookup here.  Queries only read: a link that carried nothing is neither
created nor listed.  :meth:`NetworkMetrics.reset` zeroes the counters in
place, so the records holding them count from zero again.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass
class LinkMetrics:
    """Counters for one directed link."""

    messages: int = 0
    bytes_sent: int = 0
    drops: int = 0
    total_latency: float = 0.0
    #: Messages that found the link busy and had to wait for the wire.
    queued_messages: int = 0
    #: Total time messages spent waiting for the link, in seconds.
    queue_delay_total: float = 0.0
    #: Deepest transmission backlog observed on this link.
    max_queue_depth: int = 0

    def record(
        self, size: int, latency: float, queue_delay: float = 0.0, depth: int = 0
    ) -> None:
        """Account one message of ``size`` bytes and one-way ``latency``, of
        which ``queue_delay`` seconds were spent behind ``depth`` earlier
        transmissions."""
        self.messages += 1
        self.bytes_sent += size
        self.total_latency += latency
        if queue_delay > 0.0:
            self.queued_messages += 1
            self.queue_delay_total += queue_delay
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def record_drop(self) -> None:
        self.drops += 1

    def reset(self) -> None:
        """Every counter back to zero."""
        self.__init__()

    @property
    def mean_latency(self) -> float:
        if self.messages == 0:
            return 0.0
        return self.total_latency / self.messages


class NetworkMetrics:
    """Aggregated metrics for a whole simulated network."""

    def __init__(self) -> None:
        self._links: Dict[Tuple[str, str], LinkMetrics] = {}

    def counters(self, source: str, destination: str) -> LinkMetrics:
        """The live counters of one directed link, created on first use."""
        return self._links.setdefault((source, destination), LinkMetrics())

    def link(self, source: str, destination: str) -> LinkMetrics:
        """The counters of one directed link (all zero if it carried nothing)."""
        return self._links.get((source, destination)) or LinkMetrics()

    def record(self, source: str, destination: str, size: int, latency: float) -> None:
        self.counters(source, destination).record(size, latency)

    # -- aggregates -----------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(link.messages for link in self._links.values())

    @property
    def total_bytes(self) -> int:
        return sum(link.bytes_sent for link in self._links.values())

    @property
    def total_drops(self) -> int:
        return sum(link.drops for link in self._links.values())

    @property
    def total_latency(self) -> float:
        """Sum of every message's one-way latency (queueing included)."""
        return sum(link.total_latency for link in self._links.values())

    @property
    def total_queue_delay(self) -> float:
        """Total time messages spent waiting for busy links, in seconds."""
        return sum(link.queue_delay_total for link in self._links.values())

    @property
    def total_queued_messages(self) -> int:
        """Messages that found their link busy and had to wait."""
        return sum(link.queued_messages for link in self._links.values())

    @property
    def max_queue_depth(self) -> int:
        """Deepest transmission backlog observed on any link."""
        return max(
            (link.max_queue_depth for link in self._links.values()), default=0
        )

    def messages_between(self, source: str, destination: str) -> int:
        return self.link(source, destination).messages

    def links(self) -> Dict[Tuple[str, str], LinkMetrics]:
        """The counters of every link that carried or dropped a message."""
        return {key: link for key, link in self._links.items() if link.messages or link.drops}

    def reset(self) -> None:
        """Zero every link's counters; later traffic is counted from zero."""
        for link in self._links.values():
            link.reset()

    def snapshot(self) -> dict:
        """A plain-data summary suitable for benchmark reports."""
        return {
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "drops": self.total_drops,
            "queued_messages": self.total_queued_messages,
            "queue_delay": round(self.total_queue_delay, 6),
            "max_queue_depth": self.max_queue_depth,
            "links": {
                f"{src}->{dst}": {
                    "messages": link.messages,
                    "bytes": link.bytes_sent,
                    "mean_latency": round(link.mean_latency, 6),
                    "queued_messages": link.queued_messages,
                    "queue_delay": round(link.queue_delay_total, 6),
                    "max_queue_depth": link.max_queue_depth,
                }
                for (src, dst), link in sorted(self.links().items())
            },
        }


class LatencyHistogram:
    """A fixed-memory, log-bucketed latency distribution.

    Samples land in exponentially sized buckets (``resolution * growth**i``),
    so percentiles are read with a bounded relative error of ``growth - 1``
    (4% at the default) regardless of how many requests are recorded — the
    open-loop load generator records millions of per-request latencies
    without keeping them all.  Count, sum, minimum and maximum are exact.
    """

    def __init__(self, resolution: float = 1e-6, growth: float = 1.04) -> None:
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be greater than 1")
        self._resolution = resolution
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = 0.0

    def record(self, seconds: float) -> None:
        """Add one latency sample (negative samples are clamped to zero)."""
        value = seconds if seconds > 0.0 else 0.0
        if value <= self._resolution:
            index = 0
        else:
            index = int(math.ceil(math.log(value / self._resolution) / self._log_growth))
        self._buckets[index] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram, in place.

        Per-shard / per-tenant histograms combine into one summary without
        re-recording raw samples — bucket counts add because both sides
        share the same bucket geometry, which is why mismatched
        ``resolution`` / ``growth`` is a :class:`ValueError` rather than a
        silently skewed distribution.  Returns ``self`` for chaining.
        """
        if (
            other._resolution != self._resolution
            or other._log_growth != self._log_growth
        ):
            raise ValueError(
                "cannot merge histograms with different bucket geometry: "
                f"resolution {self._resolution} vs {other._resolution}, "
                f"growth exponent {self._log_growth} vs {other._log_growth}"
            )
        for index, bucket_count in other._buckets.items():
            self._buckets[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min_value < self.min_value:
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        return self

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of the recorded samples (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, fraction: float) -> float:
        """Latency at quantile ``fraction`` (e.g. ``0.99`` for p99).

        Returns the upper bound of the bucket holding the sample, clamped to
        the exact observed extremes; 0.0 when no samples were recorded.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0
        target = math.ceil(fraction * self.count)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                upper = self._resolution * math.exp(index * self._log_growth)
                return min(max(upper, self.min_value), self.max_value)
        return self.max_value

    def summary(self) -> dict:
        """Plain-data digest: count, mean, p50/p99/p999 and extremes."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "max": self.max_value,
        }
