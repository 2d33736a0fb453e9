"""The unified metrics registry.

One :class:`MetricsRegistry` holds every counter and histogram
a simulated component emits, keyed by ``(name, labels)``.  The
per-layer ``*Stats`` objects (pool, server, resolver, middlebox) keep
plain integer counters (:class:`RegistryStats`) and export them into
the run's registry when their page load or crawl shard ends.

Registries are cheap and mergeable, and their metrics pickle as
themselves: a shard ships :meth:`MetricsRegistry.metrics` (pickled by
a pool worker, live in-process) and the parent absorbs them in shard
order, so ``--jobs N`` produces the same merged metrics as
``--jobs 1``.
"""

from __future__ import annotations

import bisect
import math
from typing import ClassVar, Dict, List, Mapping, Sequence, Tuple, Union

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]

#: Default histogram bucket upper bounds, in the unit of the observed
#: value (ms for durations).  ``inf`` catches the tail.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, math.inf,
)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically *used* numeric series."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Add ``other``'s value (another shard's same series)."""
        self.value += other.value

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels) or ''}={self.value})"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    Buckets are cumulative-style upper bounds; percentile estimates
    return the upper bound of the bucket containing the requested
    quantile (conservative, deterministic).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(buckets)
        if not self.bounds or self.bounds[-1] != math.inf:
            self.bounds = self.bounds + (math.inf,)
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        # First bound >= value; the trailing inf bound guarantees a hit.
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations bucket by bucket; the bounds
        must match (:class:`ValueError` otherwise)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name} bucket mismatch on merge")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding quantile ``q`` (0..1).

        No interpolation: mid quantiles return the containing bucket's
        upper bound (conservative, deterministic).  The extremes are
        exact -- ``q <= 0`` returns the observed ``min`` and ``q >= 1``
        the observed ``max`` (likewise when the quantile lands in the
        ``inf`` tail bucket).  An empty histogram reads 0.0.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= target:
                bound = self.bounds[index]
                # Clamp to the observed max: still an upper bound on
                # the true quantile, never past the data.
                return self.max if math.isinf(bound) \
                    else min(bound, self.max)
        return self.max

    def __repr__(self) -> str:
        return (f"Histogram({self.name}{dict(self.labels) or ''} "
                f"count={self.count} mean={self.mean:.2f})")


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """All metrics of one component (or one merged crawl).

    Metric identity is ``(name, sorted labels)``; asking for the same
    identity twice returns the same object, asking with a different
    kind raises.  Iteration order is registration order, which is
    deterministic for a deterministic simulation.
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}

    # -- creation / lookup -------------------------------------------------

    def _get_or_create(self, factory, name: str,
                       labels: Mapping[str, object], **kwargs) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1], **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        metric = self._get_or_create(Counter, name, labels)
        if metric.kind != "counter":
            raise TypeError(f"{name} is a {metric.kind}, not a counter")
        return metric

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        metric = self._get_or_create(Histogram, name, labels,
                                     buckets=buckets)
        if metric.kind != "histogram":
            raise TypeError(f"{name} is a {metric.kind}, not a histogram")
        return metric

    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- merge -------------------------------------------------------------

    def absorb(self, metrics: Sequence[Metric]) -> None:
        """Add another registry's :meth:`metrics` into this one, in
        their order: counters add, histograms merge bucket by bucket
        (:meth:`Histogram.merge`).  Each series is this registry's own
        object, started fresh on first sight, so nothing absorbed is
        aliased; a series whose kind differs raises :class:`TypeError`."""
        for metric in metrics:
            labels = dict(metric.labels)
            if isinstance(metric, Histogram):
                mine = self.histogram(metric.name, metric.bounds, **labels)
            else:
                mine = self.counter(metric.name, **labels)
            mine.merge(metric)


class RegistryStats:
    """Base for the per-layer ``*Stats`` objects.

    Subclasses declare ``_prefix`` and ``_counters``; each counter is a
    plain ``int`` attribute (``stats.queries += 1``).  The one reader
    of a stats object calls :meth:`export` once, when its page load or
    crawl shard ends, to add the counters to that run's registry.
    """

    _prefix: ClassVar[str] = ""
    _counters: ClassVar[Tuple[str, ...]] = ()

    def __init__(self) -> None:
        for name in self._counters:
            setattr(self, name, 0)

    def export(self, registry: MetricsRegistry) -> None:
        """Add every counter to ``registry`` as ``<prefix><name>``, in
        declaration order, zeros included."""
        for name in self._counters:
            registry.counter(self._prefix + name).inc(getattr(self, name))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in self._counters
        )
        return f"{type(self).__name__}({fields})"
