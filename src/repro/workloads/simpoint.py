"""SimPoint-like trace sampling.

The paper simulates 1B-instruction SimPoints [Sherwood et al., ASPLOS 2002]:
representative intervals chosen by clustering basic-block vectors of the full
execution.  This module provides a lightweight equivalent: the trace is
divided into fixed-size intervals, each interval is summarised by a feature
vector (PC histogram), intervals are clustered with a simple k-means, and one
representative interval per cluster is selected with a weight proportional to
its cluster's size.

Selection works on *streams*: :meth:`SimPointSampler.select_source` profiles
any :class:`~repro.workloads.trace.TraceSource` in a single pass without
materialising it, so arbitrarily long workloads can be sampled at O(intervals
x unique PCs) memory.  :func:`repro.simulation.shard.plan_simpoints` turns the
selected intervals into a weighted shard plan with warmup prefixes, and
:func:`repro.simulation.shard.run_sharded` runs it and combines the
per-interval statistics by cluster weight into whole-trace estimates.

Determinism
-----------
Clustering never touches the global :mod:`random` state: randomness comes
from a private ``random.Random`` seeded with the sampler's ``seed``, so
results are reproducible regardless of what the calling program did to the
global generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.workloads.trace import TraceSource


@dataclass(frozen=True)
class SimPointInterval:
    """A representative interval selected by the sampler."""

    start: int
    end: int
    weight: float


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


class SimPointSampler:
    """Select representative intervals of a trace via k-means on PC vectors.

    Parameters
    ----------
    interval_size:
        Micro-ops per clustering interval.
    max_clusters:
        Upper bound on k (capped by the number of intervals).
    seed:
        Seed for the private k-means initialisation RNG.
    """

    def __init__(
        self,
        interval_size: int = 2_000,
        max_clusters: int = 4,
        seed: int = 0,
    ) -> None:
        if interval_size <= 0:
            raise ValueError("interval_size must be positive")
        if max_clusters <= 0:
            raise ValueError("max_clusters must be positive")
        self.interval_size = interval_size
        self.max_clusters = max_clusters
        self.seed = seed

    def _interval_bounds(self, total: int) -> List[Tuple[int, int]]:
        bounds = []
        for start in range(0, total, self.interval_size):
            end = min(start + self.interval_size, total)
            if end - start >= max(1, self.interval_size // 2):
                bounds.append((start, end))
        if not bounds and total:
            bounds.append((0, total))
        return bounds

    def _profile_source(
        self, source: TraceSource
    ) -> Tuple[List[Dict[int, int]], Dict[int, int], int]:
        """One streaming pass: per-interval PC counts, global PC index, length."""
        pcs: Dict[int, int] = {}
        interval_counts: List[Dict[int, int]] = []
        current: Dict[int, int] = {}
        index = 0
        for uop in source:
            if index and index % self.interval_size == 0:
                interval_counts.append(current)
                current = {}
            pcs.setdefault(uop.pc, len(pcs))
            current[uop.pc] = current.get(uop.pc, 0) + 1
            index += 1
        if current:
            interval_counts.append(current)
        return interval_counts, pcs, index

    def select_source(
        self, source: TraceSource
    ) -> Tuple[List[SimPointInterval], int]:
        """Select representative intervals of any micro-op stream.

        A single pass builds the per-interval PC histograms (peak memory is
        intervals x unique PCs, independent of trace length), k-means picks
        one representative per cluster, and the stream's total micro-op count
        is returned alongside so callers can weight whole-trace statistics.
        """
        interval_counts, pcs, total = self._profile_source(source)
        bounds = self._interval_bounds(total)
        if not bounds:
            return [], total
        vectors = []
        for start, end in bounds:
            counts = interval_counts[start // self.interval_size]
            span = float(end - start) or 1.0
            vector = [0.0] * len(pcs)
            for pc, count in counts.items():
                vector[pcs[pc]] = count / span
            vectors.append(vector)

        k = min(self.max_clusters, len(vectors))
        rng = random.Random(self.seed)
        centroids = [list(vectors[i]) for i in rng.sample(range(len(vectors)), k)]
        assignment = [0] * len(vectors)
        for _ in range(12):
            changed = False
            for i, vec in enumerate(vectors):
                best = min(range(k), key=lambda c: _distance(vec, centroids[c]))
                if best != assignment[i]:
                    assignment[i] = best
                    changed = True
            for c in range(k):
                members = [vectors[i] for i in range(len(vectors)) if assignment[i] == c]
                if members:
                    centroids[c] = [
                        sum(values) / len(members) for values in zip(*members)
                    ]
            if not changed:
                break

        selected: List[SimPointInterval] = []
        count = len(vectors)
        for c in range(k):
            members = [i for i in range(len(vectors)) if assignment[i] == c]
            if not members:
                continue
            # Ties (a single-phase trace puts every interval on its centroid)
            # go to the latest interval: it has the most history before it
            # for a warmup prefix.
            representative = min(
                members, key=lambda i: (_distance(vectors[i], centroids[c]), -i)
            )
            start, end = bounds[representative]
            selected.append(
                SimPointInterval(start=start, end=end, weight=len(members) / count)
            )
        return sorted(selected, key=lambda interval: interval.start), total

