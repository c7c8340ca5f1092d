"""Statistical helpers used by the evaluation.

The paper reports 95% confidence intervals on simulated delays (Figure 3)
and uses a paired t-test over per source-destination pair average delays
to establish that RAPID's improvement over MaxProp is statistically
significant (Section 6.2.1, p < 0.0005).  This module wraps the small
amount of statistics needed so experiment code stays declarative.

``scipy.stats`` is imported inside the two functions that use it: this
module sits on the engine's import path, and only Figure 3 and Table 3
need a t distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float = 0.95

    @property
    def low(self) -> float:
        """Lower endpoint of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether *value* falls inside the interval (inclusive)."""
        return self.low <= value <= self.high

    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (0 when the mean is 0)."""
        if self.mean == 0:
            return 0.0
        return abs(self.half_width / self.mean)


def mean_confidence_interval(values: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of *values*."""
    from scipy import stats as scipy_stats

    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot compute a confidence interval of no data")
    mean = float(data.mean())
    if data.size == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, confidence=confidence)
    sem = float(scipy_stats.sem(data))
    if sem == 0.0 or math.isnan(sem):
        return ConfidenceInterval(mean=mean, half_width=0.0, confidence=confidence)
    half_width = float(sem * scipy_stats.t.ppf((1 + confidence) / 2.0, data.size - 1))
    return ConfidenceInterval(mean=mean, half_width=half_width, confidence=confidence)


@dataclass
class PairedTestResult:
    """Result of a paired t-test between two protocols' per-pair delays."""

    statistic: float
    p_value: float
    mean_difference: float
    num_pairs: int

    def significant(self, alpha: float = 0.0005) -> bool:
        """Whether the difference is significant at level *alpha* (paper uses 0.0005)."""
        return self.p_value < alpha


def paired_delay_test(first: Sequence[float], second: Sequence[float]) -> PairedTestResult:
    """Paired t-test between two matched sequences of per-pair delays."""
    from scipy import stats as scipy_stats

    a = np.asarray(list(first), dtype=float)
    b = np.asarray(list(second), dtype=float)
    if a.size != b.size:
        raise ValueError("paired test requires sequences of equal length")
    if a.size < 2:
        raise ValueError("paired test requires at least two pairs")
    statistic, p_value = scipy_stats.ttest_rel(a, b)
    return PairedTestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        mean_difference=float((a - b).mean()),
        num_pairs=int(a.size),
    )


def per_pair_average_delays(records) -> Dict[Tuple[int, int], float]:
    """Average delivered delay per (source, destination) pair.

    Accepts an iterable of :class:`~repro.dtn.packet.PacketRecord`.
    Pairs with no delivered packets are omitted.
    """
    sums: Dict[Tuple[int, int], float] = {}
    counts: Dict[Tuple[int, int], int] = {}
    for record in records:
        if not record.delivered:
            continue
        delay = record.delay()
        if delay is None:
            continue
        key = (record.packet.source, record.packet.destination)
        sums[key] = sums.get(key, 0.0) + delay
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def matched_pair_delays(
    first_records, second_records
) -> Tuple[List[float], List[float]]:
    """Per-pair average delays restricted to pairs present in both runs."""
    first = per_pair_average_delays(first_records)
    second = per_pair_average_delays(second_records)
    shared = sorted(set(first) & set(second))
    return [first[key] for key in shared], [second[key] for key in shared]


def moving_average(values: Sequence[float], window: int) -> List[float]:
    """Simple trailing moving average with a growing head window."""
    if window < 1:
        raise ValueError("window must be at least 1")
    result: List[float] = []
    for index in range(len(values)):
        start = max(0, index - window + 1)
        chunk = values[start : index + 1]
        result.append(sum(chunk) / len(chunk))
    return result


def relative_difference(value: float, reference: float) -> float:
    """``(value - reference) / reference`` guarded against zero division."""
    if reference == 0:
        return 0.0 if value == 0 else float("inf")
    return (value - reference) / reference


# ----------------------------------------------------------------------
# Steady-state analysis (long-horizon runs)
# ----------------------------------------------------------------------
@dataclass
class WarmupEstimate:
    """Result of MSER warm-up detection on an output series.

    ``truncation`` is the number of *raw* observations to discard before
    steady-state averaging; ``statistic`` is the minimized MSER value
    (squared standard error of the truncated mean), and ``batch_size``
    records the batching the detector ran on (5 for classic MSER-5).
    """

    truncation: int
    statistic: float
    batch_size: int
    num_batches: int

    @property
    def truncated_fraction(self) -> float:
        """Fraction of the series the estimate discards."""
        total = self.num_batches * self.batch_size
        return self.truncation / total if total else 0.0


def mser5_truncation(values: Sequence[float], batch_size: int = 5) -> WarmupEstimate:
    """MSER-5 warm-up (initialization-bias) truncation point.

    The Marginal Standard Error Rule (White 1997) batches the series
    into non-overlapping means of *batch_size* observations, then picks
    the truncation point ``d`` minimizing the squared standard error of
    the remaining batch means::

        MSER(d) = (1 / (n - d)^2) * sum_{i=d}^{n-1} (z_i - mean(z_d..z_{n-1}))^2

    Candidate truncations are restricted to the first half of the
    batched series (the standard guard against the statistic collapsing
    when only a handful of observations remain).  Returns the truncation
    in raw observations, ready to slice the original series.

    Raises:
        ValueError: when fewer than two batches of data are supplied.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    data = np.asarray(list(values), dtype=float)
    num_batches = data.size // batch_size
    if num_batches < 2:
        raise ValueError(
            f"MSER needs at least two batches of {batch_size} observations, "
            f"got {data.size}"
        )
    batched = data[: num_batches * batch_size].reshape(num_batches, batch_size)
    means = batched.mean(axis=1)
    # Suffix sums make every candidate truncation O(1): the MSER
    # statistic of the suffix starting at d follows from sum and
    # sum-of-squares of that suffix alone.
    suffix_sum = np.cumsum(means[::-1])[::-1]
    suffix_sq = np.cumsum((means ** 2)[::-1])[::-1]
    max_d = max(1, num_batches // 2)
    best_d = 0
    best_stat = math.inf
    for d in range(max_d):
        remaining = num_batches - d
        mean = suffix_sum[d] / remaining
        # Guard the tiny negative residue fp cancellation can leave.
        sse = max(0.0, float(suffix_sq[d] - remaining * mean * mean))
        stat = sse / (remaining * remaining)
        if stat < best_stat:
            best_stat = stat
            best_d = d
    return WarmupEstimate(
        truncation=best_d * batch_size,
        statistic=best_stat,
        batch_size=batch_size,
        num_batches=num_batches,
    )


def batch_means_interval(
    values: Sequence[float],
    num_batches: int = 20,
    confidence: float = 0.95,
    warmup: int = 0,
) -> ConfidenceInterval:
    """Batch-means confidence interval of a steady-state mean.

    Discards the first *warmup* observations (e.g. the
    :func:`mser5_truncation` point), splits the remainder into
    *num_batches* equal non-overlapping batches (a tail shorter than a
    batch is dropped), and forms a Student-t interval over the batch
    means.  Batching absorbs the autocorrelation a raw per-observation
    t-interval would ignore, which is why it is the standard steady-state
    estimator for simulation output.

    Raises:
        ValueError: when the post-warmup series cannot fill
            *num_batches* batches of at least one observation each.
    """
    if num_batches < 2:
        raise ValueError("batch_means_interval needs at least 2 batches")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    data = np.asarray(list(values), dtype=float)[warmup:]
    batch_size = data.size // num_batches
    if batch_size < 1:
        raise ValueError(
            f"need at least {num_batches} post-warmup observations, got {data.size}"
        )
    batched = data[: num_batches * batch_size].reshape(num_batches, batch_size)
    return mean_confidence_interval(batched.mean(axis=1), confidence=confidence)
