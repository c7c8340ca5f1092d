"""Estimate Delay: RAPID's delay-inference algorithm (Section 4.1).

A node estimates the expected remaining delivery delay ``A(i)`` of a packet
from three ingredients:

1. for every node ``j`` believed to carry a replica, the number of meetings
   with the destination needed to flush the bytes queued ahead of the
   packet, ``n_j(i) = ceil((b_j(i) + s_i) / B_j)`` (Algorithm 2, steps 2-4;
   the packet's own size is included so the very first packet in a queue
   still needs one meeting; computed per holder by
   :meth:`~repro.core.rapid.RapidProtocol.own_delay_estimate` and its
   batched twin);
2. the expected inter-meeting time ``E(M_jZ)`` between the replica holder
   and the destination, approximated as exponential (Section 4.1.2), giving
   a per-replica direct-delivery delay ``d_j(i) = E(M_jZ) * n_j(i)``;
3. the independence assumption of Assumption 2: the remaining delay is the
   minimum of the per-replica delays, treated as independent exponentials,
   so ``A(i) = 1 / sum_j (1 / d_j(i))`` (Eq. 8/9) and
   ``P(a(i) < t) = 1 - exp(-t * sum_j 1/d_j(i))`` (Eq. 7).

All functions cope with infinite expected meeting times ("never meet",
Section 4.1.2): a replica whose holder cannot reach the destination within
``h`` hops contributes a rate of zero.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .. import constants


def delivery_rate_sum(
    delays: np.ndarray, rows: np.ndarray, count: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorised :func:`delivery_rate` over *count* flattened delay lists.

    ``delays[k]`` belongs to row ``rows[k]``, and each row's delays appear
    in the order the scalar fold takes them.  ``np.bincount`` adds its
    weights one by one in input order, so every row's rate is the scalar
    left-to-right accumulation bit for bit: it starts at ``0.0``, and an
    infinite delay adds ``1/inf == 0.0``, the IEEE-754 identity on a
    non-negative partial sum, just as the scalar fold skips it.

    Returns ``(rate, degenerate)``: the folded rates plus a boolean mask of
    rows containing a non-positive delay, for which the scalar function
    early-returns ``inf`` — callers must apply the mask (the folded value
    of such a row is unspecified: its non-positive delays add nothing).
    """
    positive = delays > 0
    inverse = np.divide(1.0, delays, out=np.zeros(len(delays)), where=positive)
    degenerate = np.bincount(rows[~positive], minlength=count) > 0
    return np.bincount(rows, inverse, count), degenerate


def fold_extra_delay(
    rate: np.ndarray, degenerate: np.ndarray, extra_delays: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Fold one more replica delay into :func:`delivery_rate_sum` results.

    Appending a delay to the scalar fold's input list adds exactly one
    more ``rate += 1/d`` step (:func:`add_delay_to_rate`), so the updated
    rate is bit-identical to refolding the extended list from scratch (a
    non-positive delay marks its row degenerate instead).
    """
    positive = extra_delays > 0
    inverse = np.divide(1.0, extra_delays, out=np.zeros(len(extra_delays)), where=positive)
    return rate + inverse, degenerate | ~positive


def combined_remaining_delay_array(
    rate: np.ndarray, degenerate: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`combined_remaining_delay` from folded rates.

    Element ``i`` equals ``combined_remaining_delay(delays_i)`` bit for
    bit: a zero rate means no replica can reach the destination
    (:data:`~repro.constants.NEVER_MEET`), a degenerate row (some delay
    ``<= 0``) means immediate delivery (``0.0``), and otherwise the
    reciprocal — including the one-replica case, where the scalar path
    computes ``1.0 / (1.0 / d)`` rather than returning ``d`` directly.
    """
    never = np.full(len(rate), constants.NEVER_MEET)
    combined = np.divide(1.0, rate, out=never, where=rate != 0.0)
    return np.where(degenerate | np.isinf(rate), 0.0, combined)


def delivery_rate(delays: Iterable[float]) -> float:
    """Total delivery rate ``sum_j 1/d_j`` of a set of per-replica delays."""
    rate = 0.0
    for delay in delays:
        if delay is None:
            continue
        if delay <= 0:
            # A replica co-located with the destination delivers immediately;
            # model it as an arbitrarily large rate.
            return float("inf")
        if math.isinf(delay):
            continue
        rate += 1.0 / delay
    return rate


def add_delay_to_rate(rate: float, delay: Optional[float]) -> float:
    """:func:`delivery_rate` of a delay list extended by *delay*, given the list's *rate*.

    One more step of the left fold under the same rules (``None`` and an
    infinite delay add nothing, a delay ``<= 0`` makes the rate infinite,
    an infinite *rate* stays infinite), so for the non-NaN delays RAPID
    estimates it is bit-identical to refolding the extended list.
    """
    if delay is None:
        return rate
    if delay <= 0:
        return float("inf")
    if math.isinf(delay):
        return rate
    return rate + 1.0 / delay


def remaining_delay_from_rate(rate: float) -> float:
    """``A(i)`` from the replicas' :func:`delivery_rate` (Eq. 8/9).

    Returns infinity when no replica can reach the destination.
    """
    if rate == 0.0:
        return constants.NEVER_MEET
    if math.isinf(rate):
        return 0.0
    return 1.0 / rate


def combined_remaining_delay(delays: Sequence[float]) -> float:
    """``A(i)``: expected remaining delay given per-replica delays (Eq. 8/9)."""
    return remaining_delay_from_rate(delivery_rate(delays))


def probability_within_from_rate(rate: float, window: float) -> float:
    """``P(a(i) < window)`` from the replicas' :func:`delivery_rate` (Eq. 7)."""
    if window <= 0 or rate == 0.0:
        return 0.0
    if math.isinf(rate):
        return 1.0
    return 1.0 - math.exp(-rate * window)


def delivery_probability_within(delays: Sequence[float], window: float) -> float:
    """``P(a(i) < window)`` under the exponential-mixture model (Eq. 7)."""
    return probability_within_from_rate(delivery_rate(delays), window)


def uniform_exponential_remaining_delay(mean_meeting_time: float, num_replicas: int) -> float:
    """Closed form for the unconstrained uniform-exponential case.

    With ``k`` replicas and uniform mean meeting time ``1/lambda`` and no
    bandwidth restriction, ``A(i) = 1 / (k * lambda)`` (Section 4.1.1).
    Used by tests as an analytic cross-check of the general machinery.
    """
    if mean_meeting_time <= 0:
        raise ValueError("mean_meeting_time must be positive")
    if num_replicas < 1:
        raise ValueError("num_replicas must be at least 1")
    return mean_meeting_time / num_replicas
