"""RAPID control channels (Section 4.2 and Section 6.2.3).

RAPID gathers an (imperfect) view of global state by exchanging metadata at
transfer opportunities.  Three channel variants are used in the paper:

* **in-band** (default): metadata shares the transfer opportunity with data
  and is charged against its byte budget.  An optional cap limits metadata
  to a fraction of the opportunity (the Figure 8 sweep).
* **local**: like in-band, but a node only describes packets in its own
  buffer — no relaying of third-party replica information (the
  ``RAPID-local`` component in Figure 14).
* **global**: an instantaneous, zero-cost oracle channel modelling a hybrid
  DTN with a thin always-on control radio (Figures 10-12).  Replica
  locations and delivery acknowledgments are globally visible.

A fourth variant, **none**, exchanges nothing at all and is the 0%%-metadata
end point of the Figure 8 sweep.
"""

from __future__ import annotations

import abc
from itertools import repeat
from typing import TYPE_CHECKING, Optional

import numpy as np

from .. import constants
from ..exceptions import ConfigurationError
from ..routing.base import TransferBudget
from .metadata import ReplicaBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rapid import RapidProtocol


class _MetadataBudget:
    """Tracks how many metadata bytes may still be sent in this exchange."""

    def __init__(
        self,
        budget: TransferBudget,
        fraction_cap: Optional[float],
        byte_scale: float = 1.0,
    ) -> None:
        self._budget = budget
        self._byte_scale = byte_scale
        if fraction_cap is None:
            self._cap_remaining = float("inf")
        else:
            self._cap_remaining = max(0.0, fraction_cap) * budget.capacity

    def allowance(self) -> float:
        """Bytes of metadata that may still be sent.

        ``metadata_capacity`` equals ``remaining`` for plain budgets and
        narrows to the contact window for time-metered link sessions, so
        whole entries are only counted as sent when their bytes fit.
        """
        return min(self._cap_remaining, self._budget.metadata_capacity())

    def consume_entries(self, num_entries: int, bytes_per_entry: float) -> int:
        """Charge as many whole entries as fit; return how many were sent."""
        bytes_per_entry *= self._byte_scale
        if num_entries <= 0 or bytes_per_entry <= 0:
            return num_entries if bytes_per_entry <= 0 else 0
        allowance = self.allowance()
        sendable = min(num_entries, int(allowance // bytes_per_entry))
        if sendable <= 0:
            return 0
        charged = self._budget.charge_metadata(sendable * bytes_per_entry)
        self._cap_remaining -= charged
        return sendable


class ControlChannel(abc.ABC):
    """Strategy describing what metadata a RAPID node sends to a peer."""

    name: str = "base"
    #: Whether metadata consumes bytes of the transfer opportunity.
    counts_bytes: bool = True

    @abc.abstractmethod
    def exchange(
        self, sender: "RapidProtocol", receiver: "RapidProtocol", now: float, budget: TransferBudget
    ) -> None:
        """Send control information from *sender* to *receiver*."""


class NoControlChannel(ControlChannel):
    """Exchange nothing: each node knows only what it observes locally."""

    name = "none"
    counts_bytes = False

    def exchange(self, sender, receiver, now, budget) -> None:  # noqa: D102
        return None


class InBandControlChannel(ControlChannel):
    """The default delayed, in-band control channel.

    Metadata is sent in decreasing order of usefulness — acknowledgments,
    the sender's buffer state (own delivery-delay estimates), meeting-time
    tables and average transfer sizes, then third-party replica information
    changed since the last exchange with this peer — until either the
    opportunity or the configured metadata cap is exhausted.  Third-party
    records cut by the budget are not re-sent until they change again,
    because the exchange time recorded for the peer advances past them
    whether or not they fit.
    """

    name = "in-band"
    counts_bytes = True

    def __init__(
        self,
        fraction_cap: Optional[float] = None,
        include_third_party: bool = True,
        byte_scale: float = 1.0,
    ) -> None:
        if fraction_cap is not None and fraction_cap < 0:
            raise ConfigurationError("fraction_cap must be non-negative")
        if byte_scale <= 0:
            raise ConfigurationError("byte_scale must be positive")
        self.fraction_cap = fraction_cap
        self.include_third_party = include_third_party
        self.byte_scale = byte_scale

    # ------------------------------------------------------------------
    def exchange(self, sender, receiver, now, budget) -> None:  # noqa: D102
        meta_budget = _MetadataBudget(budget, self.fraction_cap, self.byte_scale)

        self._send_acks(sender, receiver, now, meta_budget)
        self._send_buffer_state(sender, receiver, now, meta_budget)
        self._send_tables(sender, receiver, meta_budget)
        if self.include_third_party:
            self._send_third_party(sender, receiver, now, meta_budget)
        sender.last_metadata_exchange[receiver.node_id] = now

    # ------------------------------------------------------------------
    def _send_acks(self, sender, receiver, now, meta_budget: _MetadataBudget) -> None:
        new_acks = sorted(sender.acked - receiver.acked)
        sendable = meta_budget.consume_entries(len(new_acks), constants.RAPID_ACK_ENTRY_BYTES)
        receiver.learn_acks(new_acks[:sendable], now)

    def _send_buffer_state(self, sender, receiver, now, meta_budget: _MetadataBudget) -> None:
        """Send the sender's own delivery-delay estimates, delta-encoded.

        Only packets that are new to this peer or whose estimate changed
        appreciably since the last exchange are sent (Section 4.2).  The
        estimates last sent to each peer are gathered into a column beside
        the buffer's (``nan`` where nothing was sent), so the changed set
        is one mask over the buffer's estimates.
        """
        tolerance = constants.RAPID_ESTIMATE_TOLERANCE
        ids = sender.buffer.packet_ids
        # One pass over the whole buffer, bit-identical to a scalar
        # own_delay_estimate call per packet.
        estimates = sender.buffer_delay_estimates(now)
        sent = sender.sent_buffer_estimates.setdefault(receiver.node_id, {})
        last = np.fromiter(map(sent.get, ids, repeat(np.nan)), dtype=np.float64, count=len(ids))
        # An infinite estimate is always re-sent (its gap stays nan), so
        # inf - inf, which would warn, is never computed.
        gap = np.subtract(estimates, last, out=np.full(len(ids), np.nan), where=np.isfinite(estimates))
        unchanged = (last > 0) & (np.abs(gap) <= tolerance * last)
        changed = np.flatnonzero(~unchanged)
        sendable = meta_budget.consume_entries(len(changed), constants.RAPID_METADATA_ENTRY_BYTES)
        if sendable > 0:
            ids = np.array(ids, dtype=np.int64)[changed[:sendable]]
            estimates = estimates[changed[:sendable]]
            holders = np.full(sendable, sender.node_id, dtype=np.int64)
            updated = np.full(sendable, now, dtype=np.float64)
            receiver.metadata.merge(ReplicaBlock(ids, holders, estimates, updated), now)
            sent.update(zip(ids.tolist(), estimates.tolist()))

    def _send_tables(self, sender, receiver, meta_budget: _MetadataBudget) -> None:
        """Send meeting-time tables, charging only for entries changed since
        the last exchange with this peer (delta encoding)."""
        last_version = sender.sent_table_versions.get(receiver.node_id)
        total_entries = sender.meetings.table_size_entries() + 1
        if last_version is None:
            entries = total_entries
        else:
            entries = min(total_entries, max(1, sender.meetings.version - last_version))
        sendable = meta_budget.consume_entries(entries, constants.RAPID_TABLE_ENTRY_BYTES)
        if sendable >= entries:
            receiver.meetings.merge_from(sender.meetings)
            receiver.transfer_sizes.merge_snapshot(sender.transfer_sizes.snapshot())
            sender.sent_table_versions[receiver.node_id] = sender.meetings.version

    def _send_third_party(self, sender, receiver, now, meta_budget: _MetadataBudget) -> None:
        """Forward replica records learned since the last exchange with the peer.

        Only records whose information meaningfully changed since then are
        sent, in the sender's slot rank order; each record is one compact
        entry (packet id, holder id, quantised delay estimate).
        """
        last = sender.last_metadata_exchange.get(receiver.node_id, -1.0)
        slots = sender.metadata.entries_changed_since(last, exclude_holder=receiver.node_id)
        sendable = meta_budget.consume_entries(len(slots), constants.RAPID_METADATA_ENTRY_BYTES)
        if sendable > 0:
            receiver.metadata.merge(sender.metadata.replica_block(slots[:sendable]), now)


class LocalControlChannel(InBandControlChannel):
    """In-band exchange restricted to packets in the sender's own buffer."""

    name = "local"

    def __init__(self, fraction_cap: Optional[float] = None, byte_scale: float = 1.0) -> None:
        super().__init__(
            fraction_cap=fraction_cap, include_third_party=False, byte_scale=byte_scale
        )


class GlobalControlChannel(ControlChannel):
    """Instantaneous global control channel (hybrid DTN upper bound).

    Nothing is exchanged in-band; the protocol reads replica locations and
    per-holder delay estimates directly from the global registry, and
    delivery acknowledgments are visible to every node the moment they
    happen.
    """

    name = "global"
    counts_bytes = False

    def exchange(self, sender, receiver, now, budget) -> None:  # noqa: D102
        # The oracle makes explicit exchange unnecessary; acknowledgments
        # and replica locations are globally visible via the registry.
        return None


_CHANNELS = {
    InBandControlChannel.name: InBandControlChannel,
    LocalControlChannel.name: LocalControlChannel,
    GlobalControlChannel.name: GlobalControlChannel,
    NoControlChannel.name: NoControlChannel,
}

_ALIASES = {
    "inband": "in-band",
    "in_band": "in-band",
    "default": "in-band",
    "oracle": "global",
    "instant": "global",
}


def available_channels() -> list:
    """Names of the supported control channels."""
    return sorted(_CHANNELS)


def make_channel(
    name: str,
    fraction_cap: Optional[float] = None,
    byte_scale: float = 1.0,
) -> ControlChannel:
    """Build a control channel by name.

    Args:
        name: Channel name (``in-band``, ``local``, ``global``, ``none``).
        fraction_cap: Optional metadata cap as a fraction of each transfer
            opportunity (Figure 8).
        byte_scale: Factor applied to the per-record byte costs.  Scaled-down
            experiment configurations use it to keep the metadata-to-
            opportunity ratio of the full-scale deployment when opportunity
            sizes are shrunk (see DESIGN.md).
    """
    canonical = _ALIASES.get(name, name)
    try:
        channel_cls = _CHANNELS[canonical]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown control channel {name!r}; available: {', '.join(available_channels())}"
        ) from exc
    if channel_cls in (InBandControlChannel, LocalControlChannel):
        return channel_cls(fraction_cap=fraction_cap, byte_scale=byte_scale)
    return channel_cls()
