"""Broadcast packets and the piggybacked broadcast-state trail.

Section 5: "the broadcast packet that arrives at v carries information of h
most recently visited nodes, v1, v2, ..., vh, and the set of designated
forward neighbors, D(vi), selected at each vi (usually for small h such as
1 or 2)."  :class:`TrailEntry` is one ``(vi, D(vi))`` element and
:class:`Packet` the full in-flight unit.

TDP additionally piggybacks the sender's 2-hop neighbor set, carried in
:attr:`Packet.sender_two_hop` when the protocol requests it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

__all__ = ["TrailEntry", "Packet"]


@dataclass(frozen=True)
class TrailEntry:
    """One piggybacked visited node and its designated forward neighbors."""

    node: int
    designated: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Packet:
    """A broadcast packet in flight.

    Attributes
    ----------
    source:
        Originator of the broadcast.
    sender:
        The node whose transmission carries this copy.
    trail:
        The ``h`` most recently visited nodes, most recent first; entry 0
        is always the sender itself.
    sender_two_hop:
        The sender's 2-hop neighbor set ``N2(sender)`` when the protocol
        piggybacks it (TDP), else ``None``.
    message_id:
        Which message this copy belongs to (a single broadcast is id 0);
        the broadcast service keys all dedup and forward-set state by
        this id so concurrent messages never mix.
    payload_units:
        Abstract payload size carried on top of the control overhead
        (:class:`~repro.sim.traffic.Message.size_units`); 0 for a plain
        :func:`~repro.sim.engine.run_broadcast`, whose byte counts are
        pinned by the single-message goldens.
    expires_at:
        Absolute simulation time after which the message is stale;
        copies delivered past this instant are dropped with
        ``Drop(reason="ttl_expired")``.  ``None`` means no expiry.
    """

    source: int
    sender: int
    trail: Tuple[TrailEntry, ...] = ()
    sender_two_hop: Optional[FrozenSet[int]] = None
    message_id: int = 0
    payload_units: int = 0
    expires_at: Optional[float] = None

    def designated_by_sender(self) -> FrozenSet[int]:
        """The designated set ``D(sender)`` carried by this packet."""
        if self.trail and self.trail[0].node == self.sender:
            return self.trail[0].designated
        return frozenset()

    def size_units(self, header: int = 4) -> int:
        """Abstract packet size: header plus one unit per carried id.

        The paper repeatedly weighs broadcast-state piggybacking against
        packet size ("the broadcast packet needs to be kept relatively
        small"; TDP's 2-hop piggyback is its cost).  Counting carried
        node ids — trail nodes, their designated sets, and the optional
        ``N2(sender)`` — makes that overhead measurable without
        committing to a wire format.  The message's abstract payload
        (:attr:`payload_units`) rides on top.
        """
        size = header + self.payload_units
        for entry in self.trail:
            size += 1 + len(entry.designated)
        if self.sender_two_hop is not None:
            size += len(self.sender_two_hop)
        return size

    def expired(self, now: float) -> bool:
        """Whether the carried message is past its TTL at time ``now``."""
        return self.expires_at is not None and now > self.expires_at

    def forwarded(
        self,
        sender: int,
        designated: FrozenSet[int],
        h: int,
        sender_two_hop: Optional[FrozenSet[int]] = None,
    ) -> "Packet":
        """The packet as re-sent by ``sender``, trail truncated to ``h``."""
        if h < 0:
            raise ValueError(f"trail length h must be non-negative, got {h}")
        new_entry = TrailEntry(node=sender, designated=designated)
        trail = (new_entry, *self.trail)[:h] if h else ()
        return Packet(
            source=self.source,
            sender=sender,
            trail=trail,
            sender_two_hop=sender_two_hop,
            message_id=self.message_id,
            payload_units=self.payload_units,
            expires_at=self.expires_at,
        )

    @staticmethod
    def original(
        source: int,
        designated: FrozenSet[int],
        h: int,
        sender_two_hop: Optional[FrozenSet[int]] = None,
        message_id: int = 0,
        payload_units: int = 0,
        expires_at: Optional[float] = None,
    ) -> "Packet":
        """The first transmission, emitted by the source."""
        trail = (TrailEntry(node=source, designated=designated),)[:h] if h else ()
        return Packet(
            source=source,
            sender=source,
            trail=trail,
            sender_two_hop=sender_two_hop,
            message_id=message_id,
            payload_units=payload_units,
            expires_at=expires_at,
        )
