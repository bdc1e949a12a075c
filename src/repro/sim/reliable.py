"""NACK-based recovery: reliable broadcast on a lossy MAC.

The paper's assumption 1 (error-free transmission) is justified by
pointing at reliable broadcast protocols that add "transmission
redundancy and confirmation", and Stojmenovic's algorithm "suggests
rebroadcasting after negative acknowledgements".  This module implements
that recovery sublayer:

* phase 1 — the ordinary broadcast runs to quiescence (any protocol, any
  MAC, including the collision model);
* phase 2 — recovery rounds: every node still missing the packet learns,
  through the periodic hello exchange, which neighbors hold it and sends
  a NACK to the lowest-id holder; NACKed holders retransmit once.  Rounds
  repeat until everyone is covered or no progress is possible.

Retransmissions go through the same MAC, so a collision-prone channel
can also lose recovery copies — rounds simply continue.  On a connected
graph with a non-degenerate MAC the process converges: every round with
an uncovered node adjacent to a covered one makes progress with positive
probability, and the round budget bounds the worst case.

Recovery work is observable: NACKs and retransmissions are published as
typed :class:`~repro.sim.events.Nack` / :class:`~repro.sim.events.Transmit`
events on the session's bus and tallied into the active
:func:`repro.instrument.collecting` scope.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..algorithms.base import BroadcastProtocol
from ..graph.topology import Topology
from ..instrument import _STACK as _COUNTER_STACK
from .engine import BroadcastOutcome, SimulationEnvironment, run_broadcast
from .events import NULL_BUS, Deliver, Drop, EventBus, Nack, Transmit
from .mac import IdealMac, MacModel

__all__ = ["ReliableOutcome", "ReliableBroadcastSession", "reliable_seed"]

#: Monotone sequence distinguishing same-process default-seeded sessions.
_SESSION_SEQUENCE = itertools.count()


def reliable_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :class:`ReliableBroadcastSession`.

    ``sha256("ReliableBroadcastSession|{sequence}")`` truncated to 64
    bits — the same derivation as
    :func:`repro.sim.service.service_seed`, under a recovery-specific tag
    so lossy-MAC and backoff draws never correlate with other streams.
    A shared fixed default (the old ``Random(0)``) made every
    default-seeded recovery session in a process replay the identical
    loss pattern; pass an explicit ``rng`` for cross-process
    reproducibility.
    """
    digest = hashlib.sha256(
        f"ReliableBroadcastSession|{sequence}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ReliableOutcome:
    """Result of a broadcast plus its recovery phase."""

    #: The phase-1 outcome, untouched.
    initial: BroadcastOutcome
    #: Nodes holding the packet after recovery.
    delivered: Set[int]
    #: Nodes recovered by NACK rounds (disjoint from the initial set).
    recovered: Set[int]
    #: Extra transmissions spent on recovery.
    retransmissions: int
    #: NACK messages sent.
    nacks: int
    #: Recovery rounds executed.
    rounds: int

    def delivery_ratio(self, graph: Topology) -> float:
        """Final delivered fraction of all nodes."""
        return len(self.delivered) / graph.node_count()


class ReliableBroadcastSession:
    """A broadcast followed by NACK/retransmission recovery rounds."""

    def __init__(
        self,
        env: SimulationEnvironment,
        protocol: BroadcastProtocol,
        source: int,
        rng: Optional[random.Random] = None,
        mac: Optional[MacModel] = None,
        max_rounds: int = 10,
        bus: Optional[EventBus] = None,
    ) -> None:
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        self.env = env
        self.protocol = protocol
        self.source = source
        self.rng = rng or random.Random(
            reliable_seed(next(_SESSION_SEQUENCE))
        )
        self.mac = mac or IdealMac()
        self.max_rounds = max_rounds
        self.bus = bus or NULL_BUS

    def run(self) -> ReliableOutcome:
        """Phase 1 broadcast, then recovery rounds to convergence."""
        initial = run_broadcast(
            self.env.graph, self.protocol, self.source,
            rng=self.rng, mac=self.mac, bus=self.bus, env=self.env,
        )
        graph = self.env.graph
        delivered: Set[int] = set(initial.delivered)
        retransmissions = 0
        nacks = 0
        rounds = 0
        clock = initial.completion_time

        while rounds < self.max_rounds:
            missing = set(graph.nodes()) - delivered
            if not missing:
                break
            # Hello exchange: each missing node discovers covered
            # neighbors and NACKs the lowest-id one.
            bus = self.bus
            nacked: Set[int] = set()
            for node in sorted(missing):
                holders = graph.neighbors(node) & delivered
                if holders:
                    target = min(holders)
                    nacked.add(target)
                    nacks += 1
                    if _COUNTER_STACK:
                        _COUNTER_STACK[-1].nacks += 1
                    if bus.active:
                        bus.emit(Nack(time=clock, node=node, target=target))
            if not nacked:
                break  # nobody reachable holds the packet: stuck
            rounds += 1
            clock += 1.0
            # Collect the whole round first: a later retransmission can
            # retroactively corrupt an earlier one at a shared receiver.
            pending: List[Tuple[int, int, float]] = []
            for holder in sorted(nacked):
                retransmissions += 1
                if _COUNTER_STACK:
                    _COUNTER_STACK[-1].retransmissions += 1
                if bus.active:
                    bus.emit(Transmit(time=clock, node=holder))
                for receiver, arrival in self.mac.deliveries(
                    holder, clock, graph.neighbors(holder), self.rng
                ):
                    if arrival is not None:
                        pending.append((holder, receiver, arrival))
                    elif bus.active:
                        bus.emit(
                            Drop(
                                time=clock,
                                node=receiver,
                                sender=holder,
                                reason="loss",
                            )
                        )
            for holder, receiver, arrival in pending:
                if self.mac.corrupted(receiver, arrival):
                    if bus.active:
                        bus.emit(
                            Drop(
                                time=arrival,
                                node=receiver,
                                sender=holder,
                                reason="collision",
                            )
                        )
                else:
                    delivered.add(receiver)
                    if bus.active:
                        bus.emit(
                            Deliver(time=arrival, node=receiver, sender=holder)
                        )
            clock += 1.0

        return ReliableOutcome(
            initial=initial,
            delivered=delivered,
            recovered=delivered - initial.delivered,
            retransmissions=retransmissions,
            nacks=nacks,
            rounds=rounds,
        )
