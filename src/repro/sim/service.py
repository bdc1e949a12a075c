"""The broadcast service: many concurrent messages over one deployment.

The legacy engine (:class:`~repro.sim.engine.BroadcastSession`) runs one
broadcast to quiescence and throws everything away.  A deployed ad hoc
network instead carries a *stream* of broadcasts; this module is the
long-lived execution path for that stream:

* a :class:`~repro.sim.traffic.TrafficModel` produces the injection
  schedule (who broadcasts, when, payload size, TTL);
* one shared :class:`~repro.sim.scheduler.EventScheduler`, one MAC model
  and one event bus drive every in-flight message;
* per-``(node, message)`` protocol state lives in each node's
  :class:`~repro.sim.engine.MessageTable`, whose bounded egress FIFO
  adds explicit backpressure: a forward intent arriving while the node's
  transmitter is busy queues, and queues past ``queue_capacity`` are
  refused with ``Drop(reason="queue_full")``;
* messages carry a TTL — copies arriving (or queued transmissions coming
  up) after expiry are dropped with ``Drop(reason="ttl_expired")``;
* forward/designate decisions are pure functions of a node's snooped
  knowledge for every deterministic protocol, so the service reuses them
  across messages within one topology epoch (guarded by the graph's
  :meth:`~repro.graph.topology.Topology.version_stamp`), keyed by the
  protocol's :meth:`~repro.algorithms.base.BroadcastProtocol.
  decision_key` (gossip returns no key), counted as
  ``forward_set_reuses``.

Byte-identity contract: under a one-message
:class:`~repro.sim.traffic.SingleShot` model the service replays the
legacy engine's event and RNG order *exactly* — an idle node transmits
synchronously at its decision instant, the egress queue and transmitter
busy-window only engage when messages actually overlap, and traffic
models draw from their own seeded generators, never the decision RNG.
``benchmarks/bench_traffic.py`` gates this equivalence on every
configured coverage backend.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..algorithms.base import BroadcastProtocol, NodeContext
from ..instrument import InstrumentationCounters, collecting
from ..instrument import _STACK as _COUNTER_STACK
from .engine import (
    BroadcastOutcome,
    MessageTable,
    SimulationEnvironment,
)
from .events import (
    NULL_BUS,
    BackoffScheduled,
    Decide,
    Deliver,
    Designate,
    Drop,
    EventBus,
    RecordingBus,
    SimEvent,
    Transmit,
)
from .mac import IdealMac, MacModel
from .packet import Packet
from .scheduler import EventScheduler
from .trace import TraceRecorder
from .traffic import Message, TrafficModel

__all__ = [
    "ServiceEngine",
    "ServiceOutcome",
    "MessageOutcome",
    "service_seed",
    "DEFAULT_QUEUE_CAPACITY",
    "DEFAULT_TX_TIME_PER_UNIT",
]

#: Default bound of each node's egress FIFO (forward intents, not bytes).
DEFAULT_QUEUE_CAPACITY = 8

#: Default transmitter occupancy per abstract size unit.  A packet of
#: ``s`` units keeps its sender busy for ``s * this`` time units; with
#: the unit-delay MAC and the default 4-unit header this makes a single
#: transmission cheap relative to the MAC delay, so light traffic rarely
#: queues while saturating traffic visibly does.
DEFAULT_TX_TIME_PER_UNIT = 0.1

#: Monotone sequence distinguishing same-process default-seeded engines.
_SERVICE_SEQUENCE = itertools.count()


def service_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :class:`ServiceEngine`.

    ``sha256("ServiceEngine|{sequence}")`` truncated to 64 bits — the
    same derivation family as :func:`repro.sim.engine.session_seed`,
    under its own tag so service decision streams never collide with
    legacy session or traffic-model streams.
    """
    digest = hashlib.sha256(f"ServiceEngine|{sequence}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class MessageOutcome:
    """What happened to one injected message."""

    message: Message
    #: Nodes that actually transmitted this message.
    forward_nodes: Set[int]
    #: Nodes that received at least one intact copy (the source counts).
    delivered: Set[int]
    #: Copies received per node (sparse: only nodes that heard one).
    receipt_counts: Dict[int, int]
    #: Per-node designated sets announced while forwarding.
    designations: Dict[int, FrozenSet[int]]
    #: Abstract size units transmitted for this message.
    bytes_transmitted: int = 0
    #: Simulation time of the last *first* receipt (``None`` if nobody
    #: beyond the source ever heard it).
    completed_at: Optional[float] = None
    #: Whether every node of the deployment received the message.
    delivered_all: bool = False
    #: Drop events by reason (``loss``/``collision``/``queue_full``/
    #: ``ttl_expired``).
    drops: Dict[str, int] = field(default_factory=dict)

    @property
    def delivery_latency(self) -> Optional[float]:
        """Injection-to-last-first-receipt latency, if fully delivered.

        The service's SLO metric: how long until the *whole* network has
        the message.  ``None`` for partially delivered messages — they
        are failures, not latency samples.
        """
        if not self.delivered_all or self.completed_at is None:
            return None
        return self.completed_at - self.message.injected_at

    @property
    def forward_count(self) -> int:
        """Size of this message's forward node set."""
        return len(self.forward_nodes)


@dataclass
class ServiceOutcome:
    """Result of one service run: all messages plus shared bookkeeping."""

    #: Per-message outcomes, in message-id order.
    messages: List[MessageOutcome]
    #: Every node of the deployment (for ratio/expansion helpers).
    nodes: Tuple[int, ...]
    #: Simulation time of the last executed event.
    completion_time: float
    #: High-water mark over every node's egress queue.
    queue_depth_max: int = 0
    #: Backpressure + staleness drops (queue_full and ttl_expired events).
    messages_dropped: int = 0
    #: Forward/designate decisions served from the cross-message cache.
    forward_set_reuses: int = 0
    #: Typed event trace (``collect_trace=True``), in emission order.
    events: Optional[List[SimEvent]] = None
    #: Per-run work counters (``collect_counters=True``).
    counters: Optional[InstrumentationCounters] = None

    @property
    def delivered_count(self) -> int:
        """How many messages reached every node."""
        return sum(1 for m in self.messages if m.delivered_all)

    def latencies(self) -> List[float]:
        """Delivery latencies of fully delivered messages, in id order."""
        return [
            m.delivery_latency
            for m in self.messages
            if m.delivery_latency is not None
        ]

    def goodput(self) -> float:
        """Fully delivered messages per simulation time unit."""
        if self.completion_time <= 0:
            return 0.0
        return self.delivered_count / self.completion_time

    def offered_load(self) -> float:
        """Injected messages per simulation time unit (over the run)."""
        if self.completion_time <= 0:
            return 0.0
        return len(self.messages) / self.completion_time

    def single_outcome(self) -> BroadcastOutcome:
        """Collapse a one-message run into the legacy outcome shape.

        The compatibility bridge behind
        :func:`repro.sim.engine.run_broadcast`: field-for-field equal to
        what the deprecated direct :class:`BroadcastSession` produced,
        including the all-nodes (zero-defaulted) receipt-count table.
        """
        if len(self.messages) != 1:
            raise ValueError(
                f"single_outcome() needs exactly one message, "
                f"got {len(self.messages)}"
            )
        only = self.messages[0]
        receipt_counts = {node: 0 for node in self.nodes}
        receipt_counts.update(only.receipt_counts)
        events = self.events
        return BroadcastOutcome(
            source=only.message.source,
            forward_nodes=set(only.forward_nodes),
            delivered=set(only.delivered),
            transmissions=len(only.forward_nodes),
            completion_time=self.completion_time,
            designations=dict(only.designations),
            receipt_counts=receipt_counts,
            bytes_transmitted=only.bytes_transmitted,
            events=events,
            trace=(
                TraceRecorder.from_events(events)
                if events is not None
                else None
            ),
            counters=self.counters,
        )


class ServiceEngine:
    """Run a traffic model's message stream over one deployment.

    Parameters
    ----------
    env, protocol:
        The deployment and the broadcast algorithm, exactly as for the
        legacy session; ``protocol.prepare(env)`` must have been called.
    traffic:
        The :class:`~repro.sim.traffic.TrafficModel` producing the
        injection schedule.
    rng:
        Decision/backoff randomness.  When omitted, seeded from
        :func:`service_seed` (per-process monotone derivation).
    queue_capacity:
        Bound of each node's egress FIFO;
        :data:`DEFAULT_QUEUE_CAPACITY` by default, ``None`` unbounded.
    tx_time_per_unit:
        Transmitter occupancy per abstract packet size unit (see
        :data:`DEFAULT_TX_TIME_PER_UNIT`); 0 disables the busy window
        (and with it all queueing).
    reuse_decisions:
        Serve repeat forward/designate decisions from the cross-message
        cache (only those the protocol gives a decision key).
    collect_trace / bus / collect_counters:
        As for the legacy session.

    An engine instance runs once: :meth:`run` drains the schedule (or
    stops at ``horizon``) and returns a :class:`ServiceOutcome`.
    """

    def __init__(
        self,
        env: SimulationEnvironment,
        protocol: BroadcastProtocol,
        traffic: TrafficModel,
        rng: Optional[random.Random] = None,
        mac: Optional[MacModel] = None,
        queue_capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY,
        tx_time_per_unit: float = DEFAULT_TX_TIME_PER_UNIT,
        reuse_decisions: bool = True,
        collect_trace: bool = False,
        bus: Optional[EventBus] = None,
        collect_counters: bool = False,
    ) -> None:
        if tx_time_per_unit < 0:
            raise ValueError(
                f"tx_time_per_unit must be non-negative, got {tx_time_per_unit}"
            )
        self.env = env
        self.protocol = protocol
        self.traffic = traffic
        if rng is None:
            rng = random.Random(service_seed(next(_SERVICE_SEQUENCE)))
        self.rng = rng
        self.mac = mac or IdealMac()
        self.queue_capacity = queue_capacity
        self.tx_time_per_unit = tx_time_per_unit
        self.reuse_decisions = reuse_decisions
        self.scheduler = EventScheduler()
        if bus is None:
            bus = RecordingBus() if collect_trace else NULL_BUS
        elif collect_trace and bus.recorded() is None:
            raise ValueError(
                "collect_trace=True needs a recording bus; pass a "
                "RecordingBus or drop the explicit bus argument"
            )
        self.bus = bus
        self._bus_on = bus.active
        self._collect_trace = collect_trace
        self._collect_counters = collect_counters
        self._tables: Dict[int, MessageTable] = {
            node: MessageTable(node, queue_capacity)
            for node in env.graph.nodes()
        }
        self._messages: Dict[int, Message] = {}
        self._forward: Dict[int, Set[int]] = {}
        self._delivered: Dict[int, Set[int]] = {}
        self._receipts: Dict[int, Dict[int, int]] = {}
        self._designations: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self._bytes: Dict[int, int] = {}
        self._completed_at: Dict[int, float] = {}
        self._drops: Dict[int, Dict[str, int]] = {}
        self._messages_dropped = 0
        self._forward_set_reuses = 0
        #: Cross-message decision cache: decision key -> (forward,
        #: designated).  Sound only within one topology epoch, so the
        #: graph's version stamp guards every lookup.
        self._decision_cache: Dict[
            Hashable, Tuple[bool, FrozenSet[int]]
        ] = {}
        self._cache_stamp = env.graph.version_stamp()
        self._ran = False

    # ------------------------------------------------------------------

    def run(self, horizon: Optional[float] = None) -> ServiceOutcome:
        """Execute the full traffic schedule and report the outcome.

        ``horizon`` cuts the run off at a fixed simulation time (events
        beyond it never fire) — the saturation valve for overload
        sweeps; ``None`` runs to quiescence.
        """
        if self._ran:
            raise RuntimeError("a ServiceEngine instance runs only once")
        self._ran = True
        self._bus_on = self.bus.active
        schedule = self.traffic.generate(self.env.graph)
        for message in schedule:
            if message.source not in self._tables:
                raise KeyError(
                    f"message {message.message_id} source {message.source} "
                    f"not in the deployment graph"
                )
            self._messages[message.message_id] = message
            self._forward[message.message_id] = set()
            self._delivered[message.message_id] = set()
            self._receipts[message.message_id] = {}
            self._designations[message.message_id] = {}
            self._bytes[message.message_id] = 0
            self._drops[message.message_id] = {}
        counters: Optional[InstrumentationCounters] = None
        if self._collect_counters:
            with collecting() as counters:
                self._execute(schedule, horizon)
        else:
            self._execute(schedule, horizon)
        return self._assemble(counters)

    def _execute(
        self, schedule: List[Message], horizon: Optional[float]
    ) -> None:
        self.mac.reset()
        for message in schedule:
            self.scheduler.schedule_at(
                message.injected_at,
                lambda m=message: self._inject(m),
            )
        if horizon is None:
            self.scheduler.run()
        else:
            self.scheduler.run_until(horizon)
        queue_depth_max = self._queue_depth_max()
        if _COUNTER_STACK:
            top = _COUNTER_STACK[-1]
            if queue_depth_max > top.queue_depth_max:
                top.queue_depth_max = queue_depth_max

    def _queue_depth_max(self) -> int:
        return max(
            (table.queue_depth_max for table in self._tables.values()),
            default=0,
        )

    def _assemble(
        self, counters: Optional[InstrumentationCounters]
    ) -> ServiceOutcome:
        nodes = tuple(self.env.graph.nodes())
        node_count = len(nodes)
        outcomes: List[MessageOutcome] = []
        for mid in sorted(self._messages):
            message = self._messages[mid]
            delivered = set(self._delivered[mid])
            delivered.add(message.source)
            outcomes.append(
                MessageOutcome(
                    message=message,
                    forward_nodes=self._forward[mid],
                    delivered=delivered,
                    receipt_counts=self._receipts[mid],
                    designations=self._designations[mid],
                    bytes_transmitted=self._bytes[mid],
                    completed_at=self._completed_at.get(mid),
                    delivered_all=(len(delivered) == node_count),
                    drops=self._drops[mid],
                )
            )
        return ServiceOutcome(
            messages=outcomes,
            nodes=nodes,
            completion_time=self.scheduler.now,
            queue_depth_max=self._queue_depth_max(),
            messages_dropped=self._messages_dropped,
            forward_set_reuses=self._forward_set_reuses,
            events=self.bus.recorded(),
            counters=counters,
        )

    # ------------------------------------------------------------------

    def _context(self, message: Message, node: int) -> NodeContext:
        state = self._tables[node].state(message.message_id)
        return NodeContext(
            node=node,
            is_source=(node == message.source),
            time=self.scheduler.now,
            env=self.env,
            hops=self.protocol.hops,
            known_visited=frozenset(state.known_visited),
            known_designated=frozenset(state.known_designated),
            designators=frozenset(state.designators),
            first_packet=state.first_packet,
            rng=self.rng,
        )

    def _drop(self, message_id: int, node: int, sender: int, reason: str) -> None:
        """Record a service-side drop (backpressure or TTL expiry)."""
        drops = self._drops[message_id]
        drops[reason] = drops.get(reason, 0) + 1
        self._messages_dropped += 1
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].messages_dropped += 1
        if self._bus_on:
            self.bus.emit(
                Drop(
                    time=self.scheduler.now,
                    node=node,
                    message_id=message_id,
                    sender=sender,
                    reason=reason,
                )
            )

    def _inject(self, message: Message) -> None:
        """Start one broadcast: the source decides and (tries to) forward."""
        now = self.scheduler.now
        # Give the shared MAC a chance to age out interference state the
        # finished part of the stream can no longer influence.
        self.mac.retire(now)
        mid = message.message_id
        state = self._tables[message.source].state(mid)
        state.known_visited.add(message.source)
        ctx = self._context(message, message.source)
        designated = self.protocol.designate(ctx)
        state.decided = True
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].decisions += 1
        if self._bus_on:
            self.bus.emit(
                Decide(
                    time=now,
                    node=message.source,
                    message_id=mid,
                    forward=True,
                    reason="source",
                )
            )
        self._transmit(message, message.source, designated, incoming=None)

    # ------------------------------------------------------------------

    def _transmit(
        self,
        message: Message,
        node: int,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        """Forward intent: transmit now if idle, else queue (or drop)."""
        table = self._tables[node]
        now = self.scheduler.now
        if now < table.busy_until:
            state = table.state(message.message_id)
            if table.enqueue(message.message_id, designated):
                state.queued = True
                if not table.drain_scheduled:
                    table.drain_scheduled = True
                    self.scheduler.schedule_at(
                        table.busy_until,
                        lambda n=node: self._drain_egress(n),
                    )
            else:
                state.dropped = True
                self._drop(message.message_id, node, node, "queue_full")
            return
        self._do_transmit(message, node, designated, incoming)

    def _do_transmit(
        self,
        message: Message,
        node: int,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        mid = message.message_id
        table = self._tables[node]
        state = table.state(mid)
        state.forwarded = True
        state.known_visited.add(node)
        state.known_designated |= designated
        self._forward[mid].add(node)
        self._designations[mid][node] = designated
        two_hop = (
            self.env.two_hop_set(node)
            if self.protocol.piggyback_two_hop
            else None
        )
        if incoming is None:
            packet = Packet.original(
                node,
                designated,
                self.protocol.piggyback_h,
                two_hop,
                message_id=mid,
                payload_units=message.size_units,
                expires_at=message.expires_at,
            )
        else:
            packet = incoming.forwarded(
                node, designated, self.protocol.piggyback_h, two_hop
            )
        size = packet.size_units()
        self._bytes[mid] += size
        now = self.scheduler.now
        table.busy_until = now + size * self.tx_time_per_unit
        if _COUNTER_STACK:
            top = _COUNTER_STACK[-1]
            top.transmissions += 1
            top.bytes_transmitted += size
        bus_on = self._bus_on
        bus = self.bus
        if bus_on:
            chosen = tuple(sorted(designated))
            if chosen:
                bus.emit(
                    Designate(
                        time=now, node=node, message_id=mid, designated=chosen
                    )
                )
            bus.emit(
                Transmit(
                    time=now,
                    node=node,
                    message_id=mid,
                    designated=chosen,
                    size_units=size,
                )
            )
        # Sorted delivery order keeps same-time tie-breaks well-defined
        # (and identical to the legacy engine).
        neighbors = sorted(self.env.graph.neighbors(node))
        for receiver, arrival in self.mac.deliveries(
            node, now, neighbors, self.rng
        ):
            if arrival is None:
                drops = self._drops[mid]
                drops["loss"] = drops.get("loss", 0) + 1
                if bus_on:
                    bus.emit(
                        Drop(
                            time=now,
                            node=receiver,
                            message_id=mid,
                            sender=node,
                            reason="loss",
                        )
                    )
                continue
            self.scheduler.schedule_at(
                arrival,
                lambda m=message, r=receiver, p=packet, a=arrival: (
                    self._deliver(m, r, p, a)
                ),
            )

    def _drain_egress(self, node: int) -> None:
        """The node's transmitter freed up: send the oldest queued intent."""
        table = self._tables[node]
        table.drain_scheduled = False
        now = self.scheduler.now
        if now < table.busy_until:
            # Another transmission slipped in meanwhile; re-arm.
            table.drain_scheduled = True
            self.scheduler.schedule_at(
                table.busy_until, lambda n=node: self._drain_egress(n)
            )
            return
        entry = table.dequeue()
        while entry is not None:
            mid, designated = entry
            message = self._messages[mid]
            state = table.state(mid)
            state.queued = False
            expires = message.expires_at
            if expires is not None and now > expires:
                state.dropped = True
                self._drop(mid, node, node, "ttl_expired")
                entry = table.dequeue()
                continue
            self._do_transmit(
                message, node, designated, incoming=state.last_packet
            )
            break
        if table.queue_depth() and not table.drain_scheduled:
            table.drain_scheduled = True
            self.scheduler.schedule_at(
                table.busy_until, lambda n=node: self._drain_egress(n)
            )

    # ------------------------------------------------------------------

    def _deliver(
        self, message: Message, receiver: int, packet: Packet, arrival: float
    ) -> None:
        mid = message.message_id
        bus = self.bus
        bus_on = self._bus_on
        now = self.scheduler.now
        if self.mac.corrupted(receiver, arrival):
            # A later transmission collided with this copy in flight.
            drops = self._drops[mid]
            drops["collision"] = drops.get("collision", 0) + 1
            if bus_on:
                bus.emit(
                    Drop(
                        time=now,
                        node=receiver,
                        message_id=mid,
                        sender=packet.sender,
                        reason="collision",
                    )
                )
            return
        if packet.expired(now):
            self._drop(mid, receiver, packet.sender, "ttl_expired")
            return
        table = self._tables[receiver]
        state = table.state(mid)
        if bus_on:
            bus.emit(
                Deliver(
                    time=now,
                    node=receiver,
                    message_id=mid,
                    sender=packet.sender,
                )
            )
        receipts = self._receipts[mid]
        receipts[receiver] = receipts.get(receiver, 0) + 1
        # Snooping: hearing the transmission marks the sender visited.
        state.known_visited.add(packet.sender)
        state.last_packet = packet
        for entry in packet.trail:
            state.known_visited.add(entry.node)
            state.known_designated |= entry.designated
            if receiver in entry.designated:
                state.designators.add(entry.node)

        if not state.received:
            state.received = True
            state.first_packet = packet
            state.first_time = now
            self._delivered[mid].add(receiver)
            self._completed_at[mid] = now

        if state.forwarded or state.queued or state.dropped:
            return
        if state.decided:
            if state.designators:
                # Late designation after a non-forward decision (see the
                # legacy engine for the strict/relaxed rationale).
                if self.protocol.strict_designation:
                    ctx = self._context(message, receiver)
                    if _COUNTER_STACK:
                        _COUNTER_STACK[-1].decisions += 1
                    if bus_on:
                        bus.emit(
                            Decide(
                                time=now,
                                node=receiver,
                                message_id=mid,
                                forward=True,
                                reason="forced-designation",
                            )
                        )
                    self._transmit(
                        message,
                        receiver,
                        self.protocol.designate(ctx),
                        incoming=packet,
                    )
                elif self.protocol.relaxed_designation:
                    ctx = self._context(message, receiver)
                    if self.protocol.should_forward(ctx):
                        if _COUNTER_STACK:
                            _COUNTER_STACK[-1].decisions += 1
                        if bus_on:
                            bus.emit(
                                Decide(
                                    time=now,
                                    node=receiver,
                                    message_id=mid,
                                    forward=True,
                                    reason="relaxed-designation",
                                )
                            )
                        self._transmit(
                            message,
                            receiver,
                            self.protocol.designate(ctx),
                            incoming=packet,
                        )
            return
        if not state.decision_pending:
            state.decision_pending = True
            ctx = self._context(message, receiver)
            delay = self.protocol.decision_delay(ctx, self.rng)
            if bus_on:
                bus.emit(
                    BackoffScheduled(
                        time=now,
                        node=receiver,
                        message_id=mid,
                        delay=delay,
                    )
                )
            self.scheduler.schedule_in(
                delay, lambda m=message, r=receiver: self._decide(m, r)
            )

    # ------------------------------------------------------------------

    def _decide(self, message: Message, node: int) -> None:
        mid = message.message_id
        state = self._tables[node].state(mid)
        if state.forwarded or state.decided:
            return
        state.decided = True
        state.decision_pending = False
        now = self.scheduler.now
        expires = message.expires_at
        if expires is not None and now > expires:
            # The decision timer outlived the message: nothing to forward.
            state.dropped = True
            self._drop(mid, node, node, "ttl_expired")
            return
        forced = self.protocol.strict_designation and bool(state.designators)
        ctx: Optional[NodeContext] = None
        designated: Optional[FrozenSet[int]] = None
        if forced:
            forward = True
        else:
            ctx = self._context(message, node)
            key = None
            if self.reuse_decisions:
                stamp = self.env.graph.version_stamp()
                if stamp != self._cache_stamp:
                    self._decision_cache.clear()
                    self._cache_stamp = stamp
                key = self.protocol.decision_key(ctx)
            cached = (
                self._decision_cache.get(key) if key is not None else None
            )
            if cached is not None:
                forward, designated = cached
                self._forward_set_reuses += 1
                if _COUNTER_STACK:
                    _COUNTER_STACK[-1].forward_set_reuses += 1
            else:
                forward = self.protocol.should_forward(ctx)
                if key is not None:
                    designated = (
                        self.protocol.designate(ctx) if forward else frozenset()
                    )
                    self._decision_cache[key] = (forward, designated)
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].decisions += 1
        if self._bus_on:
            self.bus.emit(
                Decide(
                    time=now,
                    node=node,
                    message_id=mid,
                    forward=forward,
                    reason="timer",
                    designated=forced,
                )
            )
        if forward:
            if designated is None:
                if ctx is None:
                    ctx = self._context(message, node)
                designated = self.protocol.designate(ctx)
            self._transmit(message, node, designated, incoming=state.last_packet)
