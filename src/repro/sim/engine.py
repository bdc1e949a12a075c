"""The broadcast engine: Algorithm 1 run over a discrete-event simulation.

One :class:`SimulationEnvironment` wraps a deployment (graph + priority
scheme) and caches what real nodes would have collected proactively — the
k-hop view graphs from the hello protocol and the advertised priority
metrics.  :func:`run_broadcast` then executes one broadcast of one
protocol from one source on the broadcast service
(:class:`~repro.sim.service.ServiceEngine`, the only discrete-event
executor) and reports a :class:`BroadcastOutcome`:

* the source always forwards;
* every transmission is delivered to MAC-selected neighbors, who *snoop*
  the sender as visited and absorb the piggybacked trail (recently visited
  nodes and their designated sets);
* at the protocol's timing point (immediately or after a backoff) each
  receiving node decides its status via the protocol's hooks;
* under strict neighbor-designation, a designation forces forwarding even
  after a non-forward self-decision.

The engine is deliberately protocol-agnostic: all algorithm behaviour
lives behind :class:`~repro.algorithms.base.BroadcastProtocol`.

Observability: every step is published as a typed
:class:`~repro.sim.events.SimEvent` on the run's
:class:`~repro.sim.events.EventBus` (``collect_trace=True`` records them
into ``BroadcastOutcome.events``), and work counters flow into the active
:func:`repro.instrument.collecting` scope — ``collect_counters=True``
attaches a per-run :class:`~repro.instrument.InstrumentationCounters` to
the outcome.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..algorithms.base import BroadcastProtocol
from ..core import status as st
from ..core.priority import PriorityScheme, IdPriority
from ..core.views import CompiledView, View
from ..graph.topology import Topology
from ..instrument import InstrumentationCounters
from .events import EventBus, SimEvent
from .mac import MacModel
from .packet import Packet

__all__ = [
    "SimulationEnvironment",
    "BroadcastOutcome",
    "MessageState",
    "MessageTable",
    "run_broadcast",
]


class SimulationEnvironment:
    """A deployment: topology, priority scheme, and proactive caches.

    Create one per sampled network and reuse it across sources and
    protocols — the k-hop view graphs and metric table are topology-only
    and therefore shared.
    """

    def __init__(self, graph: Topology, scheme: Optional[PriorityScheme] = None) -> None:
        if graph.node_count() == 0:
            raise ValueError("cannot simulate on an empty graph")
        self.graph = graph
        self.scheme = scheme or IdPriority()
        self.metrics = self.scheme.metrics(graph)
        self._view_cache: Dict[Tuple[int, Optional[int]], Topology] = {}
        self._two_hop_cache: Dict[int, FrozenSet[int]] = {}
        #: Per-view-graph metric restriction, keyed by graph identity (a
        #: strong reference to the graph is kept alongside, so an id can
        #: never be recycled under the cache).  Scheme-specific — reset by
        #: :meth:`with_scheme`, unlike the topology-only view caches.
        self._view_metrics: Dict[
            int, Tuple[Topology, Dict[int, Tuple[float, ...]]]
        ] = {}
        #: Per-``(node, hops)`` compiled views; scheme-specific like
        #: ``_view_metrics`` (the static suffix ranks metrics).
        self._compiled_views: Dict[
            Tuple[int, Optional[int]], CompiledView
        ] = {}
        #: The graph's version stamp the caches above were built against;
        #: :meth:`sync_topology` catches up when it moves.
        self._graph_version = graph.version_stamp()

    def with_scheme(self, scheme: PriorityScheme) -> "SimulationEnvironment":
        """A sibling environment with a different priority scheme.

        Shares the (topology-only) view caches, so rotating priorities
        per broadcast — e.g. ``RandomEpochPriority`` for fairness — costs
        only one metrics pass.
        """
        sibling = SimulationEnvironment.__new__(SimulationEnvironment)
        sibling.graph = self.graph
        sibling.scheme = scheme
        sibling.metrics = scheme.metrics(self.graph)
        sibling._view_cache = self._view_cache
        sibling._two_hop_cache = self._two_hop_cache
        sibling._view_metrics = {}
        sibling._compiled_views = {}
        sibling._graph_version = self.graph.version_stamp()
        return sibling

    def sync_topology(self) -> None:
        """Catch up with structural changes to the deployment graph.

        Mobility sweeps mutate the shared graph in place (through
        :meth:`~repro.graph.topology.Topology.apply_delta` or the plain
        mutators); this environment notices through the graph's
        :meth:`~repro.graph.topology.Topology.version_stamp` and drops
        its derived caches.  The drop is wholesale but cheap: these are
        latency caches over the topology's own dirty-retained query
        cache, so re-fetching an entry for a node outside the dirty set
        is an O(1) dictionary hit there — only genuinely dirty entries
        get recomputed.  Clearing happens in place because
        :meth:`with_scheme` siblings share the cache dicts by reference.
        Called automatically by the accessors; callers that read
        :attr:`metrics` directly after mutating the graph should call
        this first.
        """
        stamp = self.graph.version_stamp()
        if stamp == self._graph_version:
            return
        self._graph_version = stamp
        self._view_cache.clear()
        self._two_hop_cache.clear()
        self._view_metrics.clear()
        self._compiled_views.clear()
        self.metrics = self.scheme.metrics(self.graph)

    def view_graph(self, node: int, hops: Optional[int]) -> Topology:
        """``G_k(node)``, or the full graph when ``hops`` is ``None``."""
        self.sync_topology()
        key = (node, hops)
        cached = self._view_cache.get(key)
        if cached is None:
            if hops is None:
                cached = self.graph
            else:
                cached = self.graph.k_hop_view_graph(node, hops)
            self._view_cache[key] = cached
        return cached

    def compiled_view(self, node: int, hops: Optional[int]) -> CompiledView:
        """``node``'s :class:`~repro.core.views.CompiledView` over
        :meth:`view_graph`: built once per node per topology epoch and
        dropped by :meth:`sync_topology`."""
        self.sync_topology()
        key = (node, hops)
        compiled = self._compiled_views.get(key)
        if compiled is None:
            compiled = CompiledView(
                self.view_graph(node, hops), node, self.metrics
            )
            self._compiled_views[key] = compiled
        return compiled

    def two_hop_set(self, node: int) -> FrozenSet[int]:
        """``N2(node)`` on the deployment graph (for TDP piggybacking)."""
        self.sync_topology()
        cached = self._two_hop_cache.get(node)
        if cached is None:
            cached = frozenset(self.graph.k_hop_neighbors(node, 2))
            self._two_hop_cache[node] = cached
        return cached

    def make_view(
        self,
        view_graph: Topology,
        visited: FrozenSet[int],
        designated: FrozenSet[int],
    ) -> View:
        """Assemble a :class:`View` over ``view_graph`` with known state.

        The metric restriction to the visible nodes is topology-dependent
        only, so it is computed once per view graph and shared by every
        per-decision view the engine builds over it (views never mutate
        their metrics mapping).
        """
        self.sync_topology()
        entry = self._view_metrics.get(id(view_graph))
        if entry is None or entry[0] is not view_graph:
            table = self.metrics
            entry = (
                view_graph,
                {node: table[node] for node in view_graph},
            )
            self._view_metrics[id(view_graph)] = entry
        status: Dict[int, float] = {}
        for node in designated:
            if node in view_graph:
                status[node] = st.DESIGNATED
        for node in visited:
            if node in view_graph:
                status[node] = st.VISITED
        return View(
            graph=view_graph,
            status=status,
            metrics=entry[1],
            metric_padding=self.scheme.padding(),
        )


@dataclass
class BroadcastOutcome:
    """Result of one broadcast run."""

    source: int
    #: Nodes that transmitted the packet (the forward node set + source).
    forward_nodes: Set[int]
    #: Nodes that received at least one copy (the source counts).
    delivered: Set[int]
    #: Total transmissions (equals ``len(forward_nodes)``: one each).
    transmissions: int
    #: Simulation time of the last event.
    completion_time: float
    #: Per-node designation announcements, for analysis.
    designations: Dict[int, FrozenSet[int]]
    #: How many copies each node received (redundancy analysis).
    receipt_counts: Dict[int, int] = field(default_factory=dict)
    #: Total abstract packet size transmitted (see ``Packet.size_units``).
    bytes_transmitted: int = 0
    #: Typed event trace (``collect_trace=True``), in emission order.
    events: Optional[List[SimEvent]] = None
    #: Per-run work counters (``collect_counters=True``).
    counters: Optional[InstrumentationCounters] = None

    @property
    def forward_count(self) -> int:
        """Size of the forward node set (the paper's headline metric)."""
        return len(self.forward_nodes)

    def delivery_ratio(self, graph: Topology) -> float:
        """Delivered fraction of all nodes."""
        return len(self.delivered) / graph.node_count()

    def mean_redundancy(self) -> float:
        """Average copies received per delivered node (1.0 is optimal).

        The broadcast-storm problem is exactly this number exploding:
        under flooding every node hears one copy per neighbor.
        """
        delivered = [
            count for node, count in self.receipt_counts.items() if count
        ]
        if not delivered:
            return 0.0
        return sum(delivered) / len(delivered)


class MessageState:
    """Per-``(node, message)`` runtime state.

    Everything message-scoped — dedup flags, snooped visited/designated
    knowledge, designators, first/last packets — lives in this record.
    One node holds one :class:`MessageState` per in-flight message,
    collected in its :class:`MessageTable`.
    """

    __slots__ = (
        "received",
        "decided",
        "forwarded",
        "queued",
        "dropped",
        "decision_pending",
        "known_visited",
        "known_designated",
        "designators",
        "first_packet",
        "first_time",
        "last_packet",
    )

    def __init__(self) -> None:
        self.received = False
        self.decided = False
        self.forwarded = False
        #: A forward intent is waiting in the node's egress queue; guards
        #: against double-queuing a message when a designation arrives
        #: while the intent is queued.
        self.queued = False
        #: The node decided to forward but its egress queue rejected the
        #: transmission (backpressure) or the message expired while
        #: queued.
        self.dropped = False
        self.decision_pending = False
        self.known_visited: Set[int] = set()
        self.known_designated: Set[int] = set()
        self.designators: Set[int] = set()
        self.first_packet: Optional[Packet] = None
        self.first_time: Optional[float] = None
        self.last_packet: Optional[Packet] = None


class MessageTable:
    """One node's per-message state plus its bounded egress FIFO queue.

    The service engine's unit of node-local bookkeeping: a mapping
    ``message_id -> MessageState`` for every message the node has seen,
    and the FIFO of forward intents waiting for the node's transmitter.
    ``capacity`` bounds the egress queue — when a forward intent arrives
    while the queue is full, the service abandons it with an explicit
    ``Drop(reason="queue_full")`` (backpressure, not silent loss).
    ``capacity=None`` leaves the queue unbounded.
    """

    __slots__ = (
        "node",
        "capacity",
        "busy_until",
        "drain_scheduled",
        "queue_depth_max",
        "_states",
        "_egress",
    )

    def __init__(self, node: int, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.node = node
        self.capacity = capacity
        #: Simulation time until which the node's transmitter is busy.
        self.busy_until = 0.0
        #: Whether a drain callback for this node's queue is already
        #: scheduled (at most one in flight keeps the event stream lean).
        self.drain_scheduled = False
        #: High-water mark of the egress queue over the table's life.
        self.queue_depth_max = 0
        self._states: Dict[int, MessageState] = {}
        self._egress: Deque[Tuple[int, FrozenSet[int]]] = deque()

    def state(self, message_id: int) -> MessageState:
        """The node's state for ``message_id``, created on first touch."""
        state = self._states.get(message_id)
        if state is None:
            state = MessageState()
            self._states[message_id] = state
        return state

    def get(self, message_id: int) -> Optional[MessageState]:
        """The node's state for ``message_id``, or ``None`` if untouched."""
        return self._states.get(message_id)

    def items(self) -> Iterator[Tuple[int, MessageState]]:
        """``(message_id, state)`` pairs in first-touch order."""
        return iter(self._states.items())

    def discard(self, message_id: int) -> None:
        """Forget a message's state (post-expiry pruning)."""
        self._states.pop(message_id, None)

    # -- egress queue --------------------------------------------------

    def queue_depth(self) -> int:
        """Forward intents currently waiting for the transmitter."""
        return len(self._egress)

    def enqueue(self, message_id: int, designated: FrozenSet[int]) -> bool:
        """Queue a forward intent; ``False`` means the queue is full.

        ``designated`` is the forward-neighbor set fixed at decision
        time; the packet itself is built when the transmitter frees up,
        from the node's then-current snooped state.
        """
        if self.capacity is not None and len(self._egress) >= self.capacity:
            return False
        self._egress.append((message_id, designated))
        if len(self._egress) > self.queue_depth_max:
            self.queue_depth_max = len(self._egress)
        return True

    def dequeue(self) -> Optional[Tuple[int, FrozenSet[int]]]:
        """Pop the oldest queued forward intent (``None`` when idle)."""
        if not self._egress:
            return None
        return self._egress.popleft()


def run_broadcast(
    graph: Topology,
    protocol: BroadcastProtocol,
    source: int,
    scheme: Optional[PriorityScheme] = None,
    rng: Optional[random.Random] = None,
    mac: Optional[MacModel] = None,
    collect_trace: bool = False,
    bus: Optional[EventBus] = None,
    collect_counters: bool = False,
    env: Optional[SimulationEnvironment] = None,
) -> BroadcastOutcome:
    """One broadcast of ``protocol`` from ``source``.

    Runs a :class:`~repro.sim.service.ServiceEngine` under a one-message
    :class:`~repro.sim.traffic.SingleShot` traffic model.  Its output is
    pinned against the frozen records of the retired single-message
    engine (``tests/sim/legacy_engine_golden.jsonl``, also gated in
    ``benchmarks/bench_traffic.py``).

    ``rng`` drives backoff delays and lossy MACs; when omitted the
    service seeds its own from :func:`~repro.sim.service.service_seed`.
    ``env`` reuses a prepared :class:`SimulationEnvironment` (its graph
    must be ``graph``, and ``protocol.prepare(env)`` must have run);
    without it a fresh environment is built and the protocol prepared.
    """
    from .service import ServiceEngine
    from .traffic import SingleShot

    if env is None:
        env = SimulationEnvironment(graph, scheme)
        protocol.prepare(env)
    elif env.graph is not graph:
        raise ValueError("env was built over a different graph")
    engine = ServiceEngine(
        env,
        protocol,
        SingleShot(source),
        rng=rng,
        mac=mac,
        collect_trace=collect_trace,
        bus=bus,
        collect_counters=collect_counters,
    )
    return engine.run().single_outcome()
