"""Traffic models: the arrival processes feeding the broadcast service.

The paper evaluates one broadcast at a time; a deployed network carries a
*stream* of them.  A :class:`TrafficModel` turns a deployment into a
deterministic list of :class:`Message` injections — who broadcasts, when,
how large the payload is, and how long the message stays relevant (its
TTL).  The :class:`~repro.sim.service.ServiceEngine` schedules every
injection on its shared scheduler and drives all in-flight broadcasts
through one MAC and one event bus.

Determinism contract: every model derives its ``random.Random`` from a
``sha256("TrafficModel|<kind>|<seed>")`` digest (:func:`traffic_seed`),
the same per-scope derivation the engine and workload layers use, so a
traffic schedule is a pure function of ``(model parameters, topology)``
— byte-identical in any process, at any worker count.  Models draw only
from their own generator, never from the service's decision RNG, so
adding traffic cannot perturb protocol backoff streams.

Three arrival processes cover the classic load shapes:

* :class:`PoissonTraffic` — memoryless arrivals at a fixed offered rate,
  uniformly random sources;
* :class:`BurstyTraffic` — an on/off (interrupted Poisson) process:
  exponential bursts of elevated rate separated by silent gaps;
* :class:`ZipfTraffic` — Poisson arrivals whose sources follow a Zipf
  rank distribution, modelling a few chatty nodes dominating the load.

:class:`SingleShot` is the degenerate one-message model
:func:`repro.sim.engine.run_broadcast` uses; the service path under
``SingleShot`` is pinned against the frozen single-message goldens
(``tests/sim/legacy_engine_golden.jsonl``).
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..graph.topology import Topology

__all__ = [
    "Message",
    "TrafficModel",
    "SingleShot",
    "ScriptedTraffic",
    "PoissonTraffic",
    "BurstyTraffic",
    "ZipfTraffic",
    "traffic_seed",
]


def traffic_seed(kind: str, seed: int) -> int:
    """The documented RNG seed of one traffic model instance.

    ``sha256("TrafficModel|{kind}|{seed}")`` truncated to 64 bits — the
    same derivation family as :func:`repro.sim.service.service_seed` and
    :func:`repro.experiments.workload.workload_seed`, under a
    traffic-specific tag so arrival draws never correlate with protocol
    backoff or workload source streams.
    """
    digest = hashlib.sha256(f"TrafficModel|{kind}|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Message:
    """One broadcast message a traffic model injects into the service.

    Attributes
    ----------
    message_id:
        Dense sequential id, unique within one service run; keys all
        per-message state (dedup tables, forward sets, events).
    source:
        The originating node.
    injected_at:
        Simulation time of the injection (the latency clock's zero).
    size_units:
        Abstract payload size added to every transmission of this
        message on top of the protocol's header/trail overhead (see
        :meth:`repro.sim.packet.Packet.size_units`).
    ttl:
        Time-to-live in simulation time units from ``injected_at``;
        copies arriving (or queued transmissions firing) after
        ``injected_at + ttl`` are dropped with ``Drop(reason=
        "ttl_expired")``.  ``None`` means the message never expires.
    """

    message_id: int
    source: int
    injected_at: float = 0.0
    size_units: int = 0
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.injected_at < 0:
            raise ValueError(
                f"injected_at must be non-negative, got {self.injected_at}"
            )
        if self.size_units < 0:
            raise ValueError(
                f"size_units must be non-negative, got {self.size_units}"
            )
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` for immortal messages."""
        if self.ttl is None:
            return None
        return self.injected_at + self.ttl


class TrafficModel(ABC):
    """An arrival process: deployment in, injection schedule out.

    :meth:`generate` must be deterministic — same model parameters and
    same topology give the same schedule — and must return messages in
    non-decreasing ``injected_at`` order with dense ids ``0..count-1``.
    """

    #: Registry/display name of the arrival process.
    kind: str = "abstract"

    @abstractmethod
    def generate(self, graph: Topology) -> List[Message]:
        """The full injection schedule for one service run."""

    def _sources(self, graph: Topology) -> List[int]:
        """The eligible source nodes, in stable sorted order."""
        nodes = sorted(graph.nodes())
        if not nodes:
            raise ValueError("cannot generate traffic for an empty graph")
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.kind!r}>"


class SingleShot(TrafficModel):
    """Exactly one message — a single broadcast."""

    kind = "single-shot"

    def __init__(
        self,
        source: int,
        injected_at: float = 0.0,
        size_units: int = 0,
        ttl: Optional[float] = None,
    ) -> None:
        self.source = source
        self.injected_at = injected_at
        self.size_units = size_units
        self.ttl = ttl

    def generate(self, graph: Topology) -> List[Message]:
        if self.source not in graph:
            raise KeyError(f"source {self.source} not in the deployment graph")
        return [
            Message(
                message_id=0,
                source=self.source,
                injected_at=self.injected_at,
                size_units=self.size_units,
                ttl=self.ttl,
            )
        ]


class ScriptedTraffic(TrafficModel):
    """A literal, pre-built injection schedule (tests, trace replay)."""

    kind = "scripted"

    def __init__(self, messages: Sequence[Message]) -> None:
        ordered = list(messages)
        for index, message in enumerate(ordered):
            if message.message_id != index:
                raise ValueError(
                    f"scripted message ids must be dense 0..n-1; entry "
                    f"{index} has id {message.message_id}"
                )
            if index and message.injected_at < ordered[index - 1].injected_at:
                raise ValueError(
                    "scripted injections must be in non-decreasing time order"
                )
        self.messages = ordered

    def generate(self, graph: Topology) -> List[Message]:
        for message in self.messages:
            if message.source not in graph:
                raise KeyError(
                    f"source {message.source} not in the deployment graph"
                )
        return list(self.messages)


class PoissonTraffic(TrafficModel):
    """Memoryless arrivals: exponential gaps at ``rate`` messages/time.

    Sources are drawn uniformly from the deployment's nodes.  ``count``
    bounds the schedule (a service run must terminate); the effective
    offered load is ``rate`` for the duration of the schedule.
    """

    kind = "poisson"

    def __init__(
        self,
        rate: float,
        count: int,
        seed: int = 0,
        size_units: int = 0,
        ttl: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self.rate = rate
        self.count = count
        self.seed = seed
        self.size_units = size_units
        self.ttl = ttl

    def generate(self, graph: Topology) -> List[Message]:
        rng = random.Random(traffic_seed(self.kind, self.seed))
        sources = self._sources(graph)
        messages: List[Message] = []
        clock = 0.0
        for index in range(self.count):
            clock += rng.expovariate(self.rate)
            messages.append(
                Message(
                    message_id=index,
                    source=rng.choice(sources),
                    injected_at=clock,
                    size_units=self.size_units,
                    ttl=self.ttl,
                )
            )
        return messages


class BurstyTraffic(TrafficModel):
    """On/off (interrupted Poisson) arrivals.

    The process alternates exponentially distributed *on* periods (mean
    ``mean_on``), during which arrivals are Poisson at ``burst_rate``,
    with exponentially distributed silent *off* periods (mean
    ``mean_off``).  The long-run offered load is ``burst_rate *
    mean_on / (mean_on + mean_off)``.
    """

    kind = "bursty"

    def __init__(
        self,
        burst_rate: float,
        count: int,
        mean_on: float = 5.0,
        mean_off: float = 20.0,
        seed: int = 0,
        size_units: int = 0,
        ttl: Optional[float] = None,
    ) -> None:
        if burst_rate <= 0:
            raise ValueError(f"burst_rate must be positive, got {burst_rate}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if mean_on <= 0 or mean_off <= 0:
            raise ValueError(
                f"mean_on/mean_off must be positive, got "
                f"{mean_on}/{mean_off}"
            )
        self.burst_rate = burst_rate
        self.count = count
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.seed = seed
        self.size_units = size_units
        self.ttl = ttl

    def generate(self, graph: Topology) -> List[Message]:
        rng = random.Random(traffic_seed(self.kind, self.seed))
        sources = self._sources(graph)
        messages: List[Message] = []
        clock = 0.0
        burst_end = rng.expovariate(1.0 / self.mean_on)
        while len(messages) < self.count:
            gap = rng.expovariate(self.burst_rate)
            if clock + gap > burst_end:
                # The burst ends before the next arrival: skip the off
                # period and start a fresh burst.
                clock = burst_end + rng.expovariate(1.0 / self.mean_off)
                burst_end = clock + rng.expovariate(1.0 / self.mean_on)
                continue
            clock += gap
            messages.append(
                Message(
                    message_id=len(messages),
                    source=rng.choice(sources),
                    injected_at=clock,
                    size_units=self.size_units,
                    ttl=self.ttl,
                )
            )
        return messages


class ZipfTraffic(TrafficModel):
    """Poisson arrivals with Zipf-distributed sources.

    Node ranks follow sorted id order; the node of rank ``r`` (1-based)
    sources messages with probability proportional to ``r**-exponent``.
    ``exponent = 0`` degenerates to uniform sources; larger exponents
    concentrate the offered load on a few chatty nodes — the skew that
    stresses per-node queues and fairness.
    """

    kind = "zipf"

    def __init__(
        self,
        rate: float,
        count: int,
        exponent: float = 1.0,
        seed: int = 0,
        size_units: int = 0,
        ttl: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        self.rate = rate
        self.count = count
        self.exponent = exponent
        self.seed = seed
        self.size_units = size_units
        self.ttl = ttl

    def generate(self, graph: Topology) -> List[Message]:
        rng = random.Random(traffic_seed(self.kind, self.seed))
        sources = self._sources(graph)
        weights = [
            (rank + 1) ** -self.exponent for rank in range(len(sources))
        ]
        messages: List[Message] = []
        clock = 0.0
        for index in range(self.count):
            clock += rng.expovariate(self.rate)
            (source,) = rng.choices(sources, weights=weights)
            messages.append(
                Message(
                    message_id=index,
                    source=source,
                    injected_at=clock,
                    size_units=self.size_units,
                    ttl=self.ttl,
                )
            )
        return messages
