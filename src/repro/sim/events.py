"""Typed simulation events and the pluggable event bus.

Every observable thing the simulation does — a transmission, a delivery,
a drop, a decision, a designation, a scheduled backoff, a hello beacon,
a NACK — is published as one frozen :class:`SimEvent` subclass on an
:class:`EventBus`.  Consumers subscribe callbacks (optionally filtered
by event type), record full traces with :class:`RecordingBus`, or stay
at the zero-cost default :data:`NULL_BUS`, which reports ``active =
False`` so emitters skip even constructing the event object.

For offline analysis, :func:`events_to_jsonl` /
:func:`events_from_jsonl` round-trip a trace through a line-per-event
JSON encoding that is byte-stable under a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

__all__ = [
    "SimEvent",
    "Transmit",
    "Deliver",
    "Drop",
    "Decide",
    "Designate",
    "BackoffScheduled",
    "HelloBeacon",
    "Nack",
    "EventBus",
    "NullBus",
    "RecordingBus",
    "NULL_BUS",
    "events_to_jsonl",
    "events_from_jsonl",
]


@dataclass(frozen=True)
class SimEvent:
    """Base class: something one node did at one simulation time.

    ``message_id`` names the broadcast message the event belongs to.
    A single broadcast is always message 0, so the field defaults to 0
    and :func:`events_to_jsonl` omits it at that default — single-message
    traces keep their pinned byte encoding, while multi-message service
    traces carry the id on every event.
    """

    time: float
    node: int
    message_id: int = 0

    #: Stable wire/type name (the ``type`` key of the JSONL encoding).
    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class Transmit(SimEvent):
    """A node transmitted the packet, announcing its designated set."""

    designated: Tuple[int, ...] = ()
    size_units: int = 0

    kind: ClassVar[str] = "transmit"


@dataclass(frozen=True)
class Deliver(SimEvent):
    """A copy from ``sender`` arrived intact at ``node``."""

    sender: int = -1

    kind: ClassVar[str] = "receive"


@dataclass(frozen=True)
class Drop(SimEvent):
    """A copy from ``sender`` was lost on its way to ``node``.

    ``reason`` is ``"loss"`` (the MAC reported the copy lost at send
    time), ``"collision"`` (a later transmission destroyed the copy in
    flight), ``"queue_full"`` (backpressure: the node's bounded egress
    queue was saturated, so its forward of the message was abandoned —
    here ``sender == node``), or ``"ttl_expired"`` (the copy arrived, or
    a queued transmission came up, after the message's TTL).
    """

    sender: int = -1
    reason: str = "loss"

    kind: ClassVar[str] = "drop"


@dataclass(frozen=True)
class Decide(SimEvent):
    """A node fixed its forward/non-forward status.

    ``reason`` is one of ``"source"`` (the source always forwards),
    ``"timer"`` (the protocol's ordinary timing point),
    ``"forced-designation"`` (strict neighbor designation overrode a
    non-forward decision), or ``"relaxed-designation"`` (re-evaluation
    at the raised designated priority).  ``designated`` flags a timer
    decision forced by strict designation.
    """

    forward: bool = False
    reason: str = "timer"
    designated: bool = False

    kind: ClassVar[str] = "decide"


@dataclass(frozen=True)
class Designate(SimEvent):
    """A forwarding node designated neighbors to forward next."""

    designated: Tuple[int, ...] = ()

    kind: ClassVar[str] = "designate"


@dataclass(frozen=True)
class BackoffScheduled(SimEvent):
    """A node armed its decision timer ``delay`` time units out."""

    delay: float = 0.0

    kind: ClassVar[str] = "backoff"


@dataclass(frozen=True)
class HelloBeacon(SimEvent):
    """One hello beacon: ``node`` announced its table in round ``time``."""

    round_index: int = 0

    kind: ClassVar[str] = "hello"


@dataclass(frozen=True)
class Nack(SimEvent):
    """A node missing the packet NACKed holder ``target`` for a retransmit."""

    target: int = -1

    kind: ClassVar[str] = "nack"


Subscriber = Callable[[SimEvent], None]


class EventBus:
    """Synchronous pub-sub for :class:`SimEvent` instances.

    Emitters must guard on :attr:`active` before constructing an event —
    that is what makes the :data:`NULL_BUS` default genuinely free::

        if bus.active:
            bus.emit(Transmit(time=now, node=v, designated=chosen))
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: List[
            Tuple[Subscriber, Optional[Tuple[Type[SimEvent], ...]]]
        ] = []

    @property
    def active(self) -> bool:
        """Whether emitting is worthwhile (anyone listening/recording)."""
        return bool(self._subscribers)

    def subscribe(
        self,
        callback: Subscriber,
        kinds: Optional[Iterable[Type[SimEvent]]] = None,
    ) -> None:
        """Register ``callback``; ``kinds`` filters by event class."""
        key = tuple(kinds) if kinds is not None else None
        self._subscribers.append((callback, key))

    def emit(self, event: SimEvent) -> None:
        """Deliver ``event`` to every matching subscriber, in order."""
        for callback, kinds in self._subscribers:
            if kinds is None or isinstance(event, kinds):
                callback(event)

    def recorded(self) -> Optional[List[SimEvent]]:
        """The full event list, when this bus records one (else ``None``)."""
        return None


class NullBus(EventBus):
    """The shared zero-cost default: inactive, drops everything."""

    __slots__ = ()

    @property
    def active(self) -> bool:
        """Always ``False`` — emitters skip event construction entirely."""
        return False

    def subscribe(
        self,
        callback: Subscriber,
        kinds: Optional[Iterable[Type[SimEvent]]] = None,
    ) -> None:
        """Refuse: the null bus is shared and must stay inert."""
        raise TypeError(
            "cannot subscribe to the shared null bus; "
            "pass an EventBus or RecordingBus to the session instead"
        )

    def emit(self, event: SimEvent) -> None:
        """Drop the event (emitters normally never even get here)."""


#: The process-wide no-op bus every session defaults to.
NULL_BUS = NullBus()


class RecordingBus(EventBus):
    """An event bus that additionally appends every event to a list."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        super().__init__()
        self._events: List[SimEvent] = []

    @property
    def active(self) -> bool:
        """Always ``True``: recording wants every event."""
        return True

    def emit(self, event: SimEvent) -> None:
        """Record the event, then fan out to subscribers."""
        self._events.append(event)
        super().emit(event)

    @property
    def events(self) -> List[SimEvent]:
        """The recorded events, in emission order (the live list)."""
        return self._events

    def recorded(self) -> Optional[List[SimEvent]]:
        """A snapshot copy of the recorded events."""
        return list(self._events)


_EVENT_TYPES: Dict[str, Type[SimEvent]] = {
    cls.kind: cls
    for cls in (
        Transmit,
        Deliver,
        Drop,
        Decide,
        Designate,
        BackoffScheduled,
        HelloBeacon,
        Nack,
    )
}



def events_to_jsonl(events: Sequence[SimEvent]) -> str:
    """Serialise a trace to JSON Lines, one event per line.

    Keys are sorted and separators fixed, so the encoding of a seeded
    run is byte-stable — the golden-trace tests pin exactly this output.
    """
    lines = []
    for event in events:
        payload = {"type": event.kind}
        payload.update(asdict(event))
        if payload.get("message_id") == 0:
            # Message 0 is the implicit default (a single broadcast's
            # only message); eliding it keeps single-message traces
            # byte-identical to their pinned goldens while multi-message
            # traces carry the id explicitly.
            del payload["message_id"]
        lines.append(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
    return "\n".join(lines)


def events_from_jsonl(text: str) -> List[SimEvent]:
    """Rebuild the typed events serialised by :func:`events_to_jsonl`."""
    events: List[SimEvent] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        payload = json.loads(line)
        try:
            type_name = payload.pop("type")
            cls = _EVENT_TYPES[type_name]
        except KeyError as exc:
            raise ValueError(
                f"line {line_number}: unknown or missing event type"
            ) from exc
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"line {line_number}: unknown fields {sorted(unknown)} "
                f"for event type {type_name!r}"
            )
        for name, value in payload.items():
            # JSON has no tuples; every list came from a tuple field
            # (e.g. Transmit.designated) and must go back to one so the
            # rebuilt events compare equal to the originals.
            if isinstance(value, list):
                payload[name] = tuple(value)
        events.append(cls(**payload))
    return events
