"""Frozen output of the retired single-message broadcast engine.

The repo used to run Algorithm 1 on two event loops: a single-message
reference engine and :class:`~repro.sim.service.ServiceEngine`, kept
equal by live identity gates.  ``legacy_engine_golden.jsonl`` freezes
the reference engine's output, one JSON record per case, so those gates
survive as byte comparisons against the file after the second loop was
deleted.  Each record holds the case id, protocol label, seed, source,
sorted forward set, completion time, bytes transmitted and the sha256 of
the :func:`~repro.sim.events.events_to_jsonl` event stream.

Three case sets, each rebuilt here from its id:

* ``service/<seed>`` — seeds 0-49 on 12-30 node deployments, one of five
  protocol families per seed;
* ``registry/<name>/<seed>`` — every registered protocol plus
  :class:`~repro.algorithms.gossip.Gossip`, seeds 0-9, same deployments;
* ``traffic/n<n>/<label>/<seed>`` — the identity configurations of
  ``benchmarks/bench_traffic.py`` (smoke: n=40, 4 seeds; full: n=200,
  6 seeds).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from typing import Callable, Dict, NamedTuple, Optional

from repro.algorithms import registry
from repro.algorithms.base import BroadcastProtocol, Timing
from repro.algorithms.dominant_pruning import DominantPruning
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.algorithms.gossip import Gossip
from repro.algorithms.mpr import MultipointRelay
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import (
    BroadcastOutcome,
    SimulationEnvironment,
    run_broadcast,
)
from repro.sim.events import events_to_jsonl

from ..divergence import first_divergence

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "legacy_engine_golden.jsonl"
)

Factory = Callable[[], BroadcastProtocol]

SERVICE_SEEDS = range(50)
SERVICE_PROTOCOLS: Dict[str, Factory] = {
    "flooding": Flooding,
    "FR": lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2),
    "FRB": lambda: GenericSelfPruning(Timing.FIRST_RECEIPT_BACKOFF, hops=2),
    "DP": DominantPruning,
    "MPR": MultipointRelay,
}

REGISTRY_SEEDS = range(10)
#: Every registered protocol plus the probabilistic contrast class.
REGISTRY_PROTOCOLS: Dict[str, Factory] = {
    **{name: registry.REGISTRY[name].factory for name in registry.names()},
    "gossip": Gossip,
}

TRAFFIC_SEED = 20030519
TRAFFIC_PROTOCOLS: Dict[str, Factory] = {
    "flooding": Flooding,
    "FR": lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2),
    "DP": DominantPruning,
}


class Case(NamedTuple):
    """One golden case: a fresh deployment plus the run's inputs."""

    case_id: str
    protocol: str
    seed: int
    graph: Topology
    factory: Factory
    source: int
    rng_seed: int


def _small_case(case_id: str, label: str, factory: Factory, seed: int) -> Case:
    rng = random.Random(seed)
    source_seed = rng.randrange(2 ** 32)
    rng = random.Random(seed)
    graph = random_connected_network(rng.randint(12, 30), 6.0, rng).topology
    source = random.Random(source_seed).choice(graph.nodes())
    return Case(case_id, label, seed, graph, factory, source, seed ^ 0xDEAD)


def service_case(seed: int) -> Case:
    """The service identity matrix: one protocol family per seed."""
    label = list(SERVICE_PROTOCOLS)[seed % len(SERVICE_PROTOCOLS)]
    return _small_case(
        f"service/{seed}", label, SERVICE_PROTOCOLS[label], seed
    )


def registry_case(name: str, seed: int) -> Case:
    """A registered protocol (or ``gossip``) on a small deployment."""
    return _small_case(
        f"registry/{name}/{seed}", name, REGISTRY_PROTOCOLS[name], seed
    )


def traffic_case(n: int, degree: float, label: str, seed: int) -> Case:
    """One of ``bench_traffic``'s identity runs."""
    graph = random_connected_network(
        n, degree, random.Random(TRAFFIC_SEED + seed)
    ).topology
    return Case(
        f"traffic/n{n}/{label}/{seed}",
        label,
        seed,
        graph,
        TRAFFIC_PROTOCOLS[label],
        random.Random(seed).choice(graph.nodes()),
        TRAFFIC_SEED ^ seed,
    )


def run_case(case: Case) -> BroadcastOutcome:
    """Run ``case`` through the broadcast service, trace recorded."""
    env = SimulationEnvironment(case.graph)
    protocol = case.factory()
    protocol.prepare(env)
    return run_broadcast(
        case.graph,
        protocol,
        case.source,
        rng=random.Random(case.rng_seed),
        collect_trace=True,
        env=env,
    )


def golden_record(case: Case, outcome: BroadcastOutcome) -> Dict:
    """The stored fields of one run, in the golden file's shape."""
    stream = events_to_jsonl(outcome.events).encode()
    return {
        "case": case.case_id,
        "protocol": case.protocol,
        "seed": case.seed,
        "source": outcome.source,
        "forward_nodes": sorted(outcome.forward_nodes),
        "completion_time": outcome.completion_time,
        "bytes_transmitted": outcome.bytes_transmitted,
        "events_sha256": hashlib.sha256(stream).hexdigest(),
    }


@functools.lru_cache(maxsize=1)
def load_golden() -> Dict[str, Dict]:
    """The frozen records, keyed by case id."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {record["case"]: record for record in records}


def divergence(case: Case, outcome: BroadcastOutcome) -> Optional[str]:
    """Compare a service run of ``case`` with its frozen record.

    ``None`` when byte-equal; otherwise the case id and the first
    divergent stored field.
    """
    expected = load_golden().get(case.case_id)
    if expected is None:
        return f"{case.case_id}: no frozen record"
    found = first_divergence(
        expected, golden_record(case, outcome), "legacy", "service"
    )
    return None if found is None else f"{case.case_id} {found}"
