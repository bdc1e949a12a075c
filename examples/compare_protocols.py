"""Head-to-head comparison of every implemented broadcast protocol.

Samples a batch of random deployments and, for each registered protocol,
reports the average forward-node count, completion time, and whether the
broadcast ever failed to cover the network (it must not, under an ideal
MAC).  This is the library-level view of the paper's Section 7
comparisons, all on one table.

Run:  python examples/compare_protocols.py [n] [degree]
"""

import random
import statistics
import sys

from repro import SimulationEnvironment, is_cds, run_broadcast
from repro.algorithms import REGISTRY, create
from repro.core.priority import scheme_by_name
from repro.graph.generators import random_connected_network

TRIALS = 15


def main(n: int = 50, degree: float = 6.0) -> None:
    rng = random.Random(2003)
    deployments = [
        random_connected_network(n, degree, rng) for _ in range(TRIALS)
    ]
    sources = [rng.choice(d.topology.nodes()) for d in deployments]

    print(
        f"{TRIALS} random deployments, n={n}, average degree {degree:g}\n"
    )
    header = f"{'protocol':18s} {'forward':>8s} {'stdev':>6s} {'time':>7s} {'cds':>4s}"
    print(header)
    print("-" * len(header))

    rows = []
    for name in REGISTRY:
        scheme = scheme_by_name("id")
        counts, times, all_cds = [], [], True
        for trial, (deployment, source) in enumerate(
            zip(deployments, sources)
        ):
            env = SimulationEnvironment(deployment.topology, scheme)
            protocol = create(name)
            protocol.prepare(env)
            outcome = run_broadcast(
                deployment.topology, protocol, source,
                rng=random.Random(trial), env=env,
            )
            if outcome.delivered != set(deployment.topology.nodes()):
                raise AssertionError(f"{name} failed to cover the network")
            counts.append(outcome.forward_count)
            times.append(outcome.completion_time)
            all_cds &= is_cds(deployment.topology, outcome.forward_nodes)
        rows.append(
            (
                statistics.mean(counts),
                name,
                statistics.stdev(counts),
                statistics.mean(times),
                all_cds,
            )
        )

    for mean_count, name, stdev, mean_time, all_cds in sorted(rows):
        print(
            f"{name:18s} {mean_count:8.2f} {stdev:6.2f} "
            f"{mean_time:7.2f} {'yes' if all_cds else 'NO':>4s}"
        )

    print(
        "\n(forward = average forward-node count, lower is better; "
        "time = broadcast completion in MAC delay units; "
        "cds = forward sets were always connected dominating sets)"
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    degree = float(sys.argv[2]) if len(sys.argv) > 2 else 6.0
    main(n, degree)
