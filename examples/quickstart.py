"""Quickstart: broadcast over a random ad hoc network with the generic
framework.

Builds a 50-node unit-disk deployment the way the paper's simulator does,
configures the generic protocol along its four axes (timing, selection,
space, priority), runs one broadcast, and prints what happened.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    FrameworkConfig,
    build_protocol,
    build_scheme,
    events_to_jsonl,
    is_cds,
    random_connected_network,
    run_broadcast,
)


def main() -> None:
    rng = random.Random(7)

    # 1. A 50-node deployment in a 100x100 area, range calibrated so the
    #    average degree is exactly 6 (the paper's sparse setting).
    network = random_connected_network(50, 6.0, rng)
    print(
        f"deployment: {network.node_count} nodes, "
        f"{network.link_count} links, radius {network.radius:.2f}"
    )

    # 2. The generic framework, configured along the paper's four axes.
    config = FrameworkConfig(
        timing="frb",            # decide after a random backoff
        selection="self-pruning",  # each node prunes itself
        hops=2,                  # 2-hop neighborhood information
        priority="degree",       # higher-degree nodes rank higher
    )
    protocol = build_protocol(config)
    scheme = build_scheme(config)

    # 3. One broadcast from node 0, with a full event trace.
    outcome = run_broadcast(
        network.topology,
        protocol,
        source=0,
        scheme=scheme,
        rng=rng,
        collect_trace=True,
    )

    print(f"forward nodes : {outcome.forward_count} of {network.node_count}")
    print(f"delivered to  : {len(outcome.delivered)} nodes")
    print(f"completed at  : t = {outcome.completion_time:.2f}")
    print(
        "forward set is a connected dominating set:",
        is_cds(network.topology, outcome.forward_nodes),
    )

    print("\nfirst ten trace events:")
    for line in events_to_jsonl(outcome.events[:10]).splitlines():
        print(" ", line)

    # 4. Compare against blind flooding: every node transmits.
    saved = network.node_count - outcome.forward_count
    print(
        f"\nvs flooding: {saved} transmissions saved "
        f"({100 * saved / network.node_count:.0f}% reduction)"
    )


if __name__ == "__main__":
    main()
