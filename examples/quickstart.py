#!/usr/bin/env python
"""Quickstart: the paper's Figure-1 configuration, end to end.

Builds the 10x10x10 mesh with the four faults of Figure 1, runs block
construction (Definition 1 / Algorithm 1), identifies the block and
distributes its information along the boundaries (Algorithm 2), then routes
a message with fault-information-based PCS routing (Algorithm 3) and
contrasts it with the information-free baseline.

Run with::

    python examples/quickstart.py
"""

from repro import Mesh, RoutingPolicy, build_blocks, route_offline
from repro.core.distribution import distribute_information_with_report
from repro.core.state import InformationState


def main() -> None:
    # 1. The Figure-1 configuration: four faults in a 10x10x10 mesh.
    mesh = Mesh.cube(10, 3)
    faults = [(3, 5, 4), (4, 5, 4), (5, 5, 3), (3, 6, 3)]
    print(f"mesh: {mesh}  faults: {faults}")

    # 2. Block construction (Definition 1, Algorithm 1).
    result = build_blocks(mesh, faults)
    block = result.blocks[0]
    print(f"\nblock construction converged in {result.rounds} rounds (a_i)")
    print(f"faulty block: {block}  ({len(block.disabled_nodes)} disabled nodes)")

    # 3. Identification + boundary construction (Algorithm 2).
    info, report = distribute_information_with_report(mesh, result.state)
    print(f"identification rounds (b_i): {report.identification_rounds}")
    print(f"boundary construction rounds (c_i): {report.boundary_rounds}")
    print(
        "nodes holding limited-global information: "
        f"{len(info.nodes_holding_information())} of {mesh.size}"
    )

    # 4. Fault-information-based PCS routing (Algorithm 3).
    source, destination = (0, 4, 4), (4, 7, 4)
    informed = route_offline(info, source, destination)
    print(f"\nrouting {source} -> {destination}")
    print(
        f"  limited-global : {informed.outcome.value}, {informed.hops} hops, "
        f"{informed.detours} detours"
    )

    # 5. The same routing without any fault information.
    bare = InformationState(mesh=mesh, labeling=result.state)
    uninformed = route_offline(
        bare, source, destination, policy=RoutingPolicy.no_information()
    )
    print(
        f"  no information : {uninformed.outcome.value}, {uninformed.hops} hops, "
        f"{uninformed.detours} detours, {uninformed.backtrack_hops} backtracks"
    )


if __name__ == "__main__":
    main()
