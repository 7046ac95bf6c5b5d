"""Figure 6 — propagation of the identified block information.

After the identification forms the block record at the opposite corner, it
is propagated back to all adjacent nodes, edge nodes and corners of the
block, which then triggers boundary construction (the reactive model skips
nodes that already hold the record).  The bench measures the distribution
coverage and the reactive-skip behaviour, and times the full
identification + boundary pipeline.
"""

from _common import print_table

from repro.core.block_construction import build_blocks
from repro.core.distribution import distribute_information_with_report
from repro.core.identification import IdentificationProtocol
from repro.workloads.scenarios import FIGURE1_EXTENT, FIGURE1_FAULTS, figure1_scenario


def test_fig6_information_distribution(benchmark):
    scenario = figure1_scenario()
    mesh = scenario.mesh
    labeling = build_blocks(mesh, FIGURE1_FAULTS).state
    block = build_blocks(mesh, FIGURE1_FAULTS).blocks[0]

    info, report = benchmark(distribute_information_with_report, mesh, labeling)

    frame = set(block.frame_nodes(mesh))
    frame_with_record = sum(1 for n in frame if info.has_block_info(n, FIGURE1_EXTENT))
    holders = info.nodes_holding_information()

    # Reactive model: re-running the identification against the already
    # informed state delivers no new record.
    protocol = IdentificationProtocol(info, block)
    protocol.run()
    new_records = sum(
        1 for n in frame if len(info.blocks_known_at(n)) > 1
    )

    print_table(
        "Figure 6: distribution of the identified block information",
        ["quantity", "paper", "measured"],
        [
            ("frame nodes holding the record", "all adjacent/edge/corner nodes", f"{frame_with_record}/{len(frame)}"),
            ("identification rounds b_i", "O(block perimeter)", report.identification_rounds),
            ("boundary rounds c_i", "<= distance to mesh surface", report.boundary_rounds),
            ("nodes holding any information", "limited (near the block)", f"{len(holders)}/{mesh.size}"),
            ("duplicate records after re-propagation", "0 (reactive model)", new_records),
        ],
    )

    assert frame_with_record == len(frame)
    assert len(holders) < mesh.size // 2
    assert new_records == 0
