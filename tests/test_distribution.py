"""Unit tests for end-to-end information distribution (Algorithm 2 composition)."""

from repro.core.block_construction import build_blocks
from repro.core.distribution import (
    converged_information,
    distribute_information,
    distribute_information_with_report,
)
from repro.workloads.scenarios import (
    FIGURE1_EXTENT,
    FIGURE1_FAULTS,
    parametric_block_scenario,
    two_block_scenario,
)


class TestDistributeInformation:
    def test_every_frame_node_gets_block_record(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        info = distribute_information(mesh3d, labeling)
        result = build_blocks(mesh3d, FIGURE1_FAULTS)
        block = result.blocks[0]
        for node in block.frame_nodes(mesh3d):
            assert info.has_block_info(node, FIGURE1_EXTENT)

    def test_boundary_records_exist_beyond_frame(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        info = distribute_information(mesh3d, labeling)
        holders = info.nodes_holding_information()
        # Boundary columns extend to the mesh surface, well beyond the frame.
        assert any(node[1] == 0 for node in holders)

    def test_report_round_counts_positive(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        _, report = distribute_information_with_report(mesh3d, labeling)
        assert report.identification_rounds > 0
        assert report.boundary_rounds > 0
        assert report.total_rounds == (
            report.identification_rounds + report.boundary_rounds
        )
        assert FIGURE1_EXTENT in report.identifications
        assert report.identifications[FIGURE1_EXTENT].stable

    def test_no_faults_means_no_information(self, mesh2d):
        from repro.core.block_construction import LabelingState

        info, report = distribute_information_with_report(
            mesh2d, LabelingState(mesh=mesh2d)
        )
        assert info.information_cells() == 0
        assert report.total_rounds == 0

    def test_converged_information_one_call(self, mesh3d):
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        assert info.information_cells() > 0

    def test_two_blocks_both_identified(self):
        scenario = two_block_scenario()
        labeling = build_blocks(scenario.mesh, scenario.schedule.initial_faults).state
        _, report = distribute_information_with_report(scenario.mesh, labeling)
        assert set(report.identifications) == set(scenario.expected_extents)
        assert all(r.stable for r in report.identifications.values())

    def test_information_limited_to_fraction_of_mesh(self):
        """The 'limited' in limited-global: most nodes hold no information."""
        scenario = parametric_block_scenario(16, 3, edge=2)
        info = converged_information(
            scenario.mesh, list(scenario.expected_extents[0].iter_points())
        )
        holders = len(info.nodes_holding_information())
        assert holders < scenario.mesh.size * 0.25
