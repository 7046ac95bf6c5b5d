"""Unit tests for the enabled/disabled/clean labeling (Definitions 1/4, Algorithm 1)."""

import random

import pytest

from repro.backend import ENV_VAR, SCALAR, VECTOR
from repro.core import block_construction
from repro.core.block_construction import (
    LabelingState,
    build_blocks,
    extract_blocks,
    labeling_round,
    run_block_construction,
)
from repro.core.faulty_block import FaultyBlock
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.workloads.scenarios import FIGURE1_EXTENT, FIGURE1_FAULTS


class TestLabelingState:
    def test_default_status_is_enabled(self, mesh3d):
        state = LabelingState(mesh=mesh3d)
        assert state.status((4, 4, 4)) is NodeStatus.ENABLED

    def test_make_faulty_and_recover(self, mesh3d):
        state = LabelingState(mesh=mesh3d)
        state.make_faulty((4, 4, 4))
        assert state.status((4, 4, 4)) is NodeStatus.FAULTY
        state.recover((4, 4, 4))
        assert state.status((4, 4, 4)) is NodeStatus.CLEAN

    def test_recover_non_faulty_raises(self, mesh3d):
        state = LabelingState(mesh=mesh3d)
        with pytest.raises(ValueError):
            state.recover((1, 1, 1))

    def test_set_enabled_drops_entry(self, mesh3d):
        state = LabelingState(mesh=mesh3d)
        state.set_status((2, 2, 2), NodeStatus.DISABLED)
        state.set_status((2, 2, 2), NodeStatus.ENABLED)
        assert state.non_enabled_nodes() == {}

    def test_nodes_with_status_rejects_enabled(self, mesh3d):
        state = LabelingState(mesh=mesh3d)
        with pytest.raises(ValueError):
            state.nodes_with_status(NodeStatus.ENABLED)

    def test_copy_is_independent(self, mesh3d):
        state = LabelingState.from_faults(mesh3d, [(4, 4, 4)])
        clone = state.copy()
        clone.make_faulty((5, 5, 5))
        assert state.status((5, 5, 5)) is NodeStatus.ENABLED

    def test_is_operational(self, mesh3d):
        state = LabelingState.from_faults(mesh3d, [(4, 4, 4)])
        assert not state.is_operational((4, 4, 4))
        assert state.is_operational((0, 0, 0))


class TestDefinition1:
    """Rule 1: a node with >=2 faulty/disabled neighbors in different dims disables."""

    def test_isolated_fault_disables_nobody(self, mesh2d):
        result = build_blocks(mesh2d, [(5, 5)])
        assert result.state.disabled_nodes == set()
        assert len(result.blocks) == 1
        assert result.blocks[0].extent == Region((5, 5), (5, 5))

    def test_two_faults_same_dimension_disable_nobody(self, mesh2d):
        # Neighbors along the same dimension do not trigger rule 1.
        result = build_blocks(mesh2d, [(4, 5), (6, 5)])
        assert result.state.disabled_nodes == set()
        assert len(result.blocks) == 2

    def test_diagonal_faults_disable_the_corner_nodes(self, mesh2d):
        # (4,4) and (5,5) faulty: both (4,5) and (5,4) see faults in two dims.
        result = build_blocks(mesh2d, [(4, 4), (5, 5)])
        assert result.state.disabled_nodes == {(4, 5), (5, 4)}
        assert len(result.blocks) == 1
        assert result.blocks[0].extent == Region((4, 4), (5, 5))

    def test_concave_fault_pattern_fills_to_rectangle(self, mesh2d):
        # A connected L-shaped fault pattern must fill in to a full rectangle:
        # the inner corner nodes see faults/disabled nodes in two dimensions.
        faults = [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]
        result = build_blocks(mesh2d, faults)
        assert len(result.blocks) == 1
        block = result.blocks[0]
        assert block.extent == Region((3, 3), (5, 5))
        assert block.is_rectangular

    def test_figure1_block(self, mesh3d):
        """Figure 1: the four faults produce block [3:5, 5:6, 3:4]."""
        result = build_blocks(mesh3d, FIGURE1_FAULTS)
        assert len(result.blocks) == 1
        block = result.blocks[0]
        assert block.extent == FIGURE1_EXTENT
        assert block.is_rectangular
        assert block.faulty_nodes == frozenset(FIGURE1_FAULTS)
        # 3*2*2 extent = 12 members, 4 faulty, 8 disabled.
        assert len(block.disabled_nodes) == 8

    def test_disjoint_blocks_stay_disjoint(self, mesh3d):
        faults = [(2, 2, 2), (2, 3, 3), (7, 7, 7), (8, 8, 7)]
        result = build_blocks(mesh3d, faults)
        extents = sorted(b.extent for b in result.blocks)
        assert len(result.blocks) == 2
        assert extents[0].intersects(extents[1]) is False


class TestConvergence:
    def test_rounds_counted(self, mesh3d):
        result = build_blocks(mesh3d, FIGURE1_FAULTS)
        assert result.rounds >= 1
        assert result.status_changes >= len(result.state.disabled_nodes)

    def test_stable_state_has_no_further_changes(self, mesh3d):
        result = build_blocks(mesh3d, FIGURE1_FAULTS)
        assert labeling_round(result.state) == 0

    def test_rounds_scale_with_block_edge(self):
        """a_i grows with the block's longest edge, not the mesh size."""
        mesh = Mesh.cube(20, 2)
        small = build_blocks(mesh, [(5, 5), (6, 6)]).rounds
        # A long thin diagonal chain forces a larger fill-in.
        chain = [(5 + i, 5 + i) for i in range(5)]
        large = build_blocks(mesh, chain).rounds
        assert large > small

    def test_max_rounds_guard(self, mesh2d):
        state = LabelingState.from_faults(mesh2d, [(4, 4), (5, 5)])
        with pytest.raises(RuntimeError):
            run_block_construction(state, max_rounds=0)


class TestDefinition4Recovery:
    def test_recovered_isolated_fault_becomes_enabled(self, mesh2d):
        state = LabelingState.from_faults(mesh2d, [(5, 5)])
        run_block_construction(state)
        state.recover((5, 5))
        run_block_construction(state)
        assert state.status((5, 5)) is NodeStatus.ENABLED
        assert extract_blocks(state) == []

    def test_recovery_shrinks_block(self, mesh2d):
        # Block seeded by diagonal faults; recovering one fault dissolves it.
        state = LabelingState.from_faults(mesh2d, [(4, 4), (5, 5)])
        run_block_construction(state)
        assert state.disabled_nodes == {(4, 5), (5, 4)}
        state.recover((5, 5))
        run_block_construction(state)
        assert state.status((5, 5)) is NodeStatus.ENABLED
        assert state.disabled_nodes == set()
        blocks = extract_blocks(state)
        assert [b.extent for b in blocks] == [Region((4, 4), (4, 4))]

    def test_figure4_recovery(self, mesh3d):
        """Figure 4: recovering (5,5,3) re-stabilizes to smaller blocks.

        After the recovery the remaining faults are (3,5,4), (4,5,4) and
        (3,6,3); the paper's rules keep (3,5,3) disabled (two faulty
        neighbors in different dimensions) while (4,5,3), (5,6,3) and
        (5,5,4) eventually become enabled or re-disable per Definition 1.
        """
        state = LabelingState.from_faults(mesh3d, FIGURE1_FAULTS)
        run_block_construction(state)
        state.recover((5, 5, 3))
        run_block_construction(state)
        # The recovered node must not stay clean.
        assert state.status((5, 5, 3)) is not NodeStatus.CLEAN
        # (3,5,3) keeps two faulty neighbors (3,5,4) and (3,6,3) in different
        # dimensions, so it stays disabled exactly as in the paper's walkthrough.
        assert state.status((3, 5, 3)) is NodeStatus.DISABLED
        # All remaining block members stay within the old extent.
        for block in extract_blocks(state):
            assert FIGURE1_EXTENT.contains_region(block.extent)

    def test_clean_propagates_through_disabled_region(self, mesh2d):
        # A diagonal chain of faults fills in a 3x3 disabled region.
        faults = [(3, 3), (4, 4), (5, 5)]
        state = LabelingState.from_faults(mesh2d, faults)
        run_block_construction(state)
        assert state.status((3, 4)) is NodeStatus.DISABLED
        assert state.status((5, 4)) is NodeStatus.DISABLED
        # Recover everything; the clean wave must dissolve the whole block.
        for fault in faults:
            state.recover(fault)
        run_block_construction(state)
        assert state.disabled_nodes == set()
        assert state.nodes_with_status(NodeStatus.CLEAN) == set()
        assert state.faulty_nodes == set()


class TestExtractBlocks:
    def test_empty_state_has_no_blocks(self, mesh2d):
        assert extract_blocks(LabelingState(mesh=mesh2d)) == []

    def test_block_membership_partition(self, mesh3d):
        result = build_blocks(mesh3d, FIGURE1_FAULTS)
        blocks = result.blocks
        members = set()
        for block in blocks:
            assert not members & set(block.nodes)
            members |= set(block.nodes)
        assert members == result.state.block_nodes


def _oracle_blocks(state):
    """Components of faulty∪disabled nodes by a walk over coordinate
    tuples: the reference :func:`extract_blocks`' index walk must match."""
    mesh = state.mesh
    members = state.block_nodes
    faulty = state.faulty_nodes
    seen = set()
    blocks = []
    for start in sorted(members):
        if start in seen:
            continue
        component = set()
        frontier = [start]
        seen.add(start)
        while frontier:
            node = frontier.pop()
            component.add(node)
            for neighbor in mesh.neighbors(node):
                if neighbor in members and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        blocks.append(
            FaultyBlock.from_nodes(sorted(component), faulty_nodes=sorted(component & faulty))
        )
    return blocks


def _random_labeling(rng, shape):
    """Random statuses: most labelings are transient, with blocks that are
    not rectangles."""
    state = LabelingState(mesh=Mesh(shape))
    weights = rng.choice(((6, 1, 1, 1), (3, 1, 2, 1), (12, 1, 1, 0)))
    statuses = (NodeStatus.ENABLED, NodeStatus.FAULTY, NodeStatus.DISABLED, NodeStatus.CLEAN)
    for node in state.mesh.nodes():
        state.set_status(node, rng.choices(statuses, weights)[0])
    return state


class TestExtractBlocksOnIndices:
    @pytest.mark.parametrize("shape", ((7, 7), (5, 4, 5), (4, 3, 3, 4)))
    def test_matches_coordinate_walk(self, shape):
        rng = random.Random(f"extract-blocks/{shape}")
        irregular = 0
        for case in range(40):
            if case % 4 == 0:
                mesh = Mesh(shape)
                faults = rng.sample(list(mesh.nodes()), rng.randint(1, 5))
                state = build_blocks(mesh, faults).state
            else:
                state = _random_labeling(rng, shape)
            blocks = extract_blocks(state)
            assert blocks == _oracle_blocks(state), (shape, case)
            irregular += sum(not block.is_rectangular for block in blocks)
        assert irregular > 10  # transient, non-rectangular blocks covered

    def test_memo_follows_every_mutation(self, mesh2d, monkeypatch):
        state = build_blocks(mesh2d, [(3, 3), (4, 4)]).state
        first = extract_blocks(state)
        assert extract_blocks(state)[0] is first[0]  # one walk per labeling

        def members():
            blocks = extract_blocks(state)
            assert blocks == _oracle_blocks(state)
            return {node for block in blocks for node in block.nodes}

        state.set_status((7, 7), NodeStatus.DISABLED)
        assert (7, 7) in members()
        state.make_faulty((1, 8))
        assert (1, 8) in members()
        state.recover((1, 8))
        assert (1, 8) not in members()
        for backend, spot in ((SCALAR, (7, 3)), (VECTOR, (1, 3))):
            # A disabled node next to a clean one turns clean in the round.
            monkeypatch.setenv(ENV_VAR, backend)
            state.set_status(spot, NodeStatus.DISABLED)
            state.set_status((spot[0], spot[1] + 1), NodeStatus.CLEAN)
            assert spot in members()
            assert labeling_round(state)
            assert spot not in members()
        copy = state.copy()
        copy.make_faulty((8, 1))
        assert (8, 1) in {n for b in extract_blocks(copy) for n in b.nodes}
        assert (8, 1) not in members()
        state.make_faulty((1, 1))
        assert (1, 1) in members()
        assert (1, 1) not in {n for b in extract_blocks(copy) for n in b.nodes}

    def test_returned_list_is_the_callers(self, mesh2d):
        state = build_blocks(mesh2d, [(3, 3), (4, 4)]).state
        extract_blocks(state).clear()
        assert len(extract_blocks(state)) == 1

    def test_offline_consumers_share_one_walk(self, monkeypatch, mesh3d):
        """The information distribution, static-block's adjacent view and
        the boundary merges read one extraction of a stable labeling."""
        from repro.core.distribution import distribute_information
        from repro.routing.static_block import adjacent_only_information

        walks = []
        walk = block_construction._walk_blocks
        monkeypatch.setattr(
            block_construction, "_walk_blocks",
            lambda state: walks.append(state) or walk(state),
        )
        # Two blocks in one column: the boundary walkers of one merge into
        # the other.
        state = build_blocks(mesh3d, [(4, 4, 2), (4, 4, 6), (5, 5, 6)]).state
        distribute_information(mesh3d, state)
        adjacent_only_information(mesh3d, state)
        assert walks == [state]
