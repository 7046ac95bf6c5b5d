"""Unit tests for the per-node information state."""

import pytest

from repro.core.state import BlockRecord, BoundaryInfo, InformationState
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region


@pytest.fixture
def info(mesh2d) -> InformationState:
    return InformationState.fresh(mesh2d, faults=[(4, 4)])


class TestRecords:
    def test_block_record_hashable_and_versioned(self):
        a = BlockRecord(Region((1, 1), (2, 2)), version=1)
        b = BlockRecord(Region((1, 1), (2, 2)), version=1)
        assert a == b and hash(a) == hash(b)
        assert a != BlockRecord(Region((1, 1), (2, 2)), version=2)

    def test_boundary_info_validation(self):
        with pytest.raises(ValueError):
            BoundaryInfo(Region((1, 1), (2, 2)), dim=0, dangerous_side=0)
        with pytest.raises(ValueError):
            BoundaryInfo(Region((1, 1), (2, 2)), dim=5, dangerous_side=1)


class TestInformationState:
    def test_fresh_has_faults_and_no_records(self, info):
        assert info.status((4, 4)) is NodeStatus.FAULTY
        assert info.information_cells() == 0
        assert info.nodes_holding_information() == set()

    def test_add_block_info_deduplicates(self, info):
        record = BlockRecord(Region((4, 4), (4, 4)))
        assert info.add_block_info((3, 4), record)
        assert not info.add_block_info((3, 4), record)
        assert info.blocks_known_at((3, 4)) == frozenset({record})
        assert info.has_block_info((3, 4), record.extent)
        assert not info.has_block_info((0, 0), record.extent)

    def test_add_boundary_deduplicates(self, info):
        boundary = BoundaryInfo(Region((4, 4), (4, 4)), dim=0, dangerous_side=-1)
        assert info.add_boundary((3, 3), boundary)
        assert not info.add_boundary((3, 3), boundary)
        assert info.boundaries_at((3, 3)) == frozenset({boundary})

    def test_information_cells_counts_both_kinds(self, info):
        info.add_block_info((3, 4), BlockRecord(Region((4, 4), (4, 4))))
        info.add_boundary(
            (3, 3), BoundaryInfo(Region((4, 4), (4, 4)), dim=0, dangerous_side=-1)
        )
        assert info.information_cells() == 2
        assert info.nodes_holding_information() == {(3, 4), (3, 3)}

    def test_cancel_stale_removes_dead_extents(self, info):
        live = Region((4, 4), (4, 4))
        dead = Region((7, 7), (8, 8))
        info.add_block_info((3, 4), BlockRecord(live))
        info.add_block_info((6, 7), BlockRecord(dead))
        info.add_boundary((6, 6), BoundaryInfo(dead, dim=0, dangerous_side=-1))
        removed = info.cancel_stale([live])
        assert removed == 2
        assert info.blocks_known_at((6, 7)) == frozenset()
        assert info.boundaries_at((6, 6)) == frozenset()
        assert info.blocks_known_at((3, 4))

    def test_clear_information(self, info):
        info.add_block_info((3, 4), BlockRecord(Region((4, 4), (4, 4))))
        info.clear_information()
        assert info.information_cells() == 0
        # labeling untouched
        assert info.status((4, 4)) is NodeStatus.FAULTY

    def test_bump_version(self, info):
        assert info.version == 0
        assert info.bump_version() == 1
        assert info.bump_version() == 2

    def test_add_info_validates_node(self, info):
        with pytest.raises(ValueError):
            info.add_block_info((99, 99), BlockRecord(Region((4, 4), (4, 4))))

    def test_status_tolerates_off_mesh_and_wrong_rank(self, info):
        # (4, 4) is faulty; every unrecorded or malformed coordinate reads
        # as enabled rather than aliasing onto a real node's flat index.
        assert info.status((4, 4)) is NodeStatus.FAULTY
        assert info.status((-1, 4)) is NodeStatus.ENABLED
        assert info.status((4,)) is NodeStatus.ENABLED
        assert info.status((4, 4, 0)) is NodeStatus.ENABLED


class TestCancellationSemantics:
    """The deletion process after a block shrinks, and version monotonicity."""

    def test_shrunk_block_drops_only_stale_boundaries(self, info):
        old_extent = Region((3, 3), (5, 5))
        new_extent = Region((3, 3), (4, 4))  # the block after shrinking
        info.add_block_info((2, 3), BlockRecord(old_extent, version=1))
        info.add_boundary((2, 2), BoundaryInfo(old_extent, dim=0, dangerous_side=-1, version=1))
        info.add_boundary((6, 2), BoundaryInfo(old_extent, dim=1, dangerous_side=+1, version=1))
        info.add_block_info((2, 3), BlockRecord(new_extent, version=2))
        info.add_boundary((2, 2), BoundaryInfo(new_extent, dim=0, dangerous_side=-1, version=2))

        removed = info.cancel_stale([new_extent])
        assert removed == 3  # one block record + two boundary records
        assert {r.extent for r in info.blocks_known_at((2, 3))} == {new_extent}
        assert {b.extent for b in info.boundaries_at((2, 2))} == {new_extent}
        assert info.boundaries_at((6, 2)) == frozenset()

    def test_cancel_stale_with_no_live_extents_drops_everything(self, info):
        extent = Region((4, 4), (5, 5))
        info.add_block_info((3, 4), BlockRecord(extent))
        info.add_boundary((3, 3), BoundaryInfo(extent, dim=0, dangerous_side=-1))
        assert info.cancel_stale([]) == 2
        assert info.information_cells() == 0
        assert info.nodes_holding_information() == set()

    def test_versions_strictly_increase(self, info):
        seen = [info.version]
        for _ in range(5):
            seen.append(info.bump_version())
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        # Cancellation never rolls the generation counter back.
        info.cancel_stale([])
        assert info.version == seen[-1]
        assert info.bump_version() > seen[-1]


class TestChangeReporting:
    """``changed_nodes`` reports exactly the nodes whose records changed."""

    def test_mutators_stamp_their_node(self, info):
        index_of = info.mesh.index_of
        extent = Region((4, 4), (5, 5))
        mark = info.record_mutations
        info.add_block_info((3, 4), BlockRecord(extent))
        info.add_boundary((3, 3), BoundaryInfo(extent, dim=0, dangerous_side=-1))
        assert info.changed_nodes(mark).tolist() == sorted(
            [index_of((3, 4)), index_of((3, 3))]
        )
        mark = info.record_mutations
        assert not info.add_block_info((3, 4), BlockRecord(extent))
        assert info.record_mutations == mark
        assert info.changed_nodes(mark).size == 0

    def test_cancel_stale_reports_only_nodes_that_lost_records(self, info):
        index_of = info.mesh.index_of
        live = Region((4, 4), (4, 4))
        dead = Region((7, 7), (8, 8))
        info.add_block_info((3, 4), BlockRecord(live))
        info.add_block_info((6, 7), BlockRecord(dead))
        info.add_boundary((6, 6), BoundaryInfo(dead, dim=0, dangerous_side=-1))
        mark = info.record_mutations
        info.cancel_stale([live])
        assert info.changed_nodes(mark).tolist() == sorted(
            [index_of((6, 7)), index_of((6, 6))]
        )
        # Nothing left to remove: the call still counts as a change, but
        # no node is reported.
        mark = info.record_mutations
        info.cancel_stale([live])
        assert info.record_mutations == mark + 1
        assert info.changed_nodes(mark).size == 0

    def test_clear_information_reports_every_node(self, info):
        info.add_block_info((3, 4), BlockRecord(Region((4, 4), (4, 4))))
        mark = info.record_mutations
        info.clear_information()
        assert info.changed_nodes(mark) is None
        assert info.changed_nodes(info.record_mutations).size == 0


class TestRoutingGeometryCache:
    """detour_constraints / known_extent_frames stay consistent under mutation."""

    def test_constraints_resolve_prisms(self, info):
        extent = Region((4, 4), (5, 5))
        info.add_boundary((4, 2), BoundaryInfo(extent, dim=1, dangerous_side=-1))
        constraints = info.detour_constraints((4, 2))
        assert constraints == (
            (Region((4, 0), (5, 3)), Region((4, 6), (5, 9))),
        )
        # Cached: the same tuple object is served on a second read.
        assert info.detour_constraints((4, 2)) is constraints

    def test_cache_invalidated_by_new_record(self, info):
        extent = Region((4, 4), (5, 5))
        node = (4, 2)
        assert info.detour_constraints(node) == ()
        info.add_boundary(node, BoundaryInfo(extent, dim=1, dangerous_side=-1))
        assert len(info.detour_constraints(node)) == 1
        info.add_block_info(node, BlockRecord(extent))
        assert len(info.known_extent_frames(node)) == 1
        extent2 = Region((7, 7), (8, 8))
        info.add_block_info(node, BlockRecord(extent2))
        assert {e for e, _ in info.known_extent_frames(node)} == {extent, extent2}

    def test_cache_cleared_by_cancel_and_clear(self, info):
        extent = Region((4, 4), (5, 5))
        node = (4, 2)
        info.add_boundary(node, BoundaryInfo(extent, dim=1, dangerous_side=-1))
        assert info.detour_constraints(node)
        info.cancel_stale([])
        assert info.detour_constraints(node) == ()
        info.add_boundary(node, BoundaryInfo(extent, dim=1, dangerous_side=-1))
        info.clear_information()
        assert info.detour_constraints(node) == ()

    def test_policy_flags_select_record_kinds(self, info):
        extent = Region((4, 4), (5, 5))
        node = (4, 2)
        info.add_boundary(node, BoundaryInfo(extent, dim=1, dangerous_side=-1))
        assert info.detour_constraints(node, use_boundary_info=False) == ()
        info.add_block_info(node, BlockRecord(extent))
        assert info.detour_constraints(node, use_boundary_info=False)
        assert info.known_extent_frames(node, use_block_info=False) == (
            (extent, extent.expand(1)),
        )
