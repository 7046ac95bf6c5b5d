"""Unit tests for the n-level identification process."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import identification
from repro.core.block_construction import build_blocks
from repro.core.identification import (
    FrameGeometry,
    IdentificationProtocol,
    frame_geometry,
    oracle_identify,
)
from repro.core.state import InformationState
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.workloads.scenarios import FIGURE1_EXTENT, FIGURE1_FAULTS, parametric_block_scenario


def converged_state(mesh, faults):
    result = build_blocks(mesh, faults)
    info = InformationState(mesh=mesh, labeling=result.state)
    return info, result.blocks


class TestOracle:
    def test_oracle_is_bounding_box(self):
        assert oracle_identify(FIGURE1_FAULTS) == FIGURE1_EXTENT

    def test_oracle_single_node(self):
        assert oracle_identify([(2, 3)]) == Region((2, 3), (2, 3))


class TestIdentificationProtocol:
    def test_identifies_figure1_block(self, mesh3d):
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        result = IdentificationProtocol(info, blocks[0]).run()
        assert result.stable
        assert result.extent == FIGURE1_EXTENT

    def test_corner_to_corner_geometry(self, mesh3d):
        """The process starts at an n-level corner and forms the block at the
        opposite corner (Figure 5)."""
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        protocol = IdentificationProtocol(info, blocks[0])
        block = blocks[0]
        assert block.level_of(protocol.initialization_corner) == 3
        assert block.level_of(protocol.opposite_corner) == 3
        # Diagonally opposite: they differ in every dimension.
        assert all(
            a != b
            for a, b in zip(protocol.initialization_corner, protocol.opposite_corner)
        )
        result = protocol.run()
        assert result.stable

    def test_record_distributed_to_whole_frame(self, mesh3d):
        """Figure 6: the identified information reaches all adjacent nodes,
        edge nodes and corners of the block."""
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        block = blocks[0]
        protocol = IdentificationProtocol(info, block)
        protocol.run()
        frame = set(block.frame_nodes(mesh3d))
        assert protocol.informed_nodes == frame
        for node in frame:
            assert info.has_block_info(node, block.extent)

    def test_rounds_scale_with_block_perimeter_not_mesh(self):
        """b_i grows with the block size, not the mesh size."""
        small = parametric_block_scenario(12, 3, edge=2)
        large = parametric_block_scenario(12, 3, edge=5)
        rounds = {}
        for scenario in (small, large):
            info, blocks = converged_state(
                scenario.mesh, scenario.schedule.initial_faults
            )
            rounds[scenario.name] = IdentificationProtocol(info, blocks[0]).run().total_rounds
        assert rounds[large.name] > rounds[small.name]

        # Same block in a much larger mesh: round count unchanged.
        same_small = parametric_block_scenario(20, 3, edge=2, origin=(5, 5, 5))
        info, blocks = converged_state(
            same_small.mesh, same_small.schedule.initial_faults
        )
        assert IdentificationProtocol(info, blocks[0]).run().total_rounds == pytest.approx(
            rounds[small.name], abs=2
        )

    def test_explicit_initialization_corner(self, mesh3d):
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        # The paper's Figure 5 initiates at C(xmax, ymin, zmax) = (6, 4, 5).
        protocol = IdentificationProtocol(
            info, blocks[0], initialization_corner=(6, 4, 5)
        )
        assert protocol.opposite_corner == (2, 7, 2)
        result = protocol.run()
        assert result.stable
        assert result.extent == FIGURE1_EXTENT

    def test_invalid_initialization_corner_rejected(self, mesh3d):
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        with pytest.raises(ValueError):
            IdentificationProtocol(info, blocks[0], initialization_corner=(0, 0, 0))

    def test_works_in_2d_and_4d(self):
        for n_dims, radix, edge in ((2, 10, 3), (4, 6, 2)):
            scenario = parametric_block_scenario(radix, n_dims, edge=edge)
            info, blocks = converged_state(
                scenario.mesh, scenario.schedule.initial_faults
            )
            result = IdentificationProtocol(info, blocks[0]).run()
            assert result.stable
            assert result.extent == scenario.expected_extents[0]

    def test_instability_when_block_grows_mid_identification(self, mesh3d):
        """A fault appearing on the frame while identifying aborts the process."""
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        block = blocks[0]
        protocol = IdentificationProtocol(info, block)
        protocol.round()
        # A relay node on the frame (the opposite corner) turns faulty.
        info.labeling.make_faulty(protocol.opposite_corner)
        result = protocol.run()
        assert not result.stable

    def test_relay_that_fails_and_recovers_reports_unstable(self):
        """The initiating corner fails before round 4 and recovers before
        round 7: the block ends as it began and the wave still forms it at
        the opposite corner, so only the check that an active node stopped
        relaying sees the discarded message."""

        class NoRelayCheck(IdentificationProtocol):
            def _identification_round(self):
                self._check_relay = False
                super()._identification_round()

        def run(protocol_class):
            mesh = Mesh((6, 6))
            info, blocks = converged_state(mesh, [(3, 2)])
            protocol = protocol_class(info, blocks[0], initialization_corner=(4, 3))
            for number in range(1, protocol.ttl + 2):
                if number == 4:
                    info.labeling.make_faulty((4, 3))
                elif number == 7:
                    info.labeling.recover((4, 3))
                if not protocol.round():
                    break
            return protocol.result

        result = run(IdentificationProtocol)
        assert result.extent == Region((3, 2), (3, 2))
        assert result.stable is False
        # The check alone decides it: without it the same run reads stable.
        assert run(NoRelayCheck).stable is True

    def test_ttl_expiry_reports_unstable(self, mesh3d):
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        protocol = IdentificationProtocol(info, blocks[0], ttl=1)
        result = protocol.run()
        assert not result.stable

    def test_version_is_stamped(self, mesh3d):
        info, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        result = IdentificationProtocol(info, blocks[0], version=7).run()
        assert result.version == 7
        record = next(iter(info.blocks_known_at(blocks[0].corners(mesh3d)[0])))
        assert record.version == 7


class TestSharedFrameGeometry:
    @pytest.fixture(autouse=True)
    def own_cache(self, monkeypatch):
        """An empty frame cache of its own for each test."""
        self.cache = identification._FrameCache(identification.FRAME_CACHE_BYTES)
        monkeypatch.setattr(identification, "_FRAME_CACHE", self.cache)

    def _solo(self, mesh, faults, perturb=None):
        """One protocol run alone."""
        info, blocks = converged_state(mesh, faults)
        protocol = IdentificationProtocol(info, blocks[0])
        protocol.round()
        if perturb is not None:
            info.labeling.make_faulty(perturb)
        return protocol.run(), info.node_blocks

    def test_protocols_on_one_extent_advance_independently(self, mesh3d):
        """Two protocols share one cached frame but no state: advanced in
        turns, one of them disturbed mid-flight, each ends exactly as it
        does alone."""
        stable = self._solo(mesh3d, FIGURE1_FAULTS)
        info_a, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        info_b, _ = converged_state(mesh3d, FIGURE1_FAULTS)
        a = IdentificationProtocol(info_a, blocks[0])
        b = IdentificationProtocol(info_b, blocks[0])
        assert a._frame is b._frame
        unstable = self._solo(mesh3d, FIGURE1_FAULTS, perturb=b.opposite_corner)
        assert not unstable[0].stable
        a.round()
        b.round()
        info_b.labeling.make_faulty(b.opposite_corner)
        while a.round() | b.round():
            pass
        assert (a.result, info_a.node_blocks) == stable
        assert (b.result, info_b.node_blocks) == unstable

    def test_cached_arrays_are_read_only(self, mesh3d):
        _, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        frame = frame_geometry(blocks[0].extent, mesh3d)
        for array in (frame.nodes, frame.nb, frame.stencil):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_cache_is_bounded_and_keeps_no_mesh_or_state(self):
        mesh = Mesh((9, 9))
        extents = [Region((x, y), (x, y)) for x in range(1, 8) for y in range(1, 8)]
        charge = identification._charge(frame_geometry(extents[0], mesh))
        self.cache.limit = 8 * charge  # every 1x1 frame of a 9x9 mesh costs the same
        for extent in extents:
            frame_geometry(extent, mesh)
        info, blocks = converged_state(mesh, [(4, 4)])
        assert IdentificationProtocol(info, blocks[0]).run().stable
        frames = self.cache._frames
        assert len(frames) == 8 and self.cache.size == 8 * charge
        assert list(frames)[-1] == (blocks[0].extent, (9, 9))  # the latest use
        for (extent, shape), frame in frames.items():
            assert isinstance(extent, Region) and shape == (9, 9)
            assert isinstance(frame, FrameGeometry)
            for field in frame:
                assert isinstance(field, (int, np.ndarray)), type(field)
        # Nothing cached refers back to the mesh or the state.
        mesh_ref = weakref.ref(mesh)
        del mesh, info
        gc.collect()
        assert mesh_ref() is None

    def test_threads_share_the_cache_without_losing_its_charge(self):
        """Job threads of the service share the cache: a lost update of its
        byte charge would leave ``size`` off the sum over its frames."""
        mesh = Mesh((8, 8))
        extents = [Region((x, y), (x + w, y)) for x in range(1, 6)
                   for y in range(1, 7) for w in (0, 1)]
        self.cache.limit = 24 * identification._FRAME_OVERHEAD
        expected = {e: identification._build_frame(e, mesh) for e in extents}
        errors = []

        def worker(seed):
            order = extents[seed:] + extents[:seed]
            try:
                for _ in range(20):
                    for extent in order:
                        frame = frame_geometry(extent, mesh)
                        assert frame.init == expected[extent].init
                        assert np.array_equal(frame.stencil, expected[extent].stencil)
            except AssertionError as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k * 7,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        frames = self.cache._frames.values()
        assert self.cache.size == sum(map(identification._charge, frames))
        assert 0 < self.cache.size <= self.cache.limit

    def test_frame_matches_block_geometry(self, mesh3d):
        """The cached frame is the block's row-major adjacency frame, and
        its default corners are the protocol's."""
        _, blocks = converged_state(mesh3d, FIGURE1_FAULTS)
        block = blocks[0]
        frame = frame_geometry(block.extent, mesh3d)
        coords = [mesh3d.coord_of(i) for i in frame.nodes.tolist()]
        assert coords == block.frame_nodes(mesh3d)
        assert coords[frame.init] == max(block.corners(mesh3d))
        for position, coord in enumerate(coords):
            for column, direction in enumerate(mesh3d.directions):
                neighbor = mesh3d.neighbor(coord, direction)
                expected = coords.index(neighbor) if neighbor in coords else len(coords)
                assert frame.nb[position, column] == expected
