"""Unit tests for the PCS circuit and transfer models."""

import pytest

from repro.core.distribution import converged_information
from repro.core.routing import RouteOutcome, RouteResult, route_offline
from repro.core.state import InformationState
from repro.pcs.circuit import Circuit, ReservationError
from repro.pcs.transfer import TransferModel, transfer_latency
from repro.workloads.scenarios import FIGURE1_FAULTS


def _route(mesh, info, source, destination):
    return route_offline(info, source, destination)


class TestCircuit:
    def test_rejects_disconnected_path(self):
        with pytest.raises(ValueError):
            Circuit(((0, 0), (2, 0)))

    def test_rejects_repeated_node(self):
        with pytest.raises(ValueError):
            Circuit(((0, 0), (1, 0), (0, 0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Circuit(())

    def test_from_straight_route(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        result = _route(mesh2d, info, (0, 0), (3, 0))
        circuit = Circuit.from_route(result)
        assert circuit.source == (0, 0)
        assert circuit.destination == (3, 0)
        assert circuit.length == 3
        assert len(circuit.links) == 3

    def test_from_route_removes_backtracked_prefix(self, mesh3d):
        """Backtracked excursions must not stay reserved."""
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        result = _route(mesh3d, info, (4, 2, 4), (4, 9, 4))
        assert result.backtrack_hops >= 0
        circuit = Circuit.from_route(result)
        assert circuit.source == (4, 2, 4)
        assert circuit.destination == (4, 9, 4)
        # The circuit is a simple path no longer than the probe's walk.
        assert circuit.length <= result.hops
        assert circuit.length >= result.min_distance

    def test_from_stack_collapses_loop_excursions(self):
        """A stack that loops back onto itself cuts the loop at first visit."""
        stack = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0, 1)]
        circuit = Circuit.from_stack(stack)
        assert circuit.path == ((0, 0), (0, 1))

    def test_from_stack_loop_free_is_identity(self):
        stack = [(0, 0), (1, 0), (1, 1)]
        assert Circuit.from_stack(stack).path == tuple(stack)

    def test_from_failed_route_raises(self, mesh2d):
        result = RouteResult(
            outcome=RouteOutcome.UNREACHABLE,
            path=[(0, 0)],
            source=(0, 0),
            destination=(5, 5),
            min_distance=10,
            forward_hops=0,
            backtrack_hops=0,
        )
        with pytest.raises(ReservationError):
            Circuit.from_route(result)


class TestTransferModel:
    def test_setup_latency_counts_all_hops(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        result = _route(mesh2d, info, (0, 0), (4, 4))
        model = TransferModel()
        assert model.setup_latency(result) == pytest.approx(result.hops)

    def test_data_latency_components(self):
        circuit = Circuit(((0, 0), (1, 0), (2, 0)))
        model = TransferModel(data_hop_latency=0.5, flit_injection_latency=0.1)
        assert model.data_latency(circuit, 10) == pytest.approx(0.5 * 2 + 0.1 * 10)
        with pytest.raises(ValueError):
            model.data_latency(circuit, -1)

    def test_end_to_end_and_wrapper(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        result = _route(mesh2d, info, (0, 0), (4, 4))
        model = TransferModel()
        assert transfer_latency(result, 64, model) == pytest.approx(
            model.end_to_end(result, 64)
        )
        # Longer messages take longer.
        assert transfer_latency(result, 128) > transfer_latency(result, 16)
