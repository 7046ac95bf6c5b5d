"""Unit tests for the PCS circuit and transfer models."""

import math

import pytest

from repro.core.distribution import converged_information
from repro.core.routing import RoutingPolicy, route_offline
from repro.core.state import InformationState
from repro.pcs.circuit import Circuit
from repro.pcs.transfer import DATA_HOP_LATENCY, FLIT_INJECTION_LATENCY, hold_steps
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
        circuit = Circuit.from_stack(result.path)
        assert circuit.source == (0, 0)
        assert circuit.destination == (3, 0)
        assert circuit.length == 3
        assert len(circuit.links) == 3

    def test_from_traversal_removes_backtracked_prefix(self, mesh3d):
        """Backtracked excursions of a probe's walk must not stay reserved."""
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        # Without block information the probe backs out of the block's
        # shadow three times on its way.
        result = route_offline(
            info, (4, 2, 4), (4, 7, 3), policy=RoutingPolicy.no_information()
        )
        assert result.delivered and result.backtrack_hops == 3
        circuit = Circuit.from_stack(result.path)
        assert circuit.source == (4, 2, 4)
        assert circuit.destination == (4, 7, 3)
        # Each backtrack released the hop it retreated over.
        assert circuit.length == result.forward_hops - result.backtrack_hops
        assert circuit.length >= result.min_distance

    def test_from_stack_collapses_loop_excursions(self):
        """A stack that loops back onto itself cuts the loop at first visit."""
        stack = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0, 1)]
        circuit = Circuit.from_stack(stack)
        assert circuit.path == ((0, 0), (0, 1))

    def test_from_stack_loop_free_is_identity(self):
        stack = [(0, 0), (1, 0), (1, 1)]
        assert Circuit.from_stack(stack).path == tuple(stack)


class TestHoldSteps:
    def test_data_latency_components(self):
        """Pipeline fill plus flit streaming, rounded up to whole steps."""
        assert (DATA_HOP_LATENCY, FLIT_INJECTION_LATENCY) == (0.2, 0.05)
        for hops, flits in [(2, 10), (5, 100), (11, 64), (0, 0), (1, 1)]:
            latency = DATA_HOP_LATENCY * hops + FLIT_INJECTION_LATENCY * flits
            assert hold_steps(hops, flits) == max(1, math.ceil(latency))
        assert hold_steps(5, 100) == 6
