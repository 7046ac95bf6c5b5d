"""Step-synchronous simulator for the paper's dynamic fault model.

The simulator implements the execution model of Section 5 / Figure 7: time
advances in steps; within every step each node performs fault detection,
``λ`` rounds of fault-information exchange (status propagation,
identification, boundary propagation each advance one hop per round),
message reception, a routing decision and a message send, so every routing
probe advances exactly one hop per step while the information model
converges around it.

A simulate-mode experiment cell's simulator comes from
:func:`repro.experiments.runner.build_simulator`, over the mesh, fault
schedule and traffic of :func:`repro.workloads.simulate_scenario`.
:meth:`Simulator.run` returns the simulator itself: its ``stats`` and
``info`` are the run's result.
"""

from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.stats import ConvergenceRecord, MessageRecord, SimulationStats
from repro.simulator.traffic import TrafficMessage

__all__ = [
    "ConvergenceRecord",
    "MessageRecord",
    "SimulationConfig",
    "SimulationStats",
    "Simulator",
    "TrafficMessage",
]
