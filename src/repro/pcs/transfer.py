"""Data-phase latency model for pipelined circuit switching.

Once a circuit is reserved, PCS streams the message over it in a pipelined
fashion, so the transmission latency is (path length) x (per-hop header
latency) + (message length / bandwidth).  The paper's evaluation quantities
are all about the *setup* phase; the simulator's circuit phase uses this
model to convert a delivered circuit's length and message size into the
steps the circuit stays reserved for its data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.pcs.circuit import Circuit


@dataclass(frozen=True)
class TransferModel:
    """Latency parameters of the PCS pipeline.

    All quantities are in abstract time units; only ratios matter for the
    comparisons the experiments report.
    """

    #: Per-hop latency of the path-setup probe (one simulation step).
    setup_hop_latency: float = 1.0

    #: Per-hop latency of the circuit pipeline during data transmission.
    data_hop_latency: float = 0.2

    #: Time to push one flit onto the circuit.
    flit_injection_latency: float = 0.05

    def hop_data_latency(self, hops: int, message_flits: int) -> float:
        """Latency of streaming ``message_flits`` flits over ``hops`` links."""
        if message_flits < 0:
            raise ValueError("message_flits must be non-negative")
        pipeline_fill = self.data_hop_latency * hops
        streaming = self.flit_injection_latency * message_flits
        return pipeline_fill + streaming

    def hold_steps(self, circuit: Circuit, message_flits: int) -> int:
        """Simulation steps a delivered circuit stays reserved for its data."""
        return self.hop_hold_steps(circuit.length, message_flits)

    def hop_hold_steps(self, hops: int, message_flits: int) -> int:
        """:meth:`hold_steps` of a circuit of ``hops`` links.

        One simulation step is one setup hop (``setup_hop_latency``), so the
        data latency is converted at that rate and rounded up; even an empty
        message holds the circuit for one step (the acknowledgment flit).
        """
        latency = self.hop_data_latency(hops, message_flits)
        return max(1, math.ceil(latency / self.setup_hop_latency))

