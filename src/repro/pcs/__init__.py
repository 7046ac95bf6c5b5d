"""Pipelined circuit switching (PCS) substrate.

PCS separates routing into a *path-setup* phase (a probe explores the
network, may backtrack, and reserves a circuit hop by hop) and a *data
transmission* phase over the reserved circuit.  The paper's contribution
concerns the path-setup phase only — that is Algorithm 3, implemented in
:mod:`repro.core.routing` — but a complete system also needs the circuit
bookkeeping, which lives here:

* :mod:`repro.pcs.circuit` — circuit reservations derived from a finished
  probe, and the simulator's live link-reservation ledgers;
* :mod:`repro.pcs.transfer` — :func:`~repro.pcs.transfer.hold_steps`, the
  (trivially pipelined) data phase's hold time of a circuit length and
  message size.
"""

from repro.pcs.circuit import (
    ArrayCircuitLedger,
    Circuit,
    CircuitLedger,
    LiveCircuitLedger,
    ReservationError,
)
from repro.pcs.transfer import hold_steps

__all__ = [
    "ArrayCircuitLedger",
    "Circuit",
    "CircuitLedger",
    "LiveCircuitLedger",
    "ReservationError",
    "hold_steps",
]
