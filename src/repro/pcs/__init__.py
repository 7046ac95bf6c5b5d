"""Pipelined circuit switching (PCS) substrate.

PCS separates routing into a *path-setup* phase (a probe explores the
network, may backtrack, and reserves a circuit hop by hop) and a *data
transmission* phase over the reserved circuit.  The paper's contribution
concerns the path-setup phase only — that is Algorithm 3, implemented in
:mod:`repro.core.routing` — but a complete system also needs the circuit
bookkeeping, which lives here:

* :mod:`repro.pcs.circuit` — circuit reservations derived from a finished
  probe, and the simulator's live link-reservation ledgers;
* :mod:`repro.pcs.transfer` — the (trivially pipelined) data-phase model
  used to convert a circuit length into its data-transmission hold time.
"""

from repro.pcs.circuit import (
    ArrayCircuitLedger,
    Circuit,
    CircuitLedger,
    LiveCircuitLedger,
    ReservationError,
    make_live_ledger,
)
from repro.pcs.transfer import TransferModel

__all__ = [
    "ArrayCircuitLedger",
    "Circuit",
    "CircuitLedger",
    "LiveCircuitLedger",
    "ReservationError",
    "TransferModel",
    "make_live_ledger",
]
