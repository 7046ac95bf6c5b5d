"""Data-phase hold time for pipelined circuit switching.

Once a circuit is reserved, PCS streams the message over it in a pipelined
fashion, so the transmission latency is (path length) x (per-hop pipeline
latency) + (message length) x (per-flit injection latency).  The paper's
evaluation quantities are all about the *setup* phase; the simulator's
circuit phase uses :func:`hold_steps` to convert a delivered circuit's
length and message size into the steps the circuit stays reserved for its
data.  Latencies are in setup hops, and one setup hop is one simulation
step; only their ratios matter for the comparisons the experiments report.
"""

from __future__ import annotations

import math

#: Per-hop latency of the circuit pipeline during data transmission.
DATA_HOP_LATENCY = 0.2

#: Time to push one flit onto the circuit.
FLIT_INJECTION_LATENCY = 0.05


def hold_steps(hops: int, flits: int) -> int:
    """Steps a delivered circuit of ``hops`` links stays reserved for a
    ``flits``-flit message.

    The data latency is rounded up to whole steps; even an empty message
    holds the circuit for one step (the acknowledgment flit).
    """
    return max(1, math.ceil(DATA_HOP_LATENCY * hops + FLIT_INJECTION_LATENCY * flits))
