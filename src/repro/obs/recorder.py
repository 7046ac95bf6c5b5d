"""Vectorized per-step time-series recorder for the simulator.

A :class:`StepRecorder` attached to a :class:`~repro.simulator.engine.Simulator`
samples one row per simulation step into preallocated growable numpy
columns.  Sampling reads the engine's existing state — the probe
table's per-cell counter sums (:meth:`ProbeTable.cell_counters`, one pass
over the in-flight rows), the circuit ledger's reserved-link count, a
:func:`numpy.bincount` over the labeling status codes (cached on the
labeling's mutation stamp, so stable steps skip it) — plus O(1)
aggregates, and folds each finished
:class:`~repro.simulator.stats.MessageRecord` exactly once.  A simulator
without a recorder pays nothing: the engine's only hook is an
``is not None`` check after the step.

Columns come in two families:

* **cumulative totals** (``*_total``) — injected/finished/delivered
  messages, blocked hops, setup retries, reserved-link step integral.
  Per-step series are recovered with :meth:`StepRecorder.deltas`, and by
  construction the delta series sum back to the end-of-run
  :class:`~repro.simulator.stats.SimulationStats` aggregates exactly;
* **instantaneous levels** — in-flight probes, parked (waiting) probes,
  reserved links at end of step, and the four labeling status-code
  populations (enabled/clean/disabled/faulty).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoid engine cycle)
    from repro.simulator.engine import Simulator

__all__ = ["StepRecorder", "CUMULATIVE_COLUMNS", "LEVEL_COLUMNS"]

#: Monotone totals; per-step series are first differences (:meth:`deltas`).
CUMULATIVE_COLUMNS: Tuple[str, ...] = (
    "injected_total",
    "finished_total",
    "delivered_total",
    "blocked_hops_total",
    "setup_retries_total",
    "link_steps_total",
    "fault_dropped_total",
)

#: End-of-step levels, recorded as-is.
LEVEL_COLUMNS: Tuple[str, ...] = (
    "in_flight",
    "waiting",
    "reserved_links",
    "nodes_enabled",
    "nodes_clean",
    "nodes_disabled",
    "nodes_faulty",
)

COLUMNS: Tuple[str, ...] = ("step",) + CUMULATIVE_COLUMNS + LEVEL_COLUMNS


class StepRecorder:
    """One time-series row per simulation step, in flat int64 columns."""

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(16, capacity)
        self._columns: Dict[str, np.ndarray] = {
            name: np.zeros(capacity, dtype=np.int64) for name in COLUMNS
        }
        self._len = 0
        self._capacity = capacity
        # Finished-message fold state: index into ``stats.messages`` already
        # accumulated, plus the running finished-probe totals.
        self._seen_messages = 0
        self._fin_delivered = 0
        self._fin_blocked = 0
        self._fin_retries = 0
        # Status-population cache, keyed on LabelingState.mutations (the
        # documented change stamp): most steps don't move the labeling, so
        # the bincount is only recomputed when it does.
        self._status_src: object = None
        self._status_mutations = -1
        self._status_counts: Tuple[int, int, int, int] = (0, 0, 0, 0)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        for name, column in self._columns.items():
            grown = np.zeros(new_capacity, dtype=np.int64)
            grown[: self._len] = column[: self._len]
            self._columns[name] = grown
        self._capacity = new_capacity

    def sample(self, sim: "Simulator") -> None:
        """Record the state at the end of the step the simulator just ran."""
        if self._len >= self._capacity:
            self._grow()
        i = self._len
        stats = sim.stats

        # Fold message records finished since the last sample (each record
        # is visited exactly once over the whole run).
        messages = stats.messages
        for record in messages[self._seen_messages:]:
            result = record.result
            if record.delivered:
                self._fin_delivered += 1
            self._fin_blocked += result.blocked_hops
            self._fin_retries += result.setup_retries
        self._seen_messages = len(messages)

        # In-flight counter sums, from the probe table's rows when it runs
        # the message phase, else from the probe objects of the scalar loop
        # (its oracle).
        table = sim._table
        if table is not None:
            in_flight, blk, rty, waiting = table.cell_counters(sim._table_cell)
        else:
            in_flight = len(sim._probes)
            blk = rty = waiting = 0
            for _message, probe, _holder, _blocked in sim._probes:
                blk += getattr(probe, "blocked_hops", 0)
                rty += getattr(probe, "setup_retries", 0)
                waiting += bool(getattr(probe, "waited", False))

        generated = getattr(sim._source, "generated", None)
        if generated is None:
            generated = self._seen_messages + in_flight

        labeling = sim.info.labeling
        if (
            labeling is not self._status_src
            or labeling.mutations != self._status_mutations
        ):
            counts = np.bincount(
                np.asarray(labeling.codes, dtype=np.int64).ravel(), minlength=4
            )
            self._status_counts = (
                int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3])
            )
            self._status_src = labeling
            self._status_mutations = labeling.mutations
        status_counts = self._status_counts

        columns = self._columns
        columns["step"][i] = sim._step - 1
        columns["injected_total"][i] = generated
        columns["finished_total"][i] = self._seen_messages
        columns["delivered_total"][i] = self._fin_delivered
        columns["blocked_hops_total"][i] = self._fin_blocked + blk
        columns["setup_retries_total"][i] = self._fin_retries + rty
        columns["link_steps_total"][i] = stats.circuit_link_steps
        columns["fault_dropped_total"][i] = stats.fault_dropped_circuits
        columns["in_flight"][i] = in_flight
        columns["waiting"][i] = waiting
        columns["reserved_links"][i] = (
            sim.circuits.reserved_links if sim.circuits is not None else 0
        )
        columns["nodes_enabled"][i] = status_counts[0]
        columns["nodes_clean"][i] = status_counts[1]
        columns["nodes_disabled"][i] = status_counts[2]
        columns["nodes_faulty"][i] = status_counts[3]
        self._len = i + 1

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._len

    @property
    def columns(self) -> Tuple[str, ...]:
        return COLUMNS

    def column(self, name: str) -> np.ndarray:
        """The recorded series for ``name`` (a read-only length-``len`` view)."""
        if name not in self._columns:
            raise KeyError(f"unknown recorder column {name!r} (have {COLUMNS})")
        view = self._columns[name][: self._len]
        view.flags.writeable = False
        return view

    def deltas(self, name: str) -> np.ndarray:
        """Per-step increments of a cumulative ``*_total`` column.

        ``deltas(c)[t]`` is the amount column ``c`` grew during step ``t``;
        the series sums to the column's final value exactly.
        """
        if name not in CUMULATIVE_COLUMNS:
            raise KeyError(f"{name!r} is not a cumulative column ({CUMULATIVE_COLUMNS})")
        return np.diff(self.column(name), prepend=np.int64(0))

    def rows(self) -> Iterator[Dict[str, int]]:
        """Per-step dict rows: deltas for totals, levels as recorded."""
        delta_arrays: List[Tuple[str, np.ndarray]] = [
            (name.replace("_total", ""), self.deltas(name))
            for name in CUMULATIVE_COLUMNS
        ]
        level_arrays = [(name, self.column(name)) for name in LEVEL_COLUMNS]
        steps = self.column("step")
        for i in range(self._len):
            row = {"step": int(steps[i])}
            for name, arr in delta_arrays:
                row[name] = int(arr[i])
            for name, arr in level_arrays:
                row[name] = int(arr[i])
            yield row
