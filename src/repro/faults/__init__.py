"""Fault substrate: node status, dynamic fault schedules and injection.

The paper's dynamic fault model assumes at most ``F`` faulty nodes; faults
``f_1 .. f_F`` occur at times ``t_1 .. t_F`` with inter-occurrence intervals
``d_i = t_{i+1} - t_i``, and nodes may also recover from faulty status.  The
modules here provide:

* :mod:`repro.faults.status` — the four node states used by the extended
  labeling scheme (enabled, disabled, clean, faulty);
* :mod:`repro.faults.schedule` — timed fault/recovery event schedules;
* :mod:`repro.faults.injection` — random and structured fault generators
  honouring the paper's assumptions (no fault on the outmost surface).
"""

from repro.faults.injection import (
    FaultInjectionError,
    clustered_faults,
    dynamic_schedule,
    uniform_random_faults,
)
from repro.faults.links import LinkFault, LinkFaultSet, endpoints_as_node_faults
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.faults.status import NodeStatus
from repro.faults.workload import FaultWorkload, mtbf_schedule

__all__ = [
    "DynamicFaultSchedule",
    "FaultEvent",
    "FaultEventKind",
    "FaultInjectionError",
    "FaultWorkload",
    "LinkFault",
    "LinkFaultSet",
    "NodeStatus",
    "clustered_faults",
    "dynamic_schedule",
    "endpoints_as_node_faults",
    "mtbf_schedule",
    "uniform_random_faults",
]
