#!/usr/bin/env python
"""Dynamic faults occurring while messages are in flight (Section 5 model).

Runs the step-synchronous simulator on a 12x12x12 mesh: a batch of messages
between distant random pairs is injected while faults appear one per
interval.  The script reports, per fault change, how many rounds each of the
three constructions needed to re-stabilize (the paper's a_i, b_i, c_i) and,
per message, the detours suffered — demonstrating the paper's claims that
the information converges quickly and routing degrades gracefully.

Run with::

    python examples/dynamic_fault_routing.py
"""

from dataclasses import replace

from repro.experiments import ExperimentSpec
from repro.experiments.runner import build_simulator


def run_one(lam: int, dynamic_faults: int, interval: int) -> None:
    # One random-traffic, limited-global cell of a simulate spec; every run
    # draws its faults and message pairs from seed 42.
    (cell,) = ExperimentSpec(
        mode="simulate",
        mesh_shapes=((12, 12, 12),),
        fault_counts=(dynamic_faults,),
        fault_intervals=(interval,),
        lams=(lam,),
        traffic_sizes=(16,),
    ).cells()
    stats = build_simulator(replace(cell, cell_seed=42)).run().stats

    print(f"\n=== λ={lam}, F={dynamic_faults} dynamic faults, d_i={interval} ===")
    print(f"simulated steps: {stats.steps}")
    print("fault-change convergence (rounds):")
    print(f"  {'fault':>12} {'a_i':>5} {'b_i':>5} {'c_i':>5} {'steps':>6}")
    for record in stats.convergence:
        print(
            f"  {str(record.event.node):>12} {record.labeling_rounds:>5} "
            f"{record.identification_rounds:>5} {record.boundary_rounds:>5} "
            f"{record.steps_to_stabilize(lam):>6}"
        )
    print("routing:")
    print(f"  delivery rate : {stats.delivery_rate:.2f}")
    print(f"  mean hops     : {stats.mean_hops:.1f}")
    print(f"  mean detours  : {stats.mean_detours:.2f}")
    print(f"  max detours   : {stats.max_detours}")


def main() -> None:
    # The paper assumes d_i large enough for information to stabilize between
    # faults; the second run violates it to show routing with inconsistent
    # information, and the third shows the effect of more exchange rounds per
    # step (λ).
    run_one(lam=2, dynamic_faults=6, interval=20)
    run_one(lam=2, dynamic_faults=6, interval=4)
    run_one(lam=6, dynamic_faults=6, interval=4)


if __name__ == "__main__":
    main()
