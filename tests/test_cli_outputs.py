"""Pinned stdout of the CLI's result prints.

The curve, knee, saturation, SLO, link-utilization and comparison lines
are read off the metric rows the runs produce.  Each case replays one
command and compares its stdout with the text below, byte for byte; the
traced runs also pin the SHA-256 of their JSONL step trace.  The text is
the same on both backends.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

THROUGHPUT_6X6 = [
    "throughput", "--shape", "6,6", "--policy", "limited-global",
    "--faults", "2", "--warmup", "16", "--measure", "64", "--drain", "120",
]

CURVE_WITH_KNEES = """\
policy limited-global:
      rate   offered  accepted  deliv      lat     p99
    0.0010    0.0014    0.0014   1.00      4.6       7
    0.0020    0.0029    0.0029   1.00      3.7       8
    0.0500    0.0488    0.0081   0.15     65.7     167
  knee ~ rate 0.0020 (accepted 0.0029, mean latency 3.7)
policy no-information:
      rate   offered  accepted  deliv      lat     p99
    0.0010    0.0014    0.0014   1.00      4.6       7
    0.0020    0.0029    0.0029   1.00      3.7       8
    0.0500    0.0488    0.0081   0.15     65.7     167
  knee ~ rate 0.0020 (accepted 0.0029, mean latency 3.7)
"""

SATURATION = """\
policy limited-global: saturation rate ~ 0.0089 msg/node/step
policy limited-global:
      rate   offered  accepted  deliv      lat     p99
    0.0050    0.0068    0.0063   1.00      5.2      10
    0.0089    0.0103    0.0103   1.00      8.6      34
    0.0127    0.0127    0.0112   0.88      7.7      35
    0.0205    0.0215    0.0088   0.43      9.6      29
    0.0359    0.0386    0.0107   0.27     12.1      62
    0.0669    0.0630    0.0054   0.09     19.7      33
    0.1288    0.1289    0.0063   0.03     29.3      49
    0.2525    0.2632    0.0063   0.01     59.6      65
"""

TRACED_WITH_SLO = """\
policy limited-global:
      rate   offered  accepted  deliv      lat     p99
    0.0200    0.0218    0.0034   0.12     47.2     191
  SLO over 6 fault events: dip 100%, time-to-recover 28, p99 excursion +78, \
1 circuits fault-dropped
"""

TRACED_STATIC = """\
policy limited-global:
      rate   offered  accepted  deliv      lat     p99
    0.0100    0.0112    0.0068   0.65      6.1      28
"""

SIMULATE_CONTENDED = """\
scenario        : random
policy          : limited-global
messages                : 8.000
delivery_rate           : 0.625
mean_detours            : 0.400
max_detours             : 2.000
mean_hops               : 8.600
fault_changes           : 3.000
mean_labeling_rounds    : 0.000
max_convergence_rounds  : 16.000
steps                   : 39.000
blocked_hops            : 50.000
setup_retries           : 1.000
circuits_reserved       : 5.000
mean_reserved_links     : 26.103
peak_reserved_links     : 56.000
timeout_releases        : 0.000
fault_dropped           : 0.000
mean_latency            : 8.600
p50_latency             : 8.000
p99_latency             : 11.000
link_utilization        : 0.233
"""

COMPARE = """\
mesh Mesh(8x8), 6 faults, 12 messages
policy                delivery  mean hops  mean detours
limited-global            1.00       8.25          0.17
no-information            1.00       9.75          1.67
static-block              1.00       8.25          0.17
global-information        1.00       8.25          0.17
"""

CASES = {
    "curve-and-knees": (
        [
            "throughput", "--shape", "6,6",
            "--policy", "limited-global,no-information",
            "--rates", "0.001,0.002,0.05", "--faults", "0",
            "--warmup", "16", "--measure", "200", "--drain", "120",
        ],
        CURVE_WITH_KNEES,
    ),
    "saturation": (THROUGHPUT_6X6 + ["--saturation"], SATURATION),
    "simulate-contended": (
        [
            "simulate", "--shape", "8,8", "--faults", "3", "--messages", "8",
            "--contention", "--seed", "2",
        ],
        SIMULATE_CONTENDED,
    ),
    "compare": (
        ["compare", "--shape", "8,8", "--faults", "6", "--messages", "12"],
        COMPARE,
    ),
}

TRACED_CASES = {
    "traced-with-slo": (
        [
            "throughput", "--shape", "8,8", "--policy", "limited-global",
            "--rates", "0.02", "--faults", "2", "--seeds", "3",
            "--warmup", "48", "--measure", "192", "--drain", "384",
            "--fault-rate", "0.04", "--repair-after", "40",
        ],
        TRACED_WITH_SLO,
        "017eb4476e4464b165235dcca89b87b1549fe7c61646cf9df211260b0a178802",
    ),
    "traced-static": (
        THROUGHPUT_6X6 + ["--rates", "0.01"],
        TRACED_STATIC,
        "fab4738da07a97a102b112ffd800c41586f60e1a507ee5e757ed040b94c1a6c6",
    ),
}


@pytest.mark.parametrize("key", list(CASES))
def test_stdout_is_pinned(key, capsys):
    argv, expected = CASES[key]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("key", list(TRACED_CASES))
def test_traced_stdout_and_trace_are_pinned(key, capsys, tmp_path):
    argv, expected, digest = TRACED_CASES[key]
    trace = tmp_path / "trace.jsonl"
    assert main(argv + ["--trace-out", str(trace)]) == 0
    assert capsys.readouterr().out == expected
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
