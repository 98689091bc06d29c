"""The benchmark's layer contract, checked in the test suite.

Every workload in ``perfbench/workloads.py`` names the layers a traced pass
must reach (``required``).  One traced pass per workload at seed 1 must
check clean and record a non-zero value for each of them, so a library
change that takes a layer off a workload's path fails here, not only in a
traced benchmark run.  The four passes take about 8 s together.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_checks_clean_and_reaches_every_required_layer(name, tmp_path):
    workload = WORKLOADS[name](1, tmp_path)
    tracer = Tracer()
    with tracer:
        outputs = workload.run_pass()
    assert workload.check(outputs).problems == []
    for entry in workload.required:
        layer, _, counter = entry.partition(":")
        assert tracer.stats[layer].get(counter or "calls"), f"{name}: {entry} recorded zero"
