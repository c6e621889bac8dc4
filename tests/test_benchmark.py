"""The benchmark's own traced pass, at its tiny size, for every workload.

perfbench's worker runs each workload's commands with its span tracer
installed, checks the outputs, and requires the traced work counter
(`TRACED_WORK`) to equal the work the pass is defined to do. A change that
hides that work from the tracer fails here, not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from brownlab.cli import dispatch  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_pass_succeeds(name, tmp_path):
    rec = worker.run_pass(dispatch, WORKLOADS[name], 1, "tiny", tmp_path / "pass",
                          spans.Tracer())
    assert rec["ok"], rec.get("error")
