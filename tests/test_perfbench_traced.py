"""The traced benchmark run of the two workloads that reach the dense
engine reports correct outputs.

`perfbench/run.py --trace 1` checks every spec against `reference.json`
and, on `dense-engine`, the `epr_blocks_dense` call counts in
`EPR_EXPECTED`; a mismatch still exits 0 and shows only as `correct:
false` on the last line. Each workload runs as the benchmark runs it, in
a subprocess from the root of the checkout, with the script left as it is.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["dense-engine", "pa-audit"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout
