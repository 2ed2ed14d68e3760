"""The registry defaults print exactly what the golden corpus recorded.

`tests/golden/golden.py --diff --group registry` reruns every experiment
at its defaults (seed 1616) and compares stdout, stderr and the exit code
byte for byte. On a Python/numpy/BLAS stack other than the recorded one it
compares the stored outputs at 1e-9 instead and says so; this test prints
that line.
"""

import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "golden.py"


def test_registry_defaults_match_the_golden_corpus():
    res = subprocess.run([sys.executable, str(GOLDEN), "--diff",
                          "--group", "registry"],
                         capture_output=True, text=True)
    if "environment differs" in res.stdout:
        print(res.stdout.splitlines()[0])
    changed = [line for line in res.stdout.splitlines()
               if line.startswith("changed")]
    assert res.returncode == 0 and not changed, res.stdout + res.stderr
    assert "summary:" in res.stdout
