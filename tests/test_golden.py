"""The registry defaults print exactly what the golden corpus recorded.

`tests/golden/golden.py --diff --group registry` reruns every experiment
at its defaults (seed 1616) and compares stdout, stderr and the exit code
byte for byte. On a Python/numpy/BLAS stack other than the recorded one it
compares the stored outputs at 1e-9 instead and says so; this test prints
that line. The script's `main` runs in this process, with its stdout
captured; its edits to `os.environ` and `sys.path` are undone afterwards.
"""

import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).resolve().parent / "golden" / "golden.py"


def test_registry_defaults_match_the_golden_corpus():
    out = io.StringIO()
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("golden", GOLDEN)
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        with contextlib.redirect_stdout(out):
            code = golden.main(["--diff", "--group", "registry"])
    stdout = out.getvalue()
    if "environment differs" in stdout:
        print(stdout.splitlines()[0])
    changed = [line for line in stdout.splitlines()
               if line.startswith("changed")]
    assert code == 0 and not changed, stdout
    assert "summary:" in stdout
