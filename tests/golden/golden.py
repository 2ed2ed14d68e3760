#!/usr/bin/env python3
"""Golden corpus: fixed CLI specs and the exact bytes they print.

    python3 tests/golden/golden.py --record           # write corpus.json
    python3 tests/golden/golden.py --diff             # compare every spec
    python3 tests/golden/golden.py --diff --group registry

Run from the root of a checkout; the library is imported from `src/`.
Each spec runs in this process through `bqsm.cli.main`, with one BLAS
thread. The corpus stores, per spec, the sha256 of stdout, of stderr and
the exit code, and the parsed stdout JSON when stdout is at most
`KEEP_BYTES` long, so that a diff can report float deltas.

`--diff` prints one line per spec: identical, or changed with the largest
float delta (when the output was stored). On a Python/numpy/BLAS stack
other than the recorded `environment`, byte identity is not expected:
stored outputs are then compared at `TOL` instead, specs without a stored
output are reported as unchecked, and the summary says so. The exit code
is 1 when any spec changed, else 0.

Groups: `registry` (every experiment at its defaults, seed 1616),
`workloads` (every `perfbench/workloads.py` spec at its workload seed)
and `grids` (parameter grids around privacy amplification, the
uncertainty relations, QKD runs, the QKD rate check, sender security,
the dense adversary engine and the classical OT criteria).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from bqsm import cli  # noqa: E402
from bqsm.errors import CAPS  # noqa: E402

CORPUS = HERE / "corpus.json"
KEEP_BYTES = 16 * 1024
TOL = 1e-9
REGISTRY_SEED = 1616
GRID_SEED = 1616


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _grid_specs():
    out = []

    def add(exp, **params):
        out.append((exp, GRID_SEED, tuple((k, str(v))
                                          for k, v in params.items())))

    for n in (4, 6, 8):
        for ell in (1, 2):
            add("lhl-classical", n=n, ell=ell, distributions=10)
    for n in (2, 3, 4, 6):
        add("uncertainty-two-basis", n=n, trials=12)
    add("uncertainty-two-basis", n=4, trials=12, max_set=3)
    for n in (2, 3, 4):
        add("uncertainty-multi-mub", n=n, trials=40)
    for n in (1, 5):
        add("uncertainty-multi-mub", n=n, trials=20)
    for n in (1, 2, 3, 5):
        add("maassen-uffink", n=n, trials=20)
    for n_max in (2, 3, 6, 10):
        add("uncertainty-tight-cases", n_max=n_max)
    for n in (3, 6):
        for alphabet in ("bb84", "six-state"):
            add("second-relation", n=n, trials=12, alphabet=alphabet)
    add("second-relation", n=3, trials=10, alphabet="six-state")
    for eve, eve_param in (("trivial", None), ("intercept_resend", "x"),
                           ("store_subset", "2")):
        for m in range(3, 8):
            params = {"m": m, "eve": eve}
            if eve_param is not None:
                params["eve_param"] = eve_param
            add("qkd-rate-check", **params)
    for eve_param in (3, 4, 6):
        add("qkd-rate-check", m=4, eve="store_subset", eve_param=eve_param)
    for m in (4, 5):
        add("qkd-rate-check", m=m, eve="intercept_resend")
        for eve, eve_param in (("trivial", None), ("intercept_resend", None),
                               ("store_subset", "2")):
            params = {"alphabet": "bb84", "m": m, "eve": eve}
            if eve_param is not None:
                params["eve_param"] = eve_param
            add("qkd-rate-check", **params)
    for alphabet in ("bb84", "six-state"):
        for p in (0, 0.01, 0.05, 0.11):
            for code in ("none", "hamming", "rep5"):
                for symbols in (1000, 7777, 40000):
                    add("qkd-run", alphabet=alphabet, p=p, code=code,
                        symbols=symbols)
    for strategy in ("store_prefix", "measure_fixed", "breitbart"):
        for n in (3, 4, 5, 6, 7):
            add("pa-quantum", n=n, q=1, strategy=strategy, ell=1)
    add("pa-quantum", n=4, q=2, ell=2)
    for n in (3, 5):
        for q in (1, 2):
            add("pa-quantum", n=n, q=q, ell=2)
    for n in (4, 5):
        add("pa-quantum", n=n, q=1, ell=3)
    for protocol in ("rabin", "ot12"):
        for n in (3, 4, 5):
            for q in (0, 1, 2):
                add("sender-security", protocol=protocol, n=n, q=q)
    for ell in (2, 3):
        for n in (3, 4, 5, 6):
            for q in (0, 1, 2):
                if (n + 2) * ell + 2 * q + 1 <= CAPS["ot12-block"]:
                    add("sender-security", protocol="ot12", n=n, q=q,
                        ell=ell)
    add("sender-security", protocol="ot12", n=6, q=6)
    for protocol in ("rabin", "ot12"):
        for n in (3, 4, 5):
            add("sender-security", protocol=protocol, n=n,
                strategy="breitbart")
    for n in (3, 5, 7):
        for ell in (1, 2):
            for channel in ("parity", "xor"):
                add("splitting-reduction", n=n, ell=ell, channel=channel)
    for q in (1, 2):
        for n in (6, 7, 8, 9):
            add("sender-security", protocol="rabin", n=n, q=q)
    for ell in (1, 2, 3):
        add("ndlf-perturbation", ell=ell, trials=100)
    for n_w in (2, 3):
        add("xor-characterization", n_w=n_w)
    for n in range(2, 10):
        add("purification-equivalence", n=n)
    for n in (2, 4, 6, 8):
        add("bell-attack", n=n)
    for sender in ("honest", "entangled"):
        for n in (2, 3, 4):
            add("receiver-security", n=n, sender=sender)
    return out


def specs(group=None) -> list:
    """(group, key, experiment, seed, params) of every corpus spec."""
    from workloads import WORKLOADS
    out = [("registry", name, REGISTRY_SEED, ()) for name in cli.REGISTRY]
    for w in WORKLOADS.values():
        out += [("workloads", s.experiment, w.seed, s.params)
                for s in w.specs]
    out += [("grids", *s) for s in _grid_specs()]
    rows = {}
    for grp, exp, seed, params in out:
        key = " ".join([exp, f"seed={seed}"] + [f"{k}={v}"
                                                 for k, v in params])
        if group in (None, grp):
            rows.setdefault(key, (grp, key, exp, seed, params))
    return list(rows.values())


def run_spec(exp, seed, params) -> tuple:
    """(stdout, stderr, exit code) of one in-process CLI run."""
    argv = ["-e", exp, "--seed", str(seed)]
    for k, v in params:
        argv += ["-p", f"{k}={v}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_entry(stdout, stderr, code) -> dict:
    entry = {"stdout_sha256": _sha(stdout), "stderr_sha256": _sha(stderr),
             "exit": code, "stdout_bytes": len(stdout.encode())}
    if entry["stdout_bytes"] <= KEEP_BYTES:
        entry["stdout_json"] = json.loads(stdout) if stdout else None
        entry["stderr"] = stderr
    return entry


def float_delta(ref, got, path="out"):
    """(largest float delta, path of it) between two JSON values; inf
    when they differ in anything but float values."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return math.inf, path
        pairs = [(ref[k], got[k], f"{path}.{k}") for k in ref]
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return math.inf, path
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in
                 enumerate(zip(ref, got))]
    elif isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if ref == got or (math.isnan(ref) and math.isnan(got)):
            return 0.0, path
        return abs(ref - got), path
    else:
        return (0.0, path) if ref == got and type(ref) is type(got) \
            else (math.inf, path)
    worst = (0.0, path)
    for a, b, p in pairs:
        d = float_delta(a, b, p)
        if d[0] > worst[0]:
            worst = d
    return worst


def compare(entry, stdout, stderr, code, exact) -> tuple:
    """(status, detail) of one spec against its corpus entry."""
    new = record_entry(stdout, stderr, code)
    same_bytes = all(new[k] == entry[k] for k in
                     ("stdout_sha256", "stderr_sha256", "exit"))
    if same_bytes:
        return "identical", ""
    if "stdout_json" not in entry or "stdout_json" not in new:
        if exact or new["exit"] != entry["exit"]:
            return "changed", "output too large to store; delta unknown"
        return "unchecked", "output too large to store"
    delta, where = float_delta(entry["stdout_json"], new["stdout_json"])
    ok_rest = new["exit"] == entry["exit"] \
        and new["stderr"] == entry["stderr"]
    detail = f"largest float delta {delta:.3g} at {where}" \
        if math.isfinite(delta) else f"differs at {where}"
    if exact:
        return "changed", detail if ok_rest else detail + "; stderr/exit"
    if ok_rest and delta <= TOL:
        return "within-tol", detail
    return "changed", detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--diff", action="store_true")
    parser.add_argument("--group", choices=("registry", "workloads",
                                            "grids"))
    args = parser.parse_args(argv)

    if args.record:
        if args.group:
            parser.error("--record writes every group")
        entries = {}
        for grp, key, exp, seed, params in specs():
            entry = record_entry(*run_spec(exp, seed, params))
            entries[key] = {"group": grp, **entry}
            print(f"recorded {key}: exit {entry['exit']}, "
                  f"{entry['stdout_bytes']} bytes")
        CORPUS.write_text(json.dumps(
            {"environment": environment(), "specs": entries},
            indent=1, sort_keys=True) + "\n")
        return 0

    corpus = json.loads(CORPUS.read_text())
    exact = corpus["environment"] == environment()
    if not exact:
        print(f"environment differs from the recorded "
              f"{corpus['environment']}: comparing stored outputs at "
              f"{TOL:g}, not byte for byte")
    counts = {}
    for _, key, exp, seed, params in specs(args.group):
        entry = corpus["specs"].get(key)
        if entry is None:
            status, detail = "changed", "not in the corpus"
        else:
            status, detail = compare(entry, *run_spec(exp, seed, params),
                                     exact)
        counts[status] = counts.get(status, 0) + 1
        print(f"{status:10s} {key}" + (f"  ({detail})" if detail else ""))
    print("summary: " + ", ".join(f"{v} {k}" for k, v in
                                  sorted(counts.items())))
    return 1 if counts.get("changed") else 0


if __name__ == "__main__":
    sys.exit(main())
