#!/usr/bin/env python3
"""Benchmark of the bqsm certifier over fixed, seeded CLI experiment specs.

    python3 perfbench/run.py --workload pa-audit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
One process, one caller in a closed loop, one spec at a time: each spec
goes through `bqsm.cli.run` and the sorted-key JSON encoding the CLI emits.
A pass runs every spec of the workload once, in an order drawn from
`--seed`; passes repeat until `--seconds` have elapsed (at least one).
The experiment seeds themselves are fixed per workload, so every output is
checked against `reference.json` (see `check.py`).

--trace 0 prints the end-to-end metrics. --trace 1 runs one paired pass
(each spec untraced and traced, back to back) and prints the per-layer
metrics, the tracing overhead (traced minus untraced wall time of the
pass) and the results of the tracer self-checks.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

import os

# Fixed BLAS thread count, set before numpy is imported here or in the
# set-up subprocesses.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ast  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import textwrap  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import exact_part, gate_failure, mismatch  # noqa: E402
from tracer import EMIT, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_COVERAGE = 0.95
# (calls, distinct) of epr_blocks_dense on dense-engine, within one spec
# and over the pass (None): 7 strategies x 2 bases in
# purification-equivalence n=8, plus one call from bell-attack n=8 that
# repeats a purification argument.
EPR_EXPECTED = {"purification-equivalence n=8": (14, 7), None: (15, 7)}


def _encode(result: dict) -> str:
    from bqsm import cli
    return json.dumps(result, sort_keys=True, default=cli._json_default,
                      indent=1) + "\n"


def lazy_modules(workload) -> list:
    """bqsm modules the workload's experiment functions import lazily."""
    from bqsm import cli
    mods = set()
    for spec in workload.specs:
        func = cli.REGISTRY[spec.experiment][0]
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    mods.add(f"bqsm.{node.module}")
                else:
                    mods.update(f"bqsm.{a.name}" for a in node.names)
    return sorted(mods)


def measure_setup(modules) -> list:
    """Wall times of fresh interpreters that import bqsm.cli and the
    workload's lazily imported modules."""
    code = "\n".join(["import bqsm.cli"] + [f"import {m}" for m in modules])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond). Below 11 samples: the maximum."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0, 0
    idx = len(s) - 11
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


class Runner:
    def __init__(self, workload, seed, reference):
        from bqsm import cli
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.order_rng = random.Random(seed)
        self.records = []    # one dict per spec execution

    def order(self) -> list:
        """The order of the next pass, drawn from the run's seed."""
        order = list(range(len(self.workload.specs)))
        self.order_rng.shuffle(order)
        return order

    def run_pass(self, pass_idx: int) -> float:
        return sum(self.run_spec(i, pass_idx) for i in self.order())

    def run_spec(self, i: int, pass_idx: int, tracer=None) -> float:
        """Run, encode and check spec i; return its wall time (run and
        encoding, not the check)."""
        spec = self.workload.specs[i]
        cspec = self.cli.ExperimentSpec(spec.experiment, dict(spec.params),
                                        self.workload.seed)
        error = None
        if tracer is not None:
            tracer.spec = i
            tracer.enable()
        t0 = time.perf_counter()
        try:
            result = self.cli.run(cspec)
            text = (_encode(result) if tracer is None
                    else tracer.call(EMIT, _encode, result))
        except Exception as exc:  # a library error fails this spec only
            text, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.disable()
        self.records.append({"pass": pass_idx, "index": i, "spec": spec,
                             "seconds": dt,
                             "failure": self.check(spec, text, error)})
        return dt

    def check(self, spec, text, error):
        if error is not None:
            return f"raised {type(error).__name__}"
        result = json.loads(text)
        reason = gate_failure(result)
        if reason:
            return reason
        ref = self.reference.get(spec.key)
        if ref and ref.get("exact") is not None:
            mc = self.workload.mc_fields.get(spec.experiment, ())
            bad = mismatch(ref["exact"], exact_part(result, mc))
            if bad:
                return f"differs from reference at {bad}"
        return None

    def unexpected(self):
        """Failures that differ from the failure recorded in the reference
        (a spec that failed there and fails the same way is a known
        defect: counted as failed, not as incorrect)."""
        out = []
        for r in self.records:
            if r["failure"] is None:
                continue
            ref = self.reference.get(r["spec"].key, {})
            if ref.get("failure") != r["failure"]:
                out.append(f"{r['spec'].key}: {r['failure']}")
        return out


def load_reference(workload) -> dict:
    data = json.loads((HERE / "reference.json").read_text())
    return data["workloads"][workload.name]["specs"]


def environment(workload, seed, runner) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "order_seed": seed, "experiment_seed": workload.seed,
            "specs": [s.key for s in workload.specs],
            "pass_order": [[r["index"] for r in runner.records
                            if r["pass"] == p]
                           for p in sorted({r["pass"]
                                            for r in runner.records})]}


def summarize_failures(records) -> dict:
    return dict(Counter(f"{r['spec'].key}: {r['failure']}"
                        for r in records if r["failure"]))


def run_untraced(runner, seconds):
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(runner.run_pass(len(walls)))
    return walls


def end_to_end(workload, runner, walls, modules):
    recs = runner.records
    ok = [r for r in recs if r["failure"] is None]
    qubits = sum(r["spec"].qubits for r in ok)
    ok_time = sum(r["seconds"] for r in ok)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = measure_setup(modules)
    t_val, t_pct, t_beyond = tail(walls)
    failed = len(recs) - len(ok)
    lines = [
        ("pass_s", statistics.median(walls), "s",
         f"median of {len(walls)} passes"),
        ("pass_s.tail", t_val, "s",
         f"p{t_pct:g} of {len(walls)} passes, {t_beyond} beyond"),
        ("qubits_per_s", qubits / ok_time if ok_time else 0.0, "qubits/s",
         f"{qubits} qubits in {ok_time:.3f} s of succeeded specs"),
        ("failed_ratio", failed / len(recs), "ratio",
         f"{failed}/{len(recs)} spec runs"),
        ("peak_rss_mb", rss_mb, "MiB", "untraced workload process"),
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh interpreters, "
         f"{len(modules) + 1} modules"),
    ]
    return lines, {"setup_samples_s": setup, "pass_walls_s": walls}


def run_traced(workload, runner):
    """One paired pass: each spec runs untraced and traced back to back
    (alternating which goes first), so the overhead is measured in the
    same machine state."""
    tracer = Tracer()
    tracer.prepare()
    walls = {False: 0.0, True: 0.0}
    for k, i in enumerate(runner.order()):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            walls[traced] += runner.run_spec(i, int(traced),
                                             tracer if traced else None)
    ids = range(len(workload.specs))
    counts = tracer.counts(ids)
    selfs = tracer.self_times(ids)
    coverage = sum(tracer.span_total("cli.run", i) for i in ids) / walls[True]
    problems = []
    if coverage < MIN_COVERAGE:
        problems.append(f"cli.run spans cover {coverage:.3f} of the traced "
                        f"pass (< {MIN_COVERAGE})")
    if workload.name == "dense-engine":
        problems += _epr_check(workload, tracer)
    metrics = {}
    for name, unit in layer_metrics():
        base, stat = name.rsplit(".", 1)
        value = (selfs.get(base, 0.0) if stat == "self_s"
                 else counts.get(base, Counter()).get(stat, 0))
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    info = {"untraced_pass_wall_s": walls[False],
            "traced_pass_wall_s": walls[True],
            "cli_run_coverage": coverage, "spans": len(tracer.spans)}
    return metrics, problems, info


def _epr_check(workload, tracer):
    name = "protocols.adversary.epr_blocks_dense"
    index = {s.key: i for i, s in enumerate(workload.specs)}
    problems = []
    for key, expected in EPR_EXPECTED.items():
        scope = range(len(workload.specs)) if key is None else [index[key]]
        c = tracer.counts(scope).get(name, Counter())
        got = (c.get("calls", 0), c.get("distinct", 0))
        if got != expected:
            problems.append(f"{name} in {key or 'the pass'}: (calls, "
                            f"distinct) {got}, expected {expected}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bqsm" / "cli.py").is_file():
        print(f"error: no bqsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bqsm.cli
    if Path(bqsm.cli.__file__).resolve().parent != SRC / "bqsm":
        print("error: bqsm was not imported from this checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, load_reference(workload))
    modules = lazy_modules(workload)
    for m in modules:  # import cost belongs to setup_s, not to pass_s
        __import__(m)

    print(f"workload {workload.name}: {workload.why}")
    if args.trace:
        metrics, problems, info = run_traced(workload, runner)
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    else:
        walls = run_untraced(runner, args.seconds)
        lines, info = end_to_end(workload, runner, walls, modules)
        for name, value, unit, note in lines:
            print(f"  {name} = {value:.6g} {unit}  ({note})")
        metrics = {name: (value, unit) for name, value, unit, _ in lines
                   if name != "failed_ratio"}
        problems = []
    records = runner.records
    problems = runner.unexpected() + problems
    for failure, count in summarize_failures(records).items():
        print(f"  failed x{count}: {failure}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    info["environment"] = environment(workload, args.seed, runner)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"]),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
