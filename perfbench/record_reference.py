#!/usr/bin/env python3
"""Record `reference.json`: the exact-math outputs of every benchmark spec.

    python3 perfbench/record_reference.py

Run from the root of a checkout at the commit whose outputs are the
reference. Each spec runs once. A spec that fails there is recorded with
its failure, so the benchmark counts it as failed but not as incorrect
while it keeps failing the same way.
"""

import json
import sys

from run import BLAS_THREADS, HERE, SRC, _encode  # sets the BLAS threads
from check import exact_part, gate_failure
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    from bqsm import __version__, cli
    out = {"bqsm_version": __version__, "blas_threads": int(BLAS_THREADS),
           "workloads": {}}
    for workload in WORKLOADS.values():
        specs = {}
        for spec in workload.specs:
            cspec = cli.ExperimentSpec(spec.experiment, dict(spec.params),
                                       workload.seed)
            try:
                result = json.loads(_encode(cli.run(cspec)))
            except Exception as exc:  # recorded as a known failure
                specs[spec.key] = {"failure": f"raised {type(exc).__name__}",
                                   "exact": None}
                continue
            failure = gate_failure(result)
            mc = workload.mc_fields.get(spec.experiment, ())
            specs[spec.key] = {"failure": failure,
                               "exact": None if failure
                               else exact_part(result, mc)}
            print(f"{workload.name}: {spec.key}: {failure or 'ok'}",
                  flush=True)
        out["workloads"][workload.name] = {"seed": workload.seed,
                                           "specs": specs}
    (HERE / "reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
