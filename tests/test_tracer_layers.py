"""Every layer the benchmark tracer wraps names a function that exists.

`perfbench/tracer.py` resolves each `LAYERS` (module, attribute path) when
a traced run starts, so a renamed or deleted library function would stop
every traced benchmark run. The tracer module is loaded from its file and
left as it is.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, path, *_ in tracer.LAYERS:
        try:
            _, _, fn = tracer._resolve(module, path)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{name}: {exc!r}")
            continue
        if not callable(fn):
            missing.append(f"{name}: {fn!r} is not callable")
    assert not missing, missing
