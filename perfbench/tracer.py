"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.enable` replaces each traced function of the loaded `bqsm.*`
modules with a wrapper that records one span per call (name, start, end,
parent span, spec id) plus the work counts of that call. Modules bind
names with `from .x import f`, so every alias of a function across the
loaded modules is replaced, not only the defining attribute. Generator
functions get one span per resumption, so the consumer's loop body is not
charged to them. Spans stay in memory until the run ends.

A layer's self time is its spans' duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import math
import pkgutil
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _prod(shape) -> int:
    return int(math.prod(shape))


def _canon(v):
    """Hashable key of an argument value, equal for equal contents."""
    if isinstance(v, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(v).tobytes()).hexdigest()
        return ("ndarray", v.shape, str(v.dtype), digest)
    if isinstance(v, (list, tuple)):
        return tuple(_canon(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((repr(k), _canon(x)) for k, x in v.items()))
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return (type(v).__name__,) + tuple(
            _canon(getattr(v, f.name)) for f in dataclasses.fields(v))
    return repr(v)


def _args_key(args, kwargs):
    return _canon((args, kwargs))


# (metric name, module, attribute path, stats, work(args, kwargs, result),
#  distinct(args, kwargs)). `calls`, `errors` and `self_s` are measured for
# every layer; `stats` lists the ones reported.
LAYERS = [
    ("cqstate.pa_distance", "bqsm.cqstate", "pa_distance",
     ("calls", "self_s", "member_blocks"),
     lambda a, k, r: {"member_blocks": a[1].size * len(set(a[0].u))}, None),
    ("cqstate.classical_lhl_distance", "bqsm.cqstate",
     "classical_lhl_distance", ("self_s",), None, None),
    ("cqstate.CqState.init", "bqsm.cqstate", "CqState.__init__",
     ("self_s",), None, None),
    ("hashing.HashFamily.eval_table", "bqsm.hashing",
     "HashFamily.eval_table", ("calls", "distinct", "cells", "self_s"),
     lambda a, k, r: {"cells": int(r.size)},
     lambda a, k: (a[0].n, a[0].ell, a[0].kind)),
    ("hashing.HashFamily.sample", "bqsm.hashing", "HashFamily.sample",
     ("calls", "self_s"), None, None),
    ("hashing.gf2_matvec_stream", "bqsm.hashing", "gf2_matvec_stream",
     ("calls", "self_s", "bit_ops"),
     lambda a, k, r: {"bit_ops": int(a[1]) * len(a[2])}, None),
    ("entropy.smooth_min_entropy", "bqsm.entropy", "smooth_min_entropy",
     ("calls", "self_s", "entries"),
     lambda a, k, r: {"entries": int(np.asarray(a[0].mass).size)}, None),
    ("entropy.JointDistribution.init", "bqsm.entropy",
     "JointDistribution.__init__", ("self_s",), None, None),
    ("entropy.split_min_entropy", "bqsm.entropy", "split_min_entropy",
     ("self_s",), None, None),
    ("qstate.trace_norm", "bqsm.qstate", "trace_norm",
     ("calls", "self_s"), None, None),
    ("qstate.batched_trace_norm", "bqsm.qstate", "batched_trace_norm",
     ("calls", "self_s", "matrices"),
     lambda a, k, r: {"matrices": _prod(np.shape(a[0])[:-2])}, None),
    ("qstate.haar_unitary", "bqsm.qstate", "haar_unitary",
     ("calls", "self_s"), None, None),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh",
     ("calls", "matrices", "dim_max", "self_s"),
     lambda a, k, r: {"matrices": _prod(np.shape(a[0])[:-2]),
                      "dim_max": np.shape(a[0])[-1]}, None),
    ("protocols.adversary.epr_blocks_dense", "bqsm.protocols.adversary",
     "epr_blocks_dense", ("calls", "distinct", "self_s"), None,
     _args_key),
    ("protocols.adversary.direct_blocks_dense", "bqsm.protocols.adversary",
     "direct_blocks_dense", ("calls", "distinct", "self_s"), None,
     _args_key),
    ("protocols.adversary.sender_measurement_dense",
     "bqsm.protocols.adversary", "sender_measurement_dense",
     ("calls", "distinct", "self_s"), None, _args_key),
    ("protocols.adversary.product_factors", "bqsm.protocols.adversary",
     "product_factors", ("self_s",), None, None),
    ("protocols.security.purification_gap", "bqsm.protocols.security",
     "purification_gap", ("self_s",), None, None),
    ("protocols.security.sender_security_distance",
     "bqsm.protocols.security", "sender_security_distance", ("self_s",),
     None, None),
    ("protocols.security.receiver_security_witness",
     "bqsm.protocols.security", "receiver_security_witness", ("self_s",),
     None, None),
    ("protocols.rabin.run_rabin_ot", "bqsm.protocols.rabin",
     "run_rabin_ot", ("calls", "self_s", "errors"), None, None),
    ("protocols.rabin.rabin_exact_blocks", "bqsm.protocols.rabin",
     "rabin_exact_blocks", ("calls", "self_s", "errors"), None, None),
    ("protocols.ot12.run_ot12", "bqsm.protocols.ot12", "run_ot12",
     ("calls", "self_s", "errors"), None, None),
    ("protocols.commitment.run_commitment", "bqsm.protocols.commitment",
     "run_commitment", ("calls", "self_s", "errors"), None, None),
    ("protocols.commitment.binding_experiment",
     "bqsm.protocols.commitment", "binding_experiment",
     ("calls", "self_s", "errors"), None, None),
    ("protocols.codes.LinearCode.syndrome_chunked", "bqsm.protocols.codes",
     "LinearCode.syndrome_chunked", ("self_s",), None, None),
    ("protocols.codes.LinearCode.decode_chunked", "bqsm.protocols.codes",
     "LinearCode.decode_chunked", ("self_s",), None, None),
    ("qkd.rate_bound_check", "bqsm.qkd", "rate_bound_check", ("self_s",),
     None, None),
    ("qkd.run_qkd", "bqsm.qkd", "run_qkd", ("self_s",), None, None),
    ("qkd.overall_bound_mc", "bqsm.qkd", "overall_bound_mc", ("self_s",),
     None, None),
    ("uncertainty.two_basis_relation", "bqsm.uncertainty",
     "two_basis_relation", ("self_s",), None, None),
    ("uncertainty.max_prob_relation", "bqsm.uncertainty",
     "max_prob_relation", ("self_s",), None, None),
    ("uncertainty.min_entropy_sum_relation", "bqsm.uncertainty",
     "min_entropy_sum_relation", ("self_s",), None, None),
    ("uncertainty.multi_mub_relation", "bqsm.uncertainty",
     "multi_mub_relation", ("self_s",), None, None),
    ("classical_ot.xor_uniformity", "bqsm.classical_ot", "xor_uniformity",
     ("self_s",), None, None),
    ("classical_ot.construct_pointer", "bqsm.classical_ot",
     "construct_pointer", ("self_s",), None, None),
    ("classical_ot.ndlf_security_distance", "bqsm.classical_ot",
     "ndlf_security_distance", ("self_s",), None, None),
    ("markov.accumulated_min_entropy_markov", "bqsm.markov",
     "accumulated_min_entropy_markov", ("self_s",), None, None),
    ("cli.run", "bqsm.cli", "run", ("self_s",), None, None),
]

# Span the benchmark opens itself, around the JSON encoding of a result.
EMIT = "cli.emit"


def layer_metrics() -> list:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for name, _, _, stats, _, _ in LAYERS:
        out += [(f"{name}.{s}", "s" if s == "self_s" else "count")
                for s in stats]
    out.append((f"{EMIT}.self_s", "s"))
    return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, spec]
        self._stack = []
        self.spec = -1
        self.work = defaultdict(Counter)      # (spec, name) -> stat counts
        self.keys = defaultdict(set)          # (spec, name) -> arg keys
        self._targets = []     # (owner, alias, original, wrapper)

    # -- recording -------------------------------------------------------
    def _enter(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.spec])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (for the benchmark's own
        calls)."""
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _wrap(self, name, fn, work, distinct):
        tracer = self

        def count(args, kwargs):
            w = tracer.work[(tracer.spec, name)]
            w["calls"] += 1
            if distinct is not None:
                tracer.keys[(tracer.spec, name)].add(distinct(args, kwargs))
            return w

        if inspect.isgeneratorfunction(fn):
            def drive(w, gen):
                while True:
                    idx = tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        w["errors"] += 1
                        raise
                    finally:
                        tracer._exit(idx)
                    yield item

            def wrapper(*args, **kwargs):
                return drive(count(args, kwargs), fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                w = count(args, kwargs)
                idx = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    w["errors"] += 1
                    raise
                finally:
                    tracer._exit(idx)
                if work is not None:
                    for stat, v in work(args, kwargs, result).items():
                        if stat == "dim_max":
                            w[stat] = max(w[stat], v)
                        else:
                            w[stat] += v
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def prepare(self):
        """Import every bqsm module and find every alias of each traced
        function; `enable` and `disable` then swap the wrappers in and
        out."""
        import bqsm
        for info in pkgutil.walk_packages(bqsm.__path__, "bqsm."):
            importlib.import_module(info.name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "bqsm" or n.startswith("bqsm.")]
        for name, module, path, _, work, distinct in LAYERS:
            owner, attr, fn = _resolve(module, path)
            wrapper = self._wrap(name, fn, work, distinct)
            targets = {(id(owner), attr): owner}
            if not inspect.isclass(owner):
                for m in modules:
                    for alias, value in vars(m).items():
                        if value is fn:
                            targets[(id(m), alias)] = m
            self._targets += [(obj, alias, fn, wrapper)
                              for (_, alias), obj in targets.items()]

    def enable(self):
        for obj, alias, _, wrapper in self._targets:
            setattr(obj, alias, wrapper)

    def disable(self):
        for obj, alias, fn, _ in self._targets:
            setattr(obj, alias, fn)

    # -- aggregation -----------------------------------------------------
    def self_times(self, specs) -> dict:
        """Summed self time per span name over the given spec ids."""
        specs = set(specs)
        child = defaultdict(float)
        for name, start, end, parent, spec in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, spec) in enumerate(self.spans):
            if spec in specs:
                out[name] += end - start - child[idx]
        return out

    def span_total(self, name, spec) -> float:
        return sum(end - start for n, start, end, _, s in self.spans
                   if n == name and s == spec)

    def counts(self, specs) -> dict:
        """Per layer: summed counts, and distinct argument keys."""
        out = defaultdict(Counter)
        for (spec, name), w in self.work.items():
            if spec in specs:
                for stat, v in w.items():
                    if stat == "dim_max":
                        out[name][stat] = max(out[name][stat], v)
                    else:
                        out[name][stat] += v
        for name in out:
            keys = set()
            for spec in specs:
                keys |= self.keys.get((spec, name), set())
            if keys:
                out[name]["distinct"] = len(keys)
        return out
