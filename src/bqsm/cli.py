"""Seeded, reproducible experiment runner.

Every harness in the toolkit is a named registry entry taking typed
parameters. Outputs embed the full spec and are byte-identical for
identical specs. Exit codes: 0 success, 2 parameter, input, capacity or
promise error (one JSON error line on stderr), 3 bound violation detected
(so CI can gate on slack >= 0).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (CapacityError, InputError, PromiseViolation, check_cap,
                     check_count)

FLOAT_FMT = "{:.12g}"


@dataclass
class ExperimentSpec:
    name: str
    parameters: dict
    seed: int
    out: str | None = None
    fmt: str = "json"

    def to_dict(self) -> dict:
        return {"experiment": self.name, "parameters": self.parameters,
                "seed": self.seed, "format": self.fmt,
                "version": __version__}


class ParameterError(Exception):
    pass


def _choose(param: str, value, table: dict):
    """The entry of a name-keyed choice table; an unknown name is a
    ParameterError naming the parameter and the choices."""
    if value not in table:
        raise ParameterError(
            f"unknown {param} {value!r}; choose from "
            + ", ".join(repr(k) for k in table))
    return table[value]


def _fmt(v):
    if isinstance(v, float):
        return FLOAT_FMT.format(v)
    return v


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _exp_uncertainty_two_basis(seed, n=6, trials=1000,
                               max_set: int | None = None):
    from .qstate import haar_state
    from .uncertainty import (max_prob_relation, min_entropy_sum_relation,
                              two_basis_relation)
    max_set = 1 << n if max_set is None else max_set
    check_count("max_set", max_set, most=1 << n)
    rows, violations = [], 0
    for t in range(trials):
        state_seed = [seed, t, 0]
        set_seed = [seed, t, 1]
        st = haar_state(n, np.random.default_rng(state_seed))
        rng = np.random.default_rng(set_seed)
        k1 = int(rng.integers(1, max_set + 1))
        k2 = int(rng.integers(1, max_set + 1))
        lp = rng.choice(1 << n, k1, replace=False)
        lt = rng.choice(1 << n, k2, replace=False)
        reps = [two_basis_relation(st, lp, lt),
                *max_prob_relation(st), min_entropy_sum_relation(st)]
        for rep in reps:
            violations += not rep.holds
            rows.append(dict(state_seed=repr(state_seed),
                             set_seed=repr(set_seed), **rep.row()))
    return {"rows": rows, "violations": violations}


def _exp_uncertainty_tight_cases(seed, n_max=8):
    from .uncertainty import (hadamard_invariant_state, half_split_state,
                              two_basis_relation)
    rows, violations = [], 0
    for n in range(2, n_max + 1):
        rep = two_basis_relation(hadamard_invariant_state(n), [0], [0])
        ok = abs(rep.slack) <= 1e-9
        violations += not ok
        rows.append(dict(case="invariant", **rep.row()))
        if n % 2 == 0:
            st, lp, lt = half_split_state(n)
            rep = two_basis_relation(st, lp, lt)
            ok = abs(rep.lhs - 2.0) <= 1e-9 and abs(rep.rhs - 2.0) <= 1e-9
            violations += not ok
            rows.append(dict(case="half_split", **rep.row()))
    return {"rows": rows, "violations": violations}


def _exp_second_relation(seed, n=6, lam=0.12, trials=40, alphabet="bb84"):
    from .qstate import DensityOperator
    from .uncertainty import second_relation_sample
    from .qkd import AEU_BOUND, ALPHABETS
    h = _choose("alphabet", alphabet, AEU_BOUND)
    rec = second_relation_sample(DensityOperator.maximally_mixed(n),
                                 ALPHABETS[alphabet], h, lam, trials, seed)
    rec.pop("thetas")
    rec["per_slice_min"] = min(rec.pop("per_slice_min_entropy"))
    return {"rows": [rec], "violations": 0 if rec["pass"] else 1}


def _exp_uncertainty_multi_mub(seed, n=4, trials=500):
    from .qkd import ALPHABETS
    from .qstate import haar_state
    from .uncertainty import multi_mub_relation
    rows, violations = [], 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        st = haar_state(n, rng)
        sets = []
        for _ in range(3):
            k = int(rng.integers(1, (1 << n) + 1))
            sets.append(rng.choice(1 << n, k, replace=False))
        rep = multi_mub_relation(st, ALPHABETS["six-state"], sets)
        violations += not rep.holds
        rows.append(dict(trial=t, **rep.row()))
    return {"rows": rows, "violations": violations}


def _exp_maassen_uffink(seed, n=4, trials=1000):
    from .entropy import shannon_entropy
    from .qstate import haar_state, random_density
    from .uncertainty import _two_basis_probs
    rows, violations = [], 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        st = haar_state(n, rng) if t % 2 == 0 else random_density(n, rng)
        qp, qt = _two_basis_probs(st)
        lhs = shannon_entropy(qp) + shannon_entropy(qt)
        violations += lhs < n - 1e-9
        rows.append({"trial": t, "lhs": lhs, "rhs": n,
                     "slack": lhs - n})
    return {"rows": rows, "violations": violations}


def _exp_hd_table(seed, dims=(2, 4, 8, 16)):
    from .qkd import overall_bound
    rows = [{"d": d, "h_d": overall_bound(d),
             "h_d_over_log_d": overall_bound(d) / math.log2(d)}
            for d in dims]
    return {"rows": rows, "violations": 0}


def _exp_hd_mc(seed, d=2, samples=100000):
    from .qkd import overall_bound, overall_bound_mc
    est, se = overall_bound_mc(d, samples, seed)
    closed = overall_bound(d)
    ok = abs(est - closed) <= 3 * se
    return {"rows": [{"d": d, "estimate": est, "stderr": se,
                      "closed_form": closed, "within_3_sigma": ok}],
            "violations": 0 if ok else 1}


def _exp_qkd_thresholds(seed):
    from .qkd import threshold_table
    return {"rows": threshold_table(), "violations": 0}


def _exp_qkd_run(seed, alphabet="bb84", p=0.0, symbols=1000,
                 margin_bits=1.0, code="none"):
    from .protocols.codes import hamming_7_4, repetition_code
    from .qkd import ALPHABETS, QkdConfig, run_qkd
    codes = {"hamming": lambda: hamming_7_4(p),
             "rep5": lambda: repetition_code(5, p), "none": lambda: None}
    _choose("alphabet", alphabet, ALPHABETS)
    cfg = QkdConfig(alphabet=alphabet, p=p, symbols=symbols,
                    margin_bits=margin_bits,
                    code=_choose("code", code, codes)(),
                    ec_bits_per_symbol=None if code != "none" else 0.0)
    return {"rows": [run_qkd(cfg, seed)], "violations": 0}


def _exp_qkd_rate_check(seed, alphabet="six-state", m=7, eve="trivial",
                        eve_param: str | None = None, memory_qubits=0,
                        margin_bits=0.5):
    from .protocols.codes import hamming_7_4
    from .qkd import ALPHABETS, Eavesdropper, QkdConfig, rate_bound_check
    from .qstate import SINGLE_QUBIT_BASES
    _choose("alphabet", alphabet, ALPHABETS)
    if eve == "trivial" and eve_param is not None:
        raise ParameterError(f"eve_param={eve_param} is ignored by eve "
                             "'trivial'; leave eve_param unset")
    cfg = QkdConfig(alphabet=alphabet, p=0.0,
                    code=hamming_7_4(0.05) if m == 7 else None,
                    ec_bits_per_symbol=None if m == 7 else 0.0,
                    memory_qubits=memory_qubits, margin_bits=margin_bits)
    params = _choose("eve", eve, {
        "trivial": lambda: (),
        "intercept_resend": lambda: (_choose(
            "eve_param", eve_param or "+",
            {b: b for b in SINGLE_QUBIT_BASES}),),
        "store_subset": lambda: (
            _value("eve_param", int, eve_param or memory_qubits),)})()
    rec = rate_bound_check(cfg, Eavesdropper(eve, params), m, seed)
    bad = 0 if rec.get("refused") or rec.get("pass") else 1
    return {"rows": [rec], "violations": bad}


def _exp_lhl_classical(seed, n=4, ell=1, distributions=20):
    from .cqstate import classical_lhl_distance
    from .entropy import Distribution
    from .hashing import HashFamily
    fam = HashFamily(n, ell, "linear")
    rows, violations = [], 0
    for t in range(distributions):
        rng = np.random.default_rng([seed, t])
        mass = _structured_mass(rng, 1 << n, t)
        ex, bd = classical_lhl_distance(Distribution(range(1 << n), mass),
                                        fam)
        violations += ex > bd + 1e-9
        rows.append({"trial": t, "exact": ex, "bound": bd,
                     "slack": bd - ex})
    return {"rows": rows, "violations": violations}


def _structured_mass(rng, size, kind):
    kind = kind % 5
    if kind == 0:
        m = np.full(size, 1.0 / size)
    elif kind == 1:
        m = np.zeros(size)
        m[int(rng.integers(size))] = 1.0
    elif kind == 2:
        k = 1 << int(rng.integers(1, int(math.log2(size)) + 1))
        idx = rng.choice(size, k, replace=False)
        m = np.zeros(size)
        m[idx] = 1.0 / k
    elif kind == 3:
        m = rng.geometric(0.3, size=size).astype(float)
        m /= m.sum()
    else:
        m = rng.random(size)
        m /= m.sum()
    return m


def _exp_pa_quantum(seed, n=4, q=1, strategy="store_prefix", ell=1):
    from .cqstate import pa_distance
    from .hashing import HashFamily
    from .protocols import breitbart_strategy, measure_fixed, store_prefix
    from .protocols.rabin import rabin_cq_state, rabin_exact_blocks
    strat = _choose("strategy", strategy, {
        "store_prefix": lambda: store_prefix(q),
        "measure_fixed": lambda: measure_fixed(
            ["+" if i % 2 == 0 else "x" for i in range(n)]),
        "breitbart": lambda: breitbart_strategy()})()
    state = rabin_cq_state(strat.memory_qubits(n),
                           rabin_exact_blocks(n, strat))
    exact, bound = pa_distance(state, HashFamily(n, ell, "linear"), 0.0)
    ok = exact <= bound + 1e-9
    return {"rows": [{"n": n, "q": strat.memory_qubits(n),
                      "strategy": str(strat), "exact": exact,
                      "bound": bound, "slack": bound - exact}],
            "violations": 0 if ok else 1}


def _exp_bell_attack(seed, n=6):
    from .protocols.rabin import bell_xor_attack
    rec = bell_xor_attack(n, seed)
    rec.pop("transcript")
    ok = abs(rec["success_probability"] - 1.0) < 1e-9
    return {"rows": [rec], "violations": 0 if ok else 1}


def _exp_breitbart(seed):
    from .protocols.rabin import breitbart_attack
    rec = breitbart_attack()
    ok = (abs(rec["b0"] - rec["expected"]) < 1e-9
          and abs(rec["b1"] - rec["expected"]) < 1e-9)
    return {"rows": [rec], "violations": 0 if ok else 1}


def _exp_xor_characterization(seed, trials=1000, n_w=2):
    from .classical_ot import (OtOutputDistribution, construct_pointer,
                               xor_uniformity)
    violations = 0
    zero_cases = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        # unnormalized integer counts, on which both checks are exact
        if t % 2 == 0:
            counts = rng.integers(0, 8, size=4 * n_w).reshape(2, 2, n_w)
            if counts.sum() == 0:
                counts[0, 0, 0] = 1
        else:
            # xor-balanced construction: per w, a+d = b+c
            counts = np.zeros((2, 2, n_w), dtype=int)
            usable = True
            for w in range(n_w):
                a, b = int(rng.integers(0, 5)), int(rng.integers(0, 5))
                c = int(rng.integers(0, 5))
                if b + c < a:
                    usable = False
                    break
                counts[:, :, w] = [[a, b], [c, b + c - a]]
            if not usable or counts.sum() == 0:
                continue
        dist = OtOutputDistribution(counts, 1, normalized=False)
        x = xor_uniformity(dist)
        pe = construct_pointer(dist)
        if (x == 0) != (pe.epsilon == 0):
            violations += 1
        if x == 0:
            zero_cases += 1
    return {"rows": [{"trials": trials, "zero_cases": zero_cases}],
            "violations": violations}


def _exp_ndlf_perturbation(seed, ell=1, trials=200):
    from .classical_ot import (OtOutputDistribution, construct_pointer,
                               ndlf_security_distance)
    size = 1 << ell
    violations = 0
    rows = []
    factor = 1 << (2 * ell + 1)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        n_w = int(rng.integers(1, 4))
        base = np.full((size, size, n_w), 1.0 / (size * size * n_w))
        pert = rng.normal(scale=0.1 / (size * size * n_w),
                          size=base.shape)
        m = np.clip(base + pert, 1e-9, None)
        m /= m.sum()
        dist = OtOutputDistribution(m, ell)
        nd, _ = ndlf_security_distance(dist)
        pe = construct_pointer(dist)
        ok = pe.epsilon <= factor * nd + 1e-12
        violations += not ok
        rows.append({"trial": t, "achieved": float(pe.epsilon),
                     "ndlf_distance": float(nd),
                     "budget": float(factor * nd)})
    return {"rows": rows, "violations": violations}


def _exp_splitting(seed, trials=1000, n0=3, n1=3):
    from .entropy import JointDistribution, split_min_entropy
    violations = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        m = rng.random((1 << n0, 1 << n1)) ** (1 + t % 3)
        m /= m.sum()
        alpha = -math.log2(m.max())
        res = split_min_entropy(
            JointDistribution([range(1 << n0), range(1 << n1)], m), alpha)
        if res.achieved < res.bound:
            violations += 1
    return {"rows": [{"trials": trials}], "violations": violations}


def _exp_ot_uot(seed, n=6, ell=1, kappa=0.5, channel="xor"):
    from .classical_ot import UotChannel, reduce_ot_from_uot
    ch = _choose("channel", channel, {
        "xor": lambda: UotChannel.xor(n),
        "honest0": lambda: UotChannel.honest(n, 0),
        "erasure": lambda: UotChannel.erasure(min(n, 3))})()
    rec = reduce_ot_from_uot(ch.n, ell, kappa, ch, force=True)
    bad = 0 if (not rec["promise_ok"]) or rec["pass"] else 1
    return {"rows": [rec], "violations": bad}


def _exp_splitting_reduction(seed, n=9, ell=1, kappa=0.25,
                             channel="parity"):
    from .classical_ot import UotChannel, splitting_reduction
    ch = _choose("channel", channel, {"parity": UotChannel.parity,
                                      "xor": UotChannel.xor})(n)
    rec = splitting_reduction(n, ell, kappa, ch, force=True)
    bad = 0 if (not rec["promise_ok"]) or rec["pass"] else 1
    return {"rows": [rec], "violations": bad}


def _exp_rabin_honest(seed, n=24, runs=10000):
    from .protocols import run_rabin_ot
    from .protocols.channel import PERFECT
    received, correct = 0, 0
    for t in range(runs):
        tr = run_rabin_ot(t & 1, PERFECT, "honest", n, seed + t)
        if tr.honest["a"] == 1:
            received += 1
            correct += tr.honest["y"] == tr.honest["b"]
    bad = 0 if correct == received else 1
    sigma = 0.5 / math.sqrt(runs)
    rate_ok = abs(received / runs - 0.5) <= 3 * sigma
    return {"rows": [{"runs": runs, "received": received,
                      "correct": correct, "rate": received / runs,
                      "rate_within_3_sigma": rate_ok}],
            "violations": bad + (0 if rate_ok else 1)}


def _exp_ot12_honest(seed, n=24, runs=2000):
    from .protocols import run_ot12
    from .protocols.channel import PERFECT
    bad = 0
    for t in range(runs):
        tr = run_ot12(t & 1, PERFECT, "honest", n, 1, seed + t)
        want = tr.honest["s0"] if tr.honest["c"] == 0 else tr.honest["s1"]
        bad += tr.honest["y"] != want
    return {"rows": [{"runs": runs, "failures": bad}],
            "violations": 1 if bad else 0}


def _exp_commit_honest(seed, n=30, runs=2000):
    from .protocols import run_commitment
    from .protocols.channel import PERFECT
    bad = sum(not run_commitment(t & 1, PERFECT, "honest", n,
                                 seed + t).honest["accepted"]
              for t in range(runs))
    return {"rows": [{"runs": runs, "rejections": bad}],
            "violations": 1 if bad else 0}


def _exp_purification(seed, n=6):
    from .protocols import (bell_pairwise_xor, breitbart_strategy,
                            full_memory, measure_fixed, purification_gap,
                            store_prefix)
    rows, violations = [], 0
    strategies = [store_prefix(0), store_prefix(1), store_prefix(2),
                  measure_fixed(["+" if i % 2 == 0 else "x"
                                 for i in range(n)]),
                  breitbart_strategy(), full_memory()]
    if n % 2 == 0:
        strategies.append(bell_pairwise_xor())
    for s in strategies:
        gap = purification_gap(n, s, [["+"] * n, ["x"] * n])
        violations += gap > 1e-9
        rows.append({"strategy": str(s), "gap": gap})
    return {"rows": rows, "violations": violations}


def _exp_binding(seed, n=10, q=1, strategy="store_prefix", mode="weak"):
    from .protocols import (binding_experiment, breitbart_strategy,
                            full_memory, store_prefix)
    committer = _choose("strategy", strategy, {
        "store_prefix": lambda: store_prefix(q),
        "breitbart": lambda: breitbart_strategy(),
        "full_memory": lambda: full_memory(),
        "superposition": lambda: "superposition"})()
    rec = binding_experiment(committer, n, mode=_choose(
        "mode", mode, {"weak": "weak", "strong": "strong"}))
    return {"rows": [rec], "violations": 0 if rec["bound_ok"] else 1}


def _exp_sender_security(seed, protocol="rabin", n=5, q=1, ell=1,
                         strategy="store_prefix"):
    from .protocols import (breitbart_strategy, sender_security_distance,
                            store_prefix)
    strat = _choose("strategy", strategy, {
        "store_prefix": lambda: store_prefix(q),
        "breitbart": lambda: breitbart_strategy()})()
    rec = sender_security_distance(strat, _choose(
        "protocol", protocol, {"rabin": "rabin", "ot12": "ot12"}), n, ell)
    return {"rows": [rec], "violations": 0 if rec["pass"] else 1}


def _exp_receiver_security(seed, n=3, sender="honest"):
    from .protocols import receiver_security_witness
    from .protocols.security import (entangled_rabin_sender,
                                     garbage_rabin_sender,
                                     honest_rabin_sender)
    maker = _choose("sender", sender, {
        "honest": honest_rabin_sender, "garbage": garbage_rabin_sender,
        "entangled": entangled_rabin_sender})
    rows, violations = [], 0
    for protocol in ("rabin", "ot12"):
        rec = receiver_security_witness(maker(n, seed), protocol, n)
        violations += not rec["exact"]
        rows.append(rec)
    return {"rows": rows, "violations": violations}


def _exp_hmin_accumulated(seed, n=200, lam=0.1, trials=10000):
    from . import markov
    model = markov.floor_hugging_chain(4, entropy_floor=1.0)
    rec = markov.accumulated_min_entropy_markov(model, n, lam, trials, seed)
    return {"rows": [rec], "violations": 0 if rec["pass"] else 1}


def _exp_azuma(seed, c=1.0, n=1000, lam=0.1, trials=100000):
    # fair +-c walk, vectorized across the trials of each row block, so
    # memory does not grow with trials; the generic per-step harness
    # entropy.azuma_empirical covers arbitrary sources
    from .bits import row_blocks
    from .entropy import azuma_tail, tail_estimate
    check_cap("walk-steps", "n", n)
    rng = np.random.default_rng(seed)
    bound = azuma_tail(c, n, lam)
    hits = 0
    for rows in row_blocks(trials, n):
        steps = rng.choice([-c, c], size=(rows, n))
        hits += int((steps.sum(axis=1) >= lam * n).sum())
    est, stderr, ok = tail_estimate(hits, trials, bound)
    rec = {"estimate": est, "bound": bound, "stderr": stderr,
           "n": n, "trials": trials}
    return {"rows": [rec], "violations": 0 if ok else 1}


def _schema(func) -> dict:
    """The settable parameters of an experiment, read off its signature:
    the type of each scalar default, or the scalar of a `T | None`
    annotation where the default is None. Other defaults stay unexposed."""
    schema = {}
    for name, par in inspect.signature(func, eval_str=True).parameters.items():
        types = typing.get_args(par.annotation) if par.default is None \
            else (type(par.default),)
        scalar = [t for t in types if t in (int, float, str)]
        if par.default is not par.empty and scalar:
            schema[name] = scalar[0]
    return schema


# Every numeric parameter's domain, by name, from the paper's statements.
# max_set <= 2^n depends on n, so its experiment checks it.
DOMAINS = {
    "q": "[0, inf)",                 # memory qubits; 0 is none
    "memory_qubits": "[0, inf)",
    "eve_param": "[0, inf)",         # symbols a store_subset Eve keeps
    "n_max": "[2, inf)",             # the tight cases start at 2 qubits
    "samples": "[2, inf)",           # the ddof=1 stderr needs two
    "d": "[2, inf)",                 # a qudit dimension
    "p": "[0, 1]",                   # a probability
    "margin_bits": "[0, inf)",
    "kappa": "[0, inf)",             # error target 2^-kappa
    "c": "(0, inf)",                 # step bound of a martingale
    "lam": "(0, inf)",               # deviation or entropy-rate margin
}
DEFAULT_DOMAIN = {int: "[1, inf)", float: "(-inf, inf)"}  # counts; finite


def _value(param: str, typ, text):
    """`text` as a `typ`; a number must lie in the domain of `param`."""
    try:
        value = typ(text)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad value for {param}: {exc}") from exc
    if typ is not str:
        domain = DOMAINS.get(param, DEFAULT_DOMAIN[typ])
        least, most = (float(b) if "inf" in b else typ(b)
                       for b in domain[1:-1].split(", "))
        if typ is float and not math.isfinite(value) \
                or domain[0] == "(" and value == least \
                or domain[-1] == ")" and value == most:
            raise InputError(f"{param}={value} is outside {domain}; "
                             f"set {param} in {domain}")
        check_count(param, value, least, most)
    return value


REGISTRY = {name: (func, _schema(func)) for name, func in {
    "uncertainty-two-basis": _exp_uncertainty_two_basis,
    "uncertainty-tight-cases": _exp_uncertainty_tight_cases,
    "second-relation": _exp_second_relation,
    "uncertainty-multi-mub": _exp_uncertainty_multi_mub,
    "maassen-uffink": _exp_maassen_uffink,
    "hd-table": _exp_hd_table,
    "hd-mc": _exp_hd_mc,
    "qkd-thresholds": _exp_qkd_thresholds,
    "qkd-run": _exp_qkd_run,
    "qkd-rate-check": _exp_qkd_rate_check,
    "lhl-classical": _exp_lhl_classical,
    "pa-quantum": _exp_pa_quantum,
    "bell-attack": _exp_bell_attack,
    "breitbart": _exp_breitbart,
    "xor-characterization": _exp_xor_characterization,
    "ndlf-perturbation": _exp_ndlf_perturbation,
    "min-entropy-splitting": _exp_splitting,
    "ot-from-uot": _exp_ot_uot,
    "splitting-reduction": _exp_splitting_reduction,
    "rabin-honest": _exp_rabin_honest,
    "ot12-honest": _exp_ot12_honest,
    "commitment-honest": _exp_commit_honest,
    "purification-equivalence": _exp_purification,
    "binding": _exp_binding,
    "sender-security": _exp_sender_security,
    "receiver-security": _exp_receiver_security,
    "hmin-accumulated": _exp_hmin_accumulated,
    "azuma-empirical": _exp_azuma,
}.items()}


def list_experiments(filter_text: str = "") -> list:
    return [{"experiment": name, "parameters": {
        k: t.__name__ if t is str
        else f"{t.__name__} {DOMAINS.get(k, DEFAULT_DOMAIN[t])}"
        for k, t in schema.items()}}
        for name, (_, schema) in sorted(REGISTRY.items())
        if filter_text in name]


def run(spec: ExperimentSpec) -> dict:
    func, schema = _choose("experiment", spec.name, REGISTRY)
    kwargs = {}
    for k, v in spec.parameters.items():
        if k not in schema:
            raise ParameterError(f"unknown parameter {k!r} for {spec.name}")
        kwargs[k] = _value(k, schema[k], v)
    result = func(spec.seed, **kwargs)
    result["spec"] = spec.to_dict()
    return result


def _emit(result: dict, spec: ExperimentSpec):
    rows = result["rows"]
    if spec.fmt == "csv":
        cols: list = []
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(str(_fmt(row.get(c, ""))) for c in cols))
        text = "\n".join(lines) + "\n"
    else:
        try:
            text = json.dumps(result, sort_keys=True, default=_json_default,
                              indent=1, allow_nan=False) + "\n"
        except ValueError as exc:
            raise InputError(f"{spec.name} gave a non-finite result, "
                             "which JSON cannot hold") from exc
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(v):
    if isinstance(v, (np.generic, np.ndarray)):
        return v.tolist()
    return str(v)


def _config_spec(path: str, out, fmt) -> ExperimentSpec:
    """The spec of a JSON config file; an unreadable file or a missing or
    malformed field is a ParameterError."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        return ExperimentSpec(cfg["experiment"],
                              dict(cfg.get("parameters", {})),
                              int(cfg["seed"]), out, cfg.get("format", fmt))
    except KeyError as exc:
        raise ParameterError(f"--config {path} has no {exc} field") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ParameterError(f"bad --config {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bqsm",
        description="seeded experiment runner for the bounded-quantum-"
                    "storage toolkit")
    parser.add_argument("--experiment", "-e")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--filter", default="")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("json", "csv"),
                        default="json")
    parser.add_argument("--param", "-p", action="append", default=[],
                        metavar="k=v")
    parser.add_argument("--config", help="JSON file with a full spec")
    args = parser.parse_args(argv)

    if args.list:
        sys.stdout.write(json.dumps(list_experiments(args.filter),
                                    indent=1) + "\n")
        return 0
    try:
        if args.config:
            spec = _config_spec(args.config, args.out, args.format)
        else:
            if not args.experiment:
                raise ParameterError("--experiment is required")
            if args.seed is None:
                raise ParameterError("--seed is mandatory")
            params = {}
            for kv in args.param:
                if "=" not in kv:
                    raise ParameterError(f"malformed --param {kv!r}")
                k, v = kv.split("=", 1)
                params[k] = v
            spec = ExperimentSpec(args.experiment, params, args.seed,
                                  args.out, args.format)
        result = run(spec)
        _emit(result, spec)
    except (ParameterError, CapacityError, InputError,
            PromiseViolation) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except MemoryError:
        sizes = ", ".join(k for k, t in REGISTRY[spec.name][1].items()
                          if t is int)
        sys.stderr.write(json.dumps({"error": f"{spec.name} ran out of "
                                     f"memory; lower its size parameter "
                                     f"({sizes})"}) + "\n")
        return 2
    if result.get("violations", 0):
        sys.stderr.write(json.dumps(
            {"violations": result["violations"]}) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
