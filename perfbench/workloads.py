"""The fixed experiment specs of each benchmark workload.

A spec is what a user passes to the `bqsm` command line: an experiment name
and `--param k=v` strings. The experiment seed is fixed per workload, so
the outputs can be checked against `reference.json`. `qubits` is the
number of qubits (or QKD symbols) the spec simulates: n x runs for the
honest samplers, the symbol count for `qkd-run`, n x trials for the
uncertainty sweeps, one qubit per sample for `hd-mc` (d=2), the register
size for the exact audits, and 0 for purely classical specs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    experiment: str
    params: tuple          # ((key, value-string), ...) in command-line order
    qubits: int

    @property
    def key(self) -> str:
        return " ".join([self.experiment]
                        + [f"{k}={v}" for k, v in self.params])


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    why: str
    specs: tuple
    # Row fields of seeded Monte-Carlo output, per experiment. They are
    # checked by the experiment's own gate, not against the reference.
    mc_fields: dict


def _spec(experiment: str, qubits: int, **params) -> Spec:
    return Spec(experiment, tuple((k, str(v)) for k, v in params.items()),
                qubits)


_HONEST_MC = {
    "rabin-honest": {"received", "correct", "rate"},
    "ot12-honest": {"failures"},
    "commitment-honest": {"rejections"},
    "qkd-run": {"sifted", "sift_rate", "reconciled", "key_length",
                "syndrome_bits", "keys_equal", "key_a", "refused"},
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "pa-audit", 1616,
        "criterion-16 privacy-amplification audits: pa_distance over whole "
        "hash families (cqstate, hashing, entropy)",
        (
            _spec("qkd-rate-check", 6, alphabet="six-state", m=6,
                  eve="trivial"),
            _spec("qkd-rate-check", 6, alphabet="six-state", m=6,
                  eve="intercept_resend"),
            _spec("qkd-rate-check", 6, alphabet="six-state", m=6,
                  eve="store_subset", eve_param=2),
            _spec("sender-security", 5, protocol="rabin", n=5, q=0),
            _spec("sender-security", 5, protocol="rabin", n=5, q=1),
            _spec("sender-security", 5, protocol="rabin", n=5, q=2),
            _spec("sender-security", 4, protocol="rabin",
                  strategy="breitbart", n=4),
            _spec("sender-security", 5, protocol="ot12", n=5, q=0),
            _spec("sender-security", 5, protocol="ot12", n=5, q=1),
            _spec("sender-security", 4, protocol="ot12", n=4, q=2),
            _spec("sender-security", 4, protocol="ot12",
                  strategy="breitbart", n=4),
            _spec("pa-quantum", 6, n=6, q=2, ell=2),
            _spec("lhl-classical", 6, n=6, ell=2),
        ),
        {}),
    Workload(
        "dense-engine", 7,
        "2^n-dimensional dense adversary blocks and eigvalsh "
        "(protocols.adversary, qstate); no hashing",
        (
            _spec("purification-equivalence", 8, n=8),
            _spec("bell-attack", 8, n=8),
            _spec("binding", 12, n=12, q=2),
            _spec("binding", 12, n=12, strategy="breitbart"),
            _spec("receiver-security", 3, n=3, sender="entangled"),
        ),
        {}),
    Workload(
        "honest-scale", 7,
        "one honest run per protocol at 10^5 qubits (hash sampling, GF(2) "
        "streams, codes); two specs fail at the seed commit",
        (
            _spec("rabin-honest", 100_000 * 10, n=100_000, runs=10),
            _spec("commitment-honest", 100_000 * 20, n=100_000, runs=20),
            _spec("qkd-run", 100_000, symbols=100_000),
            _spec("qkd-run", 100_000, alphabet="six-state", p=0.03,
                  code="hamming", symbols=100_000),
            _spec("ot12-honest", 100_000 * 2, n=100_000, runs=2),
        ),
        _HONEST_MC),
    Workload(
        "mc-sweep", 7,
        "many small seeded Monte-Carlo calls, so per-call Python overhead "
        "dominates (uncertainty, classical_ot, markov, honest samplers)",
        (
            _spec("uncertainty-two-basis", 6 * 3000, n=6, trials=3000),
            _spec("uncertainty-multi-mub", 4 * 500, n=4, trials=500),
            _spec("hd-mc", 100_000, samples=100_000),
            _spec("rabin-honest", 24 * 10_000, n=24, runs=10_000),
            _spec("ot12-honest", 24 * 2000, n=24, runs=2000),
            _spec("commitment-honest", 30 * 2000, n=30, runs=2000),
            _spec("min-entropy-splitting", 0, trials=1000),
            _spec("xor-characterization", 0, trials=1000),
            _spec("ndlf-perturbation", 0, ell=2, trials=200),
            _spec("hmin-accumulated", 0),
            _spec("azuma-empirical", 0),
        ),
        {**_HONEST_MC, "hd-mc": {"estimate", "stderr", "within_3_sigma"}}),
)}
