"""Numerical certification of min-entropy uncertainty relations.

Covers the two-basis set-probability relation and its max-probability and
min-entropy corollaries, the event construction used by every protocol
security proof, the multi-basis extension, the accumulated-min-entropy
concentration tool, and the sampled per-qubit-basis relation.

Every checker returns a RelationReport whose slack must be >= -1e-9
whenever the relation's preconditions hold; sweeps count violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (JointDistribution, shannon_entropy, smooth_min_entropy,
                      tail_estimate)
from .errors import InputError, PromiseViolation, check_cap
from .qstate import (ATOL, PureState, measure_per_qubit,
                     single_qubit_basis)

SLACK_TOL = 1e-9


@dataclass
class RelationReport:
    name: str
    lhs: float
    rhs: float
    witness: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL

    def row(self) -> dict:
        out = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
               "slack": self.slack}
        out.update({k: v for k, v in self.witness.items()
                    if isinstance(v, (int, float, str))})
        return out


def _two_basis_probs(rho) -> tuple[np.ndarray, np.ndarray]:
    """Outcome distributions in the +^n and x^n bases."""
    return (measure_per_qubit(rho, ["+"] * rho.n),
            measure_per_qubit(rho, ["x"] * rho.n))


def _set_probability(q: np.ndarray, labels) -> float:
    """Q(L), added left to right in the order of the packed ints L."""
    return float(sum(q[list(labels)]))


def two_basis_relation(rho, l_plus, l_times) -> RelationReport:
    """Q+(L+) + Qx(Lx) <= 1 + 2^{-n/2} sqrt(|L+| |Lx|), for sets of
    packed n-bit outcomes."""
    n = rho.n
    check_cap("relation-qubits", "n", n)
    q_plus, q_times = _two_basis_probs(rho)
    lhs = _set_probability(q_plus, l_plus) + _set_probability(q_times, l_times)
    rhs = 1.0 + 2.0 ** (-n / 2.0) * math.sqrt(len(l_plus) * len(l_times))
    return RelationReport("two_basis", lhs, rhs,
                          {"n": n, "size_plus": len(l_plus),
                           "size_times": len(l_times)})


def max_prob_relation(rho) -> tuple[RelationReport, RelationReport]:
    """Sum and product forms of the max-probability relation:
    q+ + qx <= 1 + c and q+ qx <= (1+c)^2 / 4 with c = 2^{-n/2}."""
    n = rho.n
    q_plus, q_times = _two_basis_probs(rho)
    qp, qt = float(q_plus.max()), float(q_times.max())
    c = 2.0 ** (-n / 2.0)
    return (RelationReport("max_prob_sum", qp + qt, 1.0 + c, {"n": n}),
            RelationReport("max_prob_product", qp * qt,
                           0.25 * (1.0 + c) ** 2, {"n": n}))


def min_entropy_sum_relation(rho) -> RelationReport:
    """H_inf(Q+) + H_inf(Qx) >= 2 (1 - log(1 + 2^{-n/2})); reported with
    lhs/rhs swapped so that slack >= 0 still certifies it."""
    n = rho.n
    q_plus, q_times = _two_basis_probs(rho)
    h_sum = -math.log2(q_plus.max()) - math.log2(q_times.max())
    floor = 2.0 * (1.0 - math.log2(1.0 + 2.0 ** (-n / 2.0)))
    return RelationReport("min_entropy_sum", floor, h_sum, {"n": n})


def hadamard_invariant_state(n: int) -> PureState:
    """(|0...0> + H^n |0...0>) normalized; the equality witness of the
    two-basis relation."""
    d = 2 ** n
    amp = np.full(d, 2.0 ** (-n / 2.0), dtype=complex)
    amp[0] += 1.0
    return PureState(amp / np.linalg.norm(amp))


def half_split_state(n: int) -> tuple[PureState, list, list]:
    """|0>^{n/2} (x) (H|0>)^{n/2} with the two half-fixed sets of packed
    outcomes; the second equality case (n even)."""
    if n % 2:
        raise InputError("half-split witness needs even n")
    half = n // 2
    amp0 = np.zeros(2 ** half, dtype=complex)
    amp0[0] = 1.0
    ampx = np.full(2 ** half, 2.0 ** (-half / 2.0), dtype=complex)
    amp = np.kron(amp0, ampx)
    l_plus = list(range(2 ** half))
    l_times = [v << half for v in range(2 ** half)]
    return PureState(amp), l_plus, l_times


# ---------------------------------------------------------------------------
# event construction
# ---------------------------------------------------------------------------

@dataclass
class EventConstruction:
    """Event E = {X in S^R} keeping only small-probability outcomes, with
    the fallback branch emptied when its mass is too small."""

    kappa: float
    keep_plus: np.ndarray | None   # boolean masks over outcomes; None = empty
    keep_times: np.ndarray | None
    prob_plus: float
    prob_times: float
    h_plus: float | None
    h_times: float | None

    @property
    def prob_sum(self) -> float:
        return self.prob_plus + self.prob_times


def event_construction(rho, lam: float, n: int | None = None
                       ) -> EventConstruction:
    """Build the small-probability event of the two-basis relation.

    Keeps outcomes with Q^r(x) <= 2^{-(lam+kappa) n} per basis and verifies
    the three obligations: Pr[E|+] + Pr[E|x] >= 1 - 2^{-kappa n}, and
    conditional min-entropy >= lam n on every branch with positive
    probability (falling back to the empty event on a branch whose retained
    mass cannot meet the entropy obligation). kappa is searched downward
    from (1/2 - lam)/4 until all obligations hold.
    """
    n = n if n is not None else rho.n
    q_plus, q_times = _two_basis_probs(rho)
    return event_from_distributions(q_plus, q_times, lam, n)


def event_from_distributions(q_plus, q_times, lam: float, n: int
                             ) -> EventConstruction:
    """Same construction on explicit outcome distributions (used by the
    protocol audits, which apply it per adversary outcome)."""
    if lam >= 0.5:
        raise InputError("lam must be below 1/2")
    kappa = (0.5 - lam) / 4.0
    for _ in range(40):
        cand = _build_event(np.asarray(q_plus, float),
                            np.asarray(q_times, float), lam, kappa, n)
        if cand is not None:
            return cand
        kappa /= 2.0
    raise PromiseViolation("no kappa satisfied the event obligations")


def _build_event(q_plus, q_times, lam, kappa, n):
    thresh = 2.0 ** (-(lam + kappa) * n)
    floor = 2.0 ** (-kappa * n)

    def branch(q):
        keep = q <= thresh
        prob = float(q[keep].sum())
        if prob == 0.0:
            return None, 0.0, None
        peak = float(q[keep].max())
        h = -math.log2(peak / prob) if peak > 0 else math.inf
        if h < lam * n - 1e-12:
            # retained mass too small for the entropy obligation: fall back
            # to the empty event on this branch
            return None, 0.0, None
        return keep, prob, h

    keep_p, prob_p, h_p = branch(q_plus)
    keep_t, prob_t, h_t = branch(q_times)
    ec = EventConstruction(kappa, keep_p, keep_t, prob_p, prob_t, h_p, h_t)
    if ec.prob_sum < 1.0 - floor - 1e-12:
        return None
    return ec


# ---------------------------------------------------------------------------
# more bases
# ---------------------------------------------------------------------------

def _mub_probs(rho, labels) -> list:
    """Outcome distributions of rho in the n-fold tensor powers of the
    single-qubit bases `labels`, e.g. qkd.ALPHABETS["six-state"]. The
    labels must be pairwise mutually unbiased (all overlaps 2^{-1/2});
    their tensor powers then are too (all overlaps 2^{-n/2})."""
    mats = [single_qubit_basis(lab).matrix for lab in labels]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ov = np.abs(mats[i].conj().T @ mats[j])
            if np.abs(ov - math.sqrt(0.5)).max() > ATOL:
                raise InputError(f"bases {labels[i]!r} and {labels[j]!r} "
                                 "are not mutually unbiased")
    return [measure_per_qubit(rho, [lab] * rho.n) for lab in labels]


def multi_mub_relation(rho, labels, sets) -> RelationReport:
    """sum_i Q^i(L^i) <= 1 + M 2^{-n/2} max_{i<j} sqrt(|L^i| |L^j|) for
    the tensor powers of M+1 mutually unbiased single-qubit bases and sets
    L^i of packed outcomes."""
    if len(sets) != len(labels):
        raise InputError("one outcome set per basis required")
    n = rho.n
    lhs = 0.0
    for q, outcomes in zip(_mub_probs(rho, labels), sets):
        lhs += _set_probability(q, outcomes)
    m = len(labels) - 1
    worst = max(math.sqrt(len(a) * len(b))
                for i, a in enumerate(sets) for b in sets[i + 1:]) \
        if m else 0.0
    rhs = 1.0 + m * 2.0 ** (-n / 2.0) * worst
    return RelationReport("multi_mub", lhs, rhs, {"n": n, "m": m})


def multi_mub_min_entropy_floor(rho, labels) -> RelationReport:
    """sum_i H_inf(Q^i) >= (M+1) log((M+1)/(1 + M 2^{-n/2})) for the
    tensor powers of M+1 mutually unbiased single-qubit bases."""
    n = rho.n
    h_sum = 0.0
    for q in _mub_probs(rho, labels):
        h_sum += -math.log2(q.max())
    m = len(labels) - 1
    floor = (m + 1) * math.log2((m + 1) / (1.0 + m * 2.0 ** (-n / 2.0)))
    return RelationReport("multi_mub_min_entropy", floor, h_sum,
                          {"n": n, "m": m})


# ---------------------------------------------------------------------------
# accumulated min-entropy (classical tool)
# ---------------------------------------------------------------------------

class SequenceModel:
    """Adversarially correlated symbol source with a per-step Shannon
    entropy floor.

    `conditional(history) -> probability vector over the alphabet`; the
    driver re-checks the floor on every realized history rather than
    trusting the declaration.
    """

    def __init__(self, alphabet_size: int, entropy_floor: float, conditional):
        self.alphabet_size = alphabet_size
        self.entropy_floor = entropy_floor
        self.conditional = conditional


def accumulated_min_entropy(model: SequenceModel, n: int, lam: float,
                            trials: int, seed: int) -> dict:
    """Estimate Pr[P(Z^n) >= 2^{-(h - 2 lam) n}] for the adversarial source
    and compare to eps = exp(-lam^2 n / (32 log(|Z|/lam)^2))."""
    if not 0 < lam < 0.5:
        raise InputError("lam must be in (0, 1/2)")
    h = model.entropy_floor
    eps = math.exp(-(lam ** 2) * n
                   / (32.0 * math.log2(model.alphabet_size / lam) ** 2))
    threshold = -(h - 2 * lam) * n  # on log2 P
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        history: list[int] = []
        logp = 0.0
        for _ in range(n):
            probs = np.asarray(model.conditional(history), dtype=float)
            if len(probs) != model.alphabet_size or probs.min() < -1e-12 \
                    or abs(probs.sum() - 1.0) > 1e-9:
                raise PromiseViolation("conditional is not a distribution")
            step_h = shannon_entropy(np.clip(probs, 0, None))
            if step_h < h - 1e-9:
                raise PromiseViolation(
                    f"entropy floor violated on history {history}")
            z = int(rng.choice(model.alphabet_size, p=probs / probs.sum()))
            logp += math.log2(probs[z])
            history.append(z)
        if logp >= threshold:
            hits += 1
    est, stderr, ok = tail_estimate(hits, trials, eps)
    return {"estimate": est, "bound": eps, "stderr": stderr,
            "n": n, "lam": lam, "trials": trials, "pass": ok}


# ---------------------------------------------------------------------------
# sampled per-qubit-basis relation
# ---------------------------------------------------------------------------

def genrel_epsilon(n: int, lam: float, n_bases: int, d: int) -> float:
    """Smoothing parameter of the per-qubit-basis relation."""
    return math.exp(-(lam ** 2) * n
                    / (32.0 * math.log2(n_bases * d / lam) ** 2))


def second_relation_sample(rho, basis_labels, h: float, lam: float,
                           trials: int, seed: int) -> dict:
    """Sampled check of H_inf^eps(X | Theta) >= (h - 2 lam) n.

    Theta is drawn uniformly from basis_labels^n; each sampled slice's
    outcome distribution is computed exactly; the smooth min-entropy of the
    joint restricted to the sampled slices is compared against the floor.
    Per-slice plain min-entropies are reported alongside.
    """
    n = rho.n
    check_cap("relation-qubits", "n", n)
    if not 0 < lam < 0.5:
        raise InputError("lam must be in (0, 1/2)")
    eps = genrel_epsilon(n, lam, len(basis_labels), 2)
    rng = np.random.default_rng(seed)
    slices = []
    labels = []
    per_slice = []
    for _ in range(trials):
        theta = [basis_labels[int(rng.integers(len(basis_labels)))]
                 for _ in range(n)]
        probs = measure_per_qubit(rho, theta)
        slices.append(probs / trials)
        labels.append("".join(theta))
        per_slice.append(-math.log2(probs.max()))
    joint = JointDistribution([range(2 ** n), range(trials)],
                              np.stack(slices, axis=1), normalized=True)
    h_eps, _ = smooth_min_entropy(joint, eps)
    floor = (h - 2 * lam) * n
    return {"h_eps": h_eps, "floor": floor, "eps": eps,
            "per_slice_min_entropy": per_slice, "thetas": labels,
            "pass": bool(h_eps >= floor - SLACK_TOL)}


# ---------------------------------------------------------------------------
# average entropic uncertainty over the Bloch sphere
# ---------------------------------------------------------------------------

def _bloch_state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0),
                     complex(math.cos(phi), math.sin(phi))
                     * math.sin(theta / 2.0)])


def average_entropy_minimum(basis_labels, grid: int = 10000) -> dict:
    """One-sided certification of the single-qubit average entropic
    uncertainty bound: minimum over a Fibonacci grid of pure states of the
    average Shannon entropy across the bases, refined by Nelder-Mead."""
    from scipy.optimize import minimize

    mats = [single_qubit_basis(lab).matrix for lab in basis_labels]

    def avg_entropy(params):
        th, ph = params
        v = _bloch_state(th, ph)
        total = 0.0
        for m in mats:
            probs = np.abs(m.conj().T @ v) ** 2
            total += shannon_entropy(probs)
        return total / len(mats)

    golden = math.pi * (3.0 - math.sqrt(5.0))
    best, best_params = math.inf, None
    for i in range(grid):
        z = 1.0 - 2.0 * (i + 0.5) / grid
        th = math.acos(z)
        ph = (golden * i) % (2 * math.pi)
        val = avg_entropy((th, ph))
        if val < best:
            best, best_params = val, (th, ph)
    res = minimize(avg_entropy, best_params, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12})
    refined = min(best, float(res.fun))
    return {"minimum": refined, "argmin": tuple(res.x)}
