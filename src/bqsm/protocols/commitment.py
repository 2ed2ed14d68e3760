"""Bit commitment by measurement choice, with the binding experiment.

Committing means measuring the verifier's BB84 qubits in the basis named by
the bit. Opening reveals (b, x'); the verifier checks agreement on the
positions prepared in basis b (all of them in the plain variant, all but a
phi-fraction in the noisy variant).

For the binding experiment the purified form is used: the verifier measures
all his EPR halves in basis b at opening and checks a random index subset
(each index independently with probability 1/2), which makes the acceptance
probability of a cheating opening exactly E[2^{-d_H(X, X')}]. For
product-form committers `opening_success` factorizes per qubit and scales
to any n; `binding_experiment` also builds the committer's 2^n-entry
conditional outcome vector for its bound audit, so it is capped by
`binding-audit` (16 qubits).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from ..bits import bases_to_str, bits_to_str
from ..entropy import hamming_ball_size
from ..errors import InputError, PromiseViolation, check_cap
from ..uncertainty import event_from_distributions
from .adversary import AdversaryStrategy, product_factors
from .channel import ChannelModel, honest_outcomes
from .security import _pick_lambda
from .transcript import ProtocolTranscript


def run_commitment(b: int, channel: ChannelModel, committer, n: int,
                   seed: int, variant: str = "comm",
                   tolerance: float | None = None) -> ProtocolTranscript:
    """Honest commit-and-open run; variant='comm_noisy' accepts up to a
    (tolerance)-fraction of mismatches on the checked positions."""
    if committer != "honest":
        raise InputError("adversarial committers go through "
                         "binding_experiment")
    check_cap("honest-path", "n", n)
    phi, _ = channel.effective()
    if variant == "comm":
        tol = 0.0
    elif variant == "comm_noisy":
        tol = tolerance if tolerance is not None else phi
    else:
        raise InputError(f"unknown variant {variant!r}")
    rng = np.random.default_rng(seed)
    tr = ProtocolTranscript(f"commitment_{variant}", seed, n)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    theta = rng.integers(0, 2, size=n) == 1     # True: basis x
    match = theta == (b != 0)
    x_meas = honest_outcomes(rng, x, match, phi)
    tr.say("C", "open", {"b": b, "x_prime": bits_to_str(x_meas)})
    mism = int(np.count_nonzero((x != x_meas) & match))
    checked = int(np.count_nonzero(match))
    accept = mism <= tol * checked + 1e-12
    tr.honest = {"b": b, "x": bits_to_str(x),
                 "theta": bases_to_str(theta),
                 "mismatches": mism, "checked": checked,
                 "accepted": bool(accept)}
    return tr


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------

def opening_success(strategy: AdversaryStrategy, n: int, b: int) -> float:
    """Exact acceptance probability of opening bit b for a product
    committer (EPR-purified acceptance E[2^{-d_H}]): the product over
    qubits of E[2^{-[mismatch]}]. A kept qubit is measured in basis b and
    always matches; a measured one is guessed from its stored outcome y,
    mismatching with probability 1 - max_x P(x | y, b)."""
    kept, t = product_factors(n, strategy)
    table = t[~kept, b]                     # (y, x) per measured qubit
    p_y = table.sum(axis=2)
    val = p_y * (1.0 - 0.5 * (1.0 - table.max(axis=2) / p_y))
    return math.prod(val[:, 0] + val[:, 1], start=1.0)


def binding_experiment(committer, n: int, mode: str = "weak",
                       delta_grid=(0.02, 0.05, 0.1, 0.15, 0.2, 0.3)) -> dict:
    """Measure p_0 + p_1 for a committer strategy and evaluate the
    ball-guessing bound chain.

    committer is an AdversaryStrategy (product form), or the string
    'superposition' for the bounded exhibit that commits to a coin flip and
    abstains on the other bit (p_0 = p_1 = 1/2 exactly).

    mode='weak' reports the p_0 + p_1 <= 1 + slack audit; mode='strong'
    additionally constructs the pointer D = argmax_b p_b and reports the
    probability of opening 1 - D.
    """
    if committer == "superposition":
        out = {"strategy": "superposition(coin+abstain)", "n": n,
               "p0": 0.5, "p1": 0.5, "sum": 1.0, "q": 0,
               "bound_slack": 0.0, "bound_ok": True, "mode": mode}
        if mode == "strong":
            out["p_open_other"] = 0.0
        return out
    strategy: AdversaryStrategy = committer
    if not strategy.is_product():
        raise InputError("binding experiment expects a product committer")
    p0 = opening_success(strategy, n, 0)
    p1 = opening_success(strategy, n, 1)
    q = strategy.memory_qubits(n)
    slack = _binding_bound_slack(strategy, n, q, delta_grid)
    out = {"strategy": str(strategy), "n": n, "q": q,
           "p0": p0, "p1": p1, "sum": p0 + p1,
           "bound_slack": slack,
           "bound_ok": bool(p0 + p1 <= 1.0 + slack + 1e-9),
           "mode": mode}
    if mode == "strong":
        d = 0 if p0 >= p1 else 1
        out["pointer"] = d
        out["p_open_other"] = p1 if d == 0 else p0
    return out


def _binding_bound_slack(strategy, n, q, delta_grid) -> float:
    """Audit term: p_0 + p_1 <= 1 + slack with
    slack = 2^{-kappa n} + sum_b q^b (ballbound_b + 2^{-(radius+1)}),
    instantiated from the event construction and the exact conditional
    min-entropies of the committer's view."""
    ec = _binding_event(strategy, n)
    if ec is None:
        return math.inf
    best = math.inf
    for delta in delta_grid:
        radius = int(math.floor(delta * n))
        ball, _ = hamming_ball_size(n, radius)
        slack = 2.0 ** (-ec.kappa * n)
        for q_b, h in ((ec.prob_plus, ec.h_plus),
                       (ec.prob_times, ec.h_times)):
            if q_b <= 0:
                continue
            ballbound = 2.0 ** (-0.5 * (h - q - 1) + math.log2(ball))
            slack += q_b * (min(ballbound, 1.0) + 2.0 ** (-(radius + 1)))
        best = min(best, slack)
    return best


def _binding_event(strategy, n):
    """Event construction of the uncertainty relation applied to the
    committer's conditional outcome distribution per opening basis (plus
    branch: b=0, times branch: b=1), or None when no kappa satisfies the
    event obligations.

    For the implemented product strategies the conditional of X given the
    outcome string y is a product whose per-qubit factors are row
    permutations of each other across y values, so event probability and
    conditional entropy are the same for every y; one canonical y suffices
    and the per-y analysis is exact.
    """
    check_cap("binding-audit", "n", n)
    kept, t = product_factors(n, strategy)
    if not np.allclose(np.sort(t[:, :, 0], -1), np.sort(t[:, :, 1], -1)):
        raise InputError("committer conditionals are not outcome-symmetric")
    vecs = [reduce(np.kron, [np.array([0.5, 0.5]) if k else row / row.sum()
                             for k, row in zip(kept, t[:, s, 0])],
                   np.array([1.0]))
            for s in (0, 1)]
    lam = _pick_lambda(strategy.memory_qubits(n), n)
    try:
        return event_from_distributions(vecs[0], vecs[1], lam, n)
    except PromiseViolation:
        return None
