"""Vectorized driver for the accumulated-min-entropy tool on Markov
sources.

The generic driver in `uncertainty.accumulated_min_entropy` re-checks the
entropy floor on every realized history, which is the right contract for
arbitrary sources but too slow for 10^4 x 200-step sweeps. For an order-one
Markov source the realized conditionals are exactly the transition rows, so
the floor check is finite and the simulation vectorizes across trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import row_blocks
from .entropy import binary_entropy, bisect, shannon_entropy, tail_estimate
from .errors import InputError, PromiseViolation, check_cap, check_count


@dataclass
class MarkovSource:
    initial: np.ndarray        # distribution of Z_1
    transition: np.ndarray     # rows: conditional of Z_{i+1} given Z_i
    entropy_floor: float

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        k = len(self.initial)
        if self.transition.shape != (k, k):
            raise PromiseViolation("transition shape mismatch")
        rows = [self.initial] + [self.transition[z] for z in range(k)]
        for row in rows:
            if abs(row.sum() - 1.0) > 1e-9 or row.min() < -1e-12:
                raise PromiseViolation("rows must be distributions")
            if shannon_entropy(np.clip(row, 0, None)) \
                    < self.entropy_floor - 1e-9:
                raise PromiseViolation(
                    "entropy floor violated by a declared conditional")

    @property
    def alphabet_size(self) -> int:
        return len(self.initial)


def floor_hugging_chain(alphabet: int, entropy_floor: float) -> MarkovSource:
    """Adversarial chain whose every conditional sits exactly on the
    entropy floor: mass (1-p) on a state-dependent favourite plus p spread
    over the rest, with h(p) + p log(k-1) = floor."""
    p = _solve_spread(alphabet, entropy_floor)
    k = alphabet
    rows = np.full((k, k), p / (k - 1))
    for z in range(k):
        fav = (z + 1) % k
        rows[z] = p / (k - 1)
        rows[z, fav] = 1.0 - p
    initial = np.full(k, p / (k - 1))
    initial[0] = 1.0 - p
    return MarkovSource(initial, rows, entropy_floor)


def _solve_spread(k: int, target: float) -> float:
    return bisect(lambda p: binary_entropy(p) + p * math.log2(k - 1),
                  target, 0.0, 1.0 - 1.0 / k, 80)


def accumulated_min_entropy_markov(model: MarkovSource, n: int, lam: float,
                                   trials: int, seed: int) -> dict:
    """Estimate Pr[P(Z^n) >= 2^{-(h-2lam)n}] across vectorized trials and
    compare to the concentration bound. Trials run in row blocks, so memory
    does not grow with `trials`."""
    check_count("n", n)
    check_count("trials", trials)
    check_cap("walk-steps", "n", n)
    if not 0 < lam < 0.5:
        raise InputError("lam must be in (0, 1/2)")
    h = model.entropy_floor
    k = model.alphabet_size
    eps = math.exp(-(lam ** 2) * n / (32.0 * math.log2(k / lam) ** 2))
    rng = np.random.default_rng(seed)
    log_init = np.full(k, -np.inf)
    nz = model.initial > 0
    log_init[nz] = np.log2(model.initial[nz])
    log_trans = np.full((k, k), -np.inf)
    nz = model.transition > 0
    log_trans[nz] = np.log2(model.transition[nz])
    cum_init = np.cumsum(model.initial)
    cum_trans = np.cumsum(model.transition, axis=1)
    threshold = -(h - 2 * lam) * n
    hits = 0
    for rows in row_blocks(trials, n):
        u = rng.random((rows, n))
        state = (u[:, 0][:, None] > cum_init[None, :]).sum(axis=1)
        logp = log_init[state].copy()
        for i in range(1, n):
            nxt = (u[:, i][:, None] > cum_trans[state]).sum(axis=1)
            logp += log_trans[state, nxt]
            state = nxt
        hits += int((logp >= threshold).sum())
    est, stderr, ok = tail_estimate(hits, trials, eps)
    return {"estimate": est, "bound": eps, "stderr": stderr, "n": n,
            "lam": lam, "trials": trials, "pass": ok}
