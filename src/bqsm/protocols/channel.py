"""Weak quantum channel abstraction: bit flips and multi-qubit emissions,
with dark counts and empty pulses folded into the two effective parameters.

Also the honest path every protocol shares: honest parties measure on
arrival, so each outcome is one classical draw and runs scale to the
`honest-path` cap of `errors.CAPS`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError


def effective_weak_parameters(phi_x: float, eta_mq: float,
                              phi_dc: float = 0.0, eta_ab: float = 0.0
                              ) -> tuple[float, float]:
    """Fold dark counts and absorption-caused empty pulses into the channel
    parameters: phi = phi_x + phi_dc / 2, eta = eta_mq / (1 - eta_ab)."""
    if not 0 <= eta_ab < 1:
        raise InputError("absorption rate must lie in [0, 1)")
    return phi_x + phi_dc / 2.0, eta_mq / (1.0 - eta_ab)


@dataclass(frozen=True)
class ChannelModel:
    """(phi, eta)-weak quantum model parameters.

    phi: probability a bit measured in the matching basis flips.
    eta: probability a pulse carries two or more qubits (leaking the basis
    of that position to an adversary).
    Raw hardware rates may be supplied; the effective parameters are
    recomputed, never stored separately.
    """

    phi: float = 0.0
    eta: float = 0.0
    dark_count: float = 0.0
    empty_pulse: float = 0.0

    def __post_init__(self):
        phi, eta = self.effective()
        if not 0 <= phi < 0.5:
            raise InputError(f"effective phi={phi} outside [0, 1/2)")
        if not 0 <= eta < 1 - phi:
            raise InputError(f"effective eta={eta} outside [0, 1-phi)")

    def effective(self) -> tuple[float, float]:
        return effective_weak_parameters(self.phi, self.eta,
                                         self.dark_count, self.empty_pulse)

    @property
    def noiseless(self) -> bool:
        phi, eta = self.effective()
        return phi == 0.0 and eta == 0.0


PERFECT = ChannelModel()


def honest_outcomes(rng, x: np.ndarray, match, phi: float) -> np.ndarray:
    """Honest measurement of the BB84 qubits |x_i>: positions measured in
    the preparation basis (match, a bool or one per qubit) return x_i
    flipped with probability phi, the others a fair coin. Draws n flip
    uniforms, then n coins."""
    n = len(x)
    flips = rng.random(n) < phi
    coins = rng.integers(0, 2, size=n).astype(np.uint8)
    return coins ^ ((x ^ flips ^ coins) & match)
