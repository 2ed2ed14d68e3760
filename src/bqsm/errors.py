"""Shared exception types and the capacity table."""


class InputError(ValueError):
    """Malformed or inconsistent arguments (length mismatch, bad range)."""


class CapacityError(ValueError):
    """Requested instance exceeds the configured dense-representation caps."""


class PromiseViolation(ValueError):
    """A declared precondition (entropy promise, generator contract) failed
    when re-checked numerically."""


# Every cap of the toolkit. Each exact audit is safe at desk scale only
# because one of these refuses larger instances. An entry bounds the value
# `check_cap` is given; where that is an exponent, the comment says so.
CAPS = {
    "dense-qubits": 14,            # qubits of a dense state or operator
    "cq-dimension": 1 << 14,       # rows of an assembled cq-state matrix
    "joint-entries": 1 << 20,      # cells of a JointDistribution
    "hash-family": 20,             # log2 members of an enumerated family
    "hash-table": 1 << 26,         # cells of a member or row-space table
    "pa-oracle": 1 << 12,          # members in pa_distance_slow
    "ndlf-ell": 16,                # string length of the NDLF criteria
    "ot-ell": 8,                   # string length of an OT output table
    "ot-outputs": 64,              # receiver outputs |W| of that table
    "lp-ell": 1,                   # string length of the pointer LP oracle
    "lp-outputs": 8,               # receiver outputs |W| of that LP
    "one-of-n": 4,                 # strings of the 1-of-n NDLF check
    "one-of-n-ell": 2,             # string length of that check
    "relation-qubits": 12,         # qubits of the exact uncertainty checks
    "dense-engine": 12,            # qubits of the dense adversary engine
    "binding-audit": 16,           # qubits (2^n outcome strings) per audit
    "honest-path": 100_000,        # qubits or QKD symbols per honest run
    "ot12-audit": 6,               # qubits of the two-hash 1-2 OT audit
    "ot12-block": 24,              # log2 bound on its (theta, y) block cells
    "rate-check": 10,              # sifted symbols of the exact QKD check
    "coset-table": 24,             # block length of coset-leader decoding
    "walk-steps": 1 << 16,         # steps n of one Monte-Carlo walk row
}


def check_count(param: str, value: float, least: float = 1,
                most: float | None = None):
    """Refuse a `value` of `param` below `least` or above `most`."""
    if value < least:
        raise InputError(f"{param}={value} is below {least}; "
                         f"raise {param}")
    if most is not None and value > most:
        raise InputError(f"{param}={value} is above {most}; "
                         f"lower {param}")


def check_cap(name: str, param: str, value: int):
    """Refuse `value` of `param` above the cap `CAPS[name]`."""
    cap = CAPS[name]
    if value > cap:
        raise CapacityError(f"{param}={value} exceeds the {name} cap {cap}; "
                            f"lower {param}")
