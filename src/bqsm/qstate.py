"""Dense complex linear algebra for multi-qubit systems.

States, bases, measurements, tensor products, partial traces, norms and
distances. Representation is dense throughout with a hard cap of 14 qubits;
everything the bound checks need fits comfortably below that.

Qubit indices are 0-based. Single-qubit basis labels: "+" (computational),
"x" (diagonal), "circ" (circular), "breitbart".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_cap
from .entropy import Distribution

ATOL = 1e-10
MEAS_TOL = 1e-9

_SQ2 = 1.0 / math.sqrt(2.0)

# columns are the basis vectors
_PLUS = np.eye(2, dtype=complex)
_TIMES = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_CIRC = np.array([[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], dtype=complex)
_BREITBART = np.array(
    [[math.cos(math.pi / 8), math.sin(math.pi / 8)],
     [math.sin(math.pi / 8), -math.cos(math.pi / 8)]], dtype=complex)

SINGLE_QUBIT_BASES = {
    "+": _PLUS,
    "x": _TIMES,
    "circ": _CIRC,
    "breitbart": _BREITBART,
}


def _check_qubits(n: int):
    if n < 1:
        raise InputError("need at least one qubit")
    check_cap("dense-qubits", "n", n)


class PureState:
    """Normalized complex amplitude vector over 2^n computational states."""

    def __init__(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(math.log2(len(a))))
        if 2 ** n != len(a):
            raise InputError("amplitude vector length is not a power of two")
        _check_qubits(n)
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > ATOL:
            raise InputError(f"state norm {norm} deviates from 1")
        self.amplitudes = a
        self.n = n

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes,
                                        self.amplitudes.conj()))


class DensityOperator:
    """Hermitian, trace-one, positive semidefinite matrix.

    The dimension is arbitrary (block-diagonal classical-quantum assemblies
    are not always power-of-two sized); qubit-indexed operations require a
    power-of-two dimension.
    """

    def __init__(self, matrix, check: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("density operator must be a square matrix")
        d = m.shape[0]
        n = int(round(math.log2(d))) if d > 1 else 0
        if 2 ** n == d > 1:
            _check_qubits(n)
        if check:
            if np.abs(m - m.conj().T).max() > ATOL:
                raise InputError("matrix is not Hermitian")
            tr = np.trace(m).real
            if abs(tr - 1.0) > MEAS_TOL:
                raise InputError(f"trace {tr} deviates from 1")
            ev = np.linalg.eigvalsh(m)
            if ev.min() < -MEAS_TOL:
                raise InputError(f"negative eigenvalue {ev.min()}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        n = int(round(math.log2(self.dim)))
        if 2 ** n != self.dim:
            raise InputError(f"dimension {self.dim} is not a power of two")
        return n

    @staticmethod
    def maximally_mixed(n: int) -> "DensityOperator":
        _check_qubits(n)
        d = 2 ** n
        return DensityOperator(np.eye(d, dtype=complex) / d, check=False)


@dataclass
class Basis:
    """Orthonormal basis of a d-dimensional space; vectors are the columns
    of `matrix`."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = m.shape[0]
        if m.shape != (d, d):
            raise InputError("basis must consist of d vectors of dimension d")
        gram = m.conj().T @ m
        if np.abs(gram - np.eye(d)).max() > ATOL:
            raise InputError("basis vectors are not orthonormal")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def vector(self, j: int) -> np.ndarray:
        return self.matrix[:, j]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def single_qubit_basis(label: str) -> Basis:
    if label not in SINGLE_QUBIT_BASES:
        raise InputError(f"unknown basis label {label!r}")
    return Basis(label, SINGLE_QUBIT_BASES[label])


def product_basis_matrix(labels) -> np.ndarray:
    """Columns |x>_labels of a tensor product of single-qubit bases, given
    as labels or Basis objects; no orthonormality check."""
    m = np.array([[1.0 + 0j]])
    for lab in labels:
        m = np.kron(m, SINGLE_QUBIT_BASES[lab] if isinstance(lab, str)
                    else lab.matrix)
    return m


def prepare_bb84(x: str, theta: str) -> PureState:
    """Encode bit-string x qubit-wise in bases theta (over '+', 'x')."""
    if len(x) != len(theta):
        raise InputError("length mismatch between data and basis strings")
    if len(x) == 0:
        raise InputError("empty string")
    amp = np.array([1.0 + 0j])
    for xi, ti in zip(x, theta):
        b = SINGLE_QUBIT_BASES.get(ti)
        if b is None or ti not in ("+", "x"):
            raise InputError(f"BB84 basis must be '+' or 'x', got {ti!r}")
        if xi not in "01":
            raise InputError(f"data must be bits, got {xi!r}")
        amp = np.kron(amp, b[:, int(xi)])
    return PureState(amp)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def _normalized(probs: np.ndarray, total: float) -> np.ndarray:
    if abs(total - 1.0) > MEAS_TOL:
        raise InputError(f"measurement probabilities sum to {total}")
    return probs / total


def measure(rho: DensityOperator, basis: Basis) -> Distribution:
    """Born-rule outcome distribution of measuring rho in the basis,
    labeled by basis index."""
    if basis.dim != rho.dim:
        raise InputError("dimension mismatch between state and basis")
    probs = np.einsum("ji,jk,ki->i", basis.matrix.conj(), rho.matrix,
                      basis.matrix).real
    probs = np.clip(probs, 0.0, None)
    probs = _normalized(probs, probs.sum())
    return Distribution(range(len(probs)), probs)


def _rotate(a: np.ndarray, mats) -> np.ndarray:
    """Apply (U_1 x ... x U_n)^dagger to the leading n axes of a without
    forming the Kronecker product; trailing axes are carried along."""
    for i, u in enumerate(mats):
        a = np.tensordot(u.conj().T, a, axes=([1], [i]))
        a = np.moveaxis(a, 0, i)
    return a


def measure_per_qubit(state, theta) -> np.ndarray:
    """Born-rule probabilities of measuring a PureState or DensityOperator
    in the product basis given by per-qubit labels (or Basis objects),
    over the packed ints range(2^n), qubit 0 the most significant bit.
    O(n 2^n) for a pure state; a mixed one is rotated twice, as
    U^dagger rho U = U^dagger (U^dagger rho)^dagger, in O(n 4^n)."""
    n = state.n
    if len(theta) != n:
        raise InputError("basis choice vector length differs from qubit count")
    mats = [SINGLE_QUBIT_BASES[lab] if isinstance(lab, str) else lab.matrix
            for lab in theta]
    wires = (2,) * n
    if isinstance(state, PureState):
        amp = _rotate(state.amplitudes.reshape(wires), mats)
        probs = np.abs(amp.reshape(-1)) ** 2
        return _normalized(probs, probs.sum())
    d = state.dim
    half = _rotate(state.matrix.reshape(wires + (d,)), mats)
    half = half.reshape(d, d).conj().T.reshape(wires + (d,))
    rotated = _rotate(half, mats).reshape(d, d)
    probs = np.clip(np.diagonal(rotated).real, 0.0, None)
    # the rotations round, so the maximally mixed state's diagonal comes
    # out uniform but slightly off 2^-n; an exact total still normalizes
    # it to exactly 2^-n, where an accumulated sum need not
    return _normalized(probs, math.fsum(probs))


_BELL = np.array([
    [_SQ2, 0, _SQ2, 0],
    [0, _SQ2, 0, _SQ2],
    [0, _SQ2, 0, -_SQ2],
    [_SQ2, 0, -_SQ2, 0],
], dtype=complex)  # columns: phi+, psi+, phi-, psi-


def bell_basis() -> Basis:
    return Basis("bell", _BELL)


# ---------------------------------------------------------------------------
# composition and distances
# ---------------------------------------------------------------------------

def tensor(a, b):
    """Kronecker product of two states or two operators."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.matrix, b.matrix), check=False)
    raise InputError("tensor requires two states or two operators")


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the kept qubit subset (0-based indices). An empty
    keep set is only meaningful as the scalar trace and is refused."""
    n = rho.n
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise InputError("keep indices outside register")
    if not keep:
        raise InputError("empty keep set: use the trace directly")
    t = rho.matrix.reshape((2,) * (2 * n))
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        ax = i - count  # axes shift as we trace
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    d = 2 ** len(keep)
    return DensityOperator(t.reshape(d, d), check=False)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def rank1_trace_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a a^dagger - b b^dagger||_1 for unnormalized vectors on the last
    axis of a and b: sqrt((|a|^2 - |b|^2)^2 + 4 |a|^2 |b_perp|^2), with
    b_perp = b - (<a|b> / |a|^2) a the part of b orthogonal to a (b where
    a = 0). The equal form sqrt((|a|^2 + |b|^2)^2 - 4 |<a|b>|^2) cancels
    catastrophically when a and b are nearly parallel."""
    pa = (np.abs(a) ** 2).sum(axis=-1)
    pb = (np.abs(b) ** 2).sum(axis=-1)
    overlap = (a.conj() * b).sum(axis=-1)
    coef = np.divide(overlap, pa, out=np.zeros_like(overlap), where=pa > 0)
    perp = (np.abs(b - coef[..., None] * a) ** 2).sum(axis=-1)
    return np.sqrt((pa - pb) ** 2 + 4.0 * pa * perp)


def batched_trace_norm(a: np.ndarray) -> float:
    """Sum of trace norms over a (..., d, d) stack of Hermitian matrices.

    Closed forms keep large batches off the LAPACK path: d = 1, d = 2 and
    diagonal matrices (the ascending real diagonal, as LAPACK returns it
    bit for bit); the others go to one batched eigendecomposition.
    """
    a = np.asarray(a)
    d = a.shape[-1]
    if d == 1:
        return float(np.abs(a).sum())
    if d == 2:
        tr = (a[..., 0, 0] + a[..., 1, 1]).real
        det = (a[..., 0, 0] * a[..., 1, 1]
               - a[..., 0, 1] * a[..., 1, 0]).real
        root = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
        lam1 = 0.5 * (tr + root)
        lam2 = 0.5 * (tr - root)
        return float((np.abs(lam1) + np.abs(lam2)).sum())
    full = ((a != 0) & ~np.eye(d, dtype=bool)).any(axis=(-2, -1))
    # laid out as eigvalsh lays out its output, so |w| sums in its order
    w = np.empty_like(a[..., 0, 0], dtype=(float, d))
    w[...] = np.sort(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1)
    if full.any():
        w[full] = np.linalg.eigvalsh(a[full])
    return float(np.abs(w).sum())


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """delta(rho, sigma) = 1/2 tr|rho - sigma|, via Hermitian
    eigendecomposition of the difference."""
    if rho.dim != sigma.dim:
        raise InputError("dimension mismatch")
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value; equals the largest absolute eigenvalue for
    Hermitian input."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("operator norm is defined for square matrices here")
    return float(np.linalg.norm(a, 2))


def projector_onto(vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the given columns (assumed
    orthonormal)."""
    return vectors @ vectors.conj().T


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def haar_state(n: int, rng) -> PureState:
    """Haar-random pure state on n qubits."""
    _check_qubits(n)
    d = 2 ** n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v))


def random_density(n: int, rng, rank: int | None = None) -> DensityOperator:
    """Random mixed state: normalized Wishart of the given rank."""
    _check_qubits(n)
    d = 2 ** n
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, check=False)


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    phase-corrected diagonal."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph
