"""Dense complex linear algebra and Pauli-string primitives.

Matrices are plain square ``numpy`` arrays of dtype complex128. Qubit index 0
is always the leftmost tensor factor, i.e. the most significant bit of a
matrix/state index. Everything here is pure and allocation-only; inputs are
never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, DomainError, NotHermitianError

PAULI_LETTERS = "IXYZ"

SINGLE_QUBIT_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Hermiticity gate used everywhere a Hermitian input is required.
HERMITICITY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Square complex array; DimensionMismatchError if not square, DomainError if not finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains NaN or Inf entries")
    return a


def validate_pauli_string(letters: str) -> str:
    if not letters:
        raise ValueError("Pauli string must have length >= 1")
    bad = set(letters) - set(PAULI_LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)}; allowed: I, X, Y, Z")
    return letters


@dataclass(frozen=True)
class PauliTerm:
    """One real-weighted Pauli string, e.g. 0.3926 * XXII."""

    coefficient: float
    string: str

    def __post_init__(self):
        validate_pauli_string(self.string)

    @property
    def n_qubits(self) -> int:
        return len(self.string)


def pauli_matrix(letters: str) -> np.ndarray:
    """Materialize a Pauli string as its 2^n x 2^n matrix."""
    validate_pauli_string(letters)
    return reduce(np.kron, (SINGLE_QUBIT_PAULIS[c] for c in letters))


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance from m to its conjugate transpose."""
    m = as_matrix(m)
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e}")
    return m


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Raises NotHermitianError if the input deviates from Hermiticity by more
    than 1e-10 in max norm.
    """
    m = require_hermitian(m)
    # eigh already returns eigenvalues in ascending order with orthonormal columns
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    return eigenvalues, eigenvectors
