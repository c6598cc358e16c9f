"""Dense complex linear algebra: Hermiticity checks and eigensystems.

Matrices are plain square ``numpy`` arrays of dtype complex128. Everything
here is pure and allocation-only; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DomainError, NotHermitianError

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


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """as_matrix(m), or NotHermitianError if max |m - m^dag| exceeds HERMITICITY_TOL."""
    m = as_matrix(m)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e}")
    return m


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Raises NotHermitianError if the input deviates from Hermiticity by more
    than 1e-10 in max norm. Nothing in the package calls it: exact ground
    energies need eigenvalues alone (np.linalg.eigvalsh). It stays until the
    benchmark's layer list stops tracing it (ROADMAP item 2).
    """
    # eigh already returns eigenvalues in ascending order with orthonormal columns
    return np.linalg.eigh(require_hermitian(m))
