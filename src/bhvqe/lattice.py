"""Discretized one-dimensional position and momentum operators.

An N-point lattice carries a diagonal position operator with eigenvalues
sqrt(pi/2N) * (-N/2, ..., N/2 - 1). The momentum operator is the position
operator conjugated by the discrete Fourier transform, so both share one
spectrum. N is restricted to powers of 2 so a lattice dimension maps onto
log2(N) qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_int


@dataclass(frozen=True)
class LatticeSpec:
    """Number of lattice points for one spatial dimension."""

    n_points: int = 4

    def __post_init__(self):
        require_int("n_points", self.n_points, 2)
        if self.n_points & (self.n_points - 1):
            raise ValueError(f"n_points must be a power of 2, got {self.n_points}")

    @property
    def n_qubits(self) -> int:
        return int(self.n_points).bit_length() - 1


def position_operator(spec: LatticeSpec) -> np.ndarray:
    """Diagonal N x N position operator, eigenvalues sqrt(pi/2N)*(-N/2 .. N/2-1)."""
    n = spec.n_points
    sites = np.arange(-n // 2, n // 2, dtype=float)
    return np.diag(np.sqrt(np.pi / (2 * n)) * sites).astype(complex)


def dft_matrix(spec: LatticeSpec) -> np.ndarray:
    """Unitary DFT matrix [F]_{j,k} = exp(i 2 pi j k / N) / sqrt(N), 0-based indices."""
    n = spec.n_points
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)


def momentum_operator(spec: LatticeSpec) -> np.ndarray:
    """Momentum operator F^-1 x F; F^-1 taken as F^dagger by unitarity."""
    f = dft_matrix(spec)
    return f.conj().T @ position_operator(spec) @ f


def momentum_squared(spec: LatticeSpec) -> np.ndarray:
    """Square of the momentum operator; Hermitian positive-semidefinite."""
    p = momentum_operator(spec)
    return p @ p
