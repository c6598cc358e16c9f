"""Black-hole Hamiltonian assembly and Pauli-basis conversion.

The metric prefactor (1/2)(1 + GM/2r)^(1/4) multiplies a sum of squared
momentum operators. Two layouts are supported:

* ``paper-chain``: the printed 4-qubit form, one squared-momentum block on
  each overlapping qubit pair (0,1), (1,2), (2,3). Requires N = 4.
* ``disjoint``: one squared-momentum block per spatial dimension on its own
  group of log2(N) qubits, for 1 to 3 dimensions.

Operators are stored in symplectic form (Aaronson & Gottesman, PRA 70, 052328,
2004): per Pauli string a bit-flip mask x, a phase mask z (per qubit I=(0,0),
Z=(0,1), X=(1,0), Y=(1,1), qubit 0 the most significant bit) and a real
coefficient. Only this module maps masks to letters and back. The string with
masks (x, z) is P(x, z) = i^popcount(x&z) X^x Z^z, so one Walsh-Hadamard
transform converts matrices both ways (Hantzko, Binkowski & Gupta, arXiv:2310.13421):

    Tr[P(x, z) M] = i^popcount(x&z) * sum_k (-1)^popcount(z&k) M[k, k^x].

`pauli_decompose` gathers v[x, k] = M[k, k^x] in one indexing step and a
butterfly transform over k yields every z at once; `to_matrix` runs the
same steps backwards. Each direction costs O(n 4^n) for 2^n x 2^n matrices,
against O(16^n) for a trace with each of the 4^n string matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice, linalg
from .errors import DomainError, NotPowerOfTwoError, UnsupportedLatticeError
from .lattice import LatticeSpec
from .linalg import PauliTerm

PAPER_CHAIN = "paper-chain"
DISJOINT = "disjoint"

# Coefficients below this are machine noise, not physics, and are dropped.
COEFF_PRUNE_TOL = 1e-12

# Largest Hamiltonian that exact diagonalization (and hence every run) accepts.
MAX_EXACT_QUBITS = 6

# Letter of a single-qubit (x, z) pair at index 2x + z, and each letter's x and z bit.
_SYMPLECTIC_LETTERS = "IZXY"
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class BlackHoleParams:
    """Mass and observation radius in Planck units (G = 1)."""

    mass: float
    radius: float

    def __post_init__(self):
        if not (self.mass > 0):
            raise DomainError(f"mass must be > 0, got {self.mass}")
        if not (self.radius > 0):
            raise DomainError(f"radius must be > 0, got {self.radius}")
        # an overflowed radius would pass as GM/2r = 0
        if not all(map(math.isfinite, (self.mass, self.radius, self.rho))):
            raise DomainError(
                f"mass, radius and GM/2r must be finite, got mass={self.mass}, radius={self.radius}"
            )

    @property
    def rho(self) -> float:
        """Dimensionless ratio GM/2r; the only combination the Hamiltonian sees."""
        return self.mass / (2.0 * self.radius)


@dataclass(frozen=True)
class HamiltonianLayout:
    """Which multi-dimensional assembly to build."""

    variant: str = PAPER_CHAIN
    dims: int = 3  # disjoint layout only

    def __post_init__(self):
        if self.variant not in (PAPER_CHAIN, DISJOINT):
            raise ValueError(f"unknown layout variant {self.variant!r}")
        if self.variant == DISJOINT and self.dims not in (1, 2, 3):
            raise ValueError(f"disjoint layout needs dims in 1..3, got {self.dims}")


@dataclass(frozen=True, eq=False)
class PauliHamiltonian:
    """Hermitian operator sum_i coeffs[i] * P(x[i], z[i]) over int mask and float arrays.

    Rows are distinct, pruned and sorted by letters (I < X < Y < Z per qubit, qubit 0 first).
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_terms(cls, n_qubits: int, terms: tuple[PauliTerm, ...]) -> PauliHamiltonian:
        """The sum of distinct letter-form PauliTerms, pruned and sorted like every instance."""
        if not 1 <= n_qubits <= 31:  # x and z share one int64 merge key
            raise ValueError(f"from_terms takes 1 to 31 qubits, got {n_qubits}")
        strings = [t.string for t in terms]
        if any(len(s) != n_qubits for s in strings):
            raise ValueError(f"every term must act on {n_qubits} qubits")
        if len(set(strings)) != len(strings):
            raise ValueError("duplicate Pauli strings; coefficients must be merged")
        coeffs = np.array([t.coefficient for t in terms])
        if coeffs.dtype.kind not in "iuf" or not np.all(np.isfinite(coeffs)):
            raise ValueError("Pauli coefficients must be finite real numbers")
        x = np.array([int(s.translate(_X_BITS), 2) for s in strings], dtype=np.int64)
        z = np.array([int(s.translate(_Z_BITS), 2) for s in strings], dtype=np.int64)
        return _merged(n_qubits, x, z, coeffs)

    @functools.cached_property
    def terms(self) -> tuple[PauliTerm, ...]:
        """The rows as letter-form PauliTerms, in stored order."""
        return tuple(map(PauliTerm, self.coeffs.tolist(), _letters(self.x, self.z, self.n_qubits)))


def _merged(n_qubits: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> PauliHamiltonian:
    """Rows summed per distinct string, pruned at COEFF_PRUNE_TOL and sorted by letters."""
    keys, slots = np.unique((x << n_qubits) | z, return_inverse=True)
    # bincount adds each string's coefficients in row order from 0.0, like a running sum
    sums = np.bincount(slots, weights=coeffs, minlength=keys.size)
    kept = np.abs(sums) > COEFF_PRUNE_TOL
    keys, sums = keys[kept], sums[kept]
    x, z = keys >> n_qubits, keys & ((1 << n_qubits) - 1)
    order = np.argsort(_letters(x, z, n_qubits))
    return PauliHamiltonian(n_qubits, x[order], z[order], sums[order])


def metric_prefactor(params: BlackHoleParams) -> float:
    """Schwarzschild energy scale (1/2)(1 + GM/2r)^(1/4)."""
    return 0.5 * (1.0 + params.rho) ** 0.25


def popcount_table(dim: int) -> np.ndarray:
    """popcount(a & b) for every a, b < dim, as a (dim, dim) array.

    Its values mod 4 give the Pauli phases i^popcount(x&z); mod 2, the
    parities (-1)^popcount(mask&k) of measurement outcomes.
    """
    k = np.arange(dim)
    overlap = k[:, None] & k
    counts = np.zeros_like(overlap)
    for bit in range(dim.bit_length()):
        counts += (overlap >> bit) & 1
    return counts


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalized transform sum_k (-1)^popcount(z&k) v[..., k] over the last axis, in place."""
    dim = v.shape[-1]
    half = 1
    while half < dim:
        pairs = v.reshape(-1, dim // (2 * half), 2, half)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        half *= 2
    return v


def _phases(dim: int) -> np.ndarray:
    """i^popcount(x&z) for every (x, z) mask pair, as a (dim, dim) array."""
    return _I_POWERS[popcount_table(dim) & 3]


def _flip_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(x ^ k, k) index arrays of shape (dim, dim): entry [x, k] addresses M[k ^ x, k]."""
    k = np.arange(dim)
    return k[:, None] ^ k, np.broadcast_to(k, (dim, dim))


def _letters(x: np.ndarray, z: np.ndarray, n_qubits: int) -> list[str]:
    """Pauli strings of parallel (x, z) mask arrays."""
    shifts = np.arange(n_qubits - 1, -1, -1)
    codes = 2 * ((x[:, None] >> shifts) & 1) + ((z[:, None] >> shifts) & 1)
    return ["".join(_SYMPLECTIC_LETTERS[c] for c in row) for row in codes.tolist()]


def pauli_decompose(m: np.ndarray) -> PauliHamiltonian:
    """Expand a Hermitian 2^n x 2^n matrix over Pauli strings.

    The coefficient of string s is Tr[P_s m] / 2^n; magnitudes at or below
    COEFF_PRUNE_TOL are dropped. Raises NotPowerOfTwoError for incompatible
    dimensions and NotHermitianError for non-Hermitian input.
    """
    m = linalg.as_matrix(m)
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise NotPowerOfTwoError(f"matrix dimension {dim} is not a power of two")
    linalg.require_hermitian(m)

    flipped, k = _flip_index(dim)
    # v[x, k] = m[k, k^x]; the transform over k gives every phase mask z at once
    traces = _walsh_hadamard(m[k, flipped])
    # the imaginary parts are at most half the Hermiticity defect, so they are dropped
    coeffs = _phases(dim) * traces / dim
    x, z = np.nonzero(np.abs(coeffs.real) > COEFF_PRUNE_TOL)
    return _merged(n, x, z, coeffs.real[x, z])


def to_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense matrix of a Pauli-term Hamiltonian."""
    dim = 2**h.n_qubits
    grid = np.zeros((dim, dim), dtype=complex)
    grid[h.x, h.z] = h.coeffs
    # row x of sum c[x, z] P(x, z) is v[x, k] at m[k^x, k], v the transform over z of c * phase
    grid *= _phases(dim)
    m = np.empty((dim, dim), dtype=complex)
    m[_flip_index(dim)] = _walsh_hadamard(grid)
    return m


def layout_qubits(layout: HamiltonianLayout, spec: LatticeSpec) -> int:
    """Width of the assembled Hamiltonian: 4 for paper-chain, dims * log2(N) for disjoint."""
    return 4 if layout.variant == PAPER_CHAIN else layout.dims * spec.n_qubits


@functools.cache
def _momentum_block(spec: LatticeSpec) -> PauliHamiltonian:
    """Pauli form of one lattice's momentum-squared block, decomposed once per N."""
    return pauli_decompose(lattice.momentum_squared(spec))


def assemble(
    params: BlackHoleParams | None,
    layout: HamiltonianLayout,
    spec: LatticeSpec,
    inner_half: bool = False,
) -> PauliHamiltonian:
    """Build the black-hole Hamiltonian in Pauli form.

    Args:
        params: mass/radius setting the metric prefactor, or None for a
            prefactor normalized to 1.
        layout: paper-chain (4 qubits, overlapping pairs) or disjoint
            (one block of log2(N) qubits per dimension).
        spec: lattice size N per dimension; paper-chain requires N = 4.
        inner_half: restore the literal (p^2)/2 per block instead of the
            p^2 the printed Pauli coefficients correspond to.

    Returns:
        PauliHamiltonian with merged coefficients, every block scaled by the
        metric prefactor.
    """
    scale = 1.0 if params is None else metric_prefactor(params)
    if inner_half:
        scale *= 0.5

    block = _momentum_block(spec)
    block_qubits = spec.n_qubits
    n_qubits = layout_qubits(layout, spec)

    if layout.variant == PAPER_CHAIN:
        if spec.n_points != 4:
            raise UnsupportedLatticeError(
                f"paper-chain layout is defined for N=4 only, got N={spec.n_points}"
            )
        starts = [0, 1, 2]
    else:
        starts = [d * block_qubits for d in range(layout.dims)]

    # block qubit j sits at qubit start + j, so its mask bits move up by n - start - b
    shifts = [n_qubits - start - block_qubits for start in starts]
    x = np.concatenate([block.x << shift for shift in shifts])
    z = np.concatenate([block.z << shift for shift in shifts])
    return _merged(n_qubits, x, z, np.tile(scale * block.coeffs, len(starts)))


def exact_ground_energy(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of the dense Hamiltonian matrix (n_qubits <= MAX_EXACT_QUBITS)."""
    if h.n_qubits > MAX_EXACT_QUBITS:
        raise DomainError(
            f"exact diagonalization limited to {MAX_EXACT_QUBITS} qubits, got {h.n_qubits}"
        )
    eigenvalues, _ = linalg.hermitian_eigensystem(to_matrix(h))
    return float(eigenvalues[0])


def to_text(h: PauliHamiltonian) -> str:
    """One `<coefficient> <letters>` line per term, sorted by letters, at 12 significant digits."""
    return "\n".join(f"{t.coefficient:.12g} {t.string}" for t in h.terms)
