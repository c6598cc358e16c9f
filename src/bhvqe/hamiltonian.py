"""Black-hole Hamiltonian assembly and Pauli-basis conversion.

The metric prefactor (1/2)(1 + GM/2r)^(1/4) multiplies a sum of squared
momentum operators. Two layouts are supported:

* ``paper-chain``: the printed 4-qubit form, one squared-momentum block on
  each overlapping qubit pair (0,1), (1,2), (2,3). Requires N = 4.
* ``disjoint``: one squared-momentum block per spatial dimension on its own
  group of log2(N) qubits, for 1 to 3 dimensions.

Both directions of the matrix <-> Pauli-term conversion live here as well,
as one Walsh-Hadamard transform over symplectic bitmasks (Aaronson &
Gottesman, PRA 70, 052328, 2004; Hantzko, Binkowski & Gupta,
arXiv:2310.13421). A string with bit-flip mask x and phase mask z (per qubit
I=(0,0), Z=(0,1), X=(1,0), Y=(1,1), qubit 0 the most significant bit) is
P(x, z) = i^popcount(x&z) X^x Z^z, so

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

# Letter of a single-qubit (x, z) pair at index 2x + z, and its inverse.
_SYMPLECTIC_LETTERS = "IZXY"
_LETTER_CODE = np.zeros(128, dtype=np.int64)
_LETTER_CODE[[ord(c) for c in _SYMPLECTIC_LETTERS]] = range(4)
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
        if not math.isfinite(self.rho):
            raise DomainError(f"GM/2r is not finite for mass={self.mass}, radius={self.radius}")

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


@dataclass(frozen=True)
class PauliHamiltonian:
    """Hermitian operator as a merged, pruned, lexicographically sorted term list."""

    n_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.n_qubits != self.n_qubits:
                raise ValueError(f"term {t.string} does not act on {self.n_qubits} qubits")
        strings = [t.string for t in self.terms]
        if len(set(strings)) != len(strings):
            raise ValueError("duplicate Pauli strings; coefficients must be merged")


def _from_mapping(n_qubits: int, coeffs: dict[str, float]) -> PauliHamiltonian:
    kept = sorted((s, c) for s, c in coeffs.items() if abs(c) > COEFF_PRUNE_TOL)
    return PauliHamiltonian(n_qubits, tuple(PauliTerm(c, s) for s, c in kept))


def metric_prefactor(params: BlackHoleParams) -> float:
    """Schwarzschild energy scale (1/2)(1 + GM/2r)^(1/4)."""
    if not (params.mass > 0) or not (params.radius > 0):
        raise DomainError("mass and radius must be positive")
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


def pauli_masks(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic (x, z) bitmasks of every term of h, qubit 0 the most significant bit."""
    raw = np.frombuffer("".join(t.string for t in h.terms).encode(), dtype=np.uint8)
    codes = _LETTER_CODE[raw].reshape(len(h.terms), h.n_qubits)
    weights = 1 << np.arange(h.n_qubits - 1, -1, -1)
    return (codes >> 1) @ weights, (codes & 1) @ weights


def pauli_decompose(m: np.ndarray, prune_tol: float = COEFF_PRUNE_TOL) -> PauliHamiltonian:
    """Expand a Hermitian 2^n x 2^n matrix over Pauli strings.

    The coefficient of string s is Tr[P_s m] / 2^n; magnitudes at or below
    prune_tol are dropped. Raises NotPowerOfTwoError for incompatible
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
    x, z = np.nonzero(np.abs(coeffs.real) > prune_tol)
    return _from_mapping(n, dict(zip(_letters(x, z, n), coeffs.real[x, z].tolist())))


def to_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense matrix of a Pauli-term Hamiltonian."""
    dim = 2**h.n_qubits
    x, z = pauli_masks(h)
    grid = np.zeros((dim, dim), dtype=complex)
    grid[x, z] = [t.coefficient for t in h.terms]
    # row x of sum c[x, z] P(x, z) is v[x, k] at m[k^x, k], v the transform over z of c * phase
    grid *= _phases(dim)
    m = np.empty((dim, dim), dtype=complex)
    m[_flip_index(dim)] = _walsh_hadamard(grid)
    return m


def _embed(pair_string: str, start: int, n_qubits: int) -> str:
    letters = ["I"] * n_qubits
    for offset, letter in enumerate(pair_string):
        letters[start + offset] = letter
    return "".join(letters)


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

    if layout.variant == PAPER_CHAIN:
        if spec.n_points != 4:
            raise UnsupportedLatticeError(
                f"paper-chain layout is defined for N=4 only, got N={spec.n_points}"
            )
        n_qubits = 4
        starts = [0, 1, 2]
    else:
        n_qubits = layout.dims * block_qubits
        starts = [d * block_qubits for d in range(layout.dims)]

    coeffs: dict[str, float] = {}
    for start in starts:
        for t in block.terms:
            s = _embed(t.string, start, n_qubits)
            coeffs[s] = coeffs.get(s, 0.0) + scale * t.coefficient
    return _from_mapping(n_qubits, coeffs)


def exact_ground_energy(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of the dense Hamiltonian matrix (n_qubits <= MAX_EXACT_QUBITS)."""
    if h.n_qubits > MAX_EXACT_QUBITS:
        raise DomainError(
            f"exact diagonalization limited to {MAX_EXACT_QUBITS} qubits, got {h.n_qubits}"
        )
    eigenvalues, _ = linalg.hermitian_eigensystem(to_matrix(h))
    return float(eigenvalues[0])


def to_text(h: PauliHamiltonian, sig_digits: int = 12) -> str:
    """One `<coefficient> <letters>` line per term, sorted by letters."""
    return "\n".join(f"{t.coefficient:.{sig_digits}g} {t.string}" for t in h.terms)
