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
coefficient. Only this module maps masks to letters, and only one way: letters
are a view for `to_text`, never an input. Rows sort in letter order by an
integer key, each qubit's letter rank as one base-4 digit. The string with
masks (x, z) is P(x, z) = i^popcount(x&z) X^x Z^z, so one Walsh-Hadamard
transform converts matrices both ways (Hantzko, Binkowski & Gupta, arXiv:2310.13421):

    Tr[P(x, z) M] = i^popcount(x&z) * sum_k (-1)^popcount(z&k) M[k, k^x].

`pauli_decompose` gathers v[k, x] = M[k, k^x] in one flat `take` and a
butterfly transform over k, on whole rows, yields every z at once; `to_matrix`
runs the same steps backwards. Each direction costs O(n 4^n) for 2^n x 2^n matrices,
against O(16^n) for a trace with each of the 4^n string matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice, linalg
from .errors import DomainError, NotPowerOfTwoError, UnsupportedLatticeError, require_int
from .lattice import LatticeSpec

PAPER_CHAIN = "paper-chain"
DISJOINT = "disjoint"

# Coefficients below this are machine noise, not physics, and are dropped.
COEFF_PRUNE_TOL = 1e-12

# Largest Hamiltonian that exact diagonalization (and hence every run) accepts.
MAX_EXACT_QUBITS = 6

# Letter of a single-qubit (x, z) pair at index 2x + z, and that letter's rank in I < X < Y < Z.
_SYMPLECTIC_LETTERS = "IZXY"
_LETTER_RANKS = np.array([0, 3, 1, 2])
_I_POWERS = np.array([1, 1j, -1, -1j])

# The basis change that maps a qubit's measured eigenbasis onto Z's, by its code 2x + z:
# none for I and Z, H for X, H S^dagger for Y.
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_MEASURE_ROTATIONS = (np.eye(2), np.eye(2), _HADAMARD, _HADAMARD @ np.diag([1, -1j]))


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
    dims: int = 3  # disjoint layout only, but checked for both

    def __post_init__(self):
        if self.variant not in (PAPER_CHAIN, DISJOINT):
            raise ValueError(f"layout must be {PAPER_CHAIN} or {DISJOINT}, got {self.variant!r}")
        require_int("dims", self.dims, 1, 3)


@dataclass(frozen=True, eq=False)
class PauliHamiltonian:
    """Hermitian operator sum_i coeffs[i] * P(x[i], z[i]) over int mask and float arrays.

    Rows are distinct, pruned and sorted by letters (I < X < Y < Z per qubit, qubit 0 first).
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray

    @functools.cached_property
    def identity_offset(self) -> float:
        """Coefficient of the identity row (0.0 without one): the part no shot measures."""
        return float(self.coeffs[(self.x | self.z) == 0].sum())

    @functools.cached_property
    def settings(self) -> tuple[MeasurementSetting, ...]:
        """Greedy qubit-wise-commuting cover of the non-identity rows, built once per instance.

        Rows are taken in stored order, and each joins the first setting that
        measures every qubit they share in the same basis (Verteletskyi, Yen &
        Izmaylov, JCP 152, 124114 (2020)); the setting's masks then absorb the
        row's. A row no setting takes opens a new one.
        """
        bases: list[tuple[int, int]] = []
        members: list[list[int]] = []
        for row, (x, z) in enumerate(zip(self.x.tolist(), self.z.tolist())):
            support = x | z
            if not support:
                continue
            for s, (sx, sz) in enumerate(bases):
                if not (((sx ^ x) | (sz ^ z)) & (sx | sz) & support):
                    bases[s] = (sx | x, sz | z)
                    members[s].append(row)
                    break
            else:
                bases.append((x, z))
                members.append([row])
        parities = parity_eigenvalues(2**self.n_qubits)[self.x | self.z]
        return tuple(
            MeasurementSetting(x, z, self.coeffs[rows] @ parities[rows],
                               _basis_change(self.n_qubits, x, z))
            for (x, z), rows in zip(bases, members)
        )


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One tensor-product basis that reads a group of qubit-wise-commuting rows at once.

    A qubit whose x bit is set is measured in X (z clear) or Y (z set), every
    other qubit in Z; amplitude rows @ rotation, the read-only transpose of
    that basis change, are the rotated rows. weights[k] = sum over the rows
    the setting measures of coeffs[i] * (-1)^popcount((x[i] | z[i]) & k) is
    the energy they assign to outcome k of the rotated state.
    """

    x: int
    z: int
    weights: np.ndarray = field(repr=False)
    rotation: np.ndarray = field(repr=False)


def _basis_change(n_qubits: int, x: int, z: int) -> np.ndarray:
    """MeasurementSetting(x, z).rotation: the kron of each qubit's 2x2 change, qubit 0 first."""
    codes = _codes(np.array([x]), np.array([z]), n_qubits)[0]
    return _read_only(functools.reduce(np.kron, [_MEASURE_ROTATIONS[c] for c in codes]).T.copy())


def _merged(n_qubits: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> PauliHamiltonian:
    """Rows summed per distinct string, pruned at COEFF_PRUNE_TOL and sorted by letters."""
    keys, slots = np.unique((x << n_qubits) | z, return_inverse=True)
    # bincount adds each string's coefficients in row order from 0.0, like a running sum
    sums = np.bincount(slots, weights=coeffs, minlength=keys.size)
    kept = np.abs(sums) > COEFF_PRUNE_TOL
    keys, sums = keys[kept], sums[kept]
    x, z = keys >> n_qubits, keys & ((1 << n_qubits) - 1)
    # rows are distinct, so sorting their base-4 letter ranks orders them as their letters do
    order = np.argsort(_LETTER_RANKS[_codes(x, z, n_qubits)] @ 4 ** np.arange(n_qubits - 1, -1, -1))
    return PauliHamiltonian(n_qubits, x[order], z[order], sums[order])


def metric_prefactor(params: BlackHoleParams) -> float:
    """Schwarzschild energy scale (1/2)(1 + GM/2r)^(1/4)."""
    return 0.5 * (1.0 + params.rho) ** 0.25


def energy_scale(params: BlackHoleParams | None, inner_half: bool = False) -> float:
    """Factor that scales the unit-prefactor operator into a point's Hamiltonian.

    The metric prefactor (1 for params None). inner_half halves it: it
    restores the literal (p^2)/2 per block instead of the p^2 the printed
    Pauli coefficients correspond to.
    """
    scale = 1.0 if params is None else metric_prefactor(params)
    return 0.5 * scale if inner_half else scale


def _read_only(table: np.ndarray) -> np.ndarray:
    """The table, marked read-only: it is built once and shared by every reader."""
    table.flags.writeable = False
    return table


@functools.cache
def popcount_table(dim: int) -> np.ndarray:
    """popcount(a & b) for every a, b < dim, as a read-only (dim, dim) array built once per dim.

    Its values mod 4 give the Pauli phases i^popcount(x&z); mod 2, the
    parities (-1)^popcount(mask&k) of measurement outcomes.
    """
    k = np.arange(dim)
    overlap = k[:, None] & k
    counts = np.zeros_like(overlap)
    for bit in range(dim.bit_length()):
        counts += (overlap >> bit) & 1
    return _read_only(counts)


@functools.cache
def parity_eigenvalues(dim: int) -> np.ndarray:
    """(dim, dim) table whose row `mask` holds (-1)^popcount(mask & k) for every outcome k.

    That row is the +/-1 eigenvalue of each outcome, measured in the
    eigenbasis of a Pauli string with support `mask`. Built once per dim, read-only.
    """
    return _read_only(1.0 - 2.0 * (popcount_table(dim) & 1))


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalized transform sum_k (-1)^popcount(z&k) v[k, ...] over the first axis, in place.

    v must be a fresh C-contiguous array: each butterfly adds and subtracts whole rows.
    """
    dim = len(v)
    half = 1
    while half < dim:
        pairs = v.reshape(dim // (2 * half), 2, half, -1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        half *= 2
    return v


@functools.cache
def _phases(dim: int) -> np.ndarray:
    """i^popcount(x&z) for every (x, z) mask pair, as a read-only (dim, dim) array."""
    return _read_only(_I_POWERS[popcount_table(dim) & 3])


@functools.cache
def _flip_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat (gather, scatter) indices of shape (dim, dim) into a C-order (dim, dim) array.

    gather[k, x] = k*dim + (k^x) reads M[k, k^x]; scatter = gather.T reads v[c, r^c] into M[r, c].
    """
    k = np.arange(dim)
    gather = k[:, None] * dim + (k[:, None] ^ k)
    return _read_only(gather), _read_only(np.ascontiguousarray(gather.T))


def _codes(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """(rows, n_qubits) array of each qubit's code 2x + z (I, Z, X, Y = 0-3), qubit 0 first."""
    shifts = np.arange(n_qubits - 1, -1, -1)
    return 2 * ((x[:, None] >> shifts) & 1) + ((z[:, None] >> shifts) & 1)


def _letters(x: np.ndarray, z: np.ndarray, n_qubits: int) -> list[str]:
    """Pauli strings of parallel (x, z) mask arrays."""
    return ["".join(_SYMPLECTIC_LETTERS[c] for c in row) for row in _codes(x, z, n_qubits).tolist()]


def pauli_decompose(m: np.ndarray) -> PauliHamiltonian:
    """Expand a Hermitian 2^n x 2^n matrix over Pauli strings.

    The coefficient of string s is Tr[P_s m] / 2^n; magnitudes at or below
    COEFF_PRUNE_TOL are dropped. Raises NotHermitianError for non-Hermitian
    input and NotPowerOfTwoError for incompatible dimensions; Hermiticity is
    checked first, so an input that fails both raises NotHermitianError.
    """
    m = linalg.require_hermitian(m)
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise NotPowerOfTwoError(f"matrix dimension {dim} is not a power of two")

    # v[k, x] = m[k, k^x]; the transform over k gives every phase mask z at once, as traces[z, x]
    traces = _walsh_hadamard(m.take(_flip_index(dim)[0]))
    # the imaginary parts are at most half the Hermiticity defect, so they are dropped
    coeffs = _phases(dim) * traces / dim
    z, x = np.nonzero(np.abs(coeffs.real) > COEFF_PRUNE_TOL)
    return _merged(n, x, z, coeffs.real[z, x])


def to_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense matrix of a Pauli-term Hamiltonian."""
    dim = 2**h.n_qubits
    grid = np.zeros((dim, dim), dtype=complex)
    grid[h.z, h.x] = h.coeffs
    # column x of sum c[z, x] P(x, z) is v[k, x] at m[k^x, k], v the transform over z of c * phase
    grid *= _phases(dim)
    return _walsh_hadamard(grid).take(_flip_index(dim)[1])


def _block_starts(layout: HamiltonianLayout, spec: LatticeSpec) -> list[int]:
    """First qubit of each block: 0, 1, 2 for paper-chain (N = 4 only), d log2(N) for disjoint."""
    if layout.variant == DISJOINT:
        return [d * spec.n_qubits for d in range(layout.dims)]
    if spec.n_points != 4:
        raise UnsupportedLatticeError(
            f"paper-chain layout is defined for N=4 only, got N={spec.n_points}"
        )
    return [0, 1, 2]


def layout_qubits(layout: HamiltonianLayout, spec: LatticeSpec) -> int:
    """Width of the assembled Hamiltonian: 4 for paper-chain, dims * log2(N) for disjoint.

    Raises UnsupportedLatticeError for a paper chain with N != 4.
    """
    return _block_starts(layout, spec)[-1] + spec.n_qubits


@functools.cache
def _momentum_block(spec: LatticeSpec) -> PauliHamiltonian:
    """Pauli form of one lattice's momentum-squared block, decomposed once per N."""
    return pauli_decompose(lattice.momentum_squared(spec))


def assemble(
    params: BlackHoleParams | None,
    layout: HamiltonianLayout,
    spec: LatticeSpec,
) -> PauliHamiltonian:
    """Build the black-hole Hamiltonian in Pauli form.

    Args:
        params: mass/radius setting the metric prefactor, or None for a
            prefactor normalized to 1.
        layout: paper-chain (4 qubits, overlapping pairs) or disjoint
            (one block of log2(N) qubits per dimension).
        spec: lattice size N per dimension; paper-chain requires N = 4.

    Returns:
        PauliHamiltonian with merged coefficients, every block scaled by
        energy_scale(params).
    """
    starts = _block_starts(layout, spec)
    n_qubits = starts[-1] + spec.n_qubits
    block = _momentum_block(spec)
    # block qubit j sits at qubit start + j: its mask bits move up by n - start - log2(N)
    shifts = [starts[-1] - start for start in starts]
    x = np.concatenate([block.x << shift for shift in shifts])
    z = np.concatenate([block.z << shift for shift in shifts])
    coeffs = energy_scale(params) * block.coeffs
    return _merged(n_qubits, x, z, np.tile(coeffs, len(starts)))


def exact_ground_energy(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of the dense Hamiltonian matrix (n_qubits <= MAX_EXACT_QUBITS).

    A real matrix (every string with an even number of Y's, as `assemble`
    builds) goes to the real symmetric solver, any other to the complex Hermitian one.
    """
    if h.n_qubits > MAX_EXACT_QUBITS:
        raise DomainError(
            f"exact diagonalization limited to {MAX_EXACT_QUBITS} qubits, got {h.n_qubits}"
        )
    m = linalg.require_hermitian(to_matrix(h))
    # eigenvalues only (LAPACK jobz='N'): no eigenvector is computed to be dropped
    return float(np.linalg.eigvalsh(m if m.imag.any() else m.real)[0])


def to_text(h: PauliHamiltonian) -> str:
    """One `<coefficient> <letters>` line per term, sorted by letters, at 12 significant digits."""
    rows = zip(h.coeffs.tolist(), _letters(h.x, h.z, h.n_qubits))
    return "\n".join(f"{coefficient:.12g} {letters}" for coefficient, letters in rows)
