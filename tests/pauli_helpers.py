"""The letter form of Pauli operators: the oracle the tests check the mask form against.

A letter string names one Pauli per qubit, qubit 0 first; its masks have
qubit 0 as the most significant bit, with X and Y setting the x bit and Y
and Z setting the z bit. The library holds only the masks.

It also keeps a second route between masks and dense matrices, with
butterflies along the last axis and 2-D fancy indexing: the bit-for-bit
oracle of `to_matrix` and `pauli_decompose`.
"""

from functools import reduce

import numpy as np

from bhvqe.hamiltonian import COEFF_PRUNE_TOL, PauliHamiltonian, _merged, _phases

LETTERS = "IXYZ"

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


def masks(letters: str) -> tuple[int, int]:
    """The (x, z) masks of one letter string."""
    return int(letters.translate(_X_BITS), 2), int(letters.translate(_Z_BITS), 2)


def from_letters(n_qubits: int, terms) -> PauliHamiltonian:
    """The operator sum of (coefficient, letters) pairs with distinct strings.

    Rows are pruned at COEFF_PRUNE_TOL and sorted by letters (I < X < Y < Z
    per qubit), the order every PauliHamiltonian keeps.
    """
    kept = sorted((s, c) for c, s in terms if abs(c) > COEFF_PRUNE_TOL)
    strings = [s for s, _ in kept]
    assert all(len(s) == n_qubits and set(s) <= set(LETTERS) for s in strings), strings
    assert len(set(strings)) == len(strings), "repeated Pauli string"
    x = np.array([masks(s)[0] for s in strings], dtype=np.int64)
    z = np.array([masks(s)[1] for s in strings], dtype=np.int64)
    return PauliHamiltonian(n_qubits, x, z, np.array([float(c) for _, c in kept]))


def letter_terms(h: PauliHamiltonian) -> list[tuple[float, str]]:
    """(coefficient, letters) per row of h, in stored order."""
    out = []
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeffs.tolist()):
        bits = [(x >> b & 1, z >> b & 1) for b in range(h.n_qubits - 1, -1, -1)]
        out.append((c, "".join("IZXY"[2 * xb + zb] for xb, zb in bits)))
    return out


def pauli_matrix(string: str) -> np.ndarray:
    """The 2^n x 2^n matrix of a letter string: the kron of its letters, qubit 0 first."""
    return reduce(np.kron, (_MATRICES[c] for c in string))


def coefficient(h: PauliHamiltonian, string: str) -> float:
    """Coefficient of one string (0.0 if absent)."""
    return next((c for c, s in letter_terms(h) if s == string), 0.0)


def scaled(h: PauliHamiltonian, factor: float) -> PauliHamiltonian:
    """Every coefficient times factor, pruned like a decomposition."""
    return from_letters(h.n_qubits, [(c * factor, s) for c, s in letter_terms(h)])


def walsh_hadamard_last_axis(v: np.ndarray) -> np.ndarray:
    """Unnormalized transform sum_k (-1)^popcount(z&k) v[..., k] over the last axis, in place.

    The butterflies run along a strided last axis; the library runs the same
    additions in the same order over the first axis.
    """
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


def to_matrix_by_last_axis(h: PauliHamiltonian) -> np.ndarray:
    """Dense matrix of h: coefficients scattered as c[x, z], transformed over z, indexed in 2-D."""
    dim = 2**h.n_qubits
    k = np.arange(dim)
    grid = np.zeros((dim, dim), dtype=complex)
    grid[h.x, h.z] = h.coeffs
    grid *= _phases(dim)
    m = np.empty((dim, dim), dtype=complex)
    m[k[:, None] ^ k, k] = walsh_hadamard_last_axis(grid)
    return m


def pauli_decompose_by_last_axis(m: np.ndarray) -> PauliHamiltonian:
    """Pauli form of a Hermitian matrix: v[x, k] = m[k, k^x] gathered in 2-D, transformed over k."""
    dim = m.shape[0]
    k = np.arange(dim)
    coeffs = _phases(dim) * walsh_hadamard_last_axis(m[k, k[:, None] ^ k]) / dim
    x, z = np.nonzero(np.abs(coeffs.real) > COEFF_PRUNE_TOL)
    return _merged(dim.bit_length() - 1, x, z, coeffs.real[x, z])
