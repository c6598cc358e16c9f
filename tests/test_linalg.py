import math

import numpy as np
import pytest

from bhvqe import linalg
from bhvqe.errors import DimensionMismatchError, DomainError, NotHermitianError
from bhvqe.linalg import hermitian_eigensystem
from pauli_helpers import pauli_matrix

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_matrix_singles():
    np.testing.assert_array_equal(pauli_matrix("I"), I2)
    np.testing.assert_array_equal(pauli_matrix("X"), X)
    np.testing.assert_array_equal(pauli_matrix("Y"), Y)
    np.testing.assert_array_equal(pauli_matrix("Z"), Z)


def test_pauli_matrix_xx_antidiagonal():
    np.testing.assert_array_equal(pauli_matrix("XX"), np.kron(X, X))


def test_pauli_matrix_zz_diagonal():
    np.testing.assert_array_equal(pauli_matrix("ZZ"), np.diag([1, -1, -1, 1]).astype(complex))


def test_pauli_matrix_ordering_first_letter_is_most_significant():
    # XI acts on the most significant qubit: it swaps the two 2x2 blocks
    np.testing.assert_array_equal(pauli_matrix("XI"), np.kron(X, I2))
    np.testing.assert_array_equal(pauli_matrix("IX"), np.kron(I2, X))


def test_pauli_matrices_hermitian_and_unitary():
    for letters in ("X", "Y", "Z", "XY", "ZZI", "XYZI"):
        m = pauli_matrix(letters)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-15)


def test_pauli_trace_orthogonality_two_qubits():
    # Tr[P_a P_b] = 4 * delta_ab over all 16 two-letter strings
    strings = [a + b for a in "IXYZ" for b in "IXYZ"]
    for sa in strings:
        for sb in strings:
            trace = np.trace(pauli_matrix(sa) @ pauli_matrix(sb))
            expected = 4.0 if sa == sb else 0.0
            assert abs(trace - expected) < 1e-12, (sa, sb, trace)


def test_shape_mismatch_raises():
    # as_matrix guards every public entry point: non-square or non-finite input
    with pytest.raises(DimensionMismatchError):
        hermitian_eigensystem(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigensystem(np.ones((2, 2, 2)))
    with pytest.raises(DomainError):
        hermitian_eigensystem(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(DomainError):
        hermitian_eigensystem(np.array([[np.inf, 0], [0, 0]]))


def test_eigensystem_sigma_z():
    eigenvalues, eigenvectors = hermitian_eigensystem(Z)
    np.testing.assert_allclose(eigenvalues, [-1.0, 1.0], atol=1e-15)
    # ascending order puts |1> (eigenvalue -1) first
    assert abs(abs(eigenvectors[1, 0]) - 1.0) < 1e-12


def test_eigensystem_position_operator_spectrum():
    step = math.sqrt(math.pi / 8)
    x = np.diag(step * np.arange(-2, 2)).astype(complex)
    eigenvalues, _ = hermitian_eigensystem(x)
    np.testing.assert_allclose(eigenvalues, step * np.array([-2, -1, 0, 1]), atol=1e-12)


def test_eigensystem_reconstruction_random():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = (a + a.conj().T) / 2
    eigenvalues, eigenvectors = hermitian_eigensystem(m)
    rebuilt = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.conj().T
    np.testing.assert_allclose(rebuilt, m, atol=1e-8)
    assert np.all(np.diff(eigenvalues) >= -1e-12)


def test_eigensystem_columns_orthonormal():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    _, eigenvectors = hermitian_eigensystem((a + a.conj().T) / 2)
    gram = eigenvectors.conj().T @ eigenvectors
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-9)


def test_eigensystem_rejects_non_hermitian():
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    # the gate reports the max-norm defect it measured: |m - m^dag| peaks at 1
    with pytest.raises(NotHermitianError, match=r"max \|m - m\^dag\| = 1\.000e\+00$"):
        linalg.require_hermitian(skew)
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(skew)
    # defects below the 1e-10 gate pass through
    nearly = Z + np.array([[0, 1e-12], [0, 0]])
    hermitian_eigensystem(nearly)


def test_require_hermitian_validates_its_input_once(monkeypatch):
    calls = []
    as_matrix = linalg.as_matrix

    def counted(m):
        calls.append(m)
        return as_matrix(m)

    monkeypatch.setattr(linalg, "as_matrix", counted)
    m = linalg.require_hermitian([[1, 2], [2, 1]])
    assert len(calls) == 1 and m.dtype == complex
    bad_inputs = [([[1, np.nan], [np.nan, 1]], DomainError), (np.ones(3), DimensionMismatchError),
                  ([[0, 1], [0, 0]], NotHermitianError)]
    for bad, error in bad_inputs:
        with pytest.raises(error):
            linalg.require_hermitian(bad)
