import math

import numpy as np
import pytest

from bhvqe.lattice import LatticeSpec, dft_matrix, momentum_operator, momentum_squared, position_operator

# momentum operator on the 4-point lattice, written out entry by entry:
# sqrt(pi) / (8 sqrt(2)) times a circulant built from (-2, -2-2i, -2, -2+2i)
MOMENTUM_4_EXPECTED = (math.sqrt(math.pi) / (8 * math.sqrt(2))) * np.array(
    [
        [-2, -2 - 2j, -2, -2 + 2j],
        [-2 + 2j, -2, -2 - 2j, -2],
        [-2, -2 + 2j, -2, -2 - 2j],
        [-2 - 2j, -2, -2 + 2j, -2],
    ]
)


def test_lattice_spec_validation():
    assert LatticeSpec().n_points == 4
    assert LatticeSpec(2).n_qubits == 1
    assert LatticeSpec(8).n_qubits == 3
    for bad in (0, 1, 3, 6, -4):
        with pytest.raises(ValueError):
            LatticeSpec(bad)
    for bad in (4.0, True, "4", None):
        with pytest.raises(TypeError):
            LatticeSpec(bad)
    assert LatticeSpec(np.int64(8)).n_qubits == 3


def test_position_operator_n4():
    step = math.sqrt(math.pi / 8)
    expected = np.diag(step * np.array([-2.0, -1.0, 0.0, 1.0]))
    np.testing.assert_allclose(position_operator(LatticeSpec(4)), expected, atol=1e-15)


def test_position_operator_n2():
    step = math.sqrt(math.pi / 4)
    expected = np.diag(step * np.array([-1.0, 0.0]))
    np.testing.assert_allclose(position_operator(LatticeSpec(2)), expected, atol=1e-15)


def test_position_operator_trace():
    # sites sum to -N/2, so the trace is -sqrt(pi/2N) * N/2
    x = position_operator(LatticeSpec(4))
    assert abs(np.trace(x) - (-2.0 * math.sqrt(math.pi / 8))) < 1e-14


def test_dft_matrix_n2():
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(dft_matrix(LatticeSpec(2)), expected, atol=1e-15)


def test_dft_matrix_n4_entry():
    f = dft_matrix(LatticeSpec(4))
    # [F]_{1,1} = exp(i 2 pi / 4) / 2 = i / 2
    assert abs(f[1, 1] - 0.5j) < 1e-15
    assert abs(f[0, 0] - 0.5) < 1e-15


def test_dft_unitary():
    for n in (2, 4, 8):
        f = dft_matrix(LatticeSpec(n))
        np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)


def test_momentum_operator_n4_entrywise():
    p = momentum_operator(LatticeSpec(4))
    np.testing.assert_allclose(p, MOMENTUM_4_EXPECTED, atol=1e-12)


def test_momentum_operator_n4_named_entries():
    p = momentum_operator(LatticeSpec(4))
    scale = math.sqrt(math.pi) / (8 * math.sqrt(2))
    assert abs(p[0, 0] - (-2 * scale)) < 1e-14
    assert abs(p[0, 1] - ((-2 - 2j) * scale)) < 1e-14
    assert abs(p[1, 0] - ((-2 + 2j) * scale)) < 1e-14


def test_momentum_operator_hermitian():
    for n in (2, 4, 8, 16):
        p = momentum_operator(LatticeSpec(n))
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)


def test_momentum_shares_position_spectrum():
    for n in (2, 4, 8, 16):
        spec = LatticeSpec(n)
        x_eigs = np.sort(np.diag(position_operator(spec)).real)
        p_eigs = np.linalg.eigvalsh(momentum_operator(spec))
        np.testing.assert_allclose(p_eigs, x_eigs, atol=1e-12)


def test_momentum_squared_n4_entries():
    p2 = momentum_squared(LatticeSpec(4))
    np.testing.assert_allclose(np.diag(p2), np.full(4, 3 * math.pi / 16), atol=1e-14)
    assert abs(p2[0, 1] - math.pi / 8) < 1e-14
    assert abs(p2[0, 2] - math.pi / 16) < 1e-14
    assert abs(p2[0, 3] - math.pi / 8) < 1e-14
    np.testing.assert_allclose(p2.imag, np.zeros((4, 4)), atol=1e-14)


def test_momentum_squared_matches_square():
    for n in (2, 4, 8):
        spec = LatticeSpec(n)
        p = momentum_operator(spec)
        np.testing.assert_allclose(momentum_squared(spec), p @ p, atol=1e-13)


def test_momentum_squared_spectrum_n4():
    # eigenvalues are the squared position eigenvalues: (pi/8) * {4, 1, 0, 1}
    eigs = np.linalg.eigvalsh(momentum_squared(LatticeSpec(4)))
    expected = np.array([0.0, math.pi / 8, math.pi / 8, math.pi / 2])
    np.testing.assert_allclose(eigs, expected, atol=1e-12)


def test_momentum_squared_positive_semidefinite():
    for n in (2, 4, 8):
        eigs = np.linalg.eigvalsh(momentum_squared(LatticeSpec(n)))
        assert eigs.min() > -1e-12
        assert abs(eigs.min()) < 1e-12  # zero mode always present
