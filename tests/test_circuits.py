import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvqe.ansatz import AnsatzKind, build
from bhvqe.circuits import (
    Circuit,
    Gate,
    GateKind,
    StateVector,
    _apply,
    batch_expectation,
    expectation,
    parity_eigenvalues,
    run,
    run_batch,
    ry_matrix,
    sampled_expectation,
    u3_matrix,
)
from bhvqe.errors import ParamLengthMismatchError, QubitMismatchError
from bhvqe.hamiltonian import PAPER_CHAIN, HamiltonianLayout, PauliHamiltonian, assemble, to_matrix
from bhvqe.lattice import LatticeSpec
from bhvqe.linalg import PauliTerm

PI = math.pi

CHAIN_H = assemble(None, HamiltonianLayout(variant=PAPER_CHAIN), LatticeSpec(4))

# Every ansatz family at every width from its minimum up to the 6-qubit cap.
FAMILY_WIDTHS = [
    (family, n) for family, lowest in (("ansatz1", 2), ("ansatz2", 2), ("ansatz3", 1))
    for n in range(lowest, 7)
]


def _u3_reference(theta, phi, lam):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


def _apply_1q(state, matrix, qubit):
    """Reference 1-qubit gate on a (2,)*n tensor: moveaxis + tensordot."""
    moved = np.moveaxis(state, qubit, 0)
    return np.moveaxis(np.tensordot(matrix, moved, axes=([1], [0])), 0, qubit)


def _apply_controlled(state, matrix, control, target):
    """Reference controlled gate: the 1-qubit reference on the control = 1 slice."""
    out = state.copy()
    sel = [slice(None)] * state.ndim
    sel[control] = 1
    sub = out[tuple(sel)]
    # dropping the control axis shifts later axis indices down by one
    t = target - 1 if target > control else target
    out[tuple(sel)] = _apply_1q(sub, matrix, t)
    return out


def reference_run(circuit, params):
    """Gate-by-gate statevector of one parameter vector, independent of run_batch."""
    n = circuit.n_qubits
    state = np.zeros([2] * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        angles = params[list(g.param_slots)]
        if g.kind is GateKind.U3:
            state = _apply_1q(state, _u3_reference(*angles), g.qubits[0])
        elif g.kind is GateKind.RY:
            state = _apply_1q(state, _u3_reference(angles[0], 0.0, 0.0), g.qubits[0])
        elif g.kind is GateKind.CNOT:
            state = _apply_controlled(state, np.array([[0, 1], [1, 0]]), *g.qubits)
        else:
            state = _apply_controlled(state, _u3_reference(*angles), *g.qubits)
    return state.reshape(-1)


def apply_pauli_string(amplitudes, letters):
    """Reference P|psi> for a Pauli string, acting axis by axis on the reshaped state."""
    n = len(letters)
    t = amplitudes.reshape([2] * n)
    for q, letter in enumerate(letters):
        if letter == "I":
            continue
        shape = [1] * n
        shape[q] = 2
        if letter == "X":
            t = np.flip(t, axis=q)
        elif letter == "Y":
            t = np.flip(t, axis=q) * np.array([-1j, 1j]).reshape(shape)
        else:  # Z
            t = t * np.array([1.0, -1.0]).reshape(shape)
    return t.reshape(-1)


def single_qubit_layer(n_qubits):
    """One U3 per qubit with fresh parameter slots."""
    gates = tuple(Gate(GateKind.U3, (q,), (3 * q, 3 * q + 1, 3 * q + 2)) for q in range(n_qubits))
    return Circuit(n_qubits, gates, 3 * n_qubits)


def test_u3_special_angles():
    np.testing.assert_allclose(u3_matrix(0, 0, 0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(u3_matrix(PI, 0, PI), np.array([[0, 1], [1, 0]]), atol=1e-15)
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(u3_matrix(PI / 2, 0, PI), hadamard, atol=1e-15)


def test_u3_unitary_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta, phi, lam = rng.uniform(-2 * PI, 2 * PI, 3)
        u = u3_matrix(theta, phi, lam)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_ry_is_real_u3_slice():
    theta = 0.7
    np.testing.assert_allclose(ry_matrix(theta), u3_matrix(theta, 0.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(ry_matrix(theta).imag, np.zeros((2, 2)), atol=1e-15)


def test_run_empty_circuit():
    state = run(Circuit(3, (), 0), np.array([]))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_run_cnot_flips_target():
    # X on qubit 0, then CNOT(0 -> 1): |00> -> |10> -> |11>
    gates = (Gate(GateKind.U3, (0,), (0, 1, 2)), Gate(GateKind.CNOT, (0, 1)))
    state = run(Circuit(2, gates, 3), np.array([PI, 0.0, PI]))
    np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0, 0, 0, 1], atol=1e-15)


def test_run_hadamard_layer():
    circuit = single_qubit_layer(4)
    params = np.tile([PI / 2, 0.0, PI], 4)
    state = run(circuit, params)
    np.testing.assert_allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)


def test_run_controlled_u3_acts_only_on_control_one():
    # qubit 0 stays |0>, so CU3 must leave |00> alone
    gates = (Gate(GateKind.CU3, (0, 1), (0, 1, 2)),)
    state = run(Circuit(2, gates, 3), np.array([1.1, 0.4, -0.2]))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)
    # with the control flipped, the target picks up the U3 column
    gates = (Gate(GateKind.U3, (0,), (0, 1, 2)), Gate(GateKind.CU3, (0, 1), (3, 4, 5)))
    state = run(Circuit(2, gates, 6), np.array([PI, 0.0, PI, 1.1, 0.4, -0.2]))
    expected_target = u3_matrix(1.1, 0.4, -0.2) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(state.amplitudes[2:], expected_target, atol=1e-14)


def test_run_rejects_wrong_param_count():
    with pytest.raises(ParamLengthMismatchError):
        run(single_qubit_layer(2), np.zeros(5))


def test_gate_and_circuit_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (1, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.U3, (0,), (0, 1))
    with pytest.raises(ValueError):
        Circuit(2, (Gate(GateKind.U3, (0,), (0, 1, 2)), Gate(GateKind.RY, (1,), (0,))), 3)
    with pytest.raises(ValueError):
        Circuit(1, (Gate(GateKind.U3, (1,), (0, 1, 2)),), 3)
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))


@pytest.mark.parametrize("family,n_qubits", FAMILY_WIDTHS)
@settings(max_examples=8, deadline=None)
@given(batch=st.sampled_from([1, 2, 16]), seed=st.integers(0, 2**32 - 1))
def test_run_batch_matches_reference_kernel(family, n_qubits, batch, seed):
    circuit = build(AnsatzKind.from_name(family), n_qubits)
    params = np.random.default_rng(seed).uniform(-2 * PI, 2 * PI, (batch, circuit.n_params))
    states = run_batch(circuit, params)
    assert states.shape == (batch, 2**n_qubits)
    for row, theta in zip(states, params):
        np.testing.assert_allclose(row, reference_run(circuit, theta), rtol=0, atol=1e-12)
        np.testing.assert_allclose(row, run(circuit, theta).amplitudes, rtol=0, atol=1e-14)


def test_run_batch_controlled_gate_below_its_control():
    # CU3 and CNOT whose target precedes the control, which no ansatz builds
    gates = (
        Gate(GateKind.U3, (0,), (0, 1, 2)),
        Gate(GateKind.U3, (2,), (3, 4, 5)),
        Gate(GateKind.CU3, (2, 0), (6, 7, 8)),
        Gate(GateKind.CNOT, (1, 0)),
        Gate(GateKind.CNOT, (2, 1)),
    )
    circuit = Circuit(3, gates, 9)
    params = np.random.default_rng(31).uniform(-PI, PI, (4, 9))
    for row, theta in zip(run_batch(circuit, params), params):
        np.testing.assert_allclose(row, reference_run(circuit, theta), rtol=0, atol=1e-12)


def test_run_batch_shapes():
    circuit = single_qubit_layer(2)
    for params in (np.zeros(6), np.zeros((3, 5)), np.zeros((1, 2, 6))):
        with pytest.raises(ParamLengthMismatchError):
            run_batch(circuit, params)
    for family in ("ansatz1", "ansatz2", "ansatz3"):
        circuit = build(AnsatzKind.from_name(family), 3)
        assert run_batch(circuit, np.zeros((0, circuit.n_params))).shape == (0, 8)


def _random_hamiltonian(rng, n_qubits):
    strings = {"".join(rng.choice(list("IXYZ"), n_qubits)) for _ in range(6)}
    return PauliHamiltonian.from_terms(n_qubits, tuple(PauliTerm(rng.normal(), s) for s in sorted(strings)))


@settings(max_examples=25, deadline=None)
@given(n_qubits=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_expectation_matches_term_sum_and_dense_route(n_qubits, seed):
    rng = np.random.default_rng(seed)
    h = _random_hamiltonian(rng, n_qubits)
    states = rng.normal(size=(3, 2**n_qubits)) + 1j * rng.normal(size=(3, 2**n_qubits))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    dense = to_matrix(h)
    batch = batch_expectation(states, dense)
    for psi, value in zip(states, batch):
        by_terms = sum(
            t.coefficient * np.vdot(psi, apply_pauli_string(psi, t.string)) for t in h.terms
        )
        direct = np.vdot(psi, dense @ psi).real
        exact = expectation(StateVector(n_qubits, psi), h)
        assert abs(exact - by_terms) < 1e-12
        assert abs(exact - direct) < 1e-12
        assert abs(exact - value) < 1e-12


def test_apply_pauli_string_basics():
    np.testing.assert_allclose(apply_pauli_string(np.array([1.0, 0.0]), "X"), [0, 1], atol=1e-15)
    np.testing.assert_allclose(apply_pauli_string(np.array([0.0, 1.0]), "Z"), [0, -1], atol=1e-15)
    np.testing.assert_allclose(apply_pauli_string(np.array([1.0, 0.0]), "Y"), [0, 1j], atol=1e-15)


def test_expectation_z_on_zero_state():
    h = PauliHamiltonian.from_terms(4, (PauliTerm(1.0, "ZIII"),))
    state = run(Circuit(4, (), 0), np.array([]))
    assert abs(expectation(state, h) - 1.0) < 1e-15


def test_expectation_x_on_zero_state():
    h = PauliHamiltonian.from_terms(1, (PauliTerm(1.0, "X"),))
    state = run(Circuit(1, (), 0), np.array([]))
    assert abs(expectation(state, h)) < 1e-15


def test_expectation_alternating_product_state_on_chain():
    # |+-+-> diagonalizes every X-string term; its energy is the ground value pi/8
    circuit = single_qubit_layer(4)
    params = np.array([PI / 2, 0, 0, PI / 2, PI, 0, PI / 2, 0, 0, PI / 2, PI, 0], dtype=float)
    state = run(circuit, params)
    assert abs(expectation(state, CHAIN_H) - PI / 8) < 1e-12


def test_expectation_qubit_mismatch():
    state = run(Circuit(2, (), 0), np.array([]))
    with pytest.raises(QubitMismatchError):
        expectation(state, CHAIN_H)


def test_expectation_matches_dense_matrix():
    rng = np.random.default_rng(9)
    circuit = build(AnsatzKind.from_name("ansatz1"), 4)
    dense = to_matrix(CHAIN_H)
    for _ in range(5):
        state = run(circuit, rng.uniform(-PI, PI, circuit.n_params))
        direct = np.real(np.vdot(state.amplitudes, dense @ state.amplitudes))
        assert abs(expectation(state, CHAIN_H) - direct) < 1e-10


def test_expectation_respects_variational_bound():
    rng = np.random.default_rng(10)
    circuit = build(AnsatzKind.from_name("ansatz2"), 4)
    ground = PI / 8
    for _ in range(20):
        state = run(circuit, rng.uniform(-PI, PI, circuit.n_params))
        assert expectation(state, CHAIN_H) >= ground - 1e-10


def test_circuit_preserves_norm():
    rng = np.random.default_rng(17)
    kinds = [AnsatzKind.from_name(n) for n in ("ansatz1", "ansatz2", "ansatz3")]
    for i in range(100):
        circuit = build(kinds[i % 3], 4)
        state = run(circuit, rng.uniform(-PI, PI, circuit.n_params))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_sampled_expectation_converges():
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    rng = np.random.default_rng(23)
    params = rng.uniform(-PI, PI, circuit.n_params)
    state = run(circuit, params)
    exact = expectation(state, CHAIN_H)
    estimate = sampled_expectation(state, CHAIN_H, shots=10**6, seed=42)
    # total coefficient weight off the identity is 15*pi/16, so 3 sigma < 0.01
    assert abs(estimate - exact) < 0.01
    assert estimate != exact


def test_sampled_expectation_exact_on_eigenstate():
    circuit = single_qubit_layer(4)
    params = np.array([PI / 2, 0, 0, PI / 2, PI, 0, PI / 2, 0, 0, PI / 2, PI, 0], dtype=float)
    state = run(circuit, params)
    for shots in (1, 10, 1000):
        assert abs(sampled_expectation(state, CHAIN_H, shots=shots, seed=0) - PI / 8) < 1e-9


def test_sampled_expectation_deterministic_by_seed():
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    state = run(circuit, np.linspace(-1.0, 1.0, circuit.n_params))
    first = sampled_expectation(state, CHAIN_H, shots=500, seed=7)
    second = sampled_expectation(state, CHAIN_H, shots=500, seed=7)
    other = sampled_expectation(state, CHAIN_H, shots=500, seed=8)
    assert first == second
    assert first != other


def test_parity_eigenvalues_match_bit_count_loop():
    for n_qubits in range(1, 5):
        dim = 2**n_qubits
        table = parity_eigenvalues(dim)
        for mask in range(dim):
            loop = np.array([1.0 - 2.0 * (bin(i & mask).count("1") & 1) for i in range(dim)])
            np.testing.assert_array_equal(table[mask], loop)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def sampled_expectation_by_letters(state, h, shots, seed):
    """Oracle: the shot loop that picks each qubit's rotation by its letter."""
    rotations = {"X": _HADAMARD, "Y": _HADAMARD @ np.diag([1, -1j])}
    eigenvalues = parity_eigenvalues(2**state.n_qubits)
    rng = np.random.default_rng(seed)
    total = 0.0
    for term in h.terms:
        support = int("".join("0" if c == "I" else "1" for c in term.string), 2)
        if not support:
            total += term.coefficient
            continue
        rotated = state.amplitudes[None]
        for q, letter in enumerate(term.string):
            if letter in rotations:
                rotated = _apply(rotated, rotations[letter], q)
        probs = np.abs(rotated[0]) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        total += term.coefficient * float(counts @ eigenvalues[support]) / shots
    return total


@settings(max_examples=40, deadline=None)
@given(
    n_qubits=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    shots=st.integers(1, 2000),
)
def test_sampled_expectation_matches_letter_oracle_bit_for_bit(n_qubits, seed, shots):
    rng = np.random.default_rng(seed)
    h = _random_hamiltonian(rng, n_qubits)
    psi = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    state = StateVector(n_qubits, psi / np.linalg.norm(psi))
    shot_seed = int(rng.integers(2**63))
    expected = sampled_expectation_by_letters(state, h, shots, shot_seed)
    assert sampled_expectation(state, h, shots, shot_seed) == expected


def test_sampled_expectation_rejects_bad_shots():
    state = run(Circuit(4, (), 0), np.array([]))
    with pytest.raises(ValueError):
        sampled_expectation(state, CHAIN_H, shots=0, seed=0)
