import math
import tracemalloc
from itertools import permutations

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
    batch_expectation,
    MAX_SHOTS,
    N_PARAM_SLOTS,
    N_QUBITS_USED,
    expectation,
    run,
    run_batch,
    sampled_expectation,
)
from bhvqe.errors import ParamLengthMismatchError, QubitMismatchError
from bhvqe.hamiltonian import (
    DISJOINT,
    PAPER_CHAIN,
    HamiltonianLayout,
    assemble,
    exact_ground_energy,
    parity_eigenvalues,
    to_matrix,
)
from bhvqe.lattice import LatticeSpec
from pauli_helpers import from_letters, letter_terms

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


def _apply(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """A (B, 2, 2) or (2, 2) matrix on one qubit of every row of a (B, 2^m) state."""
    batch, dim = state.shape
    block = state.reshape(batch, 2**qubit, 2, dim >> (qubit + 1))
    return np.matmul(matrix.reshape(-1, 1, 2, 2), block).reshape(batch, dim)


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
    offset = 0
    for g in circuit.gates:
        angles = params[offset:offset + N_PARAM_SLOTS[g.kind]]
        offset += len(angles)
        if g.kind is GateKind.U3:
            state = _apply_1q(state, _u3_reference(*angles), g.qubits[0])
        elif g.kind is GateKind.RY:
            state = _apply_1q(state, _u3_reference(angles[0], 0.0, 0.0), g.qubits[0])
        elif g.kind is GateKind.CNOT:
            state = _apply_controlled(state, np.array([[0, 1], [1, 0]]), *g.qubits)
        else:
            state = _apply_controlled(state, _u3_reference(*angles), *g.qubits)
    return state.reshape(-1)


def loop_run_batch(circuit, params):
    """The kernel with one gather per prefix layer and a loop-form kron, kept as the bitwise oracle.

    run_batch's one prefix gather and one ordered product must give the same
    bits; a product in another order, or started from 1 + 0j, would not.
    """
    program = circuit.program
    batch, dim = params.shape[0], 2**circuit.n_qubits
    table = np.concatenate([params.T, np.zeros((1, batch))]).take(program.angle_slots, axis=0)
    table[0] /= 2
    table[3] += table[1]
    cos, sin = np.cos(table), np.sin(table)
    factors = np.concatenate([cos[:1], -sin[:1], sin[:1], cos[:1]])
    cos[0], sin[0] = 1, 0
    entries = np.empty(table.shape, dtype=complex)
    np.multiply(factors, cos, out=entries.real)
    np.multiply(factors, sin, out=entries.imag)
    entries = entries.reshape(program.angle_slots.size, batch)
    columns = entries.take(program.prefix[0, :, 0], axis=0)
    for use in program.prefix[1:]:
        terms = entries.take(use, axis=0)
        terms *= columns
        columns = terms.sum(axis=1)
    rows = columns[:, 0] if program.touched else np.ones((1, batch), dtype=complex)
    for t in range(1, len(program.touched)):
        rows = (rows[:, None] * columns[:, t]).reshape(2 << t, batch)
    state = np.zeros((dim, batch), dtype=complex)
    state[program.product_indices] = rows
    for use, source in zip(program.coef_index, program.sources):
        terms = entries.take(use, axis=0)
        terms *= state.take(source, axis=0)
        state = terms[0] + terms[1]
    if program.final is not None:
        state = state.take(program.final, axis=0)
    return np.ascontiguousarray(state.T)


def assert_run_batch_equals_oracle_bitwise(circuit, params):
    states = run_batch(circuit, params)
    expected = loop_run_batch(circuit, params)
    assert states.shape == expected.shape
    assert states.tobytes() == expected.tobytes()
    # each row equals that row run alone, as vqe_lockstep relies on
    for row, theta in zip(states, params):
        assert row.tobytes() == run_batch(circuit, theta[None]).tobytes()


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
    """One U3 per qubit."""
    gates = tuple(Gate(GateKind.U3, (q,)) for q in range(n_qubits))
    return Circuit(n_qubits, gates)


# The U3 builder the kernel used before its real-trig entry table, kept as the oracle:
# maps (theta, phi, lam) onto the phases (0, lam, phi, phi + lam) of U3's entries.
_PHASE_MIX = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]], dtype=float)


def _u3_matrices(angles: np.ndarray) -> np.ndarray:
    """U3 matrices, shape S + (2, 2), for (theta, phi, lam) angles of shape S + (3,)."""
    half = angles[..., :1] / 2
    c, s = np.cos(half), np.sin(half)
    entries = np.concatenate([c, -s, s, c], axis=-1) * np.exp(1j * (angles @ _PHASE_MIX))
    return entries.reshape(angles.shape[:-1] + (2, 2))


def u3_matrix(theta, phi, lam):
    """The oracle's U3 matrix for one angle triple."""
    return _u3_matrices(np.array([theta, phi, lam], dtype=float))


ONE_U3 = Circuit(1, (Gate(GateKind.U3, (0,)),))


def kernel_column(theta, phi, lam):
    """Column 0 of U3(theta, phi, lam) as the kernel builds it: a one-gate run_batch."""
    return run_batch(ONE_U3, np.array([[theta, phi, lam]]))[0]


def test_u3_special_angles():
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    for angles, expected in (
        ((0, 0, 0), np.eye(2)),
        ((PI, 0, PI), np.array([[0, 1], [1, 0]])),
        ((PI / 2, 0, PI), hadamard),
    ):
        np.testing.assert_allclose(u3_matrix(*angles), expected, atol=1e-15)
        np.testing.assert_allclose(kernel_column(*angles), expected[:, 0], atol=1e-15)


def test_u3_unitary_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta, phi, lam = rng.uniform(-2 * PI, 2 * PI, 3)
        u = u3_matrix(theta, phi, lam)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.norm(kernel_column(theta, phi, lam)) - 1) < 1e-14


def test_ry_is_real_u3_slice():
    # RY is U3(theta, 0, 0): a one-gate RY circuit gives the real first column of that matrix
    theta = 0.7
    state = run_batch(Circuit(1, (Gate(GateKind.RY, (0,)),)), np.array([[theta]]))[0]
    np.testing.assert_allclose(state, u3_matrix(theta, 0.0, 0.0)[:, 0], atol=1e-15)
    np.testing.assert_allclose(u3_matrix(theta, 0.0, 0.0).imag, np.zeros((2, 2)), atol=1e-15)
    assert np.all(state.imag == 0)


# Qubit 0 is set by RY(pi), whose |1> amplitude sin(pi / 2) is exactly 1; a CNOT then also
# sets qubit 1, so the CU3 on qubit 1 reads exactly column 0 (without it) or 1 (with it).
_SET = Gate(GateKind.RY, (0,))
_CU3 = Gate(GateKind.CU3, (0, 1))
CU3_COLUMN = {
    0: Circuit(2, (_SET, _CU3)),
    1: Circuit(2, (_SET, Gate(GateKind.CNOT, (0, 1)), _CU3)),
}

u3_angles = st.one_of(
    st.sampled_from([0.0, -0.0, PI, -PI, PI / 2, -PI / 2, 1e3, -1e3]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(theta=u3_angles, phi=u3_angles, lam=u3_angles)
def test_one_gate_circuits_match_u3_oracle_bit_for_bit(theta, phi, lam):
    # The kernel builds each entry as (cos, sin) of its phase times a real factor, the oracle
    # as that factor times numpy's complex exp of i * phase. They agree bit for bit where
    # exp(i p) == cos p + i sin p exactly, the platform property the pinned VQE goldens need.
    u = u3_matrix(theta, phi, lam)
    assert np.array_equal(kernel_column(theta, phi, lam), u[:, 0])
    ry = run_batch(Circuit(1, (Gate(GateKind.RY, (0,)),)), np.array([[theta]]))[0]
    assert np.array_equal(ry, u3_matrix(theta, 0.0, 0.0)[:, 0])
    for column, circuit in CU3_COLUMN.items():
        state = run_batch(circuit, np.array([[PI, theta, phi, lam]]))[0]
        assert np.array_equal(state[2:], u[:, column])


def test_run_empty_circuit():
    state = run(Circuit(3, ()), np.array([]))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_run_cnot_flips_target():
    # X on qubit 0, then CNOT(0 -> 1): |00> -> |10> -> |11>
    gates = (Gate(GateKind.U3, (0,)), Gate(GateKind.CNOT, (0, 1)))
    state = run(Circuit(2, gates), np.array([PI, 0.0, PI]))
    np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0, 0, 0, 1], atol=1e-15)


def test_run_hadamard_layer():
    circuit = single_qubit_layer(4)
    params = np.tile([PI / 2, 0.0, PI], 4)
    state = run(circuit, params)
    np.testing.assert_allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)


def test_run_controlled_u3_acts_only_on_control_one():
    # qubit 0 stays |0>, so CU3 must leave |00> alone
    gates = (Gate(GateKind.CU3, (0, 1)),)
    state = run(Circuit(2, gates), np.array([1.1, 0.4, -0.2]))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)
    # with the control flipped, the target picks up the U3 column
    gates = (Gate(GateKind.U3, (0,)), Gate(GateKind.CU3, (0, 1)))
    state = run(Circuit(2, gates), np.array([PI, 0.0, PI, 1.1, 0.4, -0.2]))
    expected_target = u3_matrix(1.1, 0.4, -0.2) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(state.amplitudes[2:], expected_target, atol=1e-14)


def test_run_rejects_wrong_param_count():
    with pytest.raises(ParamLengthMismatchError):
        run(single_qubit_layer(2), np.zeros(5))


def test_gate_and_circuit_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (1, 1))
    with pytest.raises(ValueError, match=r"^cnot acts on 2 qubit\(s\)$"):
        Gate(GateKind.CNOT, (0,))
    with pytest.raises(ValueError):
        Circuit(1, (Gate(GateKind.U3, (1,)),))
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
        Gate(GateKind.U3, (0,)),
        Gate(GateKind.U3, (2,)),
        Gate(GateKind.CU3, (2, 0)),
        Gate(GateKind.CNOT, (1, 0)),
        Gate(GateKind.CNOT, (2, 1)),
    )
    circuit = Circuit(3, gates)
    params = np.random.default_rng(31).uniform(-PI, PI, (4, 9))
    for row, theta in zip(run_batch(circuit, params), params):
        np.testing.assert_allclose(row, reference_run(circuit, theta), rtol=0, atol=1e-12)


@st.composite
def random_circuits(draw):
    """0-12 gates of every kind on random distinct qubits, controls above and below targets."""
    n_qubits = draw(st.integers(1, 5))
    kinds = [GateKind.U3, GateKind.RY] + ([GateKind.CNOT, GateKind.CU3] if n_qubits > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        qubits = tuple(draw(st.permutations(range(n_qubits)))[: N_QUBITS_USED[kind]])
        gates.append(Gate(kind, qubits))
    return Circuit(n_qubits, tuple(gates))


@settings(max_examples=80, deadline=None)
@given(circuit=random_circuits(), batch=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_run_batch_matches_reference_on_random_circuits(circuit, batch, seed):
    params = np.random.default_rng(seed).uniform(-2 * PI, 2 * PI, (batch, circuit.n_params))
    states = run_batch(circuit, params)
    assert states.shape == (batch, 2**circuit.n_qubits)
    for row, theta in zip(states, params):
        np.testing.assert_allclose(row, reference_run(circuit, theta), rtol=0, atol=1e-12)
    assert_run_batch_equals_oracle_bitwise(circuit, params)


@pytest.mark.parametrize("family,n_qubits", FAMILY_WIDTHS)
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_run_batch_equals_loop_oracle_bit_for_bit(family, n_qubits, batch):
    circuit = build(AnsatzKind.from_name(family), n_qubits)
    rng = np.random.default_rng([n_qubits, batch])
    assert_run_batch_equals_oracle_bitwise(
        circuit, rng.uniform(-2 * PI, 2 * PI, (batch, circuit.n_params)))


@pytest.mark.parametrize("layers", [1, 2])
def test_real_product_states_keep_the_oracles_signed_zeros(layers):
    # U3(theta, -0.0, -0.0) layers give real states whose imaginary parts are
    # +0 or -0. One layer feeds the kron 0.5 - 0j-like columns, which a product
    # started from 1 + 0j would turn to +0j; two layers also combine the prefix,
    # where sum(axis=1) starts from +0 and a plain a + b would keep a -0j
    gates = tuple(Gate(GateKind.U3, (g % 3,)) for g in range(3 * layers))
    params = np.random.default_rng(4).uniform(-2 * PI, 2 * PI, (16, 9 * layers))
    params[:, 1::3] = params[:, 2::3] = -0.0
    assert_run_batch_equals_oracle_bitwise(Circuit(3, gates), params)


def _interleaved_circuit():
    """Qubit 1's prefix gates sit between gates on qubits 0 and 2; CU3(1 -> 2) cuts it."""
    u3, ry = GateKind.U3, GateKind.RY
    gates = (
        Gate(u3, (1,)),
        Gate(u3, (0,)),
        Gate(ry, (1,)),
        Gate(ry, (2,)),
        Gate(u3, (1,)),
        Gate(GateKind.CU3, (1, 2)),
        Gate(u3, (1,)),  # after qubit 1's entangler: a later step
        Gate(ry, (0,)),  # qubit 0 is not entangled yet: still its prefix
        Gate(GateKind.CNOT, (2, 0)),
        Gate(ry, (2,)),
        Gate(u3, (0,)),
    )
    return Circuit(4, gates)


def test_prefix_gates_interleaved_with_other_qubits_then_cut_by_an_entangler():
    circuit = _interleaved_circuit()
    program = circuit.program
    assert program.touched == (0, 1, 2)
    # qubit 1 has three prefix gates, qubit 0 two and qubit 2 one: both are padded
    assert program.prefix.shape == (3, 2, 2, 3)
    # CU3, then the later U3 on qubit 1, RY and U3: the CNOT folds into the RY's sources
    assert np.shape(program.coef_index) == np.shape(program.sources) == (4, 2, 16)
    assert program.final is None
    params = np.random.default_rng(8).uniform(-2 * PI, 2 * PI, (3, circuit.n_params))
    for row, theta in zip(run_batch(circuit, params), params):
        np.testing.assert_allclose(row, reference_run(circuit, theta), rtol=0, atol=1e-12)


def test_qubits_without_gates_stay_zero():
    circuit = _interleaved_circuit()  # no gate acts on qubit 3
    states = run_batch(circuit, np.random.default_rng(2).uniform(-PI, PI, (4, circuit.n_params)))
    assert np.all(states[:, 1::2] == 0)
    # ansatz2's only prefix is its first U3 on qubit 0: the other qubits start at exactly 0
    program = build(AnsatzKind.from_name("ansatz2"), 4).program
    assert program.touched == (0,)
    np.testing.assert_array_equal(program.product_indices, [0, 8])


def test_program_is_built_once_per_circuit():
    circuit = build(AnsatzKind.from_name("ansatz1"), 4)
    program = circuit.program
    run_batch(circuit, np.zeros((2, circuit.n_params)))
    assert circuit.program is program
    # the prefix takes the first U3 on each qubit; the other 8 are the steps, and
    # the 6 CNOTs fold into their sources and the final permutation
    assert program.touched == (0, 1, 2, 3)
    assert np.shape(program.coef_index) == np.shape(program.sources) == (8, 2, 16)
    assert program.final is not None


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_cnot_steps_permute_every_basis_state_exactly(n_qubits):
    pairs = list(permutations(range(n_qubits), 2))
    circuit = Circuit(n_qubits, tuple(Gate(GateKind.CNOT, pair) for pair in pairs))
    dim = 2**n_qubits
    basis = np.eye(dim, dtype=complex)  # row k is |k>
    assert circuit.program.coef_index == circuit.program.sources == ()
    states = basis[:, circuit.program.final]
    for k in range(dim):
        bits = [k >> (n_qubits - 1 - q) & 1 for q in range(n_qubits)]
        for control, target in pairs:
            bits[target] ^= bits[control]
        assert np.all(states[k] == basis[int("".join(map(str, bits)), 2)])


def test_cu3_with_control_at_zero_leaves_the_state_unchanged():
    # qubit 0 stays |0>: the CU3 reads the identity on every nonzero amplitude
    gates = (
        Gate(GateKind.U3, (1,)),
        Gate(GateKind.U3, (2,)),
        Gate(GateKind.CNOT, (1, 2)),
        Gate(GateKind.U3, (1,)),
        Gate(GateKind.RY, (2,)),
    )
    without = Circuit(3, gates)
    controlled = Gate(GateKind.CU3, (0, 2))
    with_cu3 = Circuit(3, gates[:4] + (controlled,) + gates[4:])
    params = np.random.default_rng(5).uniform(-2 * PI, 2 * PI, (6, 13))
    assert np.all(run_batch(with_cu3, params) == run_batch(without, params[:, [*range(9), 12]]))


FIXED_CIRCUITS = {
    "starts with a CNOT": Circuit(3, (
        Gate(GateKind.CNOT, (0, 2)),
        Gate(GateKind.U3, (2,)),
        Gate(GateKind.U3, (0,)),
        Gate(GateKind.CU3, (2, 1)),
    )),
    "ends with two CNOTs": Circuit(3, (
        Gate(GateKind.U3, (0,)),
        Gate(GateKind.U3, (1,)),
        Gate(GateKind.CNOT, (0, 1)),
        Gate(GateKind.RY, (1,)),
        Gate(GateKind.CNOT, (1, 2)),
        Gate(GateKind.CNOT, (2, 0)),
    )),
    "CU3 control below its target": Circuit(4, (
        Gate(GateKind.U3, (3,)),
        Gate(GateKind.U3, (1,)),
        Gate(GateKind.CU3, (3, 1)),
        Gate(GateKind.CNOT, (1, 0)),
        Gate(GateKind.CU3, (2, 0)),
        Gate(GateKind.U3, (3,)),
    )),
}


@pytest.mark.parametrize("name", FIXED_CIRCUITS)
def test_fixed_circuits_match_reference(name):
    circuit = FIXED_CIRCUITS[name]
    params = np.random.default_rng(17).uniform(-2 * PI, 2 * PI, (5, circuit.n_params))
    for row, theta in zip(run_batch(circuit, params), params):
        np.testing.assert_allclose(row, reference_run(circuit, theta), rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", ["ansatz1", "ansatz2"])
def test_run_batch_peak_memory_is_a_few_results(family):
    # the steps gather per step: no array of every step's coefficients at once,
    # and the angle and trig tables are freed before the steps run (~7x measured;
    # ~11x if they are kept)
    circuit = build(AnsatzKind.from_name(family, reps=1), 6)
    params = np.random.default_rng(3).uniform(-PI, PI, (2048, circuit.n_params))
    circuit.program  # compiled outside the measurement
    tracemalloc.start()
    try:
        states = run_batch(circuit, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * states.nbytes


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
    return from_letters(n_qubits, [(rng.normal(), s) for s in sorted(strings)])


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
            c * np.vdot(psi, apply_pauli_string(psi, s)) for c, s in letter_terms(h)
        )
        direct = np.vdot(psi, dense @ psi).real
        exact = expectation(StateVector(n_qubits, psi), h)
        assert abs(exact - by_terms) < 1e-12
        assert abs(exact - direct) < 1e-12
        assert abs(exact - value) < 1e-12


LAYOUTS = {
    "paper-chain": CHAIN_H,
    "disjoint-dims2-N8": assemble(None, HamiltonianLayout(variant=DISJOINT, dims=2), LatticeSpec(8)),
    "disjoint-N64": assemble(None, HamiltonianLayout(variant=DISJOINT, dims=1), LatticeSpec(64)),
}


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(sorted(LAYOUTS)), batch=st.integers(1, 64), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_a_rows_energy_does_not_depend_on_its_batch(layout, batch, data, seed):
    # vqe_lockstep slices one contraction per step, so each run's energies must
    # equal, bit for bit, the values its rows would get alone
    h = LAYOUTS[layout]
    row = data.draw(st.integers(0, batch - 1), label="row")
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(batch, 2**h.n_qubits)) + 1j * rng.normal(size=(batch, 2**h.n_qubits))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    dense = to_matrix(h)
    value = batch_expectation(states, dense)[row].hex()
    assert batch_expectation(states[row : row + 1], dense)[0].hex() == value
    assert expectation(StateVector(h.n_qubits, states[row]), h).hex() == value


def test_apply_pauli_string_basics():
    np.testing.assert_allclose(apply_pauli_string(np.array([1.0, 0.0]), "X"), [0, 1], atol=1e-15)
    np.testing.assert_allclose(apply_pauli_string(np.array([0.0, 1.0]), "Z"), [0, -1], atol=1e-15)
    np.testing.assert_allclose(apply_pauli_string(np.array([1.0, 0.0]), "Y"), [0, 1j], atol=1e-15)


def test_expectation_z_on_zero_state():
    h = from_letters(4, [(1.0, "ZIII")])
    state = run(Circuit(4, ()), np.array([]))
    assert abs(expectation(state, h) - 1.0) < 1e-15


def test_expectation_x_on_zero_state():
    h = from_letters(1, [(1.0, "X")])
    state = run(Circuit(1, ()), np.array([]))
    assert abs(expectation(state, h)) < 1e-15


def test_expectation_alternating_product_state_on_chain():
    # |+-+-> diagonalizes every X-string term; its energy is the ground value pi/8
    circuit = single_qubit_layer(4)
    params = np.array([PI / 2, 0, 0, PI / 2, PI, 0, PI / 2, 0, 0, PI / 2, PI, 0], dtype=float)
    state = run(circuit, params)
    assert abs(expectation(state, CHAIN_H) - PI / 8) < 1e-12


def test_expectation_qubit_mismatch():
    state = run(Circuit(2, ()), np.array([]))
    with pytest.raises(QubitMismatchError):
        expectation(state, CHAIN_H)
    # batch_expectation checks its own rows: a 1-D state, 8 columns against 16
    dense = to_matrix(CHAIN_H)
    for amplitudes in (run(Circuit(4, ()), np.array([])).amplitudes, np.ones((2, 8), dtype=complex)):
        with pytest.raises(QubitMismatchError):
            batch_expectation(amplitudes, dense)


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


@pytest.mark.parametrize("scale", [1e-6, 1.0, 2.9e8, 1e14, 1e60])
def test_imaginary_residue_is_judged_at_the_matrix_scale(scale):
    # rounding leaves a residue in proportion to H: at one solar mass (E0 ~ 2.9e8)
    # an absolute 1e-10 bar rejected most exact chain energies
    circuit = build(AnsatzKind.from_name("ansatz1"), 4)
    states = run_batch(circuit, np.random.default_rng(3).uniform(-PI, PI, (50, circuit.n_params)))
    dense = to_matrix(CHAIN_H)
    np.testing.assert_allclose(batch_expectation(states, scale * dense),
                               scale * batch_expectation(states, dense), rtol=1e-13, atol=0)
    # a real anti-Hermitian part still raises; below unit scale the absolute bar 1e-10 judges it
    leak = 1e-6j * max(scale, 1.0) * np.eye(16)
    with pytest.raises(ValueError, match="imaginary residue"):
        batch_expectation(states, scale * dense + leak)


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
    estimate = sampled_expectation(state.amplitudes[None], CHAIN_H, 10**6, np.random.default_rng(42))[0]
    # every outcome energy lies within the off-identity weight 15*pi/16 of the
    # offset, so 3 sigma < 0.01
    assert abs(estimate - exact) < 0.01
    assert estimate != exact


def test_sampled_expectation_exact_on_eigenstate():
    circuit = single_qubit_layer(4)
    params = np.array([PI / 2, 0, 0, PI / 2, PI, 0, PI / 2, 0, 0, PI / 2, PI, 0], dtype=float)
    state = run(circuit, params)
    rows = np.stack([state.amplitudes] * 3)
    for shots in (1, 10, 1000):
        estimates = sampled_expectation(rows, CHAIN_H, shots, np.random.default_rng(shots))
        np.testing.assert_allclose(estimates, PI / 8, rtol=0, atol=1e-9)


def test_sampled_expectation_deterministic_by_seed():
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    state = run(circuit, np.linspace(-1.0, 1.0, circuit.n_params))
    rows = np.stack([state.amplitudes] * 3)
    first, again, other = (
        sampled_expectation(rows, CHAIN_H, 500, np.random.default_rng(seed)) for seed in (7, 7, 8)
    )
    np.testing.assert_array_equal(first, again)
    assert np.all(first != other)
    # equal states in one call take successive draws, not one shared draw
    assert len(set(first.tolist())) == 3


def test_sampled_expectation_draws_rows_in_order_from_one_generator():
    # with one setting, one call over B rows is B one-row calls on the same generator
    circuit = build(AnsatzKind.from_name("ansatz1"), 4)
    rows = run_batch(circuit, np.random.default_rng(4).uniform(-PI, PI, (5, circuit.n_params)))
    together, alone = np.random.default_rng(9), np.random.default_rng(9)
    estimates = sampled_expectation(rows, CHAIN_H, 300, together)
    for row, estimate in zip(rows, estimates):
        assert sampled_expectation(row[None], CHAIN_H, 300, alone)[0] == estimate
    assert together.bit_generator.state == alone.bit_generator.state


def test_parity_eigenvalues_match_bit_count_loop():
    for n_qubits in range(1, 5):
        dim = 2**n_qubits
        table = parity_eigenvalues(dim)
        for mask in range(dim):
            loop = np.array([1.0 - 2.0 * (bin(i & mask).count("1") & 1) for i in range(dim)])
            np.testing.assert_array_equal(table[mask], loop)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def sampled_expectation_by_letters(states, h, shots, rng):
    """Oracle: group the terms by their letters, rotate each group by its letters, draw row by row.

    A term joins the first group whose letters agree with its own wherever
    neither is I; the group then takes the term's letters where it had I.
    """
    rotations = {"X": _HADAMARD, "Y": _HADAMARD @ np.diag([1, -1j])}
    groups = []  # [letters, term indices]
    offset = 0.0
    terms = letter_terms(h)
    for i, (c, string) in enumerate(terms):
        if set(string) == {"I"}:
            offset += c
            continue
        for group in groups:
            if all("I" in (a, b) or a == b for a, b in zip(group[0], string)):
                group[0] = "".join(b if a == "I" else a for a, b in zip(group[0], string))
                group[1].append(i)
                break
        else:
            groups.append([string, [i]])
    eigenvalues = parity_eigenvalues(2**h.n_qubits)
    totals = np.full(len(states), offset)
    for letters, members in groups:
        rotated = states
        for q, letter in enumerate(letters):
            if letter in rotations:
                rotated = _apply(rotated, rotations[letter], q)
        probs = np.abs(rotated) ** 2
        probs = probs / probs.sum(axis=1, keepdims=True)
        counts = np.array([rng.multinomial(shots, p) for p in probs])
        supports = [int("".join("0" if c == "I" else "1" for c in terms[i][1]), 2) for i in members]
        weights = np.array([terms[i][0] for i in members]) @ eigenvalues[supports]
        totals += counts @ weights / shots
    return totals


def _born_probabilities(states, setting, n_qubits):
    """Outcome probabilities of each row measured in one setting's basis."""
    rotations = {0: _HADAMARD, 1: _HADAMARD @ np.diag([1, -1j])}
    for q in range(n_qubits):
        bit = n_qubits - 1 - q
        if setting.x >> bit & 1:
            states = _apply(states, rotations[setting.z >> bit & 1], q)
    return np.abs(states) ** 2


def _random_states(rng, batch, n_qubits):
    psi = rng.normal(size=(batch, 2**n_qubits)) + 1j * rng.normal(size=(batch, 2**n_qubits))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(
    n_qubits=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    shots=st.integers(1, 2000),
    batch=st.integers(1, 8),
)
def test_sampled_expectation_matches_letter_oracle_bit_for_bit(n_qubits, seed, shots, batch):
    rng = np.random.default_rng(seed)
    h = _random_hamiltonian(rng, n_qubits)
    psi = _random_states(rng, batch, n_qubits)
    ours, oracle = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    estimates = sampled_expectation(psi, h, shots, ours)
    assert estimates.shape == (batch,)
    np.testing.assert_array_equal(estimates, sampled_expectation_by_letters(psi, h, shots, oracle))
    assert ours.bit_generator.state == oracle.bit_generator.state


class _RecordingGenerator:
    """A generator that keeps each multinomial draw's probabilities and counts."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def multinomial(self, n, pvals):
        counts = self.rng.multinomial(n, pvals)
        self.draws.append((np.array(pvals), counts))
        return counts


@settings(max_examples=60, deadline=None)
@given(
    n_qubits=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    shots=st.integers(1, 2000),
    batch=st.integers(0, 20),
    letters=st.sampled_from(["IXYZ", "IZ"]),
)
def test_row_draws_equal_one_two_dimensional_multinomial(n_qubits, seed, shots, batch, letters):
    rng = np.random.default_rng(seed)
    strings = {"".join(rng.choice(list(letters), n_qubits)) for _ in range(6)}
    h = from_letters(n_qubits, [(rng.normal(), s) for s in sorted(strings)])
    psi = _random_states(rng, batch, n_qubits)
    # a Z-only setting measures unrotated rows, so zero amplitudes are zero probabilities
    psi[rng.random(psi.shape) < 0.3] = 0.0
    psi[:, 0] += 1.0
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    recorder, two_d = _RecordingGenerator(seed + 1), np.random.default_rng(seed + 1)
    estimates = sampled_expectation(psi, h, shots, recorder)
    assert estimates.shape == (batch,)
    assert len(recorder.draws) == batch * len(h.settings)
    expected = np.full(batch, h.identity_offset)
    for k, setting in enumerate(h.settings):
        rows = recorder.draws[k * batch:(k + 1) * batch]
        probs = np.array([p for p, _ in rows]).reshape(batch, 2**n_qubits)
        counts = two_d.multinomial(shots, probs)
        np.testing.assert_array_equal(np.array([c for _, c in rows]).reshape(counts.shape), counts)
        expected += counts @ setting.weights / shots
    np.testing.assert_array_equal(estimates, expected)
    assert recorder.rng.bit_generator.state == two_d.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_settings_closed_form_mean_is_the_exact_expectation(n_qubits, seed):
    rng = np.random.default_rng(seed)
    h = _random_hamiltonian(rng, n_qubits)
    psi = _random_states(rng, 4, n_qubits)
    mean = h.identity_offset + sum(
        _born_probabilities(psi, s, n_qubits) @ s.weights for s in h.settings
    )
    np.testing.assert_allclose(mean, batch_expectation(psi, to_matrix(h)), rtol=0, atol=1e-12)


def test_grouped_variance_at_equal_budget_is_at_most_per_term():
    # one setting reads all 7 chain terms; per-term sampling would split the
    # same shots x settings budget over 7 separate measurements
    (setting,) = CHAIN_H.settings
    terms = [(c, s) for c, s in letter_terms(CHAIN_H) if set(s) != {"I"}]
    circuit = build(AnsatzKind.from_name("ansatz1"), 4)
    states = run_batch(circuit, np.random.default_rng(31).uniform(-PI, PI, (50, circuit.n_params)))
    shots = 1000
    probs = _born_probabilities(states, setting, 4)
    grouped = (probs @ setting.weights**2 - (probs @ setting.weights) ** 2) / shots
    per_term_shots = shots * len(CHAIN_H.settings) / len(terms)
    means = [
        batch_expectation(states, to_matrix(from_letters(4, [(1.0, s)])))
        for _, s in terms
    ]
    per_term = sum(c**2 * (1 - m**2) for (c, _), m in zip(terms, means)) / per_term_shots
    assert np.all(grouped <= per_term + 1e-12)
    assert np.median(grouped / per_term) < 0.5


def test_single_setting_estimates_respect_the_ground_energy():
    # every outcome of the one chain setting reads an eigenvalue of H
    ground = exact_ground_energy(CHAIN_H)
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    rng = np.random.default_rng(12)
    states = run_batch(circuit, rng.uniform(-PI, PI, (200, circuit.n_params)))
    for shots in (1, 3, 50, 1000):
        estimates = sampled_expectation(states, CHAIN_H, shots, rng)
        assert np.all(estimates >= ground - 1e-12)


def test_sampled_expectation_rejects_bad_shots():
    rows = run_batch(Circuit(4, ()), np.zeros((2, 0)))
    for shots in (0, -1, MAX_SHOTS + 1):
        with pytest.raises(ValueError):
            sampled_expectation(rows, CHAIN_H, shots, np.random.default_rng(0))
    # 2.5 returned an energy, True ran one shot
    for shots in (2.5, 2.0, True):
        with pytest.raises(TypeError):
            sampled_expectation(rows, CHAIN_H, shots, np.random.default_rng(0))
    assert np.all(np.isfinite(sampled_expectation(rows, CHAIN_H, np.int64(3), np.random.default_rng(0))))
    assert np.all(np.isfinite(sampled_expectation(rows, CHAIN_H, MAX_SHOTS, np.random.default_rng(0))))


def test_sampled_expectation_rejects_wrong_width():
    rows = run_batch(Circuit(3, ()), np.zeros((2, 0)))
    rng = np.random.default_rng(0)
    with pytest.raises(QubitMismatchError):
        sampled_expectation(rows, CHAIN_H, 10, rng)
    with pytest.raises(QubitMismatchError):
        sampled_expectation(run_batch(Circuit(4, ()), np.zeros((1, 0)))[0], CHAIN_H, 10, rng)
