import itertools
import math

import numpy as np
import pytest

from bhvqe.ansatz import AnsatzFamily, AnsatzKind, build
from bhvqe.circuits import GateKind, expectation, run
from bhvqe.errors import TooFewQubitsError
from bhvqe.hamiltonian import PAPER_CHAIN, HamiltonianLayout, assemble
from bhvqe.lattice import LatticeSpec

PI = math.pi

CHAIN_H = assemble(None, HamiltonianLayout(variant=PAPER_CHAIN), LatticeSpec(4))

ALL_NAMES = ("ansatz1", "ansatz2", "ansatz3")


def test_default_repetitions():
    assert AnsatzKind.from_name("ansatz1").reps == 1
    assert AnsatzKind.from_name("ansatz2").reps == 1
    assert AnsatzKind.from_name("ansatz3").reps == 2


def test_unknown_name_names_the_ansatz_key():
    # was Python's enum text, "'ansatz9' is not a valid AnsatzFamily"
    with pytest.raises(ValueError, match=r"^ansatz must be ansatz1, ansatz2 or ansatz3, got 'ansatz9'$"):
        AnsatzKind.from_name("ansatz9")


def test_ansatz1_four_qubits_one_rep():
    circuit = build(AnsatzKind.from_name("ansatz1", reps=1), 4)
    kinds = [g.kind for g in circuit.gates]
    assert len(circuit.gates) == 18
    assert kinds.count(GateKind.U3) == 12
    assert kinds.count(GateKind.CNOT) == 6
    assert circuit.n_params == 36


def test_ansatz1_two_qubits_gate_sequence():
    circuit = build(AnsatzKind.from_name("ansatz1", reps=1), 2)
    assert [(g.kind, g.qubits) for g in circuit.gates] == [
        (GateKind.U3, (0,)),
        (GateKind.U3, (1,)),
        (GateKind.CNOT, (0, 1)),
    ]
    assert circuit.n_params == 6


def test_ansatz2_four_qubits_one_rep():
    circuit = build(AnsatzKind.from_name("ansatz2", reps=1), 4)
    kinds = [g.kind for g in circuit.gates]
    assert kinds.count(GateKind.U3) == 6
    assert kinds.count(GateKind.CU3) == 6
    assert circuit.n_params == 36


def test_ansatz3_four_qubits_default_reps():
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    kinds = [g.kind for g in circuit.gates]
    assert len(circuit.gates) == 16
    assert kinds.count(GateKind.U3) == 8
    assert kinds.count(GateKind.RY) == 8
    assert circuit.n_params == 32


def parameter_count(kind: AnsatzKind, n_qubits: int) -> int:
    """Oracle: the closed-form slot count of an ansatz circuit."""
    if kind.family is AnsatzFamily.U3_RY:
        per_rep = 4 * n_qubits
    else:
        per_rep = 6 * (n_qubits * (n_qubits - 1) // 2)
    return kind.reps * per_rep


def test_ansatz3_single_qubit_param_count():
    assert build(AnsatzKind.from_name("ansatz3", reps=1), 1).n_params == 4


def test_parameter_count_matches_build():
    for name, n_qubits, reps in itertools.product(ALL_NAMES, (2, 3, 4), (1, 2)):
        kind = AnsatzKind.from_name(name, reps=reps)
        assert parameter_count(kind, n_qubits) == build(kind, n_qubits).n_params


def test_ansatz3_never_entangles():
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    assert all(len(g.qubits) == 1 for g in circuit.gates)
    rng = np.random.default_rng(31)
    state = run(circuit, rng.uniform(-PI, PI, circuit.n_params)).amplitudes
    tensor = state.reshape([2] * 4)
    # rank-one across every bipartition means a pure product state
    for size in (1, 2):
        for subset in itertools.combinations(range(4), size):
            rest = [q for q in range(4) if q not in subset]
            mat = np.transpose(tensor, list(subset) + rest).reshape(2**size, -1)
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[1] < 1e-12


def test_ansatz3_reaches_chain_ground_state():
    # U3(pi/2, phi, 0) sends |0> to |+> (phi = 0) or |-> (phi = pi); the second
    # repetition and every RY stay at identity with zero angles
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    theta = np.zeros(circuit.n_params)
    for q, phi in enumerate((0.0, PI, 0.0, PI)):
        theta[4 * q] = PI / 2
        theta[4 * q + 1] = phi
    energy = expectation(run(circuit, theta), CHAIN_H)
    assert abs(energy - PI / 8) < 1e-9


def test_build_is_shared_per_kind_and_width():
    kind = AnsatzKind.from_name("ansatz1")
    assert build(kind, 4) is build(AnsatzKind.from_name("ansatz1"), 4)
    assert build(kind, 3) is not build(kind, 4)
    assert build(AnsatzKind.from_name("ansatz1", reps=2), 4).n_params == 2 * build(kind, 4).n_params


def test_default_reps_is_the_family_default_spelled_out():
    # one depth is one kind, so the default depth and the same depth spelled out compile once
    assert AnsatzKind.from_name("ansatz3") == AnsatzKind.from_name("ansatz3", reps=2)
    assert build(AnsatzKind.from_name("ansatz3"), 4) is build(AnsatzKind.from_name("ansatz3", reps=2), 4)


def test_width_checks():
    with pytest.raises(TooFewQubitsError):
        build(AnsatzKind.from_name("ansatz1"), 1)
    with pytest.raises(TooFewQubitsError):
        build(AnsatzKind.from_name("ansatz2"), 1)
    with pytest.raises(TooFewQubitsError):
        build(AnsatzKind.from_name("ansatz3"), 0)


def test_kind_validation():
    with pytest.raises(ValueError):
        AnsatzKind.from_name("ansatz9")
    with pytest.raises(ValueError):
        AnsatzKind.from_name("ansatz1", reps=0)


@pytest.mark.parametrize("reps", [True, 2.0, 1.5, "2"])
def test_kind_requires_integer_reps(reps):
    # True would build one repetition, 2.0 fail only inside build
    with pytest.raises(TypeError):
        AnsatzKind.from_name("ansatz3", reps=reps)
