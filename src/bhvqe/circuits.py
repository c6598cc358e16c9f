"""Statevector simulation of parameterized circuits and Pauli expectation values.

States are 2^n complex vectors; qubit 0 is the leftmost tensor factor, so it
owns the most significant bit of a basis-state index. One kernel simulates
every circuit: `run_batch` takes B parameter vectors as a (B, n_params)
array and returns the (B, 2^n) amplitudes. Each circuit is compiled once
into a `Program` (`Circuit.program`). The single-qubit gates on a qubit
before its first two-qubit gate act on |0>, so that qubit starts as one
2-vector, and the state after all these prefixes is their product state.
The remaining gates run in order: a gate on qubit q views the batch as
(B, 2^q, 2, 2^(n-q-1)) and multiplies axis 2 by its 2x2 matrix, CU3 does the
same on the control = 1 half, and CNOT is one gather along a permutation of
the basis indices. The 2x2 matrices of all U3, RY and CU3 gates are built
for the whole batch in one vectorized step. `run` is the batch of one.
Exact expectation values contract a batch of states with the dense
Hamiltonian matrix. Shot-noise estimates take the same batch: it is rotated
once into each measurement setting of the Hamiltonian, a group of
qubit-wise-commuting terms, and every row samples its Born distribution
from the caller's generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, reduce

import numpy as np

from .errors import ParamLengthMismatchError, QubitMismatchError
from .hamiltonian import PauliHamiltonian, to_matrix

EXPECTATION_IMAG_TOL = 1e-10


class GateKind(Enum):
    U3 = "u3"
    RY = "ry"
    CNOT = "cnot"
    CU3 = "cu3"


N_PARAM_SLOTS = {GateKind.U3: 3, GateKind.RY: 1, GateKind.CNOT: 0, GateKind.CU3: 3}
N_QUBITS_USED = {GateKind.U3: 1, GateKind.RY: 1, GateKind.CNOT: 2, GateKind.CU3: 2}


@dataclass(frozen=True)
class Gate:
    """One gate instance: kind, target qubit(s), and its parameter-slot indices.

    Two-qubit gates list the control qubit first.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    param_slots: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.qubits) != N_QUBITS_USED[self.kind]:
            raise ValueError(f"{self.kind.value} acts on {N_QUBITS_USED[self.kind]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if len(self.param_slots) != N_PARAM_SLOTS[self.kind]:
            raise ValueError(f"{self.kind.value} takes {N_PARAM_SLOTS[self.kind]} parameter slot(s)")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n_qubits with n_params free parameter slots."""

    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate qubit {q} out of range for {self.n_qubits} qubits")
            for s in g.param_slots:
                if not 0 <= s < self.n_params:
                    raise ValueError(f"parameter slot {s} out of range")
                if s in seen:
                    raise ValueError(f"parameter slot {s} referenced twice")
                seen.add(s)
        if len(seen) != self.n_params:
            raise ValueError("every parameter slot must be referenced exactly once")

    @cached_property
    def program(self) -> Program:
        """The circuit compiled for run_batch, built once per circuit."""
        n, zero = self.n_qubits, self.n_params
        slots: list[tuple[int, ...]] = []
        prefixes: dict[int, list[int]] = {}
        entangled: set[int] = set()
        steps: list[np.ndarray | tuple[int, ...]] = []
        index = np.arange(2**n)
        for g in self.gates:
            if g.kind is GateKind.CNOT:
                entangled.update(g.qubits)
                cbit, tbit = (1 << (n - 1 - q) for q in g.qubits)
                steps.append(np.where(index & cbit, index ^ tbit, index))
                continue
            matrix = len(slots)
            slots.append((g.param_slots + (zero,) * 3)[:3])  # RY is U3(theta, 0, 0)
            if g.kind is GateKind.CU3:
                entangled.update(g.qubits)
                control, target = g.qubits
                # the control = 1 half is a state of the other qubits, which keep their order
                steps.append((matrix, control, target - (target > control)))
            elif g.qubits[0] in entangled:
                steps.append((matrix, g.qubits[0]))
            else:
                prefixes.setdefault(g.qubits[0], []).append(matrix)
        touched = tuple(sorted(prefixes))
        length = max(map(len, prefixes.values()), default=1)
        identity = len(slots)  # U3(0, 0, 0), appended only if some prefix is short
        if any(len(p) < length for p in prefixes.values()):
            slots.append((zero,) * 3)
        prefix = [prefixes[q] + [identity] * (length - len(prefixes[q])) for q in touched]
        product_indices = np.zeros(1, dtype=int)
        for q in touched:
            product_indices = (product_indices[:, None] + [0, 1 << (n - 1 - q)]).reshape(-1)
        return Program(
            np.array(slots, dtype=int).reshape(-1, 3),
            touched,
            np.array(prefix, dtype=int).reshape(len(touched), length),
            product_indices,
            tuple(steps),
        )


@dataclass(frozen=True, eq=False)
class Program:
    """A circuit as run_batch runs it: U3 matrices, a product-state prefix, then the other gates.

    angle_slots (M, 3) gives the U3 angles of each matrix the program uses;
    slot n_params stands for angle 0. Each touched qubit starts as column 0
    of the product of its prefix matrices, prefix[t] in gate order, padded
    with the identity U3(0, 0, 0) up to the longest prefix. The kron of these
    2-vectors over the touched qubits sits at product_indices, the basis
    indices where every untouched qubit is 0; all other amplitudes are 0.
    Each later step is (matrix, qubit) for a single-qubit gate, (matrix,
    control, target within the control = 1 half) for CU3, or, for CNOT, the
    gather index where(i & control bit, i ^ target bit, i).
    """

    angle_slots: np.ndarray
    touched: tuple[int, ...]
    prefix: np.ndarray
    product_indices: np.ndarray
    steps: tuple[np.ndarray | tuple[int, ...], ...]


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2^n basis states (qubit 0 = most significant bit)."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude count must be 2^n_qubits")


# Maps (theta, phi, lam) onto the phases (0, lam, phi, phi + lam) of U3's entries.
_PHASE_MIX = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]], dtype=float)


def _u3_matrices(angles: np.ndarray) -> np.ndarray:
    """U3 matrices, shape S + (2, 2), for (theta, phi, lam) angles of shape S + (3,)."""
    half = angles[..., :1] / 2
    c, s = np.cos(half), np.sin(half)
    entries = np.concatenate([c, -s, s, c], axis=-1) * np.exp(1j * (angles @ _PHASE_MIX))
    return entries.reshape(angles.shape[:-1] + (2, 2))


def _apply(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """A (B, 2, 2) or (2, 2) matrix on one qubit of every row of a (B, 2^m) state."""
    batch, dim = state.shape
    block = state.reshape(batch, 2**qubit, 2, dim >> (qubit + 1))
    return np.matmul(matrix.reshape(-1, 1, 2, 2), block).reshape(batch, dim)


def run_batch(circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates in order to |0...0> for each row of params, via circuit.program.

    params has shape (B, n_params); the result holds the B states as (B, 2^n)
    amplitudes. CNOT flips the target where the control is 1; CU3 applies
    the U3 matrix on the target under the same condition.
    """
    program = circuit.program
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise ParamLengthMismatchError(
            f"circuit has {circuit.n_params} parameter slots, got params of shape {params.shape}"
        )
    batch, dim = params.shape[0], 2**circuit.n_qubits
    angles = np.concatenate([params, np.zeros((batch, 1))], axis=1)[:, program.angle_slots]
    matrices = _u3_matrices(angles)
    prefix = matrices[:, program.prefix]  # (B, T, L, 2, 2)
    columns = prefix[:, :, 0, :, 0]
    for j in range(1, prefix.shape[2]):
        columns = np.matmul(prefix[:, :, j], columns[..., None])[..., 0]
    product = columns[:, 0] if program.touched else np.ones((batch, 1))
    for t in range(1, len(program.touched)):
        product = (product[:, :, None] * columns[:, t, None]).reshape(batch, 2 << t)
    state = np.zeros((batch, dim), dtype=complex)
    state[:, program.product_indices] = product
    for step in program.steps:
        if isinstance(step, np.ndarray):  # CNOT
            state = state[:, step]
        elif len(step) == 2:
            state = _apply(state, matrices[:, step[0]], step[1])
        else:
            index, control, sub_target = step
            half = state.reshape(batch, 2**control, 2, dim >> (control + 1))[:, :, 1]
            half[...] = _apply(half.reshape(batch, dim // 2), matrices[:, index], sub_target).reshape(half.shape)
    return state


def run(circuit: Circuit, params: np.ndarray) -> StateVector:
    """The circuit's state for one parameter vector: run_batch on a batch of one."""
    amplitudes = run_batch(circuit, np.asarray(params, dtype=float)[None])
    return StateVector(circuit.n_qubits, amplitudes[0])


def batch_expectation(amplitudes: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Exact <psi|H|psi> for every row of a (B, 2^n) amplitude batch, H dense."""
    values = np.sum((amplitudes.conj() @ matrix) * amplitudes, axis=1)
    residue = np.max(np.abs(values.imag), initial=0.0)
    if residue > EXPECTATION_IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    return values.real


def expectation(state: StateVector, h: PauliHamiltonian) -> float:
    """Exact <psi|H|psi> through the dense matrix of H."""
    if state.n_qubits != h.n_qubits:
        raise QubitMismatchError(f"state has {state.n_qubits} qubits, Hamiltonian has {h.n_qubits}")
    return float(batch_expectation(state.amplitudes[None], to_matrix(h))[0])


# Largest shot count numpy's multinomial takes: it draws counts as C longs.
MAX_SHOTS = 2**63 - 1

# Basis changes that map each Pauli's eigenbasis onto the computational basis,
# indexed by the qubit's z bit where its x bit is set: H for X, H S^dagger for Y.
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_MEASURE_ROTATIONS = (_HAD, _HAD @ np.diag([1, -1j]))


@cache  # one entry per distinct setting measured, built on its first use
def _measurement_rotation(n_qubits: int, x: int, z: int) -> np.ndarray:
    """Transpose of the (2^n, 2^n) basis change of setting (x, z): rows @ it rotate each row."""
    factors = [
        _MEASURE_ROTATIONS[z >> bit & 1] if x >> bit & 1 else np.eye(2)
        for bit in range(n_qubits - 1, -1, -1)
    ]
    rotation = reduce(np.kron, factors).T.copy()
    rotation.flags.writeable = False
    return rotation


def sampled_expectation(
    amplitudes: np.ndarray, h: PauliHamiltonian, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Shot-noise estimates of <psi|H|psi> for every row of a (B, 2^n) amplitude batch.

    Each of h.settings is one measurement: rotate the batch into its basis,
    draw `shots` outcomes per row from the Born distribution with one
    multinomial call on rng, and average the setting's outcome energies over
    them. So `shots` counts the shots of each setting, as in a hardware job.
    Identity rows contribute exactly. The estimator's mean is the exact
    expectation; with a single setting every outcome energy is an eigenvalue
    of H, so no estimate falls below the ground energy.
    """
    dim = 2**h.n_qubits
    if amplitudes.ndim != 2 or amplitudes.shape[1] != dim:
        raise QubitMismatchError(
            f"amplitudes of shape {amplitudes.shape} are not rows of {h.n_qubits}-qubit states"
        )
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    totals = np.full(amplitudes.shape[0], h.identity_offset)
    for setting in h.settings:
        rotated = amplitudes @ _measurement_rotation(h.n_qubits, setting.x, setting.z)
        probs = np.abs(rotated) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        totals += rng.multinomial(shots, probs) @ setting.weights / shots
    return totals
