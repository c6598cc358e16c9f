"""Statevector simulation of parameterized circuits and Pauli expectation values.

States are 2^n complex vectors; qubit 0 is the leftmost tensor factor, so it
owns the most significant bit of a basis-state index. One kernel simulates
every circuit: `run_batch` takes B parameter vectors as a (B, n_params)
array, builds the 2x2 matrices of all G gates for the whole batch in one
vectorized step as a (B, G, 2, 2) array, and returns the (B, 2^n) amplitudes.
A gate on qubit q views the batch as (B, 2^q, 2, 2^(n-q-1)) and multiplies
axis 2 by its matrix; a controlled gate does the same on the control = 1
half. `run` is the batch of one. Exact expectation values contract a batch
of states with the dense Hamiltonian matrix. Shot-noise estimates take the
same batch: each term's eigenbasis, read off its (x, z) masks, is rotated
into once for all rows, and every row samples its Born distribution from
its own seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ParamLengthMismatchError, QubitMismatchError
from .hamiltonian import PauliHamiltonian, popcount_table, to_matrix

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
    def angle_slots(self) -> np.ndarray:
        """(G, 3) slots of each gate's U3 angles; slot n_params stands for angle 0.

        RY is U3(theta, 0, 0); CNOT's row is unused.
        """
        zero = self.n_params
        rows = [(g.param_slots + (zero,) * 3)[:3] for g in self.gates]
        return np.array(rows, dtype=int).reshape(-1, 3)


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


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation; U3(0,0,0) = I, U3(pi,0,pi) = X."""
    return _u3_matrices(np.array([theta, phi, lam], dtype=float))


def ry_matrix(theta: float) -> np.ndarray:
    """Y rotation, the phi = lam = 0 slice of U3."""
    return u3_matrix(theta, 0.0, 0.0)


def _apply(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """A (B, 2, 2) or (2, 2) matrix on one qubit of every row of a (B, 2^m) state."""
    batch, dim = state.shape
    block = state.reshape(batch, 2**qubit, 2, dim >> (qubit + 1))
    return np.matmul(matrix.reshape(-1, 1, 2, 2), block).reshape(batch, dim)


_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)


def run_batch(circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates in order to |0...0> for each row of params.

    params has shape (B, n_params); the result holds the B states as (B, 2^n)
    amplitudes. CNOT flips the target where the control is 1; CU3 applies
    the U3 matrix on the target under the same condition.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise ParamLengthMismatchError(
            f"circuit has {circuit.n_params} parameter slots, got params of shape {params.shape}"
        )
    batch, dim = params.shape[0], 2**circuit.n_qubits
    angles = np.concatenate([params, np.zeros((batch, 1))], axis=1)[:, circuit.angle_slots]
    matrices = _u3_matrices(angles)
    state = np.zeros((batch, dim), dtype=complex)
    state[:, 0] = 1.0
    for i, g in enumerate(circuit.gates):
        matrix = _X_MATRIX if g.kind is GateKind.CNOT else matrices[:, i]
        if len(g.qubits) == 1:
            state = _apply(state, matrix, g.qubits[0])
            continue
        control, target = g.qubits
        # the control = 1 half is a state of the other qubits, which keep their order
        half = state.reshape(batch, 2**control, 2, dim >> (control + 1))[:, :, 1]
        sub_target = target - 1 if target > control else target
        half[...] = _apply(half.reshape(batch, dim // 2), matrix, sub_target).reshape(half.shape)
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


# Basis changes that map each Pauli's eigenbasis onto the computational basis,
# indexed by the qubit's z bit where its x bit is set: H for X, H S^dagger for Y.
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_MEASURE_ROTATIONS = (_HAD, _HAD @ np.diag([1, -1j]))


def parity_eigenvalues(dim: int) -> np.ndarray:
    """(dim, dim) table whose row `mask` holds (-1)^popcount(mask & k) for every outcome k.

    That row is the +/-1 eigenvalue of each outcome, measured in the
    eigenbasis of a Pauli string with support `mask`.
    """
    return 1.0 - 2.0 * (popcount_table(dim) & 1)


def sampled_expectation(
    amplitudes: np.ndarray, h: PauliHamiltonian, shots: int, seeds: Sequence[int]
) -> np.ndarray:
    """Shot-noise estimates of <psi|H|psi> for every row of a (B, 2^n) amplitude batch.

    Each term is measured in its own eigenbasis: rotate the batch, sample
    `shots` outcomes per row from the Born distribution, and average the
    resulting +/-1 eigenvalues. Identity terms contribute exactly. Row b
    draws from its own default_rng(seeds[b]), one multinomial per term in
    stored order, so its estimate does not depend on the other rows. The
    estimator's mean is the exact expectation.
    """
    dim = 2**h.n_qubits
    if amplitudes.ndim != 2 or amplitudes.shape[1] != dim:
        raise QubitMismatchError(
            f"amplitudes of shape {amplitudes.shape} are not rows of {h.n_qubits}-qubit states"
        )
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    batch = amplitudes.shape[0]
    if len(seeds) != batch:
        raise ValueError(f"need one seed per row: {batch} rows, {len(seeds)} seeds")
    eigenvalues = parity_eigenvalues(dim)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    totals = np.zeros(batch)
    for coeff, x, z in zip(h.coeffs.tolist(), h.x.tolist(), h.z.tolist()):
        mask = x | z
        if not mask:
            totals += coeff
            continue
        rotated = amplitudes
        for q, bit in enumerate(range(h.n_qubits - 1, -1, -1)):
            if x >> bit & 1:
                rotated = _apply(rotated, _MEASURE_ROTATIONS[z >> bit & 1], q)
        probs = np.abs(rotated) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        counts = np.array([rng.multinomial(shots, p) for rng, p in zip(rngs, probs)])
        # the reshape keeps a batch of no rows two-dimensional
        totals += coeff * (counts.reshape(batch, dim) @ eigenvalues[mask]) / shots
    return totals
