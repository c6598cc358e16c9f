"""Statevector simulation of parameterized circuits and Pauli expectation values.

States are 2^n complex vectors; qubit 0 is the leftmost tensor factor, so it
owns the most significant bit of a basis-state index. One kernel simulates
every circuit: `run_batch` takes B parameter vectors as a (B, n_params)
array and returns the (B, 2^n) amplitudes. Each circuit is compiled once
into a `Program` (`Circuit.program`). The single-qubit gates on a qubit
before its first two-qubit gate act on |0>, so that qubit starts as one
2-vector, and the state after all these prefixes is their product state.
Every other U3, RY or CU3 gate is one step: two gathers, one multiply and
one add. A CNOT is no step; its basis permutation is folded into the indices
the next step reads, or into one final gather. All U3 entries are built from
one real cos and sin table, in the layout the steps read. `run` is the batch of one.
Exact expectation values contract a batch of states with the dense
Hamiltonian matrix; a row's value does not depend on its batch. Shot-noise
estimates take the same batch: it is rotated once into each measurement
setting of the Hamiltonian, a group of qubit-wise-commuting terms, and every
row samples its Born distribution from the caller's generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ParamLengthMismatchError, QubitMismatchError, require_int
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
    """One gate instance: kind and target qubit(s). Two-qubit gates list the control qubit first."""

    kind: GateKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        if len(self.qubits) != N_QUBITS_USED[self.kind]:
            raise ValueError(f"{self.kind.value} acts on {N_QUBITS_USED[self.kind]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n_qubits.

    Its parameter vector holds each gate's N_PARAM_SLOTS[kind] angles in gate
    order: a U3's (theta, phi, lam), an RY's theta, a CU3's (theta, phi, lam).
    """

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate qubit {q} out of range for {self.n_qubits} qubits")

    @cached_property
    def n_params(self) -> int:
        return sum(N_PARAM_SLOTS[g.kind] for g in self.gates)

    @cached_property
    def program(self) -> Program:
        """The circuit compiled for run_batch, built once per circuit."""
        n, zero, offset = self.n_qubits, self.n_params, 0
        identity = sum(g.kind is not GateKind.CNOT for g in self.gates)  # U3(0, 0, 0), if used
        slots: list[tuple[int, ...]] = []
        prefixes: dict[int, list[int]] = {}
        entangled: set[int] = set()
        steps: list[tuple[int | np.ndarray, np.ndarray]] = []  # (matrix, entry) per step
        sources: list[np.ndarray] = []
        index = perm = np.arange(2**n)  # perm: the pending CNOTs; amplitude perm[i] is read as i
        for g in self.gates:
            bits = [1 << (n - 1 - q) for q in g.qubits]
            if g.kind is GateKind.CNOT:
                entangled.update(g.qubits)
                perm = perm[np.where(index & bits[0], index ^ bits[1], index)]
                continue
            matrix, count = len(slots), N_PARAM_SLOTS[g.kind]
            slots.append((*range(offset, offset + count), zero, zero)[:3])  # RY is U3(theta, 0, 0)
            offset += count
            if g.kind is GateKind.CU3 or g.qubits[0] in entangled:
                entangled.update(g.qubits)
                k = np.where(index & bits[0], matrix, identity) if g.kind is GateKind.CU3 else matrix
                steps.append((k, 2 * (index & bits[-1] > 0) + [[0], [1]]))
                sources.append(perm[[index & ~bits[-1], index | bits[-1]]])
                perm = index
            else:
                prefixes.setdefault(g.qubits[0], []).append(matrix)
        touched = tuple(sorted(prefixes))
        length = max(map(len, prefixes.values()), default=1)
        prefix = [prefixes[q] + [identity] * (length - len(prefixes[q])) for q in touched]
        if any(identity in p for p in prefix) or any(g.kind is GateKind.CU3 for g in self.gates):
            slots.append((zero,) * 3)
        m = len(slots)
        prefix_matrices = np.array(prefix, dtype=int).reshape(len(touched), length).T
        width, t = len(touched), np.arange(len(touched))[:, None]
        product_indices = np.zeros(1, dtype=int)
        for q in touched:
            product_indices = (product_indices[:, None] + [0, 1 << (n - 1 - q)]).reshape(-1)
        return Program(
            np.array(slots, dtype=int).reshape(m, 3)[:, [0, 2, 1, 1]].T,
            touched,
            prefix_matrices[:, None, None] + m * np.arange(4).reshape(2, 2, 1),
            (np.arange(2**width) >> (width - 1 - t) & 1) * width + t,
            product_indices,
            tuple(m * entry + k for k, entry in steps),
            tuple(sources),
            None if np.array_equal(perm, index) else perm,
        )


@dataclass(frozen=True, eq=False)
class Program:
    """A circuit as run_batch runs it: a U3 entry table, a product-state prefix, then gather steps.

    angle_slots (4, M) gives the slots of theta, lam, phi, phi of each U3
    matrix m; slot n_params stands for angle 0, and the last matrix is the
    identity U3(0, 0, 0) if a CU3 or a short prefix reads it. Row e * M + m
    of the (4M, B) entry table holds entry e = 2 * row + column of matrix m.
    Each touched qubit starts as column 0 of the product of its prefix
    matrices in gate order, padded with the identity; prefix[j] (2, 2, T)
    holds the table rows of each touched qubit's j-th prefix matrix. Their
    kron is the product over t of the rows kron_rows[t] of the (2T, B)
    columns, kron_rows[t, i] = T * (bit of touched qubit t in i) + t; it sits
    at product_indices, where every untouched qubit is 0, and all other
    amplitudes are 0. Each later gate on qubit q is one step s:
    amplitude i becomes the sum over c = 0, 1 of table row coef_index[s][c,
    i] = (2 * (bit q of i) + c) * M + matrix (a CU3 reads the identity where
    its control bit is 0) times amplitude sources[s][c, i], i with bit q set
    to c. A CNOT's permutation where(i & control bit, i ^ target bit, i) is
    composed into the next step's sources, or into final.
    """

    angle_slots: np.ndarray
    touched: tuple[int, ...]
    prefix: np.ndarray
    kron_rows: np.ndarray
    product_indices: np.ndarray
    coef_index: tuple[np.ndarray, ...]
    sources: tuple[np.ndarray, ...]
    final: np.ndarray | None


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2^n basis states (qubit 0 = most significant bit)."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude count must be 2^n_qubits")


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
    # U3 entry e is a real factor (c, -s, s, c) times exp(i * phase), phase (0, lam, phi, phi + lam)
    table = np.concatenate([params.T, np.zeros((1, batch))]).take(program.angle_slots, axis=0)
    table[0] /= 2  # theta / 2, whose cos and sin are c and s
    table[3] += table[1]
    cos, sin = np.cos(table), np.sin(table)
    factors = np.concatenate([cos[:1], -sin[:1], sin[:1], cos[:1]])
    cos[0], sin[0] = 1, 0
    entries = np.empty(table.shape, dtype=complex)
    np.multiply(factors, cos, out=entries.real)
    np.multiply(factors, sin, out=entries.imag)
    entries = entries.reshape(program.angle_slots.size, batch)
    del table, cos, sin, factors  # the steps read only entries and rows
    prefix = entries.take(program.prefix, axis=0)  # (L, 2, 2, T, B): every prefix matrix at once
    columns = prefix[0, :, 0]  # (2, T, B)
    for terms in prefix[1:]:
        terms *= columns
        columns = terms.sum(axis=1)
    # the state is built and stepped as the (2^n, B) transpose: all B values of an amplitude at once
    touched = len(program.touched)
    rows = columns[:, 0] if touched else np.ones((1, batch), dtype=complex)
    if touched > 1:  # the kron in qubit order, ((c0 c1) c2) c3, from c0: 1 + 0j would turn -0j to +0j
        rows = columns.reshape(2 * touched, batch).take(program.kron_rows, axis=0)
        rows = rows.prod(axis=0, initial=None)  # rebound: the (T, 2^T, B) factors are freed
    if touched < circuit.n_qubits:  # else product_indices is every index in order
        product, rows = rows, np.zeros((dim, batch), dtype=complex)
        rows[program.product_indices] = product
    for use, source in zip(program.coef_index, program.sources):
        terms = entries.take(use, axis=0)
        terms *= rows.take(source, axis=0)
        rows = terms[0] + terms[1]
    if program.final is not None:
        rows = rows.take(program.final, axis=0)
    return np.ascontiguousarray(rows.T)


def run(circuit: Circuit, params: np.ndarray) -> StateVector:
    """The circuit's state for one parameter vector: run_batch on a batch of one."""
    amplitudes = run_batch(circuit, np.asarray(params, dtype=float)[None])
    return StateVector(circuit.n_qubits, amplitudes[0])


def batch_expectation(amplitudes: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Exact <psi|H|psi> for every row of a (B, 2^n) amplitude batch, H dense.

    A row's value is the same bit for bit in a batch of any size, so a caller
    may contract many states in one call and slice the values.
    """
    if amplitudes.ndim != 2 or amplitudes.shape[1] != len(matrix):
        raise QubitMismatchError(f"amplitudes {amplitudes.shape} are not rows for H {matrix.shape}")
    bras = amplitudes.conj()  # gemv would round a lone row unlike a row of a gemm: pair it
    bras = bras @ matrix if len(bras) != 1 else (bras.repeat(2, axis=0) @ matrix)[:1]
    values = (bras * amplitudes).sum(axis=1)
    residue = np.abs(values.imag).max(initial=0.0)
    # rounding leaves a residue in proportion to the entries: a large H is judged by their scale
    if residue > EXPECTATION_IMAG_TOL and residue > EXPECTATION_IMAG_TOL * np.abs(matrix).max():
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    return values.real


def expectation(state: StateVector, h: PauliHamiltonian) -> float:
    """Exact <psi|H|psi> through the dense matrix of H."""
    return float(batch_expectation(state.amplitudes[None], to_matrix(h))[0])


# Largest shot count numpy's multinomial takes: it draws counts as C longs.
MAX_SHOTS = 2**63 - 1

def sampled_expectation(
    amplitudes: np.ndarray, h: PauliHamiltonian, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Shot-noise estimates of <psi|H|psi> for every row of a (B, 2^n) amplitude batch.

    Each of h.settings is one measurement: rotate the batch into its basis,
    draw `shots` outcomes per row from the Born distribution with one
    multinomial call per row on rng, and average the setting's outcome
    energies over them. So `shots` counts the shots of each setting, as in
    a hardware job. Identity rows contribute exactly. The estimator's mean
    is the exact expectation; with a single setting every outcome energy is
    an eigenvalue of H, so no estimate falls below the ground energy.
    """
    dim = 2**h.n_qubits
    if amplitudes.ndim != 2 or amplitudes.shape[1] != dim:
        raise QubitMismatchError(
            f"amplitudes of shape {amplitudes.shape} are not rows of {h.n_qubits}-qubit states"
        )
    require_int("shots", shots, 1, MAX_SHOTS)
    totals = np.full(amplitudes.shape[0], h.identity_offset)
    counts = np.empty(amplitudes.shape, dtype=np.int64)  # every setting's draws, row by row
    for setting in h.settings:
        rotated = amplitudes @ setting.rotation
        probs = np.abs(rotated) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        # one 1-D draw per row: the 2-D call's stream, without its fixed cost
        for row, p in enumerate(probs):
            counts[row] = rng.multinomial(shots, p)
        totals += counts @ setting.weights / shots
    return totals
