"""The three ansatz circuit families searched by the VQE loop.

ansatz1: per repetition, for every qubit pair (i < j) in lexicographic order,
U3 on i, U3 on j, then CNOT(i -> j). ansatz2: same pair sweep with U3 on i
followed by a controlled U3(i -> j). ansatz3: per repetition, U3 then RY on
every qubit, so it never entangles and only reaches product states. Every
gate instance gets fresh parameter slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations

from .circuits import Circuit, Gate, GateKind
from .errors import TooFewQubitsError, require_int


class AnsatzFamily(Enum):
    U3_CNOT = "ansatz1"
    U3_CU3 = "ansatz2"
    U3_RY = "ansatz3"


DEFAULT_REPS = {AnsatzFamily.U3_CNOT: 1, AnsatzFamily.U3_CU3: 1, AnsatzFamily.U3_RY: 2}
_MIN_QUBITS = {AnsatzFamily.U3_CNOT: 2, AnsatzFamily.U3_CU3: 2, AnsatzFamily.U3_RY: 1}


@dataclass(frozen=True)
class AnsatzKind:
    family: AnsatzFamily
    reps: int | None = None  # None picks the family default

    def __post_init__(self):
        if self.reps is not None:
            require_int("reps", self.reps, 1)

    @property
    def repetitions(self) -> int:
        return DEFAULT_REPS[self.family] if self.reps is None else self.reps

    @classmethod
    def from_name(cls, name: str, reps: int | None = None) -> "AnsatzKind":
        names = [family.value for family in AnsatzFamily]
        if name not in names:
            raise ValueError(f"ansatz must be {', '.join(names[:-1])} or {names[-1]}, got {name!r}")
        return cls(AnsatzFamily(name), reps)


@cache
def build(kind: AnsatzKind, n_qubits: int) -> Circuit:
    """Construct the ansatz circuit with one fresh slot per gate parameter.

    Built once per (kind, n_qubits), so its program compiles once per process.
    """
    need = _MIN_QUBITS[kind.family]
    if n_qubits < need:
        raise TooFewQubitsError(f"{kind.family.value} needs at least {need} qubits, got {n_qubits}")
    gates: list[Gate] = []
    slot = 0

    def take(count: int) -> tuple[int, ...]:
        nonlocal slot
        slots = tuple(range(slot, slot + count))
        slot += count
        return slots

    for _ in range(kind.repetitions):
        if kind.family is AnsatzFamily.U3_RY:
            for q in range(n_qubits):
                gates.append(Gate(GateKind.U3, (q,), take(3)))
                gates.append(Gate(GateKind.RY, (q,), take(1)))
        else:
            for i, j in combinations(range(n_qubits), 2):
                gates.append(Gate(GateKind.U3, (i,), take(3)))
                if kind.family is AnsatzFamily.U3_CNOT:
                    gates.append(Gate(GateKind.U3, (j,), take(3)))
                    gates.append(Gate(GateKind.CNOT, (i, j)))
                else:
                    gates.append(Gate(GateKind.CU3, (i, j), take(3)))
    return Circuit(n_qubits, tuple(gates), slot)
