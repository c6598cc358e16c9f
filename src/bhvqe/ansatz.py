"""The three ansatz circuit families searched by the VQE loop.

ansatz1: per repetition, for every qubit pair (i < j) in lexicographic order,
U3 on i, U3 on j, then CNOT(i -> j). ansatz2: same pair sweep with U3 on i
followed by a controlled U3(i -> j). ansatz3: per repetition, U3 then RY on
every qubit, so it never entangles and only reaches product states. Every
gate instance has its own angles, in gate order (see `circuits.Circuit`).
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
    reps: int

    def __post_init__(self):
        require_int("reps", self.reps, 1)

    @classmethod
    def from_name(cls, name: str, reps: int | None = None) -> "AnsatzKind":
        """The family named `name` with `reps` layers; None picks DEFAULT_REPS[family]."""
        names = [family.value for family in AnsatzFamily]
        if name not in names:
            raise ValueError(f"ansatz must be {', '.join(names[:-1])} or {names[-1]}, got {name!r}")
        family = AnsatzFamily(name)
        return cls(family, DEFAULT_REPS[family] if reps is None else reps)


@cache
def build(kind: AnsatzKind, n_qubits: int) -> Circuit:
    """Construct the ansatz circuit; its parameters are its gates' angles in gate order.

    Built once per (kind, n_qubits), so its program compiles once per process.
    """
    need = _MIN_QUBITS[kind.family]
    if n_qubits < need:
        raise TooFewQubitsError(f"{kind.family.value} needs at least {need} qubits, got {n_qubits}")
    gates: list[Gate] = []
    for _ in range(kind.reps):
        if kind.family is AnsatzFamily.U3_RY:
            for q in range(n_qubits):
                gates.append(Gate(GateKind.U3, (q,)))
                gates.append(Gate(GateKind.RY, (q,)))
        else:
            for i, j in combinations(range(n_qubits), 2):
                gates.append(Gate(GateKind.U3, (i,)))
                if kind.family is AnsatzFamily.U3_CNOT:
                    gates.append(Gate(GateKind.U3, (j,)))
                    gates.append(Gate(GateKind.CNOT, (i, j)))
                else:
                    gates.append(Gate(GateKind.CU3, (i, j)))
    return Circuit(n_qubits, tuple(gates))
