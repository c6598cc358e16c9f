"""Term-list helpers that only the tests need."""

from bhvqe.hamiltonian import COEFF_PRUNE_TOL, PauliHamiltonian
from bhvqe.linalg import PauliTerm


def coefficient(h: PauliHamiltonian, string: str) -> float:
    """Coefficient of one string (0.0 if absent)."""
    return next((t.coefficient for t in h.terms if t.string == string), 0.0)


def scaled(h: PauliHamiltonian, factor: float) -> PauliHamiltonian:
    """Every coefficient times factor, pruned like a decomposition."""
    terms = [PauliTerm(t.coefficient * factor, t.string) for t in h.terms]
    return PauliHamiltonian.from_terms(h.n_qubits, tuple(t for t in terms if abs(t.coefficient) > COEFF_PRUNE_TOL))
