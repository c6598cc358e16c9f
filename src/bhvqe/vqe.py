"""SPSA optimizer and the variational ground-state search loop.

SPSA estimates the whole gradient from two objective evaluations along a
random +/-1 direction, with the classic decaying gain sequences
a_k = a/(A+k+1)^alpha and c_k = c/(k+1)^gamma. Each iteration also evaluates
the freshly updated iterate so the energy trace matches what the stopping
rule sees: the run halts once `window` consecutive energy differences fall
below `tol`, or at `max_iter`. Because individual iterates can move uphill,
the reported optimum is the best energy seen over every evaluation, together
with the parameters that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import hamiltonian as ham
from .ansatz import AnsatzKind, build
from .circuits import StateVector, batch_expectation, run, run_batch, sampled_expectation
from .errors import NonFiniteObjectiveError


@dataclass(frozen=True)
class SpsaConfig:
    """SPSA gains, stopping rule, and PRNG seed.

    Defaults follow the standard recommendations for the decay exponents
    (alpha = 0.602, gamma = 0.101) with desk-tuned scales for the step and
    perturbation sizes. The step scale is tuned so a 4-qubit chain run
    polishes to ~1e-3 of its optimum inside the default iteration budget.
    """

    a: float = 1.0
    c: float = 0.1
    alpha: float = 0.602
    gamma: float = 0.101
    stability_a: float = 10.0
    max_iter: int = 500
    tol: float = 1e-4
    window: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0):
            raise ValueError("a and c must be positive")
        if not (0 < self.gamma < self.alpha <= 1):
            raise ValueError("need 0 < gamma < alpha <= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True, eq=False)
class VqeResult:
    best_params: np.ndarray = field(repr=False)
    best_energy: float
    trace: tuple[float, ...] = field(repr=False)
    converged: bool = False
    iterations_used: int = 0


def spsa_minimize(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    cfg: SpsaConfig,
    rng: np.random.Generator | None = None,
) -> VqeResult:
    """Minimize `objective` from `theta0` with simultaneous-perturbation SPSA.

    One iteration draws a Rademacher direction, forms the two-sided gradient
    estimate, steps, and records the energy at the new iterate. Deterministic
    for a fixed cfg.seed. Raises NonFiniteObjectiveError if the objective
    ever returns NaN or Inf.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    theta = np.asarray(theta0, dtype=float).copy()
    best_energy = math.inf
    best_params = theta.copy()

    def evaluate(point: np.ndarray) -> float:
        nonlocal best_energy, best_params
        e = float(objective(point))
        if not math.isfinite(e):
            raise NonFiniteObjectiveError(f"objective returned {e}")
        if e < best_energy:
            best_energy, best_params = e, point.copy()
        return e

    trace: list[float] = []
    converged = False
    streak = 0
    e_prev = evaluate(theta)
    for k in range(cfg.max_iter):
        a_k = cfg.a / (cfg.stability_a + k + 1) ** cfg.alpha
        c_k = cfg.c / (k + 1) ** cfg.gamma
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        e_plus = evaluate(theta + c_k * delta)
        e_minus = evaluate(theta - c_k * delta)
        gradient = (e_plus - e_minus) / (2.0 * c_k * delta)
        theta = theta - a_k * gradient
        e_new = evaluate(theta)
        trace.append(e_new)
        streak = streak + 1 if abs(e_new - e_prev) < cfg.tol else 0
        e_prev = e_new
        if streak >= cfg.window:
            converged = True
            break
    return VqeResult(
        best_params=best_params,
        best_energy=best_energy,
        trace=tuple(trace),
        converged=converged,
        iterations_used=len(trace),
    )


# Initial points drawn per optimization segment; the lowest-energy draw
# becomes theta0. Screening evaluations are cheap next to SPSA iterations.
INIT_CANDIDATES = 16


def vqe_run(
    h: ham.PauliHamiltonian,
    kind: AnsatzKind,
    cfg: SpsaConfig,
    shots: int = 0,
) -> VqeResult:
    """Variational minimization of <psi(theta)|H|psi(theta)> over an ansatz.

    Multi-start search: each segment screens INIT_CANDIDATES random starts
    (uniform in [-pi, pi) per parameter), keeps the lowest, and runs SPSA on
    it. If the segment's stopping rule fires with iteration budget left, a
    fresh segment restarts from new candidates; the energy landscape has
    spurious local minima that trap a fraction of single starts, and early
    convergence there would otherwise waste the rest of the budget. The
    total across segments never exceeds cfg.max_iter iterations.

    Args:
        h: Hamiltonian in Pauli-term form.
        kind: ansatz family and repetition depth; built at h.n_qubits.
        cfg: SPSA settings. cfg.seed drives the candidate starts, the
            perturbation directions, and any shot sampling, through
            independent child streams.
        shots: 0 for exact expectation values, otherwise the per-term
            measurement count for the shot-noise estimator.

    Returns:
        VqeResult over all segments: best energy and parameters seen
        anywhere, concatenated trace, converged if any segment's stopping
        rule fired. With shots=0 best_energy respects the variational
        bound best_energy >= exact ground energy.
    """
    circuit = build(kind, h.n_qubits)
    init_ss, spsa_ss, shot_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(init_ss)
    spsa_rng = np.random.default_rng(spsa_ss)

    if shots == 0:
        matrix = ham.to_matrix(h)

        def energies(states: np.ndarray) -> np.ndarray:
            return batch_expectation(states, matrix)
    else:
        shot_rng = np.random.default_rng(shot_ss)

        def energies(states: np.ndarray) -> np.ndarray:
            # one shot seed per state, drawn in row order
            return np.array([
                sampled_expectation(
                    StateVector(h.n_qubits, psi), h, shots, int(shot_rng.integers(2**63))
                )
                for psi in states
            ])

    def objective(th: np.ndarray) -> float:
        return energies(run(circuit, th).amplitudes[None])[0]

    best_energy = math.inf
    best_params = np.zeros(circuit.n_params)
    trace: list[float] = []
    converged = False
    remaining = cfg.max_iter
    while remaining > 0:
        candidates = init_rng.uniform(-np.pi, np.pi, (INIT_CANDIDATES, circuit.n_params))
        # argmin keeps the first of tied candidates
        theta0 = candidates[np.argmin(energies(run_batch(circuit, candidates)))]
        segment = spsa_minimize(objective, theta0, replace(cfg, max_iter=remaining), rng=spsa_rng)
        trace.extend(segment.trace)
        remaining -= segment.iterations_used
        if segment.best_energy < best_energy:
            best_energy, best_params = segment.best_energy, segment.best_params
        if not segment.converged:
            break
        converged = True
    return VqeResult(
        best_params=best_params,
        best_energy=best_energy,
        trace=tuple(trace),
        converged=converged,
        iterations_used=len(trace),
    )
