"""SPSA optimizer and the variational ground-state search, run in lockstep.

SPSA estimates the whole gradient from two objective evaluations along a
random +/-1 direction, with the classic decaying gain sequences
a_k = a/(A+k+1)^alpha and c_k = c/(k+1)^gamma. Each iteration also evaluates
the freshly updated iterate so the energy trace matches what the stopping
rule sees: the run halts once `window` consecutive energy differences fall
below `tol`, or at `max_iter`. Because individual iterates can move uphill,
the reported optimum is the best energy seen over every evaluation, together
with the parameters that produced it.

Every optimization is written as a generator. It yields a (k, n_params)
batch of points and is sent back their energies: `spsa_segment` is one SPSA
segment, and a VQE run chains 16-candidate screens and segments until its
iteration budget is spent. `vqe_lockstep` drives many runs at once: each
step it simulates the pending batches of all active runs in one `run_batch`
call, and each run contracts its own slice against its own Hamiltonian (or
samples it from its own shot stream). Runs are independent, so a run's
result does not depend on which other runs share its calls; `vqe_run` is
the lockstep of one run, and `spsa_minimize` evaluates a scalar objective
point by point.

Look-ahead: a segment sends its start point together with iteration 0's two
probes. After each update it sends the new iterate, and if iteration k + 1
runs whatever that energy turns out to be (streak + 1 < window and
k + 1 < max_iter), also iteration k + 1's probes, drawing that direction
first. Otherwise the probes follow in a batch of their own once the stopping
rule has let the iteration run. Nothing is drawn or evaluated speculatively,
so each run draws its directions and shot seeds in the serial order: start,
then +, -, new iterate per iteration.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import hamiltonian as ham
from .ansatz import AnsatzKind, build
# `run` stays importable as vqe.run: bench/test_bench.py traces it through this module
from .circuits import batch_expectation, run, run_batch, sampled_expectation
from .errors import NonFiniteObjectiveError, QubitMismatchError


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
        # written as `not x >= 0` so NaN fails too
        if not self.stability_a >= 0:
            raise ValueError("stability_a must be >= 0")
        if not self.tol >= 0:
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


# Yields (k, n_params) point batches, is sent their k energies, returns the result.
Search = Generator[np.ndarray, Sequence[float], VqeResult]


def _direction(cfg: SpsaConfig, k: int, rng: np.random.Generator, size: int):
    """Iteration k's perturbation size c_k and its Rademacher direction."""
    return cfg.c / (k + 1) ** cfg.gamma, rng.integers(0, 2, size=size) * 2.0 - 1.0


def spsa_segment(theta0: np.ndarray, cfg: SpsaConfig, rng: np.random.Generator) -> Search:
    """One SPSA minimization from theta0, as a generator of point batches.

    One iteration draws a Rademacher direction, forms the two-sided gradient
    estimate, steps, and records the energy at the new iterate; batches
    follow the look-ahead rule of the module docstring. Raises
    NonFiniteObjectiveError if an energy sent back is NaN or Inf.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    best_energy, best_params = math.inf, theta.copy()

    def evaluate(points: list[np.ndarray]):
        nonlocal best_energy, best_params
        energies = [float(e) for e in (yield np.array(points))]
        for point, e in zip(points, energies):
            if not math.isfinite(e):
                raise NonFiniteObjectiveError(f"objective returned {e}")
            if e < best_energy:
                best_energy, best_params = e, point.copy()
        return energies

    trace: list[float] = []
    converged = False
    streak = 0
    c_k, delta = _direction(cfg, 0, rng, theta.size)
    e_prev, *probed = yield from evaluate([theta, theta + c_k * delta, theta - c_k * delta])
    for k in range(cfg.max_iter):
        if not probed:
            c_k, delta = _direction(cfg, k, rng, theta.size)
            probed = yield from evaluate([theta + c_k * delta, theta - c_k * delta])
        e_plus, e_minus = probed
        a_k = cfg.a / (cfg.stability_a + k + 1) ** cfg.alpha
        gradient = (e_plus - e_minus) / (2.0 * c_k * delta)
        theta = theta - a_k * gradient
        points = [theta]
        if streak + 1 < cfg.window and k + 1 < cfg.max_iter:
            # iteration k + 1 runs whatever this energy is: probe it in the same batch
            c_k, delta = _direction(cfg, k + 1, rng, theta.size)
            points += [theta + c_k * delta, theta - c_k * delta]
        e_new, *probed = yield from evaluate(points)
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


def spsa_minimize(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    cfg: SpsaConfig,
    rng: np.random.Generator | None = None,
) -> VqeResult:
    """Minimize `objective` from `theta0` with simultaneous-perturbation SPSA.

    Evaluates the points of spsa_segment one at a time, in order: the
    objective is called 1 + 3 * iterations_used times. Deterministic for a
    fixed cfg.seed. Raises NonFiniteObjectiveError if the objective ever
    returns NaN or Inf.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    segment = spsa_segment(theta0, cfg, rng)
    energies = None
    while True:
        try:
            points = segment.send(energies)
        except StopIteration as done:
            return done.value
        energies = [objective(point) for point in points]


# Initial points drawn per optimization segment; the lowest-energy draw
# becomes theta0. Screening evaluations are cheap next to SPSA iterations.
INIT_CANDIDATES = 16

# Runs advanced together at most; later runs start as earlier ones finish.
# Bounds the batch, and its memory, without changing any run's result.
MAX_LOCKSTEP_RUNS = 256


def _multistart(
    n_params: int, cfg: SpsaConfig, init_rng: np.random.Generator, spsa_rng: np.random.Generator
) -> Search:
    """One VQE run: screen INIT_CANDIDATES starts, run a segment from the lowest, repeat."""
    best_energy = math.inf
    best_params = np.zeros(n_params)
    trace: list[float] = []
    converged = False
    remaining = cfg.max_iter
    while remaining > 0:
        candidates = init_rng.uniform(-np.pi, np.pi, (INIT_CANDIDATES, n_params))
        # argmin keeps the first of tied candidates
        theta0 = candidates[np.argmin((yield candidates))]
        segment = yield from spsa_segment(theta0, replace(cfg, max_iter=remaining), spsa_rng)
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


def _run(
    h: ham.PauliHamiltonian, n_params: int, cfg: SpsaConfig, shots: int
) -> tuple[Search, Callable[[np.ndarray], Sequence[float]]]:
    """A run's search and the energies of its states, on child streams of cfg.seed."""
    init_ss, spsa_ss, shot_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    search = _multistart(
        n_params, cfg, np.random.default_rng(init_ss), np.random.default_rng(spsa_ss)
    )
    if shots == 0:
        matrix = ham.to_matrix(h)
        return search, lambda states: batch_expectation(states, matrix)
    shot_rng = np.random.default_rng(shot_ss)
    # one shot seed per state, drawn in row order
    return search, lambda states: sampled_expectation(
        states, h, shots, shot_rng.integers(2**63, size=len(states))
    )


def vqe_lockstep(
    runs: Sequence[tuple[ham.PauliHamiltonian, SpsaConfig]],
    kind: AnsatzKind,
    shots: int = 0,
) -> list[VqeResult]:
    """vqe_run for every (Hamiltonian, cfg) pair, all advanced together.

    Each step simulates the pending batches of all active runs in one
    run_batch call and sends every run its slice: a run's screen can share
    a call with other runs' SPSA steps, and a finished run drops out. Each
    result equals vqe_run(h, kind, cfg, shots) bit for bit. Returns [] for
    no runs; raises QubitMismatchError when the Hamiltonians differ in width.
    """
    if not runs:
        return []
    widths = sorted({h.n_qubits for h, _ in runs})
    if len(widths) > 1:
        raise QubitMismatchError(f"lockstep runs need one width, got {widths} qubits")
    circuit = build(kind, widths[0])
    results: list[VqeResult] = [None] * len(runs)
    waiting = iter(enumerate(runs))
    active = []  # (index, search, energies, pending batch)
    while True:
        for index, (h, cfg) in itertools.islice(waiting, MAX_LOCKSTEP_RUNS - len(active)):
            search, energies = _run(h, circuit.n_params, cfg, shots)
            active.append((index, search, energies, next(search)))
        if not active:
            return results
        states = run_batch(circuit, np.concatenate([batch for *_, batch in active]))
        advanced = []
        start = 0
        for index, search, energies, batch in active:
            stop = start + len(batch)
            try:
                advanced.append((index, search, energies, search.send(energies(states[start:stop]))))
            except StopIteration as done:
                results[index] = done.value
            start = stop
        active = advanced


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
    total across segments never exceeds cfg.max_iter iterations. This is
    vqe_lockstep with one run.

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
    return vqe_lockstep([(h, cfg)], kind, shots)[0]
