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
iteration budget is spent. `vqe_lockstep` drives many runs on scale * h at
once: each step it simulates the pending batches of all active runs in one
`run_batch` call, contracts them with the matrix of h in one product (or each
run samples its slice from its own shot stream), and scales each run's
slice. Runs are independent, so a run's result does not depend on which
other runs share its calls; `vqe_run` is the lockstep of one run at scale 1,
and `spsa_minimize` evaluates a scalar objective point by point.

Look-ahead: a segment sends its start point together with iteration 0's two
probes. After each update it sends the new iterate, and if iteration k + 1
runs whatever that energy turns out to be (streak + 1 < window and
k + 1 < max_iter), also iteration k + 1's probes, taking that direction
first. Otherwise the probes follow in a batch of their own once the stopping
rule has let the iteration run. Nothing is evaluated speculatively: a run
takes one direction per iteration it runs, in order, from blocks drawn on
its own stream, and its one shot generator samples each batch it sends,
setting by setting. So neither depends on the runs that share its steps.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Generator, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import hamiltonian as ham
from .ansatz import AnsatzKind, build
# `run` stays importable as vqe.run: bench/test_bench.py traces it through this module
from .circuits import batch_expectation, run, run_batch, sampled_expectation
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


# SPSA directions a VQE run draws per integers call. One call per iteration
# costs ~16 us of a lockstep step; one call for the whole budget would hold
# max_iter * n_params floats per run.
DIRECTION_BLOCK = 64


def _directions(
    rng: np.random.Generator, n_params: int, count: int, block: int = DIRECTION_BLOCK
) -> Iterator[np.ndarray]:
    """`count` Rademacher directions, drawn from rng `block` rows per call.

    rng.integers(0, 2) takes one 32-bit draw per entry whatever the shape, so
    the rows equal `count` draws of size n_params and leave rng in the same
    state once all have been taken.
    """
    for start in range(0, count, block):
        rows = min(block, count - start)
        yield from rng.integers(0, 2, size=(rows, n_params)) * 2.0 - 1.0


def _direction(cfg: SpsaConfig, k: int, directions: Iterator[np.ndarray]):
    """Iteration k's perturbation size c_k and its Rademacher direction."""
    return cfg.c / (k + 1) ** cfg.gamma, next(directions)


def spsa_segment(theta0: np.ndarray, cfg: SpsaConfig, directions: Iterator[np.ndarray]) -> Search:
    """One SPSA minimization from theta0, as a generator of point batches.

    One iteration takes the next Rademacher direction, forms the two-sided
    gradient estimate, steps, and records the energy at the new iterate;
    batches follow the look-ahead rule of the module docstring. Raises
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
    c_k, delta = _direction(cfg, 0, directions)
    e_prev, *probed = yield from evaluate([theta, theta + c_k * delta, theta - c_k * delta])
    for k in range(cfg.max_iter):
        if not probed:
            c_k, delta = _direction(cfg, k, directions)
            probed = yield from evaluate([theta + c_k * delta, theta - c_k * delta])
        e_plus, e_minus = probed
        a_k = cfg.a / (cfg.stability_a + k + 1) ** cfg.alpha
        gradient = (e_plus - e_minus) / (2.0 * c_k * delta)
        theta = theta - a_k * gradient
        points = [theta]
        if streak + 1 < cfg.window and k + 1 < cfg.max_iter:
            # iteration k + 1 runs whatever this energy is: probe it in the same batch
            c_k, delta = _direction(cfg, k + 1, directions)
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
    # one direction per draw: rng advances only by the iterations that run
    segment = spsa_segment(theta0, cfg, _directions(rng, np.size(theta0), cfg.max_iter, block=1))
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
    """One VQE run: screen INIT_CANDIDATES starts, run a segment from the lowest, repeat.

    Its segments take their directions in order from one stream of
    cfg.max_iter, the most iterations they run in total.
    """
    directions = _directions(spsa_rng, n_params, cfg.max_iter)
    best_energy = math.inf
    best_params = np.zeros(n_params)
    trace: list[float] = []
    converged = False
    remaining = cfg.max_iter
    while remaining > 0:
        candidates = init_rng.uniform(-np.pi, np.pi, (INIT_CANDIDATES, n_params))
        # argmin keeps the first of tied candidates
        theta0 = candidates[np.argmin((yield candidates))]
        segment = yield from spsa_segment(theta0, replace(cfg, max_iter=remaining), directions)
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


def vqe_lockstep(
    h: ham.PauliHamiltonian,
    runs: Sequence[tuple[float, SpsaConfig]],
    kind: AnsatzKind,
    shots: int = 0,
) -> list[VqeResult]:
    """vqe_run on scale * h for every (scale, cfg) pair, all advanced together.

    Each step simulates the pending batches of all active runs in one
    run_batch call and sends every run its slice of the energies, times its
    scale: a run's screen can share a call with other runs' SPSA steps, and
    a finished run drops out. Each result equals vqe_lockstep(h, [(scale,
    cfg)], kind, shots) bit for bit. Returns [] for no runs.
    """
    if not runs:
        return []
    circuit = build(kind, h.n_qubits)
    matrix = ham.to_matrix(h) if shots == 0 else None
    results: list[VqeResult] = [None] * len(runs)
    waiting = iter(enumerate(runs))
    active = []  # (index, scale, search, shot generator, pending batch)
    while True:
        for index, (scale, cfg) in itertools.islice(waiting, MAX_LOCKSTEP_RUNS - len(active)):
            streams = np.random.SeedSequence(cfg.seed).spawn(3)
            init_rng, spsa_rng, shot_rng = map(np.random.default_rng, streams)
            search = _multistart(circuit.n_params, cfg, init_rng, spsa_rng)
            active.append((index, scale, search, shot_rng, next(search)))
        if not active:
            return results
        states = run_batch(circuit, np.concatenate([batch for *_, batch in active]))
        values = None if matrix is None else batch_expectation(states, matrix)
        advanced = []
        start = 0
        for index, scale, search, shot_rng, batch in active:
            stop = start + len(batch)
            rows = states[start:stop]
            if matrix is None:
                energies = sampled_expectation(rows, h, shots, shot_rng)
            else:
                # numpy multiplies a lone row by gemv, which rounds unlike a row of a gemm
                energies = values[start:stop] if len(rows) > 1 else batch_expectation(rows, matrix)
            try:
                advanced.append((index, scale, search, shot_rng, search.send(scale * energies)))
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
    vqe_lockstep with one run of scale 1.

    Args:
        h: Hamiltonian in Pauli-term form.
        kind: ansatz family and repetition depth; built at h.n_qubits.
        cfg: SPSA settings. cfg.seed drives the candidate starts, the
            perturbation directions, and any shot sampling, through
            independent child streams.
        shots: 0 for exact expectation values, otherwise the shots per
            measurement setting (h.settings) of the shot-noise estimator.

    Returns:
        VqeResult over all segments: best energy and parameters seen
        anywhere, concatenated trace, converged if any segment's stopping
        rule fired. With shots=0 best_energy respects the variational
        bound best_energy >= exact ground energy.
    """
    return vqe_lockstep(h, [(1.0, cfg)], kind, shots)[0]
