"""SPSA optimizer and the variational ground-state search, run in lockstep.

SPSA estimates the whole gradient from two objective evaluations along a
random +/-1 direction, with the classic decaying gain sequences
a_k = a/(A+k+1)^alpha and c_k = c/(k+1)^gamma. Each iteration also evaluates
the freshly updated iterate so the energy trace matches what the stopping
rule sees: the run halts once `window` consecutive energy differences fall
below `tol`, or at `max_iter`. Because individual iterates can move uphill,
the reported optimum is the best energy seen over every evaluation, together
with the parameters that produced it.

Every optimization is a generator that yields the batch of points it waits
on and is sent their energies: `_segment` runs SPSA from one start (its
docstring states the look-ahead rule), and `_vqe_search` chains screens of
INIT_CANDIDATES starts and segments until a run's budget is spent. `vqe_lockstep`
drives many runs on scale * h at once: each step it simulates the pending
batches of all active runs in one `run_batch` call, contracts them with the
matrix of h in one product (or each run samples its slice from its own shot
stream), and sends each run its slice times its scale. A run draws its
directions and shots on its own streams, so its result does not depend on
which runs share its calls; `vqe_run` is the lockstep of one run at scale 1,
and `spsa_minimize` drives one segment with a scalar objective, point by point.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import hamiltonian as ham
from .ansatz import AnsatzKind, build
# `run` stays importable as vqe.run: bench/test_bench.py traces it through this module
from .circuits import batch_expectation, run, run_batch, sampled_expectation
from .errors import DomainError, NonFiniteObjectiveError, finite_float, require_int


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
        for name, minimum in (("max_iter", 1), ("window", 1), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)
        for name in ("a", "c", "alpha", "gamma", "stability_a", "tol"):
            # a JSON 1 is stored as 1.0, so the config reads back the same either way
            object.__setattr__(self, name, finite_float(name, getattr(self, name)))
        if not (self.a > 0 and self.c > 0):
            raise ValueError(f"a and c must be > 0, got a={self.a}, c={self.c}")
        if not (0 < self.gamma < self.alpha <= 1):
            raise ValueError(f"need 0 < gamma < alpha <= 1, got {self.gamma}, {self.alpha}")
        if self.stability_a < 0 or self.tol < 0:
            raise ValueError(f"need stability_a, tol >= 0, got {self.stability_a}, {self.tol}")


@dataclass(frozen=True, eq=False)
class VqeResult:
    best_params: np.ndarray = field(repr=False)
    best_energy: float
    trace: tuple[float, ...] = field(repr=False)
    converged: bool = False
    iterations_used: int = 0


# SPSA directions a VQE run draws per integers call. One call per iteration
# costs ~16 us of a lockstep step; one call for the whole budget would hold
# max_iter * n_params floats per run.
DIRECTION_BLOCK = 64

# Initial points drawn per optimization segment; the lowest-energy draw
# becomes theta0. Screening evaluations are cheap next to SPSA iterations.
INIT_CANDIDATES = 16

# Runs advanced together at most; later runs start as earlier ones finish.
# Bounds the batch, and its memory, without changing any run's result.
MAX_LOCKSTEP_RUNS = 256


def _directions(rng: np.random.Generator, n_params: int):
    """Rademacher rows, drawn DIRECTION_BLOCK rows per integers call.

    rng.integers(0, 2) takes one 32-bit draw per entry whatever the shape, so the
    rows equal one draw per row, the same stream an iteration-by-iteration draw gives.
    """
    while True:
        yield from rng.integers(0, 2, size=(DIRECTION_BLOCK, n_params)) * 2.0 - 1.0


def _segment(cfg: SpsaConfig, directions, theta: np.ndarray, budget: int):
    """SPSA from theta: yields each batch of points, is sent their energies, returns a VqeResult.

    The first batch is theta with iteration 0's two probes. After each update
    the segment sends the new iterate, and if iteration k + 1 runs whatever
    that energy turns out to be (streak + 1 < window and len(trace) + 1 <
    budget), also iteration k + 1's probes, taking its direction first.
    Otherwise the probes follow in a batch of their own once the stopping rule
    has let the iteration run. Nothing is evaluated speculatively: the segment
    takes one direction per iteration it runs, in order. k counts this
    segment's updates. It ends when `window` consecutive energy differences
    fall below `tol`, or after `budget` iterations, and returns its trace of
    iterate energies, whether the first rule ended it, and the first strictly
    lowest of all its energies with its point. A NaN or Inf energy raises
    NonFiniteObjectiveError; a last iterate so large that theta + c_k delta
    == theta raises DomainError: its probes no longer move it, so neither
    end means anything.
    """
    a, c, alpha, gamma, stability_a = cfg.a, cfg.c, cfg.alpha, cfg.gamma, cfg.stability_a
    window, tol = cfg.window, cfg.tol
    trace, lowest, argmin = [], math.inf, None

    def see(points, energies: list[float]) -> list[float]:
        nonlocal lowest, argmin
        for point, e in zip(points, energies):
            if not math.isfinite(e):
                raise NonFiniteObjectiveError(f"objective returned {e}")
            if e < lowest:  # strict, so the first of ties stays
                lowest, argmin = e, point
        return energies

    def probes(k, theta, lead):
        # iteration k's gain c_k and direction, and the batch lead + its probes theta +/- c_k delta
        c_k, delta = c / (k + 1) ** gamma, next(directions)
        shift = c_k * delta
        return c_k, delta, [*lead, theta + shift, theta - shift]

    k = streak = 0
    c_k, delta, batch = probes(0, theta, [theta])
    e_prev, e_plus, e_minus = see(batch, (yield batch))
    while True:
        # iteration k's update; delta is +/-1, so this equals dividing by 2 c_k delta
        a_k = a / (stability_a + k + 1) ** alpha
        theta = theta - a_k * ((e_plus - e_minus) / (2.0 * c_k)) * delta
        ahead = streak + 1 < window and len(trace) + 1 < budget
        batch = [theta]
        if ahead:
            c_k, delta, batch = probes(k + 1, theta, batch)
        energies = see(batch, (yield batch))
        e_new = energies[0]
        trace.append(e_new)
        streak = streak + 1 if abs(e_new - e_prev) < tol else 0
        e_prev = e_new
        if streak >= window or len(trace) == budget:
            if np.array_equal(theta + c_k * delta, theta):
                size = np.abs(theta).max()
                raise DomainError(f"SPSA iterate ran away to |theta| = {size:.3g}, "
                                  f"where its probes theta +/- {c_k:.3g} delta no longer move it")
            return VqeResult(argmin, lowest, tuple(trace), streak >= window, len(trace))
        k += 1
        if ahead:
            e_plus, e_minus = energies[1], energies[2]
        else:
            c_k, delta, batch = probes(k, theta, [])
            e_plus, e_minus = see(batch, (yield batch))


def _vqe_search(cfg: SpsaConfig, init_rng, spsa_rng, n_params: int):
    """One VQE run: yields each batch of points, is sent their energies, returns a VqeResult.

    Screens INIT_CANDIDATES starts, runs a segment from the lowest, and
    screens again after each segment that converges while iterations are
    left. Its segments take their directions in order from one stream, drawn
    DIRECTION_BLOCK rows at a time; each gets the iterations the run has left.
    Their results merge here, and only here: the traces in order, converged if
    any stopping rule fired, and the lowest best (never a screen's), the first of ties.
    """
    directions = _directions(spsa_rng, n_params)
    trace, best, converged = [], None, False
    while len(trace) < cfg.max_iter:
        candidates = init_rng.uniform(-np.pi, np.pi, (INIT_CANDIDATES, n_params))
        # argmin takes the first of tied candidates
        theta = candidates[int(np.argmin((yield candidates)))].copy()
        found = yield from _segment(cfg, directions, theta, cfg.max_iter - len(trace))
        trace.extend(found.trace)
        converged |= found.converged
        if best is None or found.best_energy < best.best_energy:
            best = found
    return VqeResult(best.best_params, best.best_energy, tuple(trace), converged, len(trace))


def spsa_minimize(objective: Callable[[np.ndarray], float], theta0: np.ndarray,
                  cfg: SpsaConfig) -> VqeResult:
    """Minimize `objective` from `theta0` with simultaneous-perturbation SPSA.

    Returns one segment's result, with the whole budget and no screen: its
    points are evaluated one at a time, in order, so the objective is called
    1 + 3 * iterations_used times. Directions come from np.random.default_rng(cfg.seed),
    so a fixed cfg.seed gives a fixed result. Raises NonFiniteObjectiveError if the
    objective ever returns NaN or Inf, DomainError if the iterate runs away.
    """
    theta0 = np.asarray(theta0, dtype=float).copy()
    directions = _directions(np.random.default_rng(cfg.seed), theta0.size)
    segment = _segment(cfg, directions, theta0, cfg.max_iter)
    points = next(segment)
    try:
        while True:
            points = segment.send([float(objective(point)) for point in points])
    except StopIteration as stop:
        return stop.value


def vqe_lockstep(
    h: ham.PauliHamiltonian,
    runs: Sequence[tuple[float, SpsaConfig]],
    kind: AnsatzKind,
    shots: int = 0,
) -> list[VqeResult]:
    """vqe_run on scale * h for every (scale, cfg) pair, all advanced together.

    Each step simulates the pending batches of all active runs in one
    run_batch call and sends every run its slice of the energies, times its
    scale: a run's screen can share a call with other runs' SPSA steps,
    and a finished run drops out. Each result equals vqe_lockstep(h,
    [(scale, cfg)], kind, shots) bit for bit: exact energies are slices of
    one batch_expectation call, which gives a row the same value in a batch
    of any size, and with shots each run samples its slice on its own
    stream. Returns [] for no runs.
    """
    if not runs:
        return []
    circuit = build(kind, h.n_qubits)
    matrix = ham.to_matrix(h) if shots == 0 else None
    results: list[VqeResult] = [None] * len(runs)
    waiting = iter(enumerate(runs))
    active = []  # (index, scale, shot generator, search, the points it waits on)
    while True:
        for index, (scale, cfg) in itertools.islice(waiting, MAX_LOCKSTEP_RUNS - len(active)):
            streams = np.random.SeedSequence(cfg.seed).spawn(3)
            init_rng, spsa_rng, shot_rng = map(np.random.default_rng, streams)
            search = _vqe_search(cfg, init_rng, spsa_rng, circuit.n_params)
            active.append((index, float(scale), shot_rng, search, next(search)))
        if not active:
            return results
        states = run_batch(circuit, np.array([p for *_, points in active for p in points]))
        values = None if matrix is None else batch_expectation(states, matrix).tolist()
        start, still = 0, []
        for index, scale, shot_rng, search, points in active:
            stop = start + len(points)
            if matrix is None:
                energies = sampled_expectation(states[start:stop], h, shots, shot_rng).tolist()
            else:
                energies = values[start:stop]
            try:
                points = search.send([scale * e for e in energies])
            except StopIteration as done:
                results[index] = done.value
            else:
                still.append((index, scale, shot_rng, search, points))
            start = stop
        active = still


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
    fresh segment restarts from new candidates, since spurious local minima
    trap a fraction of single starts. The total across segments never
    exceeds cfg.max_iter iterations. cfg.seed drives the starts, the
    directions and any shot sampling through independent child streams;
    shots is 0 for exact values, else the shots per setting (h.settings).
    The result holds the best energy and parameters seen anywhere, the
    concatenated trace, and converged if any segment's stopping rule fired;
    with shots=0, best_energy >= the exact ground energy. This is
    vqe_lockstep with one run of scale 1.
    """
    return vqe_lockstep(h, [(1.0, cfg)], kind, shots)[0]
