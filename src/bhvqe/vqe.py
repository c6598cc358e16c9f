"""SPSA optimizer and the variational ground-state search, run in lockstep.

SPSA estimates the whole gradient from two objective evaluations along a
random +/-1 direction, with the classic decaying gain sequences
a_k = a/(A+k+1)^alpha and c_k = c/(k+1)^gamma. Each iteration also evaluates
the freshly updated iterate so the energy trace matches what the stopping
rule sees: the run halts once `window` consecutive energy differences fall
below `tol`, or at `max_iter`. Because individual iterates can move uphill,
the reported optimum is the best energy seen over every evaluation, together
with the parameters that produced it.

Every optimization is one `_SpsaRun` record, stepped in place: `points` is
the batch of parameter vectors it waits on, and `step` takes their energies
and sets the next batch. A VQE run chains 16-candidate screens and SPSA
segments until its iteration budget is spent. `vqe_lockstep` drives many
runs on scale * h at once: each step it simulates the pending batches of all
active runs in one `run_batch` call, contracts them with the matrix of h in
one product (or each run samples its slice from its own shot stream), and
steps each run with its slice times its scale. Runs are independent, so a
run's result does not depend on which other runs share its calls; `vqe_run`
is the lockstep of one run at scale 1, and `spsa_minimize` steps one segment
with a scalar objective, point by point.

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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import hamiltonian as ham
from .ansatz import AnsatzKind, build
# `run` stays importable as vqe.run: bench/test_bench.py traces it through this module
from .circuits import batch_expectation, run, run_batch, sampled_expectation
from .errors import NonFiniteObjectiveError, finite_float, require_int


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

# What a run's pending batch holds: the candidates of a screen; a segment's
# start point with iteration 0's probes; an iterate with the next iteration's
# probes (look-ahead); an iterate alone; an iteration's probes alone.
_SCREEN, _START, _AHEAD, _VALUE, _PROBES = range(5)


def _gains(cfg: SpsaConfig) -> tuple[list[float], list[float]]:
    """The gain sequences a_k and c_k for every iteration index k < cfg.max_iter."""
    a_k = [cfg.a / (cfg.stability_a + k + 1) ** cfg.alpha for k in range(cfg.max_iter)]
    c_k = [cfg.c / (k + 1) ** cfg.gamma for k in range(cfg.max_iter)]
    return a_k, c_k


class _SpsaRun:
    """One optimization's state, stepped in place: a VQE run, or one segment from theta0.

    `points` is the batch the run waits on and `step` takes their energies,
    in order, and sets the next batch by the look-ahead rule. With init_rng
    the run screens INIT_CANDIDATES starts, runs a segment from the lowest,
    and screens again after each segment that converges; its segments take
    their directions in order from one stream of cfg.max_iter, the most
    iterations they run in total. The best energy is kept with a strict <
    over every SPSA evaluation in row order, so ties keep the first; a NaN
    or Inf SPSA energy raises NonFiniteObjectiveError.
    """

    __slots__ = ("cfg", "a_k", "c_k", "init_rng", "spsa_rng", "block", "undrawn", "directions",
                 "row", "phase", "points", "theta", "c", "delta", "k", "streak", "e_prev",
                 "best_energy", "best_params", "trace", "converged")

    def __init__(self, cfg: SpsaConfig, gains, spsa_rng, n_params: int, *, init_rng=None,
                 theta0=None, block: int = DIRECTION_BLOCK):
        self.cfg, (self.a_k, self.c_k) = cfg, gains
        self.init_rng, self.spsa_rng, self.block = init_rng, spsa_rng, block
        self.undrawn, self.directions, self.row = cfg.max_iter, np.empty((0, n_params)), 0
        self.best_energy, self.best_params = math.inf, None
        self.trace, self.converged = [], False
        if theta0 is None:
            self._screen()
        else:
            self._start(theta0)

    def _direction(self) -> np.ndarray:
        """The next Rademacher direction, from blocks of `block` rows per integers call.

        rng.integers(0, 2) takes one 32-bit draw per entry whatever the shape, so the
        rows equal one draw per iteration and leave rng in the same state once all are taken.
        """
        if self.row == len(self.directions):
            rows = min(self.block, self.undrawn)
            self.undrawn -= rows
            n_params = self.directions.shape[1]
            self.directions = self.spsa_rng.integers(0, 2, size=(rows, n_params)) * 2.0 - 1.0
            self.row = 0
        self.row += 1
        return self.directions[self.row - 1]

    def _screen(self) -> None:
        shape = (INIT_CANDIDATES, self.directions.shape[1])
        self.points, self.phase = self.init_rng.uniform(-np.pi, np.pi, shape), _SCREEN

    def _start(self, theta: np.ndarray) -> None:
        self.theta, self.k, self.streak = theta, 0, 0
        self.points, self.phase = [theta, *self._probes(0)], _START

    def _probes(self, k: int) -> list[np.ndarray]:
        """Take iteration k's direction; its two probe points around theta."""
        self.c, self.delta = c, delta = self.c_k[k], self._direction()
        shift = c * delta
        return [self.theta + shift, self.theta - shift]

    def step(self, energies: list[float]) -> bool:
        """Take the energies of `points` and set the next batch; True once the run is done."""
        phase, cfg, trace = self.phase, self.cfg, self.trace
        if phase == _SCREEN:
            # argmin keeps the first of tied candidates
            self._start(self.points[int(np.argmin(energies))].copy())
            return False
        for point, e in zip(self.points, energies):
            if not math.isfinite(e):
                raise NonFiniteObjectiveError(f"objective returned {e}")
            if e < self.best_energy:
                self.best_energy, self.best_params = e, point
        if phase == _START:
            self.e_prev, e_plus, e_minus = energies
        elif phase == _PROBES:
            e_plus, e_minus = energies
        else:  # iteration k's iterate, then (_AHEAD) iteration k + 1's probes
            e_new = energies[0]
            trace.append(e_new)
            self.streak = self.streak + 1 if abs(e_new - self.e_prev) < cfg.tol else 0
            self.e_prev = e_new
            if self.streak >= cfg.window:
                self.converged = True
                if self.init_rng is None or len(trace) == cfg.max_iter:
                    return True
                self._screen()
                return False
            if len(trace) == cfg.max_iter:
                return True
            self.k += 1
            if phase == _VALUE:
                self.points, self.phase = self._probes(self.k), _PROBES
                return False
            _, e_plus, e_minus = energies
        # iteration k's update; delta is +/-1, so this equals dividing by 2 c_k delta
        descent = self.a_k[self.k] * ((e_plus - e_minus) / (2.0 * self.c))
        self.theta = theta = self.theta - descent * self.delta
        if self.streak + 1 < cfg.window and len(trace) + 1 < cfg.max_iter:
            # iteration k + 1 runs whatever this energy is: probe it in the same batch
            self.points, self.phase = [theta, *self._probes(self.k + 1)], _AHEAD
        else:
            self.points, self.phase = [theta], _VALUE
        return False

    def result(self) -> VqeResult:
        trace = tuple(self.trace)
        return VqeResult(self.best_params, self.best_energy, trace, self.converged, len(trace))


def spsa_minimize(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    cfg: SpsaConfig,
    rng: np.random.Generator | None = None,
) -> VqeResult:
    """Minimize `objective` from `theta0` with simultaneous-perturbation SPSA.

    One segment, no screen: evaluates the run's points one at a time, in
    order, so the objective is called 1 + 3 * iterations_used times.
    Deterministic for a fixed cfg.seed. Raises NonFiniteObjectiveError if
    the objective ever returns NaN or Inf.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    theta0 = np.asarray(theta0, dtype=float).copy()
    # one direction per draw: rng advances only by the iterations that run
    record = _SpsaRun(cfg, _gains(cfg), rng, theta0.size, theta0=theta0, block=1)
    while not record.step([float(objective(point)) for point in record.points]):
        pass
    return record.result()


def vqe_lockstep(
    h: ham.PauliHamiltonian,
    runs: Sequence[tuple[float, SpsaConfig]],
    kind: AnsatzKind,
    shots: int = 0,
) -> list[VqeResult]:
    """vqe_run on scale * h for every (scale, cfg) pair, all advanced together.

    Each step simulates the pending batches of all active runs in one
    run_batch call and steps every run with its slice of the energies, times
    its scale: a run's screen can share a call with other runs' SPSA steps,
    and a finished run drops out. Each result equals vqe_lockstep(h,
    [(scale, cfg)], kind, shots) bit for bit. Returns [] for no runs.
    """
    if not runs:
        return []
    circuit = build(kind, h.n_qubits)
    matrix = ham.to_matrix(h) if shots == 0 else None
    results: list[VqeResult] = [None] * len(runs)
    waiting = iter(enumerate(runs))
    gains = {}  # one pair of gain tables per distinct gain setting
    active = []  # (index, scale, shot generator, record)
    while True:
        for index, (scale, cfg) in itertools.islice(waiting, MAX_LOCKSTEP_RUNS - len(active)):
            streams = np.random.SeedSequence(cfg.seed).spawn(3)
            init_rng, spsa_rng, shot_rng = map(np.random.default_rng, streams)
            key = (cfg.a, cfg.c, cfg.alpha, cfg.gamma, cfg.stability_a, cfg.max_iter)
            if key not in gains:
                gains[key] = _gains(cfg)
            record = _SpsaRun(cfg, gains[key], spsa_rng, circuit.n_params, init_rng=init_rng)
            active.append((index, float(scale), shot_rng, record))
        if not active:
            return results
        states = run_batch(circuit, np.array([p for *_, record in active for p in record.points]))
        values = None if matrix is None else batch_expectation(states, matrix).tolist()
        start = 0
        for index, scale, shot_rng, record in active:
            stop = start + len(record.points)
            if matrix is None:
                energies = sampled_expectation(states[start:stop], h, shots, shot_rng).tolist()
            elif stop - start > 1:
                energies = values[start:stop]
            else:
                # numpy multiplies a lone row by gemv, which rounds unlike a row of a gemm
                energies = batch_expectation(states[start:stop], matrix).tolist()
            if record.step([scale * e for e in energies]):
                results[index] = record.result()
            start = stop
        active = [entry for entry in active if results[entry[0]] is None]


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
