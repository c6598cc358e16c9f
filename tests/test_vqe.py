import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvqe import vqe
from bhvqe.ansatz import AnsatzKind, build
from bhvqe.circuits import expectation, run, run_batch
from bhvqe.errors import NonFiniteObjectiveError, QubitMismatchError
from bhvqe.hamiltonian import (
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    PauliHamiltonian,
    assemble,
    exact_ground_energy,
)
from bhvqe.lattice import LatticeSpec
from bhvqe.linalg import PauliTerm
from bhvqe.vqe import SpsaConfig, VqeResult, spsa_minimize, vqe_lockstep, vqe_run
import pauli_helpers

PI = math.pi

CHAIN_H = assemble(None, HamiltonianLayout(variant=PAPER_CHAIN), LatticeSpec(4))
A3 = AnsatzKind.from_name("ansatz3")


def test_spsa_config_defaults():
    cfg = SpsaConfig()
    assert cfg.alpha == 0.602
    assert cfg.gamma == 0.101
    assert cfg.c == 0.1
    assert cfg.max_iter == 500
    assert cfg.tol == 1e-4
    assert cfg.window == 10


def test_spsa_config_validation():
    with pytest.raises(ValueError):
        SpsaConfig(a=0.0)
    with pytest.raises(ValueError):
        SpsaConfig(c=-0.1)
    with pytest.raises(ValueError):
        SpsaConfig(alpha=0.1, gamma=0.2)
    with pytest.raises(ValueError):
        SpsaConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SpsaConfig(max_iter=0)
    with pytest.raises(ValueError):
        SpsaConfig(tol=-1e-6)
    with pytest.raises(ValueError):
        SpsaConfig(window=0)
    # a negative or NaN A divides by zero or turns the gains complex; NaN tol never stops
    for stability_a in (-1.0, -5.5, math.nan):
        with pytest.raises(ValueError):
            SpsaConfig(stability_a=stability_a)
    with pytest.raises(ValueError):
        SpsaConfig(tol=math.nan)
    assert SpsaConfig(stability_a=0.0, tol=0.0).stability_a == 0.0


def test_spsa_minimizes_quadratic_bowl():
    cfg = SpsaConfig(max_iter=200)
    result = spsa_minimize(lambda th: float(np.sum(th**2)), np.array([1.0, 1.0]), cfg,
                           rng=np.random.default_rng(0))
    assert result.best_energy < 1e-3
    assert result.iterations_used <= 200
    assert len(result.trace) == result.iterations_used


def test_spsa_constant_objective_stops_at_window():
    cfg = SpsaConfig(window=10)
    result = spsa_minimize(lambda th: 4.2, np.array([0.3, -0.8]), cfg,
                           rng=np.random.default_rng(1))
    assert result.converged
    assert result.iterations_used == 10
    assert result.best_energy == 4.2
    assert all(e == 4.2 for e in result.trace)


def test_spsa_deterministic_for_seeded_rng():
    cfg = SpsaConfig(max_iter=50)
    objective = lambda th: float(np.sum(th**2))  # noqa: E731
    first = spsa_minimize(objective, np.array([1.0, -1.0]), cfg, rng=np.random.default_rng(3))
    second = spsa_minimize(objective, np.array([1.0, -1.0]), cfg, rng=np.random.default_rng(3))
    assert first.trace == second.trace
    np.testing.assert_array_equal(first.best_params, second.best_params)


def test_spsa_rejects_non_finite_objective():
    cfg = SpsaConfig(max_iter=10)
    with pytest.raises(NonFiniteObjectiveError):
        spsa_minimize(lambda th: float("nan"), np.array([1.0]), cfg,
                      rng=np.random.default_rng(0))


def test_spsa_best_tracks_every_evaluation():
    cfg = SpsaConfig(max_iter=40)
    result = spsa_minimize(lambda th: float(np.sum(th**2)), np.array([0.5, 0.5]), cfg,
                           rng=np.random.default_rng(4))
    # best_energy also sees the probe evaluations, so it lower-bounds the trace
    assert result.best_energy <= min(result.trace) + 1e-15


def serial_spsa(objective, theta0, cfg, rng):
    """Reference: SPSA evaluated one point at a time; returns (best energy, best params, trace)."""
    theta = np.asarray(theta0, dtype=float).copy()
    best = (math.inf, theta.copy())

    def evaluate(point):
        nonlocal best
        e = float(objective(point))
        if e < best[0]:
            best = (e, point.copy())
        return e

    trace, streak = [], 0
    e_prev = evaluate(theta)
    for k in range(cfg.max_iter):
        a_k = cfg.a / (cfg.stability_a + k + 1) ** cfg.alpha
        c_k = cfg.c / (k + 1) ** cfg.gamma
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        e_plus = evaluate(theta + c_k * delta)
        e_minus = evaluate(theta - c_k * delta)
        theta = theta - a_k * ((e_plus - e_minus) / (2.0 * c_k * delta))
        e_new = evaluate(theta)
        trace.append(e_new)
        streak = streak + 1 if abs(e_new - e_prev) < cfg.tol else 0
        e_prev = e_new
        if streak >= cfg.window:
            break
    return best[0], best[1], tuple(trace)


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(1, 5),
    max_iter=st.integers(1, 40),
    tol=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]),
    constant=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_spsa_evaluates_and_draws_only_what_it_uses(window, max_iter, tol, constant, seed):
    # no look-ahead probe past the last iteration: the objective runs 1 + 3 per
    # iteration, and the rng has drawn exactly one direction per iteration
    def recorded(calls):
        def objective(th):
            calls.append(th.copy())
            return 1.5 if constant else float(np.sum(th**2))
        return objective

    cfg = SpsaConfig(max_iter=max_iter, window=window, tol=tol)
    theta0 = np.array([0.4, -0.7, 0.2])
    calls, serial_calls = [], []
    rng = np.random.default_rng(seed)
    result = spsa_minimize(recorded(calls), theta0, cfg, rng=rng)
    assert len(calls) == 1 + 3 * result.iterations_used
    fresh = np.random.default_rng(seed)
    for _ in range(result.iterations_used):
        fresh.integers(0, 2, size=3)
    assert rng.bit_generator.state == fresh.bit_generator.state
    # and the same points, in the same order, as the serial loop
    best_energy, best_params, trace = serial_spsa(
        recorded(serial_calls), theta0, cfg, np.random.default_rng(seed))
    np.testing.assert_array_equal(np.array(calls), np.array(serial_calls))
    assert (result.best_energy, result.trace) == (best_energy, trace)
    np.testing.assert_array_equal(result.best_params, best_params)


def test_vqe_single_qubit_z():
    h = PauliHamiltonian.from_terms(1, (PauliTerm(1.0, "Z"),))
    result = vqe_run(h, A3, SpsaConfig(seed=0))
    assert abs(result.best_energy - (-1.0)) < 1e-3


def test_vqe_chain_reaches_ground_for_most_seeds():
    hits = 0
    for seed in range(10):
        result = vqe_run(CHAIN_H, A3, SpsaConfig(seed=seed))
        assert result.iterations_used <= 500
        assert len(result.trace) == result.iterations_used
        if abs(result.best_energy - PI / 8) < 1e-2:
            hits += 1
    assert hits >= 8


def test_ansatz2_default_depth_stays_above_chain_ground_state():
    # U3 + controlled-U3 at reps=1 cannot represent the chain ground state, so
    # the floor is the circuit's, not the optimizer's (reps=2 reaches it)
    kind = AnsatzKind.from_name("ansatz2")
    for seed in range(5):
        assert vqe_run(CHAIN_H, kind, SpsaConfig(seed=seed)).best_energy >= PI / 8 + 0.05


def test_vqe_physical_point():
    params = BlackHoleParams(mass=1.0, radius=2.0)
    h = assemble(params, HamiltonianLayout(variant=PAPER_CHAIN), LatticeSpec(4))
    exact = exact_ground_energy(h)
    result = vqe_run(h, A3, SpsaConfig(seed=1))
    assert abs(result.best_energy - exact) < 1e-2


def test_vqe_respects_variational_bound():
    ground = exact_ground_energy(CHAIN_H)
    for seed in (0, 1, 2):
        result = vqe_run(CHAIN_H, A3, SpsaConfig(seed=seed, max_iter=120))
        assert result.best_energy >= ground - 1e-10
        assert min(result.trace) >= ground - 1e-10


@pytest.mark.parametrize("h", [PauliHamiltonian.from_terms(4, ()), CHAIN_H], ids=["all-tied", "chain"])
def test_vqe_screen_picks_first_lowest_candidate(monkeypatch, h):
    starts = []

    def one_step(theta0, cfg, rng):
        starts.append(np.array(theta0))
        return VqeResult(best_params=theta0, best_energy=0.0, trace=(0.0,), iterations_used=1)
        yield  # a segment that needs no evaluation

    monkeypatch.setattr(vqe, "spsa_segment", one_step)
    vqe_run(h, A3, SpsaConfig(seed=4))
    # the candidate stream vqe_run draws: first child of the seed, one start at a time
    circuit = build(A3, h.n_qubits)
    init_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(3)[0])
    candidates = [init_rng.uniform(-PI, PI, circuit.n_params) for _ in range(vqe.INIT_CANDIDATES)]
    expected = min(candidates, key=lambda th: expectation(run(circuit, th), h))
    assert len(starts) == 1
    np.testing.assert_array_equal(starts[0], expected)


def test_lockstep_of_no_runs_builds_nothing():
    # kind None cannot be built, so any circuit construction would raise
    assert vqe_lockstep([], None) == []


def test_lockstep_rejects_mixed_widths():
    one_qubit = PauliHamiltonian.from_terms(1, (PauliTerm(1.0, "Z"),))
    with pytest.raises(QubitMismatchError):
        vqe_lockstep([(CHAIN_H, SpsaConfig()), (one_qubit, SpsaConfig())], A3)


def test_lockstep_starts_waiting_runs_as_others_finish(monkeypatch):
    # five runs through two slots, of different lengths: each equals its run alone
    sizes = []

    def spy(circuit, params):
        sizes.append(len(params))
        return run_batch(circuit, params)

    monkeypatch.setattr(vqe, "MAX_LOCKSTEP_RUNS", 2)
    monkeypatch.setattr(vqe, "run_batch", spy)
    runs = [(CHAIN_H, SpsaConfig(seed=seed, max_iter=10 + 7 * seed)) for seed in range(5)]
    results = vqe_lockstep(runs, A3, shots=100)
    assert max(sizes) == 2 * vqe.INIT_CANDIDATES
    for result, (h, cfg) in zip(results, runs):
        direct = vqe_run(h, A3, cfg, shots=100)
        assert result.trace == direct.trace
        np.testing.assert_array_equal(result.best_params, direct.best_params)


def test_ansatz1_chain_hit_rate_over_fixed_seeds():
    # regression floor at the measured level: 8 of seeds 100-129 within 1e-2 of pi/8
    kind = AnsatzKind.from_name("ansatz1")
    results = vqe_lockstep([(CHAIN_H, SpsaConfig(seed=seed)) for seed in range(100, 130)], kind)
    assert sum(abs(r.best_energy - PI / 8) < 1e-2 for r in results) >= 8


def test_vqe_deterministic_by_seed():
    first = vqe_run(CHAIN_H, A3, SpsaConfig(seed=5, max_iter=60))
    second = vqe_run(CHAIN_H, A3, SpsaConfig(seed=5, max_iter=60))
    other = vqe_run(CHAIN_H, A3, SpsaConfig(seed=6, max_iter=60))
    assert first.trace == second.trace
    assert first.best_energy == second.best_energy
    assert first.trace != other.trace


def test_vqe_with_shots_is_deterministic_and_noisy():
    cfg = SpsaConfig(seed=2, max_iter=60)
    noisy = vqe_run(CHAIN_H, A3, cfg, shots=1024)
    again = vqe_run(CHAIN_H, A3, cfg, shots=1024)
    exact = vqe_run(CHAIN_H, A3, cfg, shots=0)
    assert noisy.trace == again.trace
    assert noisy.trace != exact.trace
    assert abs(noisy.best_energy - PI / 8) < 5e-2


@pytest.mark.parametrize("k", [0, 1, 3, 16])
def test_shot_seeds_drawn_as_one_array_equal_scalar_draws(k):
    # a run draws its states' shot seeds as one array; the serial loop drew them one by one
    batched, serial = np.random.default_rng(11), np.random.default_rng(11)
    seeds = batched.integers(2**63, size=k)
    assert seeds.tolist() == [int(serial.integers(2**63)) for _ in range(k)]
    assert batched.bit_generator.state == serial.bit_generator.state


def test_ground_energy_linearity_supports_prefactor_scaling():
    # scaling the Hamiltonian scales its ground energy, which is why the
    # normalized chain result transfers to any metric prefactor
    lam = 0.37
    base = exact_ground_energy(CHAIN_H)
    scaled = exact_ground_energy(pauli_helpers.scaled(CHAIN_H, lam))
    assert abs(scaled - lam * base) < 1e-10
