import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhvqe import hamiltonian as ham
from bhvqe import vqe
from bhvqe.ansatz import AnsatzKind, build
from bhvqe.circuits import N_PARAM_SLOTS, expectation, run
from bhvqe.errors import DomainError, NonFiniteObjectiveError
from bhvqe.hamiltonian import (
    DISJOINT,
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    assemble,
    exact_ground_energy,
    parity_eigenvalues,
)
from bhvqe.lattice import LatticeSpec
from bhvqe.vqe import SpsaConfig, spsa_minimize, vqe_lockstep, vqe_run
import golden_outputs
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


@pytest.mark.parametrize("field, value, error", [
    ("max_iter", 2.5, TypeError),
    ("max_iter", True, TypeError),
    ("max_iter", "10", TypeError),
    ("window", 2.5, TypeError),
    ("window", True, TypeError),
    ("seed", -1, ValueError),
    ("seed", 1.0, TypeError),
    ("seed", False, TypeError),
    ("seed", None, TypeError),
])
def test_spsa_config_rejects_non_integer_counts_and_seeds(field, value, error):
    # caught when the config is built, not deep inside a run
    with pytest.raises(error):
        SpsaConfig(**{field: value})


@pytest.mark.parametrize("field, value, error", [
    ("a", math.inf, ValueError),
    ("c", math.inf, ValueError),
    ("stability_a", math.inf, ValueError),
    ("tol", math.inf, ValueError),
    ("a", -math.inf, ValueError),
    ("gamma", math.nan, ValueError),
    ("a", True, TypeError),
    ("alpha", "0.6", TypeError),
    ("tol", None, TypeError),
])
def test_spsa_config_rejects_non_finite_or_non_real_floats(field, value, error):
    # an infinite gain steps theta to inf and fails only inside the run
    with pytest.raises(error):
        SpsaConfig(**{field: value})


def test_spsa_config_stores_its_float_fields_as_floats():
    cfg = SpsaConfig(a=1, c=np.float64(0.5), alpha=1, stability_a=10, tol=0)
    names = ("a", "c", "alpha", "gamma", "stability_a", "tol")
    assert all(type(getattr(cfg, name)) is float for name in names)
    assert cfg == SpsaConfig(a=1.0, c=0.5, alpha=1.0, stability_a=10.0, tol=0.0)


def test_spsa_config_accepts_numpy_integers():
    cfg = SpsaConfig(max_iter=np.int64(7), window=np.int32(2), seed=np.uint64(2**63))
    assert (cfg.max_iter, cfg.window, cfg.seed) == (7, 2, 2**63)


def test_spsa_minimizes_quadratic_bowl():
    cfg = SpsaConfig(max_iter=200, seed=0)
    result = spsa_minimize(lambda th: float(np.sum(th**2)), np.array([1.0, 1.0]), cfg)
    assert result.best_energy < 1e-3
    assert result.iterations_used <= 200
    assert len(result.trace) == result.iterations_used


def test_spsa_constant_objective_stops_at_window():
    cfg = SpsaConfig(window=10, seed=1)
    result = spsa_minimize(lambda th: 4.2, np.array([0.3, -0.8]), cfg)
    assert result.converged
    assert result.iterations_used == 10
    assert result.best_energy == 4.2
    assert all(e == 4.2 for e in result.trace)


def test_spsa_deterministic_for_seeded_rng():
    cfg = SpsaConfig(max_iter=50, seed=3)
    objective = lambda th: float(np.sum(th**2))  # noqa: E731
    first = spsa_minimize(objective, np.array([1.0, -1.0]), cfg)
    second = spsa_minimize(objective, np.array([1.0, -1.0]), cfg)
    assert first.trace == second.trace
    np.testing.assert_array_equal(first.best_params, second.best_params)


def test_spsa_rejects_non_finite_objective():
    cfg = SpsaConfig(max_iter=10, seed=0)
    with pytest.raises(NonFiniteObjectiveError):
        spsa_minimize(lambda th: float("nan"), np.array([1.0]), cfg)


def test_spsa_raises_when_its_iterate_runs_away():
    # a slope of 1e80 throws theta to ~2e79 on the first update, where theta +/- c delta ==
    # theta: every later energy is the same, so the stopping rule fires on a frozen point
    cfg = SpsaConfig(max_iter=50, seed=0)
    with pytest.raises(DomainError, match=r"ran away to \|theta\| = "):
        spsa_minimize(lambda th: 1e80 * float(th[0]), np.array([1.0]), cfg)


def test_spsa_best_tracks_every_evaluation():
    cfg = SpsaConfig(max_iter=40, seed=4)
    result = spsa_minimize(lambda th: float(np.sum(th**2)), np.array([0.5, 0.5]), cfg)
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
    a=st.floats(0.01, 0.3),
    c=st.floats(0.01, 0.5),
    alpha=st.floats(0.2, 1.0),
    gamma_share=st.floats(0.01, 0.99),
    stability_a=st.floats(0.0, 50.0),
)
@example(window=3, max_iter=40, tol=1e-6, constant=False, seed=0,
         a=1.0, c=0.1, alpha=0.602, gamma_share=0.101 / 0.602, stability_a=10.0)
def test_spsa_evaluates_and_draws_only_what_it_uses(window, max_iter, tol, constant, seed,
                                                    a, c, alpha, gamma_share, stability_a):
    # no look-ahead probe past the last iteration: the objective runs 1 + 3 per
    # iteration, at the points of the serial loop with its gains written out
    def recorded(calls):
        def objective(th):
            calls.append(th.copy())
            return 1.5 if constant else float(np.sum(th**2))
        return objective

    cfg = SpsaConfig(a=a, c=c, alpha=alpha, gamma=alpha * gamma_share, stability_a=stability_a,
                     max_iter=max_iter, window=window, tol=tol, seed=seed)
    theta0 = np.array([0.4, -0.7, 0.2])
    calls, serial_calls = [], []
    result = spsa_minimize(recorded(calls), theta0, cfg)
    assert len(calls) == 1 + 3 * result.iterations_used
    # and the same points, in the same order, as the serial loop
    best_energy, best_params, trace = serial_spsa(
        recorded(serial_calls), theta0, cfg, np.random.default_rng(cfg.seed))
    np.testing.assert_array_equal(np.array(calls), np.array(serial_calls))
    assert (result.best_energy, result.trace) == (best_energy, trace)
    np.testing.assert_array_equal(result.best_params, best_params)


def test_spsa_allocates_nothing_per_unrun_iteration():
    # a budget of a million iterations that stops after three costs three iterations;
    # the short run first loads numpy.random, which numpy imports on first use
    spsa_minimize(lambda th: 2.0, np.zeros(4), SpsaConfig(max_iter=5, window=3))
    tracemalloc.start()
    try:
        result = spsa_minimize(lambda th: 2.0, np.zeros(4), SpsaConfig(max_iter=10**6, window=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.iterations_used, result.converged) == (3, True)
    assert peak < 2**20


@settings(max_examples=15, deadline=None)
@given(
    n_params=st.integers(0, 40),
    count=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_directions_drawn_in_blocks_equal_one_draw_per_iteration(n_params, count, seed):
    # a VQE run draws its directions in blocks; SPSA's serial loop drew one per iteration
    for block in range(1, 71):
        blocked, serial = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(vqe, "DIRECTION_BLOCK", block):
            rows = list(itertools.islice(vqe._directions(blocked, n_params), count))
        expected = [serial.integers(0, 2, size=n_params) * 2.0 - 1.0 for _ in range(count)]
        np.testing.assert_array_equal(np.reshape(rows, (count, n_params)),
                                      np.reshape(expected, (count, n_params)))
        # the generator draws whole blocks: with block 1, exactly the rows taken
        for _ in range(-count % block):
            serial.integers(0, 2, size=n_params)
        assert blocked.bit_generator.state == serial.bit_generator.state


def test_vqe_single_qubit_z():
    h = pauli_helpers.from_letters(1, [(1.0, "Z")])
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


@pytest.mark.parametrize("family, ground", [("ansatz1", 15), ("ansatz3", 5)])
def test_closed_form_floor_without_an_optimizer(family, ground):
    # the first single-qubit gate on each qubit prepares |+> or |->, every other gate is
    # the identity: pattern bit 3 - q picks qubit q's sign. The unit chain is diagonal in
    # the X basis, so one pattern lands on the ground outcome (ansatz1's CNOTs permute
    # X-basis outcomes, so its pattern differs from ansatz3's +-+-)
    circuit = build(AnsatzKind.from_name(family), 4)
    first: dict[int, int] = {}
    offset = 0  # a gate's angles start here in the parameter vector
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            first.setdefault(gate.qubits[0], offset)  # the U3 theta
        offset += N_PARAM_SLOTS[gate.kind]
    assert sorted(first) == [0, 1, 2, 3]
    thetas = np.zeros((16, circuit.n_params))
    for pattern, q in itertools.product(range(16), range(4)):
        thetas[pattern, first[q]] = -PI / 2 if pattern >> (3 - q) & 1 else PI / 2
    for scale in (1e-3, 0.506, 1.0, 3.0, 1e6):
        h = dataclasses.replace(CHAIN_H, coeffs=scale * CHAIN_H.coeffs)
        floor = scale * PI / 8
        hits = [pattern for pattern, theta in enumerate(thetas)
                if abs(expectation(run(circuit, theta), h) - floor) <= 1e-15 * floor]
        assert hits == [ground]


def test_x_basis_landscape_has_one_floor_and_a_stuck_edge():
    # outcome k of the X-basis measurement has energy weights[k] + offset; a single-qubit
    # flip moves to k ^ 2^b. Energies within `tie` of each other are equal but for rounding
    (setting,) = CHAIN_H.settings
    energy = setting.weights + CHAIN_H.identity_offset
    e0 = exact_ground_energy(CHAIN_H)
    tie = 1e-12 * e0
    flips = [[k ^ 1 << b for b in range(4)] for k in range(16)]

    def downhill(start):  # the outcomes single flips reach without raising the energy
        seen, todo = {start}, [start]
        while todo:
            k = todo.pop()
            step = {j for j in flips[k] if energy[j] <= energy[k] + tie} - seen
            seen |= step
            todo.extend(step)
        return seen

    strict = [k for k in range(16) if all(energy[j] > energy[k] + tie for j in flips[k])]
    assert strict == [5] and abs(energy[5] - e0) <= tie
    no_lower = [k for k in range(16) if all(energy[j] >= energy[k] - tie for j in flips[k])]
    assert no_lower == [5, 6, 10, 11]
    # the 2 E0 edge: no flip that keeps the energy from rising leaves {10, 11}
    assert all(abs(energy[k] - 2 * e0) <= tie for k in (10, 11))
    assert downhill(10) == downhill(11) == {10, 11}
    # 6 sits at the same 2 E0, but its tie 7 has the ground outcome as a neighbour
    assert abs(energy[7] - energy[6]) <= tie and energy[5] < energy[7] - tie
    assert downhill(6) == {5, 6, 7}


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


@pytest.mark.parametrize("h", [pauli_helpers.from_letters(4, ()), CHAIN_H], ids=["all-tied", "chain"])
def test_vqe_screen_picks_first_lowest_candidate(h):
    with golden_outputs.recorded_batches() as batches:
        vqe_run(h, A3, SpsaConfig(seed=4, max_iter=1))
    # a segment's first batch opens with its start point, after the screen it follows
    starts = [after[0] for before, after in zip(batches, batches[1:])
              if len(before) == vqe.INIT_CANDIDATES]
    # the candidate stream vqe_run draws: first child of the seed, one start at a time
    circuit = build(A3, h.n_qubits)
    init_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(3)[0])
    candidates = [init_rng.uniform(-PI, PI, circuit.n_params) for _ in range(vqe.INIT_CANDIDATES)]
    expected = min(candidates, key=lambda th: expectation(run(circuit, th), h))
    assert len(starts) == 1
    np.testing.assert_array_equal(starts[0], expected)


def test_ties_across_segments_keep_the_earliest_best():
    # every energy is 0 and window=1 ends each segment after one iteration: six segments
    # whose bests all tie, so the run's best is the first point evaluated
    with golden_outputs.recorded_batches() as batches:
        result = vqe_run(pauli_helpers.from_letters(4, ()), A3,
                         SpsaConfig(seed=4, max_iter=6, window=1))
    assert sum(len(batch) == vqe.INIT_CANDIDATES for batch in batches) == 6
    assert (result.iterations_used, result.converged, result.best_energy) == (6, True, 0.0)
    # batches[0] is the first screen; the first segment's batch opens with its start point
    np.testing.assert_array_equal(result.best_params, batches[1][0])


def test_lockstep_of_no_runs_builds_nothing():
    # kind None cannot be built, so any circuit construction would raise
    assert vqe_lockstep(CHAIN_H, [], None) == []


def _lockstep_equals_each_run_alone(runs, kind, shots):
    """Run `runs` through two lockstep slots and check each against its run alone.

    Returns the lockstep's run_batch sizes and each run's segment count.
    """
    with mock.patch.object(vqe, "MAX_LOCKSTEP_RUNS", 2), golden_outputs.recorded_batches() as batches:
        results = vqe_lockstep(CHAIN_H, runs, kind, shots=shots)
    segments = []
    for result, run_spec in zip(results, runs):
        with golden_outputs.recorded_batches() as alone:
            (direct,) = vqe_lockstep(CHAIN_H, [run_spec], kind, shots=shots)
        assert result.trace == direct.trace
        assert result.best_energy == direct.best_energy
        assert (result.iterations_used, result.converged) == (direct.iterations_used, direct.converged)
        np.testing.assert_array_equal(result.best_params, direct.best_params)
        # a run alone sends INIT_CANDIDATES rows only to screen a segment's starts
        segments.append(sum(len(rows) == vqe.INIT_CANDIDATES for rows in alone))
    return [len(rows) for rows in batches], segments


@pytest.mark.parametrize("shots", [0, 100], ids=["exact", "shots"])
def test_lockstep_starts_waiting_runs_as_others_finish(shots):
    # five runs of five scales through two slots, of different lengths: in exact
    # mode they share one contraction per step, and each equals its run alone
    scales = [0.3, 1.0, 1.7, 2.55, 4.1]
    runs = [(scale, SpsaConfig(seed=seed, max_iter=10 + 7 * seed)) for seed, scale in enumerate(scales)]
    sizes, _ = _lockstep_equals_each_run_alone(runs, A3, shots)
    assert max(sizes) == 2 * vqe.INIT_CANDIDATES


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(["ansatz1", "ansatz2", "ansatz3"]),
    window=st.integers(1, 3),
    tol=st.sampled_from([1e-2, 1e-1]),
    runs=st.lists(st.tuples(st.floats(0.1, 5.0), st.integers(1, 60)), min_size=2, max_size=5),
    shots=st.sampled_from([0, 50]),
    seed=st.integers(0, 2**16),
)
@example(family="ansatz3", window=2, tol=1e-1, runs=[(0.4, 60), (1.0, 45), (2.3, 60)], shots=0, seed=0)
@example(family="ansatz3", window=1, tol=1e-1, runs=[(1.0, 60), (0.7, 30)], shots=50, seed=0)
def test_lockstep_through_restarts_equals_each_run_alone(family, window, tol, runs, shots, seed):
    # loose stopping rules converge early and restart from fresh screens,
    # which then share steps with other runs' SPSA points
    specs = [(scale, SpsaConfig(seed=seed + i, max_iter=max_iter, window=window, tol=tol))
             for i, (scale, max_iter) in enumerate(runs)]
    _lockstep_equals_each_run_alone(specs, AnsatzKind.from_name(family), shots)


@pytest.mark.parametrize("shots", [0, 50], ids=["exact", "shots"])
def test_lockstep_restart_example_restarts(shots):
    specs = [(scale, SpsaConfig(seed=seed, max_iter=60, window=2, tol=1e-1))
             for seed, scale in enumerate([0.4, 1.0, 2.3, 3.1])]
    _, segments = _lockstep_equals_each_run_alone(specs, A3, shots)
    assert max(segments) >= 2


@pytest.mark.parametrize("key", list(golden_outputs.BATCH_SCHEDULES))
def test_batch_schedule_is_pinned(key):
    sizes = golden_outputs.batch_sizes(key)
    assert golden_outputs.schedule_entry(sizes) == golden_outputs.load()[key]
    if "restarting" in key:
        assert sizes.count(vqe.INIT_CANDIDATES) >= 2


def test_ansatz1_chain_hit_rate_over_fixed_seeds():
    # regression floor at the measured level: 8 of seeds 100-129 within 1e-2 of pi/8
    kind = AnsatzKind.from_name("ansatz1")
    results = vqe_lockstep(CHAIN_H, [(1.0, SpsaConfig(seed=seed)) for seed in range(100, 130)], kind)
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


def test_lockstep_with_shots_equals_each_run_alone_over_several_settings():
    # two 3-qubit N=8 blocks: the greedy cover needs two measurement settings
    h = assemble(None, HamiltonianLayout(variant=DISJOINT, dims=2), LatticeSpec(8))
    assert len(h.settings) == 2
    runs = [(1.0, SpsaConfig(seed=seed, max_iter=8)) for seed in range(3)]
    for result, (_, cfg) in zip(vqe_lockstep(h, runs, A3, shots=50), runs):
        direct = vqe_run(h, A3, cfg, shots=50)
        assert result.trace == direct.trace
        assert result.best_energy == direct.best_energy
        np.testing.assert_array_equal(result.best_params, direct.best_params)


def test_shot_run_builds_its_settings_once(monkeypatch):
    calls = []

    def counted(dim):
        calls.append(dim)
        return parity_eigenvalues(dim)

    monkeypatch.setattr(ham, "parity_eigenvalues", counted)
    h = assemble(None, HamiltonianLayout(variant=PAPER_CHAIN), LatticeSpec(4))
    result = vqe_run(h, A3, SpsaConfig(seed=0, max_iter=20), shots=100)
    assert result.iterations_used == 20
    assert calls == [16]


def test_vqe_runs_at_one_solar_mass():
    # exact energies near 1e9 leave rounding residues far above an absolute 1e-10
    h = assemble(BlackHoleParams(mass=9.136e37, radius=10.0), HamiltonianLayout(variant=PAPER_CHAIN),
                 LatticeSpec(4))
    result = vqe_run(h, AnsatzKind.from_name("ansatz1"), SpsaConfig(seed=0, max_iter=5))
    assert result.iterations_used == 5
    assert result.best_energy >= exact_ground_energy(h) * (1 - 1e-12)


def test_ground_energy_linearity_supports_prefactor_scaling():
    # scaling the Hamiltonian scales its ground energy, which is why the
    # normalized chain result transfers to any metric prefactor
    lam = 0.37
    base = exact_ground_energy(CHAIN_H)
    scaled = exact_ground_energy(pauli_helpers.scaled(CHAIN_H, lam))
    assert abs(scaled - lam * base) < 1e-10


@pytest.mark.parametrize("key", list(golden_outputs.CHAIN_RUNS))
def test_paper_chain_runs_match_pinned_results(key):
    # pinned in the golden file; a deliberate move re-pins it with golden_outputs.py
    assert golden_outputs.chain_run_entry(*golden_outputs.CHAIN_RUNS[key]) == golden_outputs.load()[key]
