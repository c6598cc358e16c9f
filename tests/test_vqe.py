import math

import numpy as np
import pytest

from bhvqe import vqe
from bhvqe.ansatz import AnsatzKind, build
from bhvqe.circuits import expectation, run
from bhvqe.errors import NonFiniteObjectiveError
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
from bhvqe.vqe import SpsaConfig, VqeResult, spsa_minimize, vqe_run
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

    def one_step(objective, theta0, cfg, rng=None):
        starts.append(np.array(theta0))
        return VqeResult(best_params=theta0, best_energy=0.0, trace=(0.0,), iterations_used=1)

    monkeypatch.setattr(vqe, "spsa_minimize", one_step)
    vqe_run(h, A3, SpsaConfig(seed=4))
    # the candidate stream vqe_run draws: first child of the seed, one start at a time
    circuit = build(A3, h.n_qubits)
    init_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(3)[0])
    candidates = [init_rng.uniform(-PI, PI, circuit.n_params) for _ in range(vqe.INIT_CANDIDATES)]
    expected = min(candidates, key=lambda th: expectation(run(circuit, th), h))
    assert len(starts) == 1
    np.testing.assert_array_equal(starts[0], expected)


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


def test_ground_energy_linearity_supports_prefactor_scaling():
    # scaling the Hamiltonian scales its ground energy, which is why the
    # normalized chain result transfers to any metric prefactor
    lam = 0.37
    base = exact_ground_energy(CHAIN_H)
    scaled = exact_ground_energy(pauli_helpers.scaled(CHAIN_H, lam))
    assert abs(scaled - lam * base) < 1e-10
