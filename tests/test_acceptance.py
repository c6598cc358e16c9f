"""End-to-end acceptance checks, one test per criterion.

Each test prints `criterion NN pass: <label>` once its assertions hold, so a
`pytest tests/test_acceptance.py -v -s` run shows one line per criterion;
a failed criterion surfaces as the test's FAILED line instead.
"""

import hashlib
import itertools
import json
import math
import time

import numpy as np

from bhvqe.ansatz import AnsatzKind, build
from bhvqe.circuits import expectation, run
from bhvqe.cli import main
from bhvqe.hamiltonian import (
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    assemble,
    exact_ground_energy,
    pauli_decompose,
)
from bhvqe.lattice import LatticeSpec, momentum_operator, momentum_squared, position_operator
from bhvqe.observables import power, sweep, temperature
from bhvqe.observables import METHOD_EXACT, RADIUS_GM_MULTIPLE
from bhvqe.vqe import SpsaConfig, vqe_run
from pauli_helpers import coefficient, letter_terms

PI = math.pi
CHAIN = HamiltonianLayout(variant=PAPER_CHAIN)
N4 = LatticeSpec(4)

MOMENTUM_4_EXPECTED = (math.sqrt(PI) / (8 * math.sqrt(2))) * np.array(
    [
        [-2, -2 - 2j, -2, -2 + 2j],
        [-2 + 2j, -2, -2 - 2j, -2],
        [-2, -2 + 2j, -2, -2 - 2j],
        [-2 - 2j, -2, -2 + 2j, -2],
    ]
)

_VQE_CACHE = {}


def note(index, label):
    print(f"criterion {index:02d} pass: {label}")


def rho_zero_chain():
    return assemble(BlackHoleParams(mass=1e-30, radius=1.0), CHAIN, N4)


def rho_zero_runs():
    """Ten seeded variational runs on the vanishing-curvature chain, cached."""
    if "runs" not in _VQE_CACHE:
        h = rho_zero_chain()
        started = time.perf_counter()
        runs = [vqe_run(h, AnsatzKind.from_name("ansatz3"), SpsaConfig(seed=seed))
                for seed in range(10)]
        _VQE_CACHE["elapsed"] = time.perf_counter() - started
        _VQE_CACHE["runs"] = runs
        _VQE_CACHE["exact"] = exact_ground_energy(h)
    return _VQE_CACHE["runs"], _VQE_CACHE["exact"], _VQE_CACHE["elapsed"]


def test_criterion_01_lattice_operators():
    momentum_operator(N4)  # warm the code path before timing
    started = time.perf_counter()
    p = momentum_operator(N4)
    x = position_operator(N4)
    elapsed = time.perf_counter() - started
    assert np.abs(p - MOMENTUM_4_EXPECTED).max() < 1e-12
    expected_x = np.diag(math.sqrt(PI / 8) * np.array([-2.0, -1.0, 0.0, 1.0]))
    assert np.abs(x - expected_x).max() < 1e-12
    assert elapsed < 1e-3
    note(1, f"lattice operators match reference entrywise ({elapsed * 1e6:.0f} us)")


def test_criterion_02_momentum_squared_decomposition():
    h = pauli_decompose(momentum_squared(N4))
    expected = {"II": 3 * PI / 16, "IX": PI / 8, "XI": PI / 16, "XX": PI / 8}
    assert {s for _, s in letter_terms(h)} == set(expected)
    assert len(letter_terms(h)) == 4
    for string, value in expected.items():
        assert abs(coefficient(h, string) - value) < 1e-12
    note(2, "momentum-squared splits into exactly four Pauli terms")


def test_criterion_03_chain_ground_energy_dual_route():
    assemble(None, CHAIN, N4)  # warm up
    started = time.perf_counter()
    h = assemble(None, CHAIN, N4)
    diagonalized = exact_ground_energy(h)
    enumerated = math.inf
    for signs in itertools.product((1.0, -1.0), repeat=4):
        value = 0.0
        for c, string in letter_terms(h):
            prod = c
            for q, letter in enumerate(string):
                if letter == "X":
                    prod *= signs[q]
            value += prod
        enumerated = min(enumerated, value)
    elapsed = time.perf_counter() - started
    assert abs(diagonalized - PI / 8) < 1e-10
    assert abs(enumerated - PI / 8) < 1e-10
    assert abs(diagonalized - enumerated) < 1e-10
    assert elapsed < 1e-2
    note(3, f"chain ground energy pi/8 by two routes ({elapsed * 1e3:.2f} ms)")


def test_criterion_04_closed_form_ground_energy():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        mass = float(rng.uniform(0.1, 5.0))
        radius = float(rng.uniform(2.0 * mass, 40.0))
        params = BlackHoleParams(mass=mass, radius=radius)
        h = assemble(params, CHAIN, N4)
        expected = (PI / 16) * (1.0 + params.rho) ** 0.25
        assert abs(exact_ground_energy(h) - expected) < 1e-10
    note(4, "ground energy matches (pi/16)(1 + GM/2r)^(1/4) at 20 random points")


def test_criterion_05_variational_convergence():
    runs, exact, elapsed = rho_zero_runs()
    hits = 0
    for result in runs:
        assert result.iterations_used <= 500
        if abs(result.best_energy - exact) < 1e-2:
            hits += 1
    assert hits >= 8
    assert elapsed < 30.0
    note(5, f"{hits}/10 seeds within 1e-2 of pi/16 in {elapsed:.1f} s")


def test_criterion_06_variational_bound():
    runs, exact, _ = rho_zero_runs()
    violations = 0
    for result in runs:
        if result.best_energy < exact - 1e-10:
            violations += 1
        if min(result.trace) < exact - 1e-10:
            violations += 1
    assert violations == 0
    note(6, "no exact-expectation energy undercuts the true ground energy")


def test_criterion_07_curve_fit_recovery(tmp_path, capsys):
    radius = 10.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mass_grid": [float(m) for m in range(1, 11)],
        "radius_grid": [radius],
        "seeds": [],
    }))
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out_path)]) == 0
    assert main(["fit", "--in", str(out_path), "--curve", "mass"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    fields = dict(part.split("=") for part in printed.split())
    a, c, rms = float(fields["a"]), float(fields["c"]), float(fields["rms"])
    assert abs(a - PI / 16) / (PI / 16) < 1e-6
    assert abs(c - 1.0 / (2.0 * radius)) / (1.0 / (2.0 * radius)) < 1e-6
    assert rms < 1e-10
    note(7, "curve fit recovers a = pi/16 and c = 1/(2r) from a sweep table")


def test_criterion_08_observable_monotonicity():
    masses = [0.5, 1.0, 2.0, 4.0, 8.0]
    temps = [temperature(m) for m in masses]
    powers = [power(m) for m in masses]
    assert all(hi > lo for hi, lo in zip(temps, temps[1:]))
    assert all(hi > lo for hi, lo in zip(powers, powers[1:]))
    # power against temperature, sorted by temperature, is strictly increasing
    by_temp = sorted(zip(temps, powers))
    assert all(p2 > p1 for (_, p1), (_, p2) in zip(by_temp, by_temp[1:]))
    # with unit couplings the two observables satisfy P = T^2 exactly
    for mass in masses:
        assert power(mass) == temperature(mass) ** 2
    # the same ordering holds for sweep records, in both radius conventions
    grid = [float(m) for m in range(1, 8)]
    fixed = sweep(grid, [20.0], METHOD_EXACT, SpsaConfig())
    derived = sweep(grid, [3.0], METHOD_EXACT, SpsaConfig(), radius_mode=RADIUS_GM_MULTIPLE)
    for records in (fixed, derived):
        ts = [rec.temperature for rec in records]
        ps = [rec.power for rec in records]
        assert all(hi > lo for hi, lo in zip(ts, ts[1:]))
        assert all(hi > lo for hi, lo in zip(ps, ps[1:]))
    note(8, "temperature and power are strictly monotone with P = T^2 at unit couplings")


def test_criterion_09_sweep_reproducibility(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mass_grid": [1.0, 2.0, 3.0],
        "radius_grid": [10.0],
        "seeds": [0],
    }))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(first)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    digest_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())["outputs"][0]["sha256"]
    digest_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())["outputs"][0]["sha256"]
    assert digest_a == digest_b
    assert digest_a == hashlib.sha256(first.read_bytes()).hexdigest()
    note(9, "repeated sweeps are byte-identical with matching manifest digests")


def test_criterion_10_ansatz_reaches_ground_state():
    circuit = build(AnsatzKind.from_name("ansatz3"), 4)
    theta = np.zeros(circuit.n_params)
    for q, phi in enumerate((0.0, PI, 0.0, PI)):
        theta[4 * q] = PI / 2
        theta[4 * q + 1] = phi
    h = assemble(None, CHAIN, N4)
    energy = expectation(run(circuit, theta), h)
    assert abs(energy - PI / 8) < 1e-9
    note(10, "hand-built parameters drive the product ansatz to the exact ground state")
