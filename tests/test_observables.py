import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvqe.ansatz import AnsatzKind
from bhvqe.errors import (
    DegenerateDataError,
    DomainError,
    NegativeInterceptError,
    OutOfRangeError,
)
from bhvqe.hamiltonian import (
    DISJOINT,
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    assemble,
    energy_scale,
    exact_ground_energy,
)
from bhvqe.lattice import LatticeSpec
from bhvqe.observables import (
    METHOD_EXACT,
    METHOD_VQE,
    RADIUS_ABSOLUTE,
    RADIUS_GM_MULTIPLE,
    FitResult,
    fit_energy_vs_mass,
    fit_energy_vs_radius,
    mass_from_energy,
    plan,
    power,
    records,
    require_nonzero_energies,
    run_seed,
    sweep,
    temperature,
    vqe_runs,
)
from bhvqe.vqe import INIT_CANDIDATES, SpsaConfig, vqe_lockstep
import golden_outputs
from pauli_helpers import letter_terms

PI = math.pi

CHAIN = HamiltonianLayout(variant=PAPER_CHAIN)
N4 = LatticeSpec(4)
A3 = AnsatzKind.from_name("ansatz3")


def chain_energy(mass, radius):
    return exact_ground_energy(assemble(BlackHoleParams(mass=mass, radius=radius), CHAIN, N4))


def test_mass_fit_recovers_closed_form():
    radius = 10.0
    points = [(m, chain_energy(m, radius)) for m in range(1, 11)]
    fit = fit_energy_vs_mass(points)
    assert abs(fit.a - PI / 16) / (PI / 16) < 1e-8
    assert abs(fit.c - 1.0 / (2.0 * radius)) / (1.0 / (2.0 * radius)) < 1e-8
    assert fit.rms_residual < 1e-10
    assert fit.n_points == 10


def test_radius_fit_recovers_closed_form():
    mass = 2.0
    points = [(r, chain_energy(mass, r)) for r in (4.0, 6.0, 8.0, 12.0, 20.0)]
    fit = fit_energy_vs_radius(points)
    assert abs(fit.a - PI / 16) / (PI / 16) < 1e-8
    assert abs(fit.c - mass / 2.0) / (mass / 2.0) < 1e-8
    assert fit.rms_residual < 1e-10


def test_radius_fit_rejects_nonpositive_radii():
    with pytest.raises(DomainError):
        fit_energy_vs_radius([(-1.0, 0.2), (2.0, 0.2), (3.0, 0.2)])


def test_constant_energy_fit_has_zero_slope():
    fit = fit_energy_vs_mass([(m, 0.25) for m in (1.0, 2.0, 3.0, 4.0)])
    assert abs(fit.c) < 1e-12
    assert abs(fit.a - 0.25) < 1e-12
    assert fit.rms_residual < 1e-12


def test_noisy_fit_recovers_parameters():
    rng = np.random.default_rng(13)
    radius = 10.0
    points = [(float(m), chain_energy(m, radius) + float(rng.normal(0.0, 1e-4)))
              for m in range(1, 11)]
    fit = fit_energy_vs_mass(points)
    assert abs(fit.a - PI / 16) / (PI / 16) < 0.05
    assert abs(fit.c - 0.05) / 0.05 < 0.05
    assert fit.rms_residual < 1e-3


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        fit_energy_vs_mass([(1.0, 0.2), (2.0, 0.21)])
    with pytest.raises(DegenerateDataError):
        fit_energy_vs_mass([(1.0, 0.2), (1.0, 0.21), (1.0, 0.22)])
    with pytest.raises(DegenerateDataError):
        fit_energy_vs_mass([(1.0, 0.2), (2.0, -0.1), (3.0, 0.22)])
    with pytest.raises(DegenerateDataError):
        fit_energy_vs_mass([(1.0, 0.2), (2.0, float("nan")), (3.0, 0.22)])


def test_fit_negative_intercept():
    with pytest.raises(NegativeInterceptError):
        fit_energy_vs_mass([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    # E^4 = 10, 5, 1e-4, 1e-4: a positive intercept, but the line falls below 0 at M = 4
    with pytest.raises(NegativeInterceptError, match="^fitted curve is nonpositive at a sample point$"):
        fit_energy_vs_mass([(1.0, 10**0.25), (2.0, 5**0.25), (3.0, 0.1), (4.0, 0.1)])


def test_mass_inversion_roundtrip():
    radius = 10.0
    fit = fit_energy_vs_mass([(m, chain_energy(m, radius)) for m in range(1, 11)])
    for mass in (1.0, 2.0, 5.0):
        recovered = mass_from_energy(fit, chain_energy(mass, radius))
        assert abs(recovered - mass) < 1e-9


def test_mass_inversion_unit_point():
    fit = FitResult(a=0.2, c=0.05, rms_residual=0.0, n_points=5)
    energy = 0.2 * (1.0 + 0.05) ** 0.25
    assert abs(mass_from_energy(fit, energy) - 1.0) < 1e-12


def test_mass_inversion_domain_errors():
    fit = FitResult(a=0.2, c=0.05, rms_residual=0.0, n_points=5)
    with pytest.raises(OutOfRangeError):
        mass_from_energy(fit, 0.2)  # at the zero-mass floor
    with pytest.raises(OutOfRangeError):
        mass_from_energy(fit, 0.15)
    flat = FitResult(a=0.2, c=0.0, rms_residual=0.0, n_points=5)
    with pytest.raises(DomainError):
        mass_from_energy(flat, 0.25)
    for energy in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRangeError):
            mass_from_energy(fit, energy)


def test_temperature_and_power_values():
    assert temperature(1.0) == 1.0
    assert temperature(2.0) == 0.5
    assert power(10.0) == pytest.approx(0.01, abs=1e-18)
    assert temperature(2.0, kappa_t=3.0) == 1.5
    assert power(2.0, kappa_p=8.0) == 2.0
    with pytest.raises(DomainError):
        temperature(0.0)
    with pytest.raises(DomainError):
        power(-1.0)


def test_power_equals_temperature_squared_at_unit_couplings():
    for mass in (0.5, 1.0, 2.0, 4.0, 8.0):
        assert power(mass) == temperature(mass) ** 2


def test_temperature_and_power_monotone_decreasing():
    masses = [0.5, 1.0, 2.0, 5.0, 11.0]
    temps = [temperature(m) for m in masses]
    powers = [power(m) for m in masses]
    assert all(hi > lo for hi, lo in zip(temps, temps[1:]))
    assert all(hi > lo for hi, lo in zip(powers, powers[1:]))


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("observable", [temperature, power])
def test_observables_reject_non_positive_kappa(observable, kappa):
    with pytest.raises(DomainError):
        observable(2.0, kappa)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("observable", [temperature, power])
def test_observables_reject_non_finite_mass(observable, mass):
    # NaN passed `mass <= 0` and came back as a NaN temperature; inf gave 0.0
    with pytest.raises(DomainError):
        observable(mass)


@pytest.mark.parametrize("observable, mass, kappa", [
    (temperature, 1e-310, 1.0),  # 1 / M overflows to inf
    (temperature, 1e200, 1e-200),  # kappa / M underflows to 0
    (power, 1e200, 1.0),  # M^2 overflows: OverflowError
    (power, 1e-200, 1.0),  # M^2 underflows to 0: ZeroDivisionError
    (power, 1e-160, 1e-10),  # M^2 is 1e-320, subnormal: the power overflows to inf
    (power, 1e150, 1e-100),  # kappa / M^2 underflows to 0
])
def test_observables_reject_values_outside_the_float_range(observable, mass, kappa):
    with pytest.raises(DomainError, match="at mass"):
        observable(mass, kappa)


def test_sweep_exact_single_point():
    records = sweep([1e-30], [1.0], METHOD_EXACT, SpsaConfig())
    assert len(records) == 1
    rec = records[0]
    assert abs(rec.energy_exact - PI / 16) < 1e-12
    assert rec.energy_vqe is None
    assert rec.energy == rec.energy_exact
    assert rec.method == METHOD_EXACT
    assert rec.seed is None
    assert rec.converged is None
    assert rec.iterations == 0
    assert rec.rho == 5e-31
    # a single mass cannot support a fit, so observables fall back to direct
    assert rec.temperature == rec.temperature_direct == 1.0 / 1e-30


def test_sweep_gm_multiple_holds_rho_constant():
    records = sweep([1.0, 2.0, 4.0], [3.0], METHOD_EXACT, SpsaConfig(),
                    radius_mode=RADIUS_GM_MULTIPLE)
    rhos = {rec.rho for rec in records}
    assert rhos == {1.0 / 6.0}
    energies = [rec.energy_exact for rec in records]
    assert max(energies) - min(energies) < 1e-12
    np.testing.assert_allclose([rec.radius for rec in records], [3.0, 6.0, 12.0], atol=1e-15)


def test_sweep_records_in_grid_order():
    records = sweep([1.0, 2.0], [5.0, 10.0], METHOD_EXACT, SpsaConfig())
    keys = [(rec.mass, rec.radius) for rec in records]
    assert keys == [(1.0, 5.0), (1.0, 10.0), (2.0, 5.0), (2.0, 10.0)]


def test_sweep_exact_fit_matches_direct_observables():
    records = sweep([float(m) for m in range(1, 6)], [10.0], METHOD_EXACT, SpsaConfig())
    for rec in records:
        # exact energies fit the quartic curve perfectly, so the inverted
        # temperature agrees with the definitional one
        assert abs(rec.temperature - rec.temperature_direct) < 1e-6
        assert abs(rec.power - rec.power_direct) < 1e-6
        assert rec.temperature_direct == 1.0 / rec.mass


def test_sweep_fit_is_per_radius_family():
    records = sweep([float(m) for m in range(1, 6)], [2.0, 5.0, 10.0], METHOD_EXACT, SpsaConfig())
    for rec in records:
        assert abs(rec.temperature - 1.0 / rec.mass) < 1e-6


def test_zero_ground_energy_falls_back_to_direct_observables():
    # the disjoint ground energy is 0 up to eigensolver noise of either sign, never a curve to fit
    planned = plan([1.0, 2.0, 3.5], [5.0], HamiltonianLayout(variant=DISJOINT, dims=2), N4)
    for rec in records(planned, SpsaConfig()):
        assert rec.temperature == rec.temperature_direct
        assert rec.power == rec.power_direct


def test_require_nonzero_energies_refuses_noise_of_either_sign():
    for energy in (0.0, 3e-13, -3e-13, 5e-16, -5e-16):
        with pytest.raises(DegenerateDataError, match="zero"):
            require_nonzero_energies([(PI / 8, 1.0), (energy, 0.5)])
    require_nonzero_energies([(PI / 8, 1.0), (-0.2, 1.0), (2e-12, 1.0)])
    require_nonzero_energies([])


def test_plan_computes_no_eigenvectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh computes eigenvectors that the plan throws away")

    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m.shape) or eigvalsh(m))
    plan([1.0, 2.0, 3.0], [10.0, 20.0], HamiltonianLayout(variant=DISJOINT, dims=1), LatticeSpec(64))
    assert solved == [(64, 64)]  # one eigenvalue-only solve per plan


def test_sweep_vqe_tracks_exact():
    records = sweep([1e-30], [1.0], METHOD_VQE, SpsaConfig(), ansatz=A3, seeds=list(range(10)))
    assert len(records) == 10
    assert [rec.seed for rec in records] == list(range(10))
    hits = 0
    for rec in records:
        assert rec.method == METHOD_VQE
        assert rec.ansatz == "ansatz3"
        assert rec.energy_vqe is not None
        assert rec.energy_vqe >= rec.energy_exact - 1e-10
        assert rec.iterations <= 500
        if abs(rec.energy_vqe - rec.energy_exact) < 1e-2:
            hits += 1
    assert hits >= 8


def test_sweep_vqe_deterministic():
    cfg = SpsaConfig(max_iter=80)
    first = sweep([1.0], [4.0], METHOD_VQE, cfg, ansatz=A3, seeds=[3])
    second = sweep([1.0], [4.0], METHOD_VQE, cfg, ansatz=A3, seeds=[3])
    assert first[0].energy_vqe == second[0].energy_vqe
    assert first[0].iterations == second[0].iterations


def test_sweep_parallel_matches_sequential():
    # seeds advanced together in lockstep give each seed's sweep run alone
    cfg = SpsaConfig(max_iter=80)
    together = sweep([1.0], [4.0], METHOD_VQE, cfg, ansatz=A3, seeds=[0, 1])
    alone = [sweep([1.0], [4.0], METHOD_VQE, cfg, ansatz=A3, seeds=[seed])[0] for seed in (0, 1)]
    assert [r.energy_vqe for r in together] == [r.energy_vqe for r in alone]


def test_sweep_validation():
    with pytest.raises(DomainError):
        sweep([], [1.0], METHOD_EXACT, SpsaConfig())
    with pytest.raises(DomainError):
        sweep([1.0], [], METHOD_EXACT, SpsaConfig())
    with pytest.raises(DomainError):
        sweep([1.0], [1.0], "approximate", SpsaConfig())
    with pytest.raises(DomainError):
        sweep([1.0], [1.0], METHOD_EXACT, SpsaConfig(), radius_mode="parsecs")
    with pytest.raises(DomainError):
        sweep([1.0], [1.0], METHOD_VQE, SpsaConfig())  # no ansatz


def test_sweep_rejects_empty_seed_list():
    with pytest.raises(DomainError):
        sweep([1.0], [1.0], METHOD_VQE, SpsaConfig(), ansatz=A3, seeds=[])
    records = sweep([1.0, 2.0], [1.0], METHOD_EXACT, SpsaConfig(), seeds=[])
    assert [rec.seed for rec in records] == [None, None]


@pytest.mark.parametrize("kappas", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
def test_records_reject_non_positive_kappas(kappas):
    kappa_t, kappa_p = kappas
    with pytest.raises(DomainError):
        sweep([1.0], [1.0], METHOD_EXACT, SpsaConfig(), kappa_t=kappa_t, kappa_p=kappa_p)


# (layout, lattice) pairs up to 6 qubits: the paper chain, and disjoint
# blocks of log2(N) qubits per dimension
PLAN_SHAPES = [(CHAIN, N4)] + [
    (HamiltonianLayout(variant=DISJOINT, dims=dims), LatticeSpec(n))
    for dims, sizes in ((1, (2, 4, 8, 16, 32, 64)), (2, (2, 4, 8)), (3, (2, 4)))
    for n in sizes
]
positive = st.floats(1e-3, 1e3)


@settings(max_examples=60, deadline=None)
@given(
    masses=st.lists(positive, min_size=1, max_size=3),
    radii=st.lists(positive, min_size=1, max_size=3),
    shape=st.sampled_from(PLAN_SHAPES),
    radius_mode=st.sampled_from([RADIUS_ABSOLUTE, RADIUS_GM_MULTIPLE]),
    inner_half=st.booleans(),
)
def test_plan_matches_per_point_assembly(masses, radii, shape, radius_mode, inner_half):
    layout, lattice = shape
    planned = plan(masses, radii, layout, lattice, inner_half=inner_half, radius_mode=radius_mode)
    assert letter_terms(planned.operator) == letter_terms(assemble(None, layout, lattice))
    ground = exact_ground_energy(planned.operator)
    grid = [(m, key, r) for m in masses for key, r in enumerate(radii)]
    assert [p.index for p in planned.points] == list(range(len(grid)))
    for point, (mass, radius_key, radius) in zip(planned.points, grid):
        r_abs = radius * mass if radius_mode == RADIUS_GM_MULTIPLE else radius
        assert point.params == BlackHoleParams(mass=mass, radius=r_abs)
        assert point.radius_key == radius_key
        assert point.scale == energy_scale(point.params, inner_half)
        assert point.energy_exact == point.scale * ground
        # the point's own eigensolve rounds differently: agreement is to a tolerance
        h = assemble(point.params, layout, lattice)
        half = point.scale / energy_scale(point.params)  # 0.5 under inner_half, else 1
        assert abs(point.energy_exact - half * exact_ground_energy(h)) <= 1e-12 * point.scale


@pytest.mark.parametrize(
    "shape", [s for s in PLAN_SHAPES if s[0].variant == DISJOINT], ids=lambda shape: repr(shape)
)
@pytest.mark.parametrize("inner_half", [False, True])
def test_disjoint_plans_are_refused_a_fit_whatever_the_noise_sign(shape, inner_half):
    planned = plan([1.0, 2.0, 3.5], [0.5, 5.0], *shape, inner_half=inner_half)
    for point in planned.points:
        with pytest.raises(DegenerateDataError, match="ground energy"):
            require_nonzero_energies([(point.energy_exact, point.scale)])


def test_run_seed_depends_on_seed_and_point_only():
    assert run_seed(3, 1) == run_seed(3, 1)
    assert len({run_seed(s, i) for s in range(4) for i in range(4)}) == 16


@pytest.mark.parametrize(
    "family, shots", [("ansatz1", 0), ("ansatz3", 200)], ids=["ansatz1-exact", "ansatz3-shots"])
def test_records_is_the_sweep_table_and_vqe_runs_seeds_each_run(family, shots):
    # window=2 at a coarse tol restarts segments often, so runs fall out of step
    cfg = SpsaConfig(max_iter=60, window=2, tol=1e-2)
    kind = AnsatzKind.from_name(family)
    masses, radii, seeds = [1.0, 2.0, 3.0], [5.0, 10.0], [0, 1]
    planned = plan(masses, radii, CHAIN, N4)
    table = records(planned, cfg, shots, ansatz=kind, seeds=seeds)
    # per point: the exact row, then one row per seed
    assert [(rec.mass, rec.radius, rec.method, rec.seed) for rec in table] == [
        (p.params.mass, p.params.radius, method, seed)
        for p in planned.points
        for method, seed in [(METHOD_EXACT, None), (METHOD_VQE, 0), (METHOD_VQE, 1)]
    ]
    exact_rows = [rec for rec in table if rec.method == METHOD_EXACT]
    vqe_rows = [rec for rec in table if rec.method == METHOD_VQE]
    assert exact_rows == sweep(masses, radii, METHOD_EXACT, cfg, shots)
    assert vqe_rows == sweep(masses, radii, METHOD_VQE, cfg, shots, ansatz=kind, seeds=seeds)

    with golden_outputs.recorded_batches() as calls:
        runs = vqe_runs(planned, kind, cfg, shots, seeds)
    assert [(point.index, seed) for point, seed, _ in runs] == [
        (point.index, seed) for point in planned.points for seed in seeds]
    run_cfgs = [replace(cfg, seed=run_seed(seed, point.index)) for point, seed, _ in runs]
    for (point, seed, result), run_cfg, rec in zip(runs, run_cfgs, vqe_rows):
        (direct,) = vqe_lockstep(planned.operator, [(point.scale, run_cfg)], kind, shots)
        assert result.best_energy == direct.best_energy == rec.energy_vqe
        assert result.trace == direct.trace
        np.testing.assert_array_equal(result.best_params, direct.best_params)
        assert result.iterations_used == direct.iterations_used == rec.iterations
        assert result.converged == direct.converged == rec.converged

    # every screen candidate a run can draw: at most one segment per iteration
    n_params = calls[0].shape[1]
    screens = set()
    for run_cfg in run_cfgs:
        init_rng = np.random.default_rng(np.random.SeedSequence(run_cfg.seed).spawn(3)[0])
        draws = init_rng.uniform(-PI, PI, (cfg.max_iter * INIT_CANDIDATES, n_params))
        screens.update(row.tobytes() for row in draws)
    screened = [sum(row.tobytes() in screens for row in call) for call in calls]
    assert screened[0] == len(calls[0]) == len(runs) * INIT_CANDIDATES
    # some call screens a run's restart together with other runs' SPSA points
    assert any(INIT_CANDIDATES <= n < len(call) for n, call in zip(screened, calls))
