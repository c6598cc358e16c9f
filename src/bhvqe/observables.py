"""Mass/radius sweeps and the Hawking-style observable pipeline.

A sweep runs in two steps. `plan` assembles and diagonalizes one operator,
the Hamiltonian at prefactor 1, and gives each GridPoint of the mass x radius
grid the scale that makes the operator its Hamiltonian. `records` then builds
the sweep table in CSV order: each point's exact record, then one record per
seed from `vqe_runs`, the one place VQE runs are seeded (by `run_seed(seed,
point index)`) and dispatched. It also converts energies to temperature and
power. `sweep` chains `plan` and `records`; the CLI calls them directly.

The conversion prefers the quartic curve fit E^4 = b0 + b1 * M inverted
back to an effective mass; whenever a fit is impossible or unstable for a
record (too few distinct masses, more than one radius, degenerate data,
nonpositive inverted mass) the record falls back to the definitional values
kappa_t / M and kappa_p / M^2. Both routes are kept on every record so they
can be compared downstream.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import AnsatzKind
from .errors import (
    DegenerateDataError,
    DomainError,
    NegativeInterceptError,
    OutOfRangeError,
)
from .hamiltonian import (
    COEFF_PRUNE_TOL,
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    PauliHamiltonian,
    assemble,
    energy_scale,
    exact_ground_energy,
)
from .lattice import LatticeSpec
from .vqe import SpsaConfig, VqeResult, vqe_lockstep

RADIUS_ABSOLUTE = "absolute"
RADIUS_GM_MULTIPLE = "gm-multiple"

METHOD_EXACT = "exact"
METHOD_VQE = "vqe"

MIN_FIT_POINTS = 3


@dataclass(frozen=True)
class FitResult:
    """Coefficients of E = a * (1 + c * x)^(1/4)."""

    a: float
    c: float
    rms_residual: float
    n_points: int


@dataclass(frozen=True)
class SweepRecord:
    """One sweep evaluation: a grid point plus its energies and observables.

    temperature and power hold the fit-inverted values when a curve fit was
    available for the record's (seed, radius) family, and otherwise equal
    the direct values. temperature_direct and power_direct always hold
    kappa_t / M and kappa_p / M^2.
    """

    mass: float
    radius: float
    rho: float
    energy_exact: float
    energy_vqe: float | None
    temperature: float
    power: float
    temperature_direct: float
    power_direct: float
    method: str
    ansatz: str
    seed: int | None
    iterations: int
    converged: bool | None

    @property
    def energy(self) -> float:
        """The headline energy for the record's method."""
        return self.energy_exact if self.energy_vqe is None else self.energy_vqe


def _fit_quartic(x: np.ndarray, energies: np.ndarray) -> FitResult:
    if x.size < MIN_FIT_POINTS:
        raise DegenerateDataError(f"need at least {MIN_FIT_POINTS} points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(energies))):
        raise DegenerateDataError("fit inputs must be finite")
    span = x.max() - x.min()
    if span == 0:
        raise DegenerateDataError("regressor values are all identical")
    if np.any(energies <= 0):
        raise DegenerateDataError("energies must be positive to fit the quartic model")
    dx = (x - x.mean()) / span  # least squares on centred values; unit span keeps dx @ dx in range
    quartic = energies**4
    b1 = float(dx @ (quartic - quartic.mean()) / (dx @ dx) / span)
    b0 = float(quartic.mean() - b1 * x.mean())
    if b0 <= 0:
        raise NegativeInterceptError(f"fitted intercept {b0:.6g} is not positive")
    predicted_quartic = b0 + b1 * x
    if np.any(predicted_quartic <= 0):
        raise NegativeInterceptError("fitted curve is nonpositive at a sample point")
    rms = float(np.sqrt(np.mean((predicted_quartic**0.25 - energies) ** 2)))
    return FitResult(a=b0**0.25, c=b1 / b0, rms_residual=rms, n_points=int(x.size))


def fit_energy_vs_mass(points: list[tuple[float, float]]) -> FitResult:
    """Fit E^4 linear in mass; returns E = a * (1 + c * M)^(1/4) coefficients."""
    masses, energies = np.array(points, dtype=float).reshape(-1, 2).T
    return _fit_quartic(masses, energies)


def fit_energy_vs_radius(points: list[tuple[float, float]]) -> FitResult:
    """Fit E^4 linear in 1/radius; returns E = a * (1 + c / r)^(1/4) coefficients."""
    radii, energies = np.array(points, dtype=float).reshape(-1, 2).T
    if np.any(radii <= 0):
        raise DomainError("radii must be positive")
    return _fit_quartic(1.0 / radii, energies)


def require_nonzero_energies(pairs: Iterable[tuple[float, float]]) -> None:
    """DegenerateDataError if an (energy, scale) pair has |energy| <= COEFF_PRUNE_TOL * scale.

    Such an energy is machine noise of a zero ground energy (the disjoint
    layout's), of either sign, and a curve fit to it fits rounding error.
    """
    for energy, scale in pairs:
        if abs(energy) <= COEFF_PRUNE_TOL * scale:
            raise DegenerateDataError(
                f"ground energy {energy:.3g} is zero to within {COEFF_PRUNE_TOL:g} x scale "
                f"{scale:.6g}; a fit would fit rounding noise"
            )


def mass_from_energy(fit: FitResult, energy: float) -> float:
    """Invert the mass-curve fit: M = ((E / a)^4 - 1) / c.

    Raises DomainError when the fit has no mass dependence (c == 0) and
    OutOfRangeError when the energy is not finite or sits at or below the
    M -> 0 floor a, where the inverse is not defined.
    """
    if fit.c == 0:
        raise DomainError("fit has zero mass coefficient; cannot invert")
    if not math.isfinite(energy):
        raise OutOfRangeError(f"energy must be finite, got {energy}")
    if energy <= fit.a:
        raise OutOfRangeError(f"energy {energy:.6g} at or below the zero-mass floor {fit.a:.6g}")
    return ((energy / fit.a) ** 4 - 1.0) / fit.c


def _require_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value}")
    return value


def temperature(mass: float, kappa_t: float = 1.0) -> float:
    """Hawking-style temperature kappa_t / M in Planck units; DomainError unless finite, > 0."""
    _require_positive("mass", mass)
    _require_positive("kappa_t", kappa_t)
    return _require_positive(f"temperature at mass {mass}", kappa_t / mass)


def power(mass: float, kappa_p: float = 1.0) -> float:
    """Radiated power kappa_p / M^2 in Planck units; DomainError unless finite and > 0."""
    _require_positive("mass", mass)
    _require_positive("kappa_p", kappa_p)
    try:
        value = kappa_p / mass**2
    except (OverflowError, ZeroDivisionError):  # M^2 overflows, or underflows to 0
        value = 0.0 if mass > 1 else math.inf
    return _require_positive(f"power at mass {mass}", value)


@dataclass(frozen=True)
class GridPoint:
    """One planned grid point: its Hamiltonian is scale * Plan.operator."""

    index: int  # position in mass-major order; seeds each of its VQE runs
    params: BlackHoleParams
    radius_key: int  # position in the radius grid; names the point's fit family
    scale: float  # energy_scale(params, inner_half)
    energy_exact: float  # scale times the operator's ground energy


@dataclass(frozen=True, eq=False)
class Plan:
    """A resolved grid: the unit-prefactor operator and the points that scale it."""

    operator: PauliHamiltonian
    points: tuple[GridPoint, ...]


def run_seed(base_seed: int, point_index: int) -> int:
    """Seed of the VQE run for one (base seed, grid point); independent of run order."""
    return int(np.random.SeedSequence([base_seed, point_index]).generate_state(1)[0])


def plan(
    mass_grid: list[float],
    radius_grid: list[float],
    layout: HamiltonianLayout,
    lattice: LatticeSpec,
    *,
    inner_half: bool = False,
    radius_mode: str = RADIUS_ABSOLUTE,
) -> Plan:
    """Resolve the grid in mass-major order; assemble and diagonalize one operator for all.

    In gm-multiple mode each radius is a multiple of GM (G = 1).
    """
    if not mass_grid or not radius_grid:
        raise DomainError("mass and radius grids must be non-empty")
    if radius_mode not in (RADIUS_ABSOLUTE, RADIUS_GM_MULTIPLE):
        raise DomainError(f"unknown radius mode {radius_mode!r}")
    operator = assemble(None, layout, lattice)
    ground = exact_ground_energy(operator)
    points = []
    for mass, (radius_key, radius) in itertools.product(mass_grid, enumerate(radius_grid)):
        r_abs = radius * mass if radius_mode == RADIUS_GM_MULTIPLE else radius
        params = BlackHoleParams(mass=mass, radius=r_abs)
        scale = energy_scale(params, inner_half)
        points.append(GridPoint(len(points), params, radius_key, scale, scale * ground))
    return Plan(operator, tuple(points))


def _fitted_observables(
    group: list[tuple[GridPoint, float]],
    kappa_t: float,
    kappa_p: float,
) -> dict[int, tuple[float, float]]:
    """Fit E vs M over one (seed, radius) family; map point index -> (T, P).

    Points whose inversion fails, or gives no mass with a finite nonzero T and P,
    are omitted; the caller falls back to the direct values for them. No fit is made
    unless the points share one radius and require_nonzero_energies accepts them.
    """
    if (len({p.params.mass for p, _ in group}) < MIN_FIT_POINTS
            or len({p.params.radius for p, _ in group}) > 1):
        return {}
    try:
        require_nonzero_energies((e, p.scale) for p, e in group)
        fit = fit_energy_vs_mass([(p.params.mass, e) for p, e in group])
    except (DegenerateDataError, NegativeInterceptError):
        return {}
    out = {}
    for point, energy in group:
        try:
            m_hat = mass_from_energy(fit, energy)
            out[point.index] = (temperature(m_hat, kappa_t), power(m_hat, kappa_p))
        except (DomainError, OutOfRangeError):
            continue
    return out


def vqe_runs(
    plan: Plan,
    kind: AnsatzKind,
    cfg: SpsaConfig,
    shots: int,
    seeds: Sequence[int],
) -> list[tuple[GridPoint, int, VqeResult]]:
    """Run VQE once per (point, seed): point order, then seed order.

    The run for (point, seed) minimizes point.scale * plan.operator, seeded
    by run_seed(seed, point.index), and all runs advance together in one
    vqe_lockstep call; no result depends on which runs share it.
    """
    pairs = list(itertools.product(plan.points, seeds))
    runs = [(point.scale, replace(cfg, seed=run_seed(seed, point.index))) for point, seed in pairs]
    results = vqe_lockstep(plan.operator, runs, kind, shots)
    return [(point, seed, result) for (point, seed), result in zip(pairs, results)]


def records(
    plan: Plan,
    cfg: SpsaConfig,
    shots: int = 0,
    *,
    ansatz: AnsatzKind | None = None,
    seeds: Sequence[int] = (),
    kappa_t: float = 1.0,
    kappa_p: float = 1.0,
) -> list[SweepRecord]:
    """The sweep table of planned points, in CSV order.

    Each point contributes its exact record, then one variational record
    per seed from vqe_runs; with no seeds the table is exact only. Each
    (seed, radius) family, with seed None for the exact records, gets its
    own curve fit.
    """
    if seeds and ansatz is None:
        raise DomainError("variational sweeps need an ansatz")
    masses = [point.params.mass for point in plan.points]
    direct = [(temperature(m, kappa_t), power(m, kappa_p)) for m in masses]  # fails before any run
    runs = iter(vqe_runs(plan, ansatz, cfg, shots, seeds))
    table: list[tuple[GridPoint, int | None, VqeResult | None]] = []
    for point in plan.points:
        table.append((point, None, None))
        table += [next(runs) for _ in seeds]

    families: dict[tuple[int | None, int], list[tuple[GridPoint, float]]] = {}
    for point, seed, result in table:
        energy = point.energy_exact if result is None else result.best_energy
        families.setdefault((seed, point.radius_key), []).append((point, energy))
    fitted = {
        (seed, index): observables
        for (seed, _), family in families.items()
        for index, observables in _fitted_observables(family, kappa_t, kappa_p).items()
    }

    out = []
    for point, seed, result in table:
        t_direct, p_direct = direct[point.index]
        t_fit, p_fit = fitted.get((seed, point.index), (t_direct, p_direct))
        out.append(
            SweepRecord(
                mass=point.params.mass,
                radius=point.params.radius,
                rho=point.params.rho,
                energy_exact=point.energy_exact,
                energy_vqe=None if result is None else result.best_energy,
                temperature=t_fit,
                power=p_fit,
                temperature_direct=t_direct,
                power_direct=p_direct,
                method=METHOD_EXACT if result is None else METHOD_VQE,
                ansatz="" if result is None else ansatz.family.value,
                seed=seed,
                iterations=0 if result is None else result.iterations_used,
                converged=None if result is None else result.converged,
            )
        )
    return out


def sweep(
    mass_grid: list[float],
    radius_grid: list[float],
    method: str,
    cfg: SpsaConfig,
    shots: int = 0,
    *,
    ansatz: AnsatzKind | None = None,
    seeds: list[int] | None = None,
    layout: HamiltonianLayout | None = None,
    lattice: LatticeSpec | None = None,
    inner_half: bool = False,
    radius_mode: str = RADIUS_ABSOLUTE,
    kappa_t: float = 1.0,
    kappa_p: float = 1.0,
) -> list[SweepRecord]:
    """Evaluate the ground energy over a mass x radius grid: plan, then records.

    Returns the records of `method` alone: one per point for exact, one per
    (point, seed) for vqe, where seeds=None runs cfg.seed alone. layout and
    lattice default to the paper chain on N = 4; records come back in grid
    order (mass-major, then radius, then seed).
    """
    if method == METHOD_EXACT:
        seeds = ()
    elif method == METHOD_VQE:
        seeds = [cfg.seed] if seeds is None else list(seeds)
        if not seeds:
            raise DomainError("variational sweeps need at least one seed")
    else:
        raise DomainError(f"unknown method {method!r}")
    layout = layout if layout is not None else HamiltonianLayout(variant=PAPER_CHAIN)
    lattice = lattice if lattice is not None else LatticeSpec()
    planned = plan(mass_grid, radius_grid, layout, lattice,
                   inner_half=inner_half, radius_mode=radius_mode)
    table = records(planned, cfg, shots, ansatz=ansatz, seeds=seeds,
                    kappa_t=kappa_t, kappa_p=kappa_p)
    return [rec for rec in table if rec.method == method]
