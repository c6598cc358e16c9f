"""Command-line front end: config loading, subcommands, CSV and manifest output.

Subcommands map onto the library pipeline: `hamiltonian` prints the operator
(Pauli terms or dense matrix), `exact` prints ground energies over the grid,
`vqe` runs the variational solver per (grid point, seed), `sweep` writes the
full results table as CSV plus a JSON manifest with file digests, and `fit`
recovers the quartic curve coefficients from a sweep CSV.

Configuration is a single JSON document mirroring RunConfig field names in
lower_snake_case (the `spsa` entry nests SpsaConfig's tuning fields); CLI
flags override file values. All masses are converted to Planck units on
input; the solar-mass constant used is recorded in every manifest.

Exit codes: 0 success, 2 config validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ansatz import AnsatzKind
from .errors import BhvqeError, ConfigError
from .hamiltonian import (
    DISJOINT,
    MAX_EXACT_QUBITS,
    PAPER_CHAIN,
    HamiltonianLayout,
    assemble,
    layout_qubits,
    to_matrix,
    to_text,
)
from .lattice import LatticeSpec
from .observables import (
    METHOD_EXACT,
    RADIUS_ABSOLUTE,
    RADIUS_GM_MULTIPLE,
    GridPoint,
    SweepRecord,
    fit_energy_vs_mass,
    fit_energy_vs_radius,
    plan,
    records,
    vqe_runs,
)
from .vqe import SpsaConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

MASS_UNIT_PLANCK = "planck"
MASS_UNIT_SOLAR = "solar"

# 1 solar mass expressed in Planck masses; applied only at the I/O boundary.
SOLAR_MASS_PLANCK = 9.136e37

CSV_COLUMNS = (
    "run_id,method,ansatz,layout,lattice_n,mass,radius,rho,"
    "energy,energy_exact,temperature,power,iterations,seed,converged"
)

_SPSA_KEYS = ("a", "c", "alpha", "gamma", "stability_a", "max_iter", "tol", "window")
_SPSA_INT_KEYS = ("max_iter", "window")


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings, all grids in the units the user wrote."""

    layout: str = PAPER_CHAIN
    dims: int = 3
    lattice_n: int = 4
    mass_grid: tuple[float, ...] = (1.0,)
    mass_unit: str = MASS_UNIT_PLANCK
    radius_grid: tuple[float, ...] = (10.0,)
    radius_mode: str = RADIUS_ABSOLUTE
    ansatz: str = "ansatz3"
    reps: int | None = None
    spsa: SpsaConfig = field(default_factory=SpsaConfig)
    shots: int = 0
    seeds: tuple[int, ...] = (0,)
    inner_half: bool = False
    kappa_t: float = 1.0
    kappa_p: float = 1.0


def _as_positive_floats(name: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a non-empty list of numbers")
    return tuple(_as_positive_float(f"{name} entry", entry) for entry in value)


def _as_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def _as_positive_float(name: str, value) -> float:
    number = _as_float(name, value)
    if not number > 0:
        raise ConfigError(f"{name} must be > 0, got {number}")
    return number


def _spsa_config(data) -> SpsaConfig:
    if not isinstance(data, dict):
        raise ConfigError("spsa must be an object of optimizer settings")
    unknown = set(data) - set(_SPSA_KEYS)
    if unknown:
        raise ConfigError(f"unknown spsa keys: {sorted(unknown)} (allowed: {list(_SPSA_KEYS)})")
    kwargs = {}
    for key, value in data.items():
        if key in _SPSA_INT_KEYS:
            kwargs[key] = _as_int(f"spsa.{key}", value, 1)
        else:
            kwargs[key] = _as_float(f"spsa.{key}", value)
    try:
        return SpsaConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid spsa settings: {exc}") from exc


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a single JSON object")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flag overrides into a RunConfig."""
    data = _load_config_file(args.config) if args.config else {}
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    defaults = RunConfig()
    merged = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(RunConfig)}
    merged.update(data)
    if args.seed is not None:
        merged["seeds"] = [args.seed]
    if args.shots is not None:
        merged["shots"] = args.shots

    layout = merged["layout"]
    if layout not in (PAPER_CHAIN, DISJOINT):
        raise ConfigError(f"layout must be {PAPER_CHAIN!r} or {DISJOINT!r}, got {layout!r}")
    dims = _as_int("dims", merged["dims"], 1)
    if dims > 3:
        raise ConfigError(f"dims must be in 1..3, got {dims}")
    lattice_n = _as_int("lattice_n", merged["lattice_n"], 2)
    if lattice_n & (lattice_n - 1):
        raise ConfigError(f"lattice_n must be a power of two, got {lattice_n}")
    if layout == PAPER_CHAIN and lattice_n != 4:
        raise ConfigError("paper-chain layout requires lattice_n = 4")

    mass_unit = merged["mass_unit"]
    if mass_unit not in (MASS_UNIT_PLANCK, MASS_UNIT_SOLAR):
        raise ConfigError(f"mass_unit must be planck or solar, got {mass_unit!r}")
    radius_mode = merged["radius_mode"]
    if radius_mode not in (RADIUS_ABSOLUTE, RADIUS_GM_MULTIPLE):
        raise ConfigError(f"radius_mode must be absolute or gm-multiple, got {radius_mode!r}")

    try:
        AnsatzKind.from_name(merged["ansatz"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"unknown ansatz {merged['ansatz']!r}") from exc
    reps = merged["reps"]
    if reps is not None:
        reps = _as_int("reps", reps, 1)

    seeds_raw = merged["seeds"]
    if not isinstance(seeds_raw, (list, tuple)):
        raise ConfigError("seeds must be a list of non-negative integers")
    seeds = tuple(_as_int("seeds entry", s, 0) for s in seeds_raw)

    spsa = merged["spsa"]
    if not isinstance(spsa, SpsaConfig):
        spsa = _spsa_config(spsa)

    if not isinstance(merged["inner_half"], bool):
        raise ConfigError(f"inner_half must be true or false, got {merged['inner_half']!r}")

    config = RunConfig(
        layout=layout,
        dims=dims,
        lattice_n=lattice_n,
        mass_grid=_as_positive_floats("mass_grid", merged["mass_grid"]),
        mass_unit=mass_unit,
        radius_grid=_as_positive_floats("radius_grid", merged["radius_grid"]),
        radius_mode=radius_mode,
        ansatz=merged["ansatz"],
        reps=reps,
        spsa=spsa,
        shots=_as_int("shots", merged["shots"], 0),
        seeds=seeds,
        inner_half=merged["inner_half"],
        kappa_t=_as_positive_float("kappa_t", merged["kappa_t"]),
        kappa_p=_as_positive_float("kappa_p", merged["kappa_p"]),
    )
    # exact diagonalization backs every subcommand output
    n_qubits = layout_qubits(_hamiltonian_layout(config), LatticeSpec(n_points=lattice_n))
    if n_qubits > MAX_EXACT_QUBITS:
        raise ConfigError(
            f"layout needs {n_qubits} qubits; exact diagonalization "
            f"supports at most {MAX_EXACT_QUBITS}"
        )
    return config


def _hamiltonian_layout(cfg: RunConfig) -> HamiltonianLayout:
    return HamiltonianLayout(variant=cfg.layout, dims=cfg.dims)


def _ansatz_kind(cfg: RunConfig) -> AnsatzKind:
    return AnsatzKind.from_name(cfg.ansatz, reps=cfg.reps)


def _plan(cfg: RunConfig) -> list[GridPoint]:
    """The run's grid points, masses converted to Planck units."""
    scale = SOLAR_MASS_PLANCK if cfg.mass_unit == MASS_UNIT_SOLAR else 1.0
    return plan([m * scale for m in cfg.mass_grid], list(cfg.radius_grid),
                _hamiltonian_layout(cfg), LatticeSpec(n_points=cfg.lattice_n),
                inner_half=cfg.inner_half, radius_mode=cfg.radius_mode)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_energy(value: float) -> str:
    """Six decimals; a value that rounds to zero prints as 0.000000, never -0.000000."""
    return f"{round(value, 6) + 0.0:.6f}"


def _point_prefix(point: GridPoint) -> str:
    return f"{_fmt(point.params.mass)} {_fmt(point.params.radius)} {_fmt(point.params.rho)}"


def _atomic_write(path: str, text: str) -> None:
    partial = path + ".partial"
    with open(partial, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(partial, path)


def cmd_hamiltonian(cfg: RunConfig, fmt: str, normalized: bool) -> int:
    """Print the Hamiltonian at the first grid point (or prefactor 1)."""
    if normalized:
        h = assemble(None, _hamiltonian_layout(cfg), LatticeSpec(n_points=cfg.lattice_n),
                     inner_half=cfg.inner_half)
    else:
        first = replace(cfg, mass_grid=cfg.mass_grid[:1], radius_grid=cfg.radius_grid[:1])
        h = _plan(first)[0].hamiltonian
    if fmt == "pauli":
        print(to_text(h))
    else:
        for row in to_matrix(h):
            print(" ".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in row))
    return EXIT_OK


def cmd_exact(cfg: RunConfig) -> int:
    """Print `mass radius rho energy` for every grid point."""
    for point in _plan(cfg):
        print(f"{_point_prefix(point)} {_fmt_energy(point.energy_exact)}")
    return EXIT_OK


def cmd_vqe(cfg: RunConfig, trace_path: str | None) -> int:
    """Run one VQE per (grid point, seed); print a summary line per run."""
    if not cfg.seeds:
        raise ConfigError("vqe needs at least one seed")
    n_runs = len(cfg.mass_grid) * len(cfg.radius_grid) * len(cfg.seeds)
    if trace_path is not None and n_runs != 1:
        raise ConfigError("--trace needs a single-point, single-seed run")
    runs = vqe_runs(_plan(cfg), _ansatz_kind(cfg), cfg.spsa, cfg.shots, cfg.seeds)
    for point, seed, result in runs:
        print(
            f"{_point_prefix(point)} {seed} {_fmt_energy(result.best_energy)} "
            f"{_fmt_energy(point.energy_exact)} "
            f"{result.iterations_used} {str(result.converged).lower()}"
        )
    if trace_path is not None:
        lines = ["iteration,energy"]
        lines += [f"{i},{_fmt(e)}" for i, e in enumerate(result.trace, start=1)]
        _atomic_write(trace_path, "\n".join(lines) + "\n")
    return EXIT_OK


def _records_to_csv(cfg: RunConfig, records: list[SweepRecord]) -> str:
    rows = [CSV_COLUMNS.split(",")]
    for i, rec in enumerate(records):
        rows.append(
            [
                f"r{i:04d}",
                rec.method,
                rec.ansatz,
                cfg.layout,
                str(cfg.lattice_n),
                _fmt(rec.mass),
                _fmt(rec.radius),
                _fmt(rec.rho),
                _fmt(rec.energy),
                _fmt(rec.energy_exact),
                _fmt(rec.temperature),
                _fmt(rec.power),
                str(rec.iterations),
                "" if rec.seed is None else str(rec.seed),
                "" if rec.converged is None else str(rec.converged).lower(),
            ]
        )
    return "\n".join(",".join(row) for row in rows) + "\n"


def _config_snapshot(cfg: RunConfig) -> dict:
    snapshot = dataclasses.asdict(cfg)
    # spsa.seed is never consumed (per-run seeds derive from `seeds`), so it
    # would only mislead in the manifest
    snapshot["spsa"].pop("seed", None)
    snapshot["solar_mass_planck"] = SOLAR_MASS_PLANCK
    return snapshot


def cmd_sweep(cfg: RunConfig, out_path: str | None) -> int:
    """Write the sweep CSV and its manifest."""
    if not out_path:
        raise ConfigError("sweep needs --out PATH for the CSV")
    table = records(_plan(cfg), cfg.spsa, cfg.shots, ansatz=_ansatz_kind(cfg), seeds=cfg.seeds,
                    kappa_t=cfg.kappa_t, kappa_p=cfg.kappa_p)
    text = _records_to_csv(cfg, table)
    _atomic_write(out_path, text)
    manifest = {
        "config": _config_snapshot(cfg),
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seeds": list(cfg.seeds),
        "outputs": [
            {"path": out_path, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        ],
    }
    _atomic_write(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def cmd_fit(in_path: str, curve: str) -> int:
    """Fit the quartic energy curve to a sweep CSV and print coefficients."""
    with open(in_path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    # a curve is one family: exact rows that share the other grid coordinate
    regressor, family = ("mass", "radius") if curve == "mass" else ("radius", "mass")
    points = []
    families = set()
    try:
        for row in rows:
            if row["method"] == METHOD_EXACT:
                points.append((float(row[regressor]), float(row["energy"])))
                families.add(float(row[family]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"input CSV is not a sweep table: {exc}") from exc
    if len(families) > 1:
        raise ConfigError(
            f"exact rows mix {len(families)} {family} values; fit one {family} at a time"
        )
    fit = fit_energy_vs_mass(points) if curve == "mass" else fit_energy_vs_radius(points)
    print(f"a={fit.a:.9g} b=1 c={fit.c:.9g} rms={fit.rms_residual:.9g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, metavar="INT", help="replace the seed list")
    common.add_argument("--out", metavar="PATH", help="output file (sweep CSV)")
    common.add_argument(
        "--format", choices=("pauli", "matrix"), default="pauli", help="hamiltonian output form"
    )
    common.add_argument("--shots", type=int, metavar="INT", help="measurement shots (0 = exact)")
    common.add_argument("--trace", metavar="PATH", help="energy trace CSV (single vqe run)")

    parser = argparse.ArgumentParser(
        prog="bhvqe",
        description="Ground-state energies and Hawking-style observables for a "
        "discretized black-hole Hamiltonian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ham = sub.add_parser("hamiltonian", parents=[common], help="print the Hamiltonian")
    ham.add_argument(
        "--normalized", action="store_true", help="drop the metric prefactor (normalize to 1)"
    )
    sub.add_parser("exact", parents=[common], help="exact ground energy per grid point")
    sub.add_parser("vqe", parents=[common], help="variational runs per (point, seed)")
    sub.add_parser("sweep", parents=[common], help="write the results CSV and manifest")
    fit = sub.add_parser("fit", parents=[common], help="fit the quartic energy curve")
    fit.add_argument("--in", dest="in_path", required=True, metavar="CSV", help="sweep CSV")
    fit.add_argument("--curve", choices=("mass", "radius"), required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args.in_path, args.curve)
        cfg = build_config(args)
        if args.command == "hamiltonian":
            return cmd_hamiltonian(cfg, args.format, args.normalized)
        if args.command == "exact":
            return cmd_exact(cfg)
        if args.command == "vqe":
            return cmd_vqe(cfg, args.trace)
        return cmd_sweep(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BhvqeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
