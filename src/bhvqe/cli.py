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

Exit codes: 0 success, 2 invalid config or input content, 3 numerical failure,
4 I/O (a named input that cannot be read, or an output that cannot be written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ansatz import AnsatzKind
from .circuits import MAX_SHOTS
from .errors import BhvqeError, ConfigError, UnsupportedLatticeError, finite_float, require_int
from .hamiltonian import (
    MAX_EXACT_QUBITS,
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    energy_scale,
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
    Plan,
    SweepRecord,
    fit_energy_vs_mass,
    fit_energy_vs_radius,
    plan,
    records,
    require_nonzero_energies,
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

# spsa.seed is left out: per-run seeds derive from `seeds`
_SPSA_KEYS = tuple(f.name for f in dataclasses.fields(SpsaConfig) if f.name != "seed")


@dataclass(frozen=True)
class RunConfig:
    """Run settings in the units the user wrote; construction checks them in a fixed order.

    Grids and couplings are floats, `spsa` a SpsaConfig, `seeds` a tuple, `reps` the depth that runs.
    """

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

    def __post_init__(self):
        if self.mass_unit not in (MASS_UNIT_PLANCK, MASS_UNIT_SOLAR):
            raise ValueError(f"mass_unit must be planck or solar, got {self.mass_unit!r}")
        if self.radius_mode not in (RADIUS_ABSOLUTE, RADIUS_GM_MULTIPLE):
            raise ValueError(
                f"radius_mode must be absolute or gm-multiple, got {self.radius_mode!r}"
            )
        if not isinstance(self.inner_half, bool):
            raise TypeError(f"inner_half must be true or false, got {self.inner_half!r}")
        if not isinstance(self.spsa, (dict, SpsaConfig)):
            raise TypeError(f"spsa must be an object, got {self.spsa!r}")
        unknown = set(self.spsa) - set(_SPSA_KEYS) if isinstance(self.spsa, dict) else ()
        if unknown:
            raise ValueError(f"unknown spsa keys: {sorted(unknown)} (allowed: {list(_SPSA_KEYS)})")
        if not isinstance(self.seeds, (list, tuple)):
            raise TypeError("seeds must be a list of non-negative integers")

        # the library objects check their own fields; building them is the validation
        layout = HamiltonianLayout(self.layout, self.dims)
        n_qubits = layout_qubits(layout, LatticeSpec(self.lattice_n))
        object.__setattr__(self, "reps", AnsatzKind.from_name(self.ansatz, self.reps).reps)
        if not isinstance(self.spsa, SpsaConfig):
            object.__setattr__(self, "spsa", SpsaConfig(**self.spsa))
        for seed in self.seeds:
            require_int("seeds entry", seed, 0)
        require_int("shots", self.shots, 0, MAX_SHOTS)
        for name in ("mass_grid", "radius_grid"):
            object.__setattr__(self, name, _positive_floats(name, getattr(self, name)))
        for name in ("kappa_t", "kappa_p"):
            object.__setattr__(self, name, _positive_float(name, getattr(self, name)))
        object.__setattr__(self, "seeds", tuple(self.seeds))

        # exact diagonalization backs every subcommand output
        if n_qubits > MAX_EXACT_QUBITS:
            raise ValueError(
                f"layout needs {n_qubits} qubits; exact diagonalization "
                f"supports at most {MAX_EXACT_QUBITS}"
            )


def _positive_float(name: str, value) -> float:
    number = finite_float(name, value)
    if not number > 0:
        raise ValueError(f"{name} must be > 0, got {number}")
    return number


def _positive_floats(name: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list of numbers")
    return tuple(_positive_float(f"{name} entry", entry) for entry in value)


def _load_config_file(path: str) -> dict:
    """The config file's JSON object; a file that cannot be opened or read raises its OSError."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a single JSON object")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """The config file, with --seed and --shots applied, as a RunConfig."""
    data = _load_config_file(args.config) if args.config else {}
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if args.seed is not None:
        data["seeds"] = [args.seed]
    if args.shots is not None:
        data["shots"] = args.shots
    try:
        return RunConfig(**data)
    except (TypeError, ValueError, UnsupportedLatticeError) as exc:
        raise ConfigError(str(exc)) from exc


def _ansatz_kind(cfg: RunConfig) -> AnsatzKind:
    return AnsatzKind.from_name(cfg.ansatz, reps=cfg.reps)


def _plan(cfg: RunConfig) -> Plan:
    """The run's plan, masses converted to Planck units."""
    scale = SOLAR_MASS_PLANCK if cfg.mass_unit == MASS_UNIT_SOLAR else 1.0
    return plan([m * scale for m in cfg.mass_grid], list(cfg.radius_grid),
                HamiltonianLayout(cfg.layout, cfg.dims), LatticeSpec(cfg.lattice_n),
                inner_half=cfg.inner_half, radius_mode=cfg.radius_mode)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_energy(value: float) -> str:
    """Six decimals; a value that rounds to zero prints as 0.000000, never -0.000000."""
    return f"{round(value, 6) + 0.0:.6f}"


def _point_prefix(point: GridPoint) -> str:
    return f"{_fmt(point.params.mass)} {_fmt(point.params.radius)} {_fmt(point.params.rho)}"


@contextlib.contextmanager
def _claimed(*paths: str):
    """Create each output's path + '.partial' before any work; rename them onto the paths after.

    Yields the open partial files. An empty path, an existing directory, or a partial
    file that cannot be created raises OSError naming the path given, not the partial
    file; any failure removes every partial file.
    """
    handles = []
    try:
        for path in paths:
            if not path or (os.path.isdir(path) and not os.path.islink(path)):
                code = errno.EISDIR if path else errno.ENOENT  # os.replace would fail after the run
                raise OSError(code, os.strerror(code), path)
            try:
                handles.append(open(path + ".partial", "w", encoding="utf-8", newline=""))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
        yield handles
        for path, handle in zip(paths, handles):
            handle.close()
            os.replace(handle.name, path)
    except BaseException:
        for handle in handles:
            handle.close()
            with contextlib.suppress(OSError):
                os.remove(handle.name)
        raise


def cmd_hamiltonian(cfg: RunConfig, fmt: str, normalized: bool) -> int:
    """Print the Hamiltonian at the first grid point (or prefactor 1)."""
    planned = _plan(cfg)
    scale = energy_scale(None, cfg.inner_half) if normalized else planned.points[0].scale
    h = replace(planned.operator, coeffs=scale * planned.operator.coeffs)
    if fmt == "pauli":
        print(to_text(h))
    else:
        for row in to_matrix(h):
            print(" ".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in row))
    return EXIT_OK


def cmd_exact(cfg: RunConfig) -> int:
    """Print `mass radius rho energy` for every grid point."""
    for point in _plan(cfg).points:
        print(f"{_point_prefix(point)} {_fmt_energy(point.energy_exact)}")
    return EXIT_OK


def cmd_vqe(cfg: RunConfig, trace_path: str | None) -> int:
    """Run one VQE per (grid point, seed); print a summary line per run."""
    if not cfg.seeds:
        raise ConfigError("vqe needs at least one seed")
    n_runs = len(cfg.mass_grid) * len(cfg.radius_grid) * len(cfg.seeds)
    if trace_path is not None and n_runs != 1:
        raise ConfigError("--trace needs a single-point, single-seed run")
    trace_paths = [] if trace_path is None else [trace_path]
    with _claimed(*trace_paths) as trace_files:
        runs = vqe_runs(_plan(cfg), _ansatz_kind(cfg), cfg.spsa, cfg.shots, cfg.seeds)
        for point, seed, result in runs:
            print(
                f"{_point_prefix(point)} {seed} {_fmt_energy(result.best_energy)} "
                f"{_fmt_energy(point.energy_exact)} "
                f"{result.iterations_used} {str(result.converged).lower()}"
            )
        for handle in trace_files:
            handle.write("iteration,energy\n")
            handle.writelines(f"{i},{_fmt(e)}\n" for i, e in enumerate(result.trace, start=1))
    return EXIT_OK


def _cell(value) -> str:
    """A CSV cell: None empty, a bool true/false, a float by _fmt, anything else by str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if isinstance(value, float) else str(value)


def _records_to_csv(cfg: RunConfig, records: list[SweepRecord]) -> str:
    rows = [CSV_COLUMNS]
    for i, rec in enumerate(records):
        cells = {"run_id": f"r{i:04d}", "layout": cfg.layout, "lattice_n": cfg.lattice_n}
        rows.append(",".join(_cell(cells[name] if name in cells else getattr(rec, name))
                             for name in CSV_COLUMNS.split(",")))
    return "\n".join(rows) + "\n"


def _config_snapshot(cfg: RunConfig) -> dict:
    # every field is an immutable value except spsa, written as the keys a config may set
    spsa = {key: getattr(cfg.spsa, key) for key in _SPSA_KEYS}
    return dict(vars(cfg), spsa=spsa, solar_mass_planck=SOLAR_MASS_PLANCK)


def cmd_sweep(cfg: RunConfig, out_path: str | None) -> int:
    """Write the sweep CSV and its manifest."""
    if not out_path:
        raise ConfigError("sweep needs --out PATH for the CSV")
    with _claimed(out_path, out_path + ".manifest.json") as (csv_file, manifest_file):
        table = records(_plan(cfg), cfg.spsa, cfg.shots, ansatz=_ansatz_kind(cfg), seeds=cfg.seeds,
                        kappa_t=cfg.kappa_t, kappa_p=cfg.kappa_p)
        text = _records_to_csv(cfg, table)
        csv_file.write(text)
        manifest = {
            "config": _config_snapshot(cfg),
            "version": __version__,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seeds": list(cfg.seeds),
            "outputs": [
                {"path": out_path, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
            ],
        }
        manifest_file.write(json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def cmd_fit(in_path: str, curve: str) -> int:
    """Fit the quartic energy curve to a sweep CSV and print coefficients."""
    try:
        with open(in_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        exact = [{key: float(row[key]) for key in ("mass", "radius", "energy")}
                 for row in rows if row["method"] == METHOD_EXACT]
    # a non-UTF-8 file raises UnicodeDecodeError, a ValueError; an overlong field csv.Error
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise ConfigError(f"input CSV is not a sweep table: {exc}") from exc
    # a curve is one family: exact rows that share the other grid coordinate
    regressor, family = ("mass", "radius") if curve == "mass" else ("radius", "mass")
    families = {row[family] for row in exact}
    if len(families) > 1:
        raise ConfigError(
            f"exact rows mix {len(families)} {family} values; fit one {family} at a time"
        )
    # the CSV does not record inner_half, so the unhalved scale bounds the noise
    require_nonzero_energies(
        (row["energy"], energy_scale(BlackHoleParams(row["mass"], row["radius"]))) for row in exact
    )
    points = [(row[regressor], row["energy"]) for row in exact]
    fit = fit_energy_vs_mass(points) if curve == "mass" else fit_energy_vs_radius(points)
    print(f"a={fit.a:.9g} b=1 c={fit.c:.9g} rms={fit.rms_residual:.9g}")
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    config_flag = argparse.ArgumentParser(add_help=False)
    config_flag.add_argument("--config", metavar="PATH", help="JSON config file")
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--seed", type=int, metavar="INT", help="replace the seed list")
    run_flags.add_argument("--shots", type=int, metavar="INT", help="measurement shots (0 = exact)")
    run_parents = [config_flag, run_flags]  # vqe and sweep

    parser = argparse.ArgumentParser(
        prog="bhvqe",
        description="Ground-state energies and Hawking-style observables for a "
        "discretized black-hole Hamiltonian.",
    )
    # build_config reads both on every subcommand, flag or not
    parser.set_defaults(seed=None, shots=None)
    sub = parser.add_subparsers(dest="command", required=True)
    ham = sub.add_parser("hamiltonian", parents=[config_flag], help="print the Hamiltonian")
    ham.add_argument("--format", choices=("pauli", "matrix"), default="pauli", help="output form")
    ham.add_argument(
        "--normalized", action="store_true", help="drop the metric prefactor (normalize to 1)"
    )
    sub.add_parser("exact", parents=[config_flag], help="exact ground energy per grid point")
    vqe = sub.add_parser("vqe", parents=run_parents, help="variational runs per (point, seed)")
    vqe.add_argument("--trace", metavar="PATH", help="energy trace CSV (single vqe run)")
    sweep = sub.add_parser("sweep", parents=run_parents, help="write the results CSV and manifest")
    sweep.add_argument("--out", metavar="PATH", help="output file (sweep CSV)")
    fit = sub.add_parser("fit", help="fit the quartic energy curve")
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
