"""The benchmark workloads.

Each workload draws its inputs (masses, VQE seeds) from the workload seed;
the program sees only those inputs. A workload has four parts:

* ``prepare`` writes the config files (untimed, once per benchmark run);
* ``validate`` checks the config the way the program would; a fresh
  interpreter running it is what setup_s times;
* ``execute(step)`` does the timed work of one step through the package's
  public entry points;
* ``verify(step, raw)`` checks every operation of the step against an
  independent reference (untimed, untraced) and returns an Outcome.

One cycle runs every step once; the benchmark repeats the cycle.

An operation is one grid point (its exact energy) or one VQE run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field

import numpy as np

from bhvqe import ansatz, circuits, cli, hamiltonian, lattice, vqe

import gates

RADIUS = 10.0
MASS_RANGE = (1.0, 10.0)
FAMILIES = ("ansatz1", "ansatz2", "ansatz3")
CHAIN_VQE_MASSES = 3  # three distinct masses per sweep, so the quartic fit runs
CHAIN_SHOTS_MASSES = 2  # one VQE run, with its own seed, per mass
SHOTS = 1000
LATTICE_N = 64
LATTICE_MASSES = 3


@dataclass
class Outcome:
    """What verify found in one step."""

    ops: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    points: int = 0
    spsa_iters: int = 0
    gaps: list[float] = field(default_factory=list)
    digest: str = ""

    def op(self, label: str, reason: str | None) -> None:
        self.ops.append(label)
        if reason is not None:
            self.failures.setdefault(label, reason)


def _draw_masses(rng: random.Random, count: int) -> list[float]:
    masses: set[float] = set()
    while len(masses) < count:
        masses.add(round(rng.uniform(*MASS_RANGE), 6))
    return sorted(masses)


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _rho(mass: float, radius: float) -> float:
    return mass / (2.0 * radius)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    """A cycle of steps; the benchmark times each step on its own and repeats the cycle."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def validate(self) -> None:
        """Validate the workload's config the way the program would; timed as setup_s."""
        raise NotImplementedError

    def steps(self) -> list[str]:
        """Labels of the steps that make up one cycle of the workload."""
        raise NotImplementedError

    def execute(self, step: str):
        """The timed work of one step."""
        raise NotImplementedError

    def verify(self, step: str, raw) -> Outcome:
        raise NotImplementedError


class _SweepWorkload(Workload):
    """Workloads that run `bhvqe sweep` in-process through bhvqe.cli.main, one sweep per step."""

    def sweeps(self) -> dict[str, dict]:
        """Step label -> sweep config document."""
        raise NotImplementedError

    def steps(self) -> list[str]:
        return list(self.sweeps())

    def _paths(self, step: str) -> tuple[str, str]:
        base = os.path.join(self.workdir, step)
        return base + ".json", base + ".csv"

    def prepare(self) -> None:
        super().prepare()
        for step, config in self.sweeps().items():
            config_path, _ = self._paths(step)
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)

    def _argv(self, step: str) -> list[str]:
        config_path, csv_path = self._paths(step)
        return ["sweep", "--config", config_path, "--out", csv_path]

    def validate(self) -> None:
        for step in self.steps():
            cli.build_config(cli.build_parser().parse_args(self._argv(step)))

    def execute(self, step: str):
        try:
            return cli.main(self._argv(step))
        except Exception as exc:  # an operation that raises counts as failed
            return _error(exc)

    def verify(self, step: str, raw) -> Outcome:
        """Sweep-level gates (exit code, readable output, manifest digest), then check_rows."""
        out = Outcome()
        error = None if raw == 0 else f"sweep exited with {raw!r}"
        if error is None:
            _, csv_path = self._paths(step)
            try:
                with open(csv_path, encoding="utf-8", newline="") as handle:
                    text = handle.read()
                with open(csv_path + ".manifest.json", encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError) as exc:
                error = f"cannot read sweep output: {_error(exc)}"
            else:
                error = gates.check_manifest(step, text, manifest, os.path.basename(csv_path))
        if error is not None:
            for label in self.op_labels(step):
                out.op(label, error)
            return out
        rows = {(row["method"], float(row["mass"])): row for row in csv.DictReader(io.StringIO(text))}
        self.check_rows(step, rows, out)
        out.digest = gates.sha256_text(text)
        return out

    def op_labels(self, step: str) -> list[str]:
        raise NotImplementedError

    def check_rows(self, step: str, rows: dict, out: Outcome) -> None:
        raise NotImplementedError


class ChainVqe(_SweepWorkload):
    """`bhvqe sweep`, paper-chain N=4, exact expectations; one step per ansatz family."""

    name = "chain-vqe"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inputs = {
            family: (_draw_masses(self.rng, CHAIN_VQE_MASSES), _draw_seed(self.rng))
            for family in FAMILIES
        }

    def sweeps(self) -> dict[str, dict]:
        return {
            family: {
                "layout": "paper-chain",
                "lattice_n": 4,
                "mass_grid": masses,
                "radius_grid": [RADIUS],
                "ansatz": family,
                "shots": 0,
                "seeds": [vqe_seed],
            }
            for family, (masses, vqe_seed) in self.inputs.items()
        }

    def op_labels(self, step: str) -> list[str]:
        return [f"{step}/{kind}@{m}" for m in self.inputs[step][0] for kind in ("exact", "vqe")]

    def check_rows(self, step: str, rows: dict, out: Outcome) -> None:
        for m in self.inputs[step][0]:
            ground = gates.chain_energy(_rho(m, RADIUS))
            exact, run = rows.get(("exact", m)), rows.get(("vqe", m))
            out.op(
                f"{step}/exact@{m}",
                "missing exact row" if exact is None
                else gates.check_close("energy_exact", float(exact["energy_exact"]), ground),
            )
            out.points += 1
            if run is None:
                out.op(f"{step}/vqe@{m}", "missing vqe row")
                continue
            # Exact expectations: the reported energy is the exact energy at the best parameters.
            energy = float(run["energy"])
            out.op(f"{step}/vqe@{m}", gates.check_variational("vqe energy", energy, ground))
            out.gaps.append(energy - ground)
            out.spsa_iters += int(run["iterations"])


class Lattice64Exact(_SweepWorkload):
    """`bhvqe sweep`, disjoint layout, one N=64 dimension (6 qubits), exact only."""

    name = "lattice64-exact"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.masses = _draw_masses(self.rng, LATTICE_MASSES)
        self._lowest = None

    def sweeps(self) -> dict[str, dict]:
        return {
            "lattice64": {
                "layout": "disjoint",
                "dims": 1,
                "lattice_n": LATTICE_N,
                "mass_grid": self.masses,
                "radius_grid": [RADIUS],
                "seeds": [],
            }
        }

    def lowest_eigenvalue(self) -> float:
        """min eigvalsh of the bare N=64 momentum-squared block (0 up to rounding)."""
        if self._lowest is None:
            block = lattice.momentum_squared(lattice.LatticeSpec(LATTICE_N))
            self._lowest = float(np.linalg.eigvalsh(block)[0])
        return self._lowest

    def op_labels(self, step: str) -> list[str]:
        return [f"exact@{m}" for m in self.masses]

    def check_rows(self, step: str, rows: dict, out: Outcome) -> None:
        lowest = self.lowest_eigenvalue()
        for m in self.masses:
            row = rows.get(("exact", m))
            reference = gates.metric_prefactor(_rho(m, RADIUS)) * lowest
            out.op(
                f"exact@{m}",
                "missing exact row" if row is None
                else gates.check_close("energy", float(row["energy"]), reference),
            )
            out.points += 1


class ChainShots(Workload):
    """assemble, exact_ground_energy and vqe_run(shots=1000) called directly.

    Paper chain, ansatz3; one step per mass.
    """

    name = "chain-shots"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inputs = {
            f"m{i}": (m, _draw_seed(self.rng))
            for i, m in enumerate(_draw_masses(self.rng, CHAIN_SHOTS_MASSES))
        }
        self.kind = ansatz.AnsatzKind.from_name("ansatz3")

    def steps(self) -> list[str]:
        return list(self.inputs)

    def _objects(self, step: str):
        mass, vqe_seed = self.inputs[step]
        return hamiltonian.BlackHoleParams(mass=mass, radius=RADIUS), vqe.SpsaConfig(seed=vqe_seed)

    def validate(self) -> None:
        for step in self.steps():
            self._objects(step)

    def execute(self, step: str):
        params, cfg = self._objects(step)
        try:
            h = hamiltonian.assemble(params, hamiltonian.HamiltonianLayout(variant="paper-chain"),
                                     lattice.LatticeSpec(4))
            # The grid point's exact energy is part of the timed work, as in a sweep.
            return h, hamiltonian.exact_ground_energy(h), vqe.vqe_run(h, self.kind, cfg, shots=SHOTS)
        except Exception as exc:  # an operation that raises counts as failed
            return None, None, _error(exc)

    def verify(self, step: str, raw) -> Outcome:
        out = Outcome()
        mass, _ = self.inputs[step]
        h, ground, result = raw
        if isinstance(result, str):
            out.op(f"exact@{mass}", result)
            out.op(f"vqe@{mass}", result)
            return out
        out.op(f"exact@{mass}", gates.check_close("exact ground energy", ground,
                                                  gates.chain_energy(_rho(mass, RADIUS))))
        out.points += 1
        # Re-evaluate the noisy optimum exactly: its true energy is the accuracy figure.
        circuit = ansatz.build(self.kind, h.n_qubits)
        energy = circuits.expectation(circuits.run(circuit, result.best_params), h)
        reason = gates.check_variational("exact energy at best_params", energy, ground)
        if reason is None and not math.isfinite(result.best_energy):
            reason = f"best_energy {result.best_energy} is not finite"
        out.op(f"vqe@{mass}", reason)
        out.gaps.append(energy - ground)
        out.spsa_iters += result.iterations_used
        params = np.asarray(result.best_params).tobytes().hex()
        out.digest = gates.sha256_text(f"{result.best_energy!r} {params}")
        return out


WORKLOADS = {w.name: w for w in (ChainVqe, ChainShots, Lattice64Exact)}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
