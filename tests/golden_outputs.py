"""The committed seeded-output pins: every CLI subcommand over a fixed set of configs,
plus the library's seeded VQE runs and `run_batch` schedules.

Each CLI entry runs one `bhvqe` subcommand in process and records what a user
sees: the exit code, the stdout digest, the first stderr line, the CSV digest
and manifest `config` block of a sweep, and every VQE energy as `float.hex`,
so a move shows its size. Every config whose sweep exits 0 also gets one
`fit` entry per curve, fitted to that sweep's CSV. Each library entry, keyed
`library ...`, pins one seeded `vqe_run` (CHAIN_RUNS) or one sequence of
`run_batch` sizes (BATCH_SCHEDULES). `test_golden_outputs.py` compares a fresh
CLI run with `golden_outputs.json`, and `test_vqe.py` each library case. A
change that moves outputs on purpose rewrites the file in the same commit and
lists what moved:

    PYTHONPATH=src python tests/golden_outputs.py

With --check the script prints what moved (or `no entry moved`) and leaves
the file as it is; it exits 1 if any entry moved, else 0:

    PYTHONPATH=src python tests/golden_outputs.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np

from bhvqe import observables, vqe
from bhvqe.ansatz import AnsatzKind
from bhvqe.circuits import run_batch
from bhvqe.cli import main
from bhvqe.hamiltonian import PAPER_CHAIN, BlackHoleParams, HamiltonianLayout, assemble
from bhvqe.lattice import LatticeSpec
from bhvqe.vqe import SpsaConfig

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_outputs.json")

# Small grids, few seeds and a cut max_iter keep the whole matrix to a few seconds.
_CHAIN = {"mass_grid": [1.0, 2.0, 3.5], "radius_grid": [10.0]}
CONFIGS = {
    # valid: both layouts, both shot modes
    "chain-exact": {**_CHAIN, "seeds": [0, 1], "spsa": {"max_iter": 30}},
    "chain-shots": {**_CHAIN, "ansatz": "ansatz1", "shots": 200, "seeds": [0],
                    "spsa": {"max_iter": 20}},
    "chain-restarts": {"mass_grid": [1.0], "seeds": [2],
                       "spsa": {"max_iter": 40, "window": 2, "tol": 1e-2}},
    "disjoint-exact": {"layout": "disjoint", "dims": 1, "lattice_n": 8, "mass_grid": [1.0, 2.0],
                       "ansatz": "ansatz2", "seeds": [0], "spsa": {"max_iter": 20}},
    "disjoint-shots": {"layout": "disjoint", "dims": 2, "lattice_n": 4, "mass_grid": [1.0, 2.0],
                       "shots": 300, "seeds": [0], "spsa": {"max_iter": 15}},
    "solar-gm-multiple": {"mass_grid": [1.0, 2.0, 3.5], "mass_unit": "solar",
                          "radius_grid": [20.0], "radius_mode": "gm-multiple",
                          "inner_half": True, "ansatz": "ansatz1", "seeds": [3],
                          "kappa_t": 1 / (8 * math.pi), "kappa_p": 1 / (15360 * math.pi),
                          "spsa": {"max_iter": 10, "a": 2.0}},
    "exact-only": {**_CHAIN, "seeds": []},
    # valid, but a numerical failure (exit 3)
    "power-overflows": {"mass_grid": [1e200], "spsa": {"max_iter": 3}},
    # energies ~1e74: SPSA's first step throws theta where its probes no longer move it (exit 3)
    "runaway-scale": {"radius_grid": [1e-300], "spsa": {"max_iter": 20}},
    # one bad field
    "bad-lattice": {"lattice_n": 6},
    "bad-mass-unit": {"mass_unit": "kg"},
    "bad-spsa-key": {"spsa": {"steps": 3}},
    "bad-spsa-gains": {"spsa": {"alpha": 0.1, "gamma": 0.2}},
    "bad-shots": {"shots": -1},
    "bad-ansatz": {"ansatz": "ansatz9"},
    "bad-mass-grid": {"mass_grid": []},
    "spsa-string": {"spsa": "x"},
    "spsa-list": {"spsa": [1, 2]},
    "spsa-null": {"spsa": None},
    # several bad fields: the checks' order picks the one reported
    "bad-unit-mode-lattice": {"mass_unit": "kg", "radius_mode": "orbits", "lattice_n": 6},
    "bad-lattice-grid-shots": {"lattice_n": 6, "mass_grid": [-1], "shots": -2},
    "bad-seeds-shots-kappa": {"seeds": [-1], "shots": -1, "kappa_t": -1},
    "bad-spsa-string-lattice": {"spsa": "x", "lattice_n": 6},
    "bad-qubits-kappa": {"layout": "disjoint", "dims": 3, "lattice_n": 16, "kappa_p": 0},
}
SUBCOMMANDS = ("hamiltonian", "exact", "vqe", "sweep")
FIT_COMMANDS = ("fit --curve mass", "fit --curve radius")

# Seeded paper-chain runs (M=1, r=10, default SpsaConfig) as (family, shots, seed):
# any change to how a seeded run is optimized or sampled moves their entries.
CHAIN_RUNS = {f"library chain-run {family} shots={shots} seed={seed}": (family, shots, seed)
              for family in ("ansatz1", "ansatz2", "ansatz3") for shots in (0, 1000)
              for seed in range(3)}
# ansatz3 lockstep calls on the unit paper chain, as (runs, shots), with two lockstep
# slots. Which rows share a batch sets both the speed and the shot stream, so a
# rewrite that keeps every output but splits or merges batches moves their entries.
BATCH_SCHEDULES = {
    "library batch-schedule exact-run": ([(1.0, SpsaConfig(seed=0))], 0),
    "library batch-schedule shots-run-restarting":
        ([(1.0, SpsaConfig(seed=0, window=2, tol=1e-2))], 200),
    "library batch-schedule exact-lockstep-2-slots":
        ([(0.5, SpsaConfig(seed=0, max_iter=40)), (1.0, SpsaConfig(seed=1, max_iter=90)),
          (2.0, SpsaConfig(seed=2, max_iter=60))], 0),
}
LIBRARY_CASES = [*CHAIN_RUNS, *BATCH_SCHEDULES]


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _paper_chain(params: BlackHoleParams | None = None):
    return assemble(params, HamiltonianLayout(variant=PAPER_CHAIN), LatticeSpec(4))


def chain_run_entry(family: str, shots: int, seed: int) -> dict:
    """The golden entry of one CHAIN_RUNS case: best energy as `float.hex`, trace and parameter digests."""
    result = vqe.vqe_run(_paper_chain(BlackHoleParams(mass=1.0, radius=10.0)),
                         AnsatzKind.from_name(family), SpsaConfig(seed=seed), shots)
    return {
        "best_energy": result.best_energy.hex(),
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "trace_sha256": _sha256(np.array(result.trace).tobytes()),
        "best_params_sha256": _sha256(result.best_params.tobytes()),
    }


@contextlib.contextmanager
def recorded_batches():
    """A list that gets the rows of every `run_batch` call the library makes, in call order."""
    batches = []

    def spy(circuit, params):
        batches.append(np.array(params))
        return run_batch(circuit, params)

    with mock.patch.object(vqe, "run_batch", spy):
        yield batches


def batch_sizes(key: str) -> list[int]:
    """The `run_batch` sizes, in call order, of one BATCH_SCHEDULES case."""
    runs, shots = BATCH_SCHEDULES[key]
    with recorded_batches() as batches, mock.patch.object(vqe, "MAX_LOCKSTEP_RUNS", 2):
        vqe.vqe_lockstep(_paper_chain(), runs, AnsatzKind.from_name("ansatz3"), shots)
    return [len(rows) for rows in batches]


def schedule_entry(sizes: list[int]) -> dict:
    return {"calls": len(sizes), "sizes_sha256": _sha256(",".join(map(str, sizes)))}


def run_library() -> dict:
    """Every library entry, keyed as in LIBRARY_CASES."""
    entries = {key: chain_run_entry(*case) for key, case in CHAIN_RUNS.items()}
    entries.update((key, schedule_entry(batch_sizes(key))) for key in BATCH_SCHEDULES)
    return entries


def run_entry(config: dict, command: str, workdir: pathlib.Path) -> dict:
    """Run one subcommand on one config; the entry the golden file holds for it.

    A fit command fits the CSV that the config's sweep entry left in workdir.
    """
    csv_path = workdir / "sweep.csv"
    manifest_path = workdir / "sweep.csv.manifest.json"
    if command in FIT_COMMANDS:
        argv = command.split() + ["--in", str(csv_path)]
    else:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for path in (csv_path, manifest_path):
            path.unlink(missing_ok=True)
        argv = [command, "--config", str(config_path)]
    if command == "sweep":
        argv += ["--out", str(csv_path)]

    energies = []

    def recording_lockstep(*args, **kwargs):
        results = lockstep(*args, **kwargs)
        energies.extend(result.best_energy.hex() for result in results)
        return results

    lockstep = observables.vqe_lockstep
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(observables, "vqe_lockstep", recording_lockstep), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr_lines = err.getvalue().splitlines()
    written = command == "sweep" and csv_path.exists()
    return {
        "exit": code,
        "stdout_sha256": _sha256(out.getvalue()),
        "stderr_first_line": stderr_lines[0] if stderr_lines else "",
        "csv_sha256": _sha256(csv_path.read_text(encoding="utf-8")) if written else None,
        "config": json.loads(manifest_path.read_text(encoding="utf-8"))["config"]
        if written else None,
        "energies": energies,
    }


def run_matrix() -> dict:
    """Every (config, subcommand) entry, keyed `config-name subcommand`.

    A config whose sweep exits 0 adds one entry per FIT_COMMANDS command.
    """
    matrix = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for name, config in CONFIGS.items():
            for command in SUBCOMMANDS:
                matrix[f"{name} {command}"] = run_entry(config, command, workdir)
            if matrix[f"{name} sweep"]["exit"] == 0:
                for command in FIT_COMMANDS:
                    matrix[f"{name} {command}"] = run_entry(config, command, workdir)
    return matrix


def load() -> dict:
    """The entries of the committed golden file."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def to_text(matrix: dict) -> str:
    return json.dumps(matrix, indent=1) + "\n"


def moves(old: dict, new: dict) -> list[str]:
    """One line per entry field that differs, from what to what; VQE energies as relative moves."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, {}), new.get(key, {})
        for field in sorted(before.keys() | after.keys()):
            was, now = before.get(field), after.get(field)
            if was == now:
                continue
            if field == "best_energy" and was and now:
                was, now = [was], [now]  # one energy, reported as the lists are
            if field in ("energies", "best_energy") and was and now and len(was) == len(now):
                pairs = [(float.fromhex(a), float.fromhex(b)) for a, b in zip(was, now)]
                rel = [abs(b - a) / (abs(a) or 1.0) for a, b in pairs]
                lines.append(f"{key} {field}: {sum(a != b for a, b in zip(was, now))} of "
                             f"{len(was)} moved, largest relative move {max(rel):.3g}")
            else:
                lines.append(f"{key} {field}: {was!r} -> {now!r}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite golden_outputs.json and print what moved.")
    parser.add_argument("--check", action="store_true",
                        help="print what moved and leave the file alone; exit 1 if anything moved")
    check = parser.parse_args().check
    current = {**run_matrix(), **run_library()}
    previous = load() if GOLDEN_PATH.exists() else {}
    moved = moves(previous, current)
    print("\n".join(moved) or "no entry moved")
    if check:
        raise SystemExit(1 if moved else 0)
    GOLDEN_PATH.write_text(to_text(current), encoding="utf-8")
