import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvqe import hamiltonian, observables
from bhvqe.cli import CSV_COLUMNS, SOLAR_MASS_PLANCK, RunConfig, build_parser, main
from bhvqe.errors import UnsupportedLatticeError
from bhvqe.vqe import SpsaConfig

PI = math.pi

RHO_ZERO_CONFIG = {"mass_grid": [1e-30], "radius_grid": [1.0]}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hamiltonian_physical_small_mass(tmp_path, capsys):
    cfg = write_config(tmp_path, RHO_ZERO_CONFIG)
    code, out, _ = run_cli(capsys, "hamiltonian", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert "0.883572933822 IIII" in lines
    assert "0.0981747704247 XIII" in lines
    strings = [line.split()[1] for line in lines]
    assert strings == sorted(strings)


def test_hamiltonian_normalized_disjoint(tmp_path, capsys):
    cfg = write_config(tmp_path, {"layout": "disjoint", "dims": 1})
    code, out, _ = run_cli(capsys, "hamiltonian", "--config", cfg, "--normalized")
    assert code == 0
    assert out.splitlines() == [
        "0.589048622548 II",
        "0.392699081699 IX",
        "0.196349540849 XI",
        "0.392699081699 XX",
    ]


def test_hamiltonian_matrix_format(tmp_path, capsys):
    cfg = write_config(tmp_path, {"layout": "disjoint", "dims": 1})
    code, out, _ = run_cli(capsys, "hamiltonian", "--config", cfg, "--normalized",
                           "--format", "matrix")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 4
    first = rows[0].split()
    assert len(first) == 4
    # diagonal entry is 3*pi/16, printed as real+imag with a trailing i
    assert first[0] == "0.589048622548+0i"
    assert first[1] == "0.392699081699+0i"


def test_exact_energies(tmp_path, capsys):
    cfg = write_config(tmp_path, RHO_ZERO_CONFIG)
    code, out, _ = run_cli(capsys, "exact", "--config", cfg)
    assert code == 0
    assert out.splitlines() == ["1e-30 1 5e-31 0.196350"]

    cfg = write_config(tmp_path, {"mass_grid": [1.0], "radius_grid": [2.0]}, "horizon.json")
    code, out, _ = run_cli(capsys, "exact", "--config", cfg)
    assert out.splitlines() == ["1 2 0.25 0.207614"]

    cfg = write_config(tmp_path, {"layout": "disjoint", "dims": 3}, "disjoint.json")
    code, out, _ = run_cli(capsys, "exact", "--config", cfg)
    assert out.splitlines()[0].endswith(" 0.000000")


def test_exact_prints_unsigned_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(observables, "exact_ground_energy", lambda h: -1e-16)
    cfg = write_config(tmp_path, {"layout": "disjoint", "dims": 1}, "disjoint.json")
    code, out, _ = run_cli(capsys, "exact", "--config", cfg)
    assert code == 0
    assert out.splitlines() == ["1 10 0.05 0.000000"]


def test_exact_gm_multiple_radius(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mass_grid": [3.0], "radius_grid": [3.0],
                                  "radius_mode": "gm-multiple"})
    code, out, _ = run_cli(capsys, "exact", "--config", cfg)
    assert code == 0
    fields = out.split()
    assert fields[0] == "3"
    assert fields[1] == "9"  # 3 GM with G = 1
    assert fields[2] == "0.166666666667"
    assert fields[3] == "0.204064"


def test_exact_solar_mass_unit(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mass_grid": [1.0], "mass_unit": "solar",
                                  "radius_grid": [1e40]})
    code, out, _ = run_cli(capsys, "exact", "--config", cfg)
    assert code == 0
    assert out.split()[0] == "9.136e+37"


def test_overflowing_mass_or_radius_is_a_numeric_failure(tmp_path, capsys):
    # 1e200 GM at M = 1e200 overflows to an infinite radius, which printed GM/2r = 0
    for config in ({"mass_grid": [1e200], "radius_grid": [1e200], "radius_mode": "gm-multiple"},
                   {"mass_grid": [1e300], "mass_unit": "solar"}):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(capsys, "exact", "--config", cfg)
        assert (code, out) == (3, ""), config
        assert "DomainError" in err
        out_path = tmp_path / "sweep.csv"
        assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))[0] == 3
        assert not out_path.exists()


@pytest.mark.parametrize("masses", [[1e200], [1e-200], [1e-310], [1.0, 1e-310]])
@pytest.mark.parametrize("seeds", [[], [0]])
def test_mass_whose_temperature_or_power_is_not_a_float_is_a_numeric_failure(
    tmp_path, capsys, masses, seeds
):
    # M^2 overflowed (OverflowError) or underflowed to 0 (ZeroDivisionError) with exit 1,
    # and T = 1/M came back as inf
    cfg = write_config(tmp_path, {"mass_grid": masses, "seeds": seeds, "spsa": {"max_iter": 3}})
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    assert (code, out) == (3, "")
    assert "DomainError" in err and "at mass" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["vqe", "sweep"])
def test_runaway_spsa_iterate_is_a_numeric_failure(tmp_path, capsys, command):
    # energies ~1e74: the first update throws theta to ~7e73, where the probes no longer
    # move it; this printed a VQE energy 2.2x the exact one with converged=true and exit 0
    cfg = write_config(tmp_path, {"radius_grid": [1e-300], "spsa": {"max_iter": 20}})
    out_path = tmp_path / "sweep.csv"
    out_flag = ["--out", str(out_path)] if command == "sweep" else []
    code, out, err = run_cli(capsys, command, "--config", cfg, *out_flag)
    assert (code, out) == (3, "")
    assert err.startswith("error: DomainError: SPSA iterate ran away to |theta| = ")
    assert not out_path.exists()


def test_vqe_summary_line(tmp_path, capsys):
    cfg = write_config(tmp_path, RHO_ZERO_CONFIG)
    code, out, _ = run_cli(capsys, "vqe", "--config", cfg, "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    mass, radius, rho, seed, best, exact, iters, converged = lines[0].split()
    assert (mass, radius, rho, seed) == ("1e-30", "1", "5e-31", "0")
    assert exact == "0.196350"
    assert abs(float(best) - float(exact)) < 1e-2
    assert 1 <= int(iters) <= 500
    assert converged in ("true", "false")


def test_vqe_trace_file(tmp_path, capsys):
    config = dict(RHO_ZERO_CONFIG)
    config["spsa"] = {"max_iter": 40}
    cfg = write_config(tmp_path, config)
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "vqe", "--config", cfg, "--seed", "1",
                           "--trace", str(trace_path))
    assert code == 0
    iters = int(out.split()[6])
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iteration,energy"
    assert len(lines) == iters + 1
    assert lines[1].startswith("1,")


def test_vqe_trace_requires_single_run(tmp_path, capsys):
    config = dict(RHO_ZERO_CONFIG)
    config["seeds"] = [0, 1]
    cfg = write_config(tmp_path, config)
    code, _, err = run_cli(capsys, "vqe", "--config", cfg, "--trace", str(tmp_path / "t.csv"))
    assert code == 2
    assert "single" in err


def test_vqe_needs_seeds(tmp_path, capsys):
    config = dict(RHO_ZERO_CONFIG)
    config["seeds"] = []
    cfg = write_config(tmp_path, config)
    code, _, err = run_cli(capsys, "vqe", "--config", cfg)
    assert code == 2
    assert "seed" in err


def test_vqe_shots_changes_result(tmp_path, capsys):
    config = dict(RHO_ZERO_CONFIG)
    config["spsa"] = {"max_iter": 60}
    cfg = write_config(tmp_path, config)
    _, noiseless, _ = run_cli(capsys, "vqe", "--config", cfg, "--seed", "0")
    _, sampled, _ = run_cli(capsys, "vqe", "--config", cfg, "--seed", "0", "--shots", "256")
    assert noiseless.split()[4] != sampled.split()[4]


def test_sweep_exact_only(tmp_path, capsys):
    config = {
        "mass_grid": [1.0, 2.0, 3.0, 4.0, 5.0],
        "radius_grid": [10.0],
        "seeds": [],
    }
    cfg = write_config(tmp_path, config)
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [f"r{i:04d}" for i in range(5)]
    for row in rows:
        assert row[1] == "exact"
        assert row[8] == row[9]  # energy column repeats energy_exact
        assert row[13] == "" and row[14] == ""  # no seed, no convergence flag
    # temperature strictly decreasing as mass grows
    temps = [float(r[10]) for r in rows]
    assert all(hi > lo for hi, lo in zip(temps, temps[1:]))


def test_sweep_reproducible_and_manifested(tmp_path, capsys):
    config = {"mass_grid": [1.0, 2.0], "radius_grid": [5.0], "seeds": []}
    cfg = write_config(tmp_path, config)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(first))[0] == 0
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()

    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert set(manifest) == {"config", "version", "timestamp_utc", "seeds", "outputs"}
    assert manifest["seeds"] == []
    assert manifest["outputs"][0]["path"] == str(first)
    digest = hashlib.sha256(first.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["sha256"] == digest
    other = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert other["outputs"][0]["sha256"] == digest
    assert manifest["config"]["solar_mass_planck"] == SOLAR_MASS_PLANCK
    assert "seed" not in manifest["config"]["spsa"]


def test_manifest_config_records_every_setting_in_field_order(tmp_path, capsys):
    config = {
        "mass_grid": [1, 2.5],
        "mass_unit": "solar",
        "radius_grid": [10],
        "ansatz": "ansatz1",
        "reps": 2,
        "spsa": {"a": 2, "max_iter": 40, "tol": 0},
        "seeds": [],
    }
    out_path = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, config)
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))[0] == 0
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    spsa = {"a": 2.0, "c": 0.1, "alpha": 0.602, "gamma": 0.101, "stability_a": 10.0,
            "max_iter": 40, "tol": 0.0, "window": 10}
    expected = {
        "layout": "paper-chain", "dims": 3, "lattice_n": 4, "mass_grid": [1.0, 2.5],
        "mass_unit": "solar", "radius_grid": [10.0], "radius_mode": "absolute",
        "ansatz": "ansatz1", "reps": 2, "spsa": spsa, "shots": 0, "seeds": [],
        "inner_half": False, "kappa_t": 1.0, "kappa_p": 1.0,
        "solar_mass_planck": SOLAR_MASS_PLANCK,
    }
    assert list(manifest["config"].items()) == list(expected.items())
    assert list(manifest["config"]["spsa"]) == list(spsa)


def test_sweep_interleaves_vqe_rows(tmp_path, capsys):
    config = {
        "mass_grid": [1.0, 2.0],
        "radius_grid": [10.0],
        "seeds": [0],
        "spsa": {"max_iter": 40},
    }
    cfg = write_config(tmp_path, config)
    out_path = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))[0] == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["exact", "vqe", "exact", "vqe"]
    for exact_row, vqe_row in zip(rows[::2], rows[1::2]):
        assert vqe_row[2] == "ansatz3"
        assert vqe_row[13] == "0"
        assert vqe_row[14] in ("true", "false")
        assert float(vqe_row[8]) >= float(exact_row[9]) - 1e-10
        assert exact_row[5] == vqe_row[5]


def test_sweep_builds_each_point_once(tmp_path, capsys, monkeypatch):
    calls = {"assemble": 0, "exact_ground_energy": 0, "pauli_decompose": 0, "to_matrix": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(observables, "assemble")
    counted(observables, "exact_ground_energy")
    counted(hamiltonian, "pauli_decompose")
    counted(hamiltonian, "to_matrix")
    config = {
        "mass_grid": [1.0, 2.0, 3.0],
        "radius_grid": [5.0, 10.0],
        "seeds": [0, 1],
        "spsa": {"max_iter": 5},
    }
    cfg = write_config(tmp_path, config)
    out_path = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))[0] == 0
    assert len(out_path.read_text().splitlines()) == 1 + 6 * 3
    # one operator and one diagonalization for all 6 grid points; one dense matrix
    # for the eigensolve and one for all 12 VQE runs; the lattice block is
    # decomposed at most once (not at all when an earlier run cached it)
    assert calls["assemble"] == calls["exact_ground_energy"] == 1
    assert calls["to_matrix"] == 2
    assert calls["pauli_decompose"] <= 1


def test_one_parser_serves_every_main_call(tmp_path, capsys):
    config = write_config(tmp_path, {"mass_grid": [1.0, 2.0], "radius_grid": [10.0], "seeds": [0],
                                     "spsa": {"max_iter": 10}})
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert run_cli(capsys, "sweep", "--config", config, "--out", str(first))[0] == 0
    with pytest.raises(SystemExit) as rejected:
        main(["sweep", "--no-such-flag"])
    assert rejected.value.code == 2
    bad = write_config(tmp_path, {"lattice_n": 6}, name="bad.json")
    assert run_cli(capsys, "sweep", "--config", bad, "--out", str(again))[0] == 2
    assert run_cli(capsys, "sweep", "--config", config, "--out", str(again))[0] == 0
    assert again.read_bytes() == first.read_bytes()
    assert build_parser() is build_parser()


def test_threads_variable_is_not_read(tmp_path, capsys, monkeypatch):
    # runs advance in lockstep in one process; BHVQE_THREADS no longer exists
    cfg = write_config(tmp_path, {"seeds": [0, 1], "spsa": {"max_iter": 40}})
    monkeypatch.delenv("BHVQE_THREADS", raising=False)
    serial = run_cli(capsys, "vqe", "--config", cfg)
    monkeypatch.setenv("BHVQE_THREADS", "many")
    assert run_cli(capsys, "vqe", "--config", cfg) == serial
    assert serial[0] == 0 and len(serial[1].splitlines()) == 2


def test_ansatz_wider_than_layout_fails_every_run(tmp_path, capsys):
    # a 1-qubit layout: ansatz1 needs 2 qubits, so no run can start
    config = {"layout": "disjoint", "dims": 1, "lattice_n": 2, "ansatz": "ansatz1",
              "mass_grid": [1.0, 2.0], "seeds": [0, 1]}
    cfg = write_config(tmp_path, config)
    code, out, err = run_cli(capsys, "vqe", "--config", cfg)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: TooFewQubitsError: ansatz1 needs at least 2 qubits, got 1"]
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    assert code == 3
    assert "TooFewQubitsError" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_sweep_requires_out_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seeds": []})
    code, _, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert "--out" in err or "out" in err


def test_sweep_unwritable_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seeds": []})
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg,
                         "--out", str(tmp_path / "missing" / "sweep.csv"))
    assert code == 4


@pytest.mark.parametrize("command, flag, target", [
    ("sweep", "--out", "missing/out.csv"), ("vqe", "--trace", "missing/out.csv"),
    # no file can be renamed onto a directory or onto the empty path
    ("sweep", "--out", "taken"), ("vqe", "--trace", "taken"), ("vqe", "--trace", ""),
])
def test_unwritable_output_fails_before_any_run(tmp_path, capsys, monkeypatch, command, flag,
                                                target):
    calls = []
    monkeypatch.setattr(observables, "vqe_lockstep", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)  # a partial file of the empty path would land here
    cfg = write_config(tmp_path, {**RHO_ZERO_CONFIG, "seeds": [0], "spsa": {"max_iter": 3}})
    (tmp_path / "taken").mkdir()
    path = str(tmp_path / target) if target else ""
    code, out, err = run_cli(capsys, command, "--config", cfg, flag, path)
    assert (code, out, calls) == (4, "", [])
    # one line, naming the path given rather than the temporary file behind it
    (line,) = err.splitlines()
    assert line.startswith("error: ") and repr(path) in line and ".partial" not in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


@pytest.mark.parametrize("command, flag", [("sweep", "--out"), ("vqe", "--trace")])
def test_failed_rename_leaves_no_partial_file(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path, {**RHO_ZERO_CONFIG, "seeds": [0], "spsa": {"max_iter": 3}})
    taken = tmp_path / "taken"
    taken.mkdir()
    code, _, err = run_cli(capsys, command, "--config", cfg, flag, str(taken))
    assert code == 4
    assert "Is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
    assert list(taken.iterdir()) == []


def test_fit_recovers_curve_from_sweep(tmp_path, capsys):
    config = {"mass_grid": [float(m) for m in range(1, 11)], "radius_grid": [10.0], "seeds": []}
    cfg = write_config(tmp_path, config)
    out_path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    code, out, _ = run_cli(capsys, "fit", "--in", str(out_path), "--curve", "mass")
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert abs(float(fields["a"]) - PI / 16) / (PI / 16) < 1e-6
    assert fields["b"] == "1"
    assert abs(float(fields["c"]) - 0.05) / 0.05 < 1e-6
    assert float(fields["rms"]) < 1e-10


def test_fit_radius_curve(tmp_path, capsys):
    config = {"mass_grid": [2.0], "radius_grid": [4.0, 6.0, 8.0, 12.0], "seeds": []}
    cfg = write_config(tmp_path, config)
    out_path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    code, out, _ = run_cli(capsys, "fit", "--in", str(out_path), "--curve", "radius")
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert abs(float(fields["c"]) - 1.0) < 1e-6  # GM/2 with M = 2


def test_fit_needs_three_points(tmp_path, capsys):
    config = {"mass_grid": [1.0, 2.0], "radius_grid": [10.0], "seeds": []}
    cfg = write_config(tmp_path, config)
    out_path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    code, _, err = run_cli(capsys, "fit", "--in", str(out_path), "--curve", "mass")
    assert code == 3
    assert "3" in err


def test_fit_uses_exact_rows_of_one_family(tmp_path, capsys):
    base = {"mass_grid": [1.0, 2.0, 4.0], "seeds": [0], "spsa": {"max_iter": 20}}
    mixed = tmp_path / "mixed.csv"
    cfg = write_config(tmp_path, {**base, "radius_grid": [10.0, 20.0]}, name="mixed.json")
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(mixed))[0] == 0
    code, _, err = run_cli(capsys, "fit", "--in", str(mixed), "--curve", "mass")
    assert code == 2
    assert "radius" in err
    code, _, err = run_cli(capsys, "fit", "--in", str(mixed), "--curve", "radius")
    assert code == 2
    assert "mass" in err
    # one radius: the short-budget vqe rows are skipped, so c is exactly GM/2r / M = 1/(2r)
    single = tmp_path / "single.csv"
    cfg = write_config(tmp_path, {**base, "radius_grid": [10.0]}, name="single.json")
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(single))[0] == 0
    code, out, _ = run_cli(capsys, "fit", "--in", str(single), "--curve", "mass")
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert abs(float(fields["c"]) - 0.05) / 0.05 < 1e-6


@pytest.mark.parametrize("curve, dims, lattice_n, masses, radii", [
    ("mass", 2, 8, [1.0, 2.0, 3.0, 5.0], [10.0]),
    ("mass", 1, 16, [1.0, 2.0, 3.0, 5.0], [10.0]),
    ("radius", 1, 16, [1.0], [5.0, 10.0, 20.0, 40.0]),
    ("radius", 2, 8, [2.0], [4.0, 6.0, 8.0, 12.0]),
])
def test_fit_refuses_a_zero_ground_energy_family(tmp_path, capsys, curve, dims, lattice_n,
                                                  masses, radii):
    # the disjoint ground energy is rounding noise of either sign: no curve to fit
    config = {"layout": "disjoint", "dims": dims, "lattice_n": lattice_n, "mass_grid": masses,
              "radius_grid": radii, "seeds": []}
    out_path = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", "--config", write_config(tmp_path, config),
                   "--out", str(out_path))[0] == 0
    code, out, err = run_cli(capsys, "fit", "--in", str(out_path), "--curve", curve)
    assert code == 3
    assert out == ""
    assert err.startswith("error: DegenerateDataError: ground energy ")
    assert "zero" in err


def test_fit_reports_a_curve_that_falls_below_zero(tmp_path, capsys):
    # E^4 = 10, 5, 1e-4, 1e-4: a positive intercept, but the line falls below 0 at M = 4
    energies = [10**0.25, 5**0.25, 0.1, 0.1]
    rows = tmp_path / "falling.csv"
    rows.write_text("mass,radius,method,energy\n"
                    + "".join(f"{m}.0,10.0,exact,{e!r}\n" for m, e in enumerate(energies, 1)))
    code, out, err = run_cli(capsys, "fit", "--in", str(rows), "--curve", "mass")
    assert (code, out) == (3, "")
    assert err == "error: NegativeInterceptError: fitted curve is nonpositive at a sample point\n"


def test_linear_algebra_failure_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = run_cli(capsys, "exact", "--config", write_config(tmp_path, {}))
    assert (code, out) == (3, "")
    assert err == "error: linear algebra failure: Eigenvalues did not converge\n"


def test_fit_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,beta\n1,2\n")
    code, _, _ = run_cli(capsys, "fit", "--in", str(bad), "--curve", "mass")
    assert code == 2


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("argv, name, content", [
    *[([command, "--config"], "config.json", NOT_UTF8)
      for command in ("hamiltonian", "exact", "vqe", "sweep")],
    (["fit", "--curve", "mass", "--in"], "sweep.csv", CSV_COLUMNS.encode() + b"\n" + NOT_UTF8),
    # the csv module refuses a field over 131072 characters
    (["fit", "--curve", "mass", "--in"], "sweep.csv",
     CSV_COLUMNS.encode() + b"\nr0000," + b"x" * 200_000 + b"\n"),
], ids=["hamiltonian", "exact", "vqe", "sweep", "fit-not-utf8", "fit-field-over-limit"])
def test_undecodable_input_exits_2_with_one_error_line(tmp_path, capsys, argv, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    extra = ["--out", str(tmp_path / "out.csv")] if argv[0] == "sweep" else []
    code, out, err = run_cli(capsys, *argv, str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["hamiltonian", "exact", "vqe", "sweep", "fit"])
def test_unreadable_input_exits_4_with_one_error_line(tmp_path, capsys, command, kind):
    # a named input that cannot be opened is an I/O failure, whichever flag names it
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    flags = {"fit": ["--curve", "mass", "--in"], "sweep": ["--out", str(tmp_path / "out.csv"), "--config"]}
    code, out, err = run_cli(capsys, command, *flags.get(command, ["--config"]), str(path))
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


INVALID_CONFIGS = [
    {"layout": "ring"},
    {"layout": "paper-chain", "lattice_n": 8},
    {"lattice_n": 6},
    {"ansatz": "ansatz9"},
    {"seeds": [-1]},
    {"seeds": 3},
    {"mass_grid": []},
    {"mass_grid": [0.0]},
    {"dims": 4},
    {"mystery_knob": 1},
    {"spsa": {"steps": 3}},
    {"spsa": {"alpha": 0.1, "gamma": 0.2}},
    {"spsa": {"stability_a": -1}},
    {"shots": 2**63},
    {"layout": "disjoint", "dims": 3, "lattice_n": 16},  # 12 qubits
    {"inner_half": "yes"},
    {"mass_unit": "kg"},
    {"radius_mode": "orbits"},
    {"dims": 2.0},
    {"dims": True},
    {"lattice_n": 4.0},
    {"reps": True},
    {"reps": 1.5},
    {"spsa": {"a": True}},
    {"spsa": {"max_iter": 2.5}},
]


def test_config_validation_exit_codes(tmp_path, capsys):
    for data in INVALID_CONFIGS:
        cfg = write_config(tmp_path, data)
        code, _, _ = run_cli(capsys, "exact", "--config", cfg)
        assert code == 2, data


@pytest.mark.parametrize("data, named", [
    ({"seeds": 3}, "seeds must be a list of non-negative integers"),
    ({"lattice_n": 6}, "got 6"),
    ({"layout": "disjoint", "dims": 2.0}, "got 2.0"),
    ({"reps": True}, "got True"),
    ({"spsa": {"a": math.inf}}, "got inf"),
    ({"layout": "paper-chain", "lattice_n": 8}, "N=8"),
])
def test_config_error_names_the_bad_value(tmp_path, capsys, data, named):
    code, out, err = run_cli(capsys, "exact", "--config", write_config(tmp_path, data))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err


def test_run_config_rejects_each_invalid_case_on_construction():
    for data in INVALID_CONFIGS:
        with pytest.raises((TypeError, ValueError, UnsupportedLatticeError)):
            RunConfig(**data)


@pytest.mark.parametrize("change", [
    {"mass_grid": (-1.0,)},
    {"radius_grid": ()},
    {"kappa_p": 0.0},
    {"lattice_n": 6},
    {"spsa": "x"},
    {"seeds": (0, -1)},
    {"layout": "disjoint", "dims": 3, "lattice_n": 16},
])
def test_replace_cannot_make_an_invalid_run_config(change):
    with pytest.raises((TypeError, ValueError, UnsupportedLatticeError)):
        dataclasses.replace(RunConfig(), **change)


def test_json_shaped_config_equals_the_tuple_and_float_shaped_one():
    from_json = RunConfig(mass_grid=[1, 2.5], radius_grid=[10], seeds=[0, 3],
                          spsa={"max_iter": 10, "a": 2}, kappa_t=2, kappa_p=1)
    native = RunConfig(mass_grid=(1.0, 2.5), radius_grid=(10.0,), seeds=(0, 3),
                       spsa=SpsaConfig(max_iter=10, a=2.0), kappa_t=2.0, kappa_p=1.0)
    assert from_json == native
    numbers = [*from_json.mass_grid, *from_json.radius_grid, from_json.kappa_t, from_json.kappa_p]
    assert all(type(x) is float for x in numbers)
    assert type(from_json.seeds) is tuple and type(from_json.spsa) is SpsaConfig


@pytest.mark.parametrize("data, first_error", [
    ({"mass_unit": "kg", "radius_mode": "orbits", "lattice_n": 6},
     "mass_unit must be planck or solar, got 'kg'"),
    ({"lattice_n": 6, "mass_grid": [-1], "shots": -2}, "n_points must be a power of 2, got 6"),
    ({"seeds": [-1], "shots": -1, "kappa_t": -1}, "seeds entry must be >= 0, got -1"),
    # the qubit cap comes last
    ({"layout": "disjoint", "dims": 3, "lattice_n": 16, "kappa_p": 0},
     "kappa_p must be > 0, got 0.0"),
])
def test_several_bad_fields_report_the_same_first_error(tmp_path, capsys, data, first_error):
    code, out, err = run_cli(capsys, "exact", "--config", write_config(tmp_path, data))
    assert (code, out, err) == (2, "", f"error: {first_error}\n")


@pytest.mark.parametrize("spsa", ["x", [1, 2], None])
@pytest.mark.parametrize("command", ["vqe", "sweep"])
def test_spsa_that_is_not_a_mapping_exits_2(tmp_path, capsys, command, spsa):
    # it was reported with Python's own `SpsaConfig() argument after **` text
    cfg = write_config(tmp_path, {"spsa": spsa})
    out_path = tmp_path / "sweep.csv"
    out_flag = ["--out", str(out_path)] if command == "sweep" else []
    code, out, err = run_cli(capsys, command, "--config", cfg, *out_flag)
    assert (code, out, err) == (2, "", f"error: spsa must be an object, got {spsa!r}\n")
    assert not out_path.exists()


FLAG_VALUES = {"--config": "c.json", "--seed": "7", "--shots": "9", "--format": "matrix",
               "--normalized": None, "--trace": "t.csv", "--out": "o.csv", "--in": "i.csv",
               "--curve": "radius"}
FLAG_DESTS = {"--in": "in_path"}
FLAG_PARSED = {"--seed": 7, "--shots": 9, "--normalized": True}
FLAGS_READ = {
    "hamiltonian": {"--config", "--format", "--normalized"},
    "exact": {"--config"},
    "vqe": {"--config", "--seed", "--shots", "--trace"},
    "sweep": {"--config", "--seed", "--shots", "--out"},
    "fit": {"--in", "--curve"},
}


@pytest.mark.parametrize("command, flag", itertools.product(FLAGS_READ, FLAG_VALUES))
def test_each_subcommand_parses_only_the_flags_it_reads(capsys, command, flag):
    assert sum(map(len, FLAGS_READ.values())) == 14
    value = FLAG_VALUES[flag]
    required = {"--in": "i.csv", "--curve": "mass"} if command == "fit" else {}
    argv = [command, *(x for k, v in required.items() if k != flag for x in (k, v)), flag]
    argv += [] if value is None else [value]
    if flag in FLAGS_READ[command]:
        args = build_parser().parse_args(argv)
        assert getattr(args, FLAG_DESTS.get(flag, flag[2:])) == FLAG_PARSED.get(flag, value)
    else:
        with pytest.raises(SystemExit) as rejected:
            build_parser().parse_args(argv)
        assert rejected.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_vqe_rejects_shots_numpy_cannot_draw(tmp_path, capsys):
    # 2**63 shots overflowed numpy's multinomial with a traceback
    cfg = write_config(tmp_path, {"mass_grid": [1.0], "spsa": {"max_iter": 3}})
    code, out, err = run_cli(capsys, "vqe", "--config", cfg, "--shots", str(2**63))
    assert code == 2
    assert out == ""
    assert "shots" in err


def test_sweep_rejects_non_positive_kappas(tmp_path, capsys):
    # temperatures -1, -1/2, -1/3 and powers 0 would look like a result
    cfg = write_config(tmp_path, {"mass_grid": [1.0, 2.0, 3.0], "seeds": [], "kappa_t": -1,
                                  "kappa_p": 0})
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
    assert code == 2
    assert "kappa_t" in err
    assert not out_path.exists()


def main_in_tempdir(command, config):
    """Exit code of one cli.main run on config, and its CSV rows (None if no CSV was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(pathlib.Path(tmp), config)
        out_path = os.path.join(tmp, "sweep.csv")
        out_flag = ["--out", out_path] if command == "sweep" else []
        code = main([command, "--config", cfg, *out_flag])
        if not os.path.exists(out_path):
            return code, None
        with open(out_path, newline="") as handle:
            return code, list(csv.DictReader(handle))


@settings(max_examples=8, deadline=None)
@given(
    masses=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3, unique=True),
    radii=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=2, unique=True),
    radius_mode=st.sampled_from(["absolute", "gm-multiple"]),
    seed=st.integers(0, 2**16),
)
def test_sweep_rows_follow_closed_form_and_variational_bound(masses, radii, radius_mode, seed):
    config = {"mass_grid": masses, "radius_grid": radii, "radius_mode": radius_mode,
              "seeds": [seed], "spsa": {"max_iter": 25}}
    code, rows = main_in_tempdir("sweep", config)
    assert code == 0
    grid = list(itertools.product(masses, radii))
    assert [r["method"] for r in rows] == ["exact", "vqe"] * len(grid)
    for (mass, radius), exact_row, vqe_row in zip(grid, rows[::2], rows[1::2]):
        r_abs = radius * mass if radius_mode == "gm-multiple" else radius
        closed_form = (PI / 16) * (1.0 + mass / (2.0 * r_abs)) ** 0.25
        assert abs(float(exact_row["energy"]) - closed_form) < 1e-10
        assert float(vqe_row["energy"]) >= float(vqe_row["energy_exact"]) - 1e-12


invalid_numbers = st.one_of(
    st.floats(max_value=0.0),
    st.sampled_from([math.nan, math.inf]),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=1),
)


@settings(max_examples=30, deadline=None)
@given(
    key=st.sampled_from(["mass_grid", "radius_grid", "kappa_t", "kappa_p"]),
    bad=invalid_numbers,
    command=st.sampled_from(["exact", "sweep"]),
)
def test_invalid_masses_radii_and_kappas_exit_2(key, bad, command):
    config = {"seeds": [], key: [1.0, bad] if key.endswith("_grid") else bad}
    assert main_in_tempdir(command, config) == (2, None)


def test_config_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert run_cli(capsys, "exact", "--config", missing)[0] == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(capsys, "exact", "--config", str(broken))[0] == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert run_cli(capsys, "exact", "--config", str(listy))[0] == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bhvqe.cli", "exact"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    # default grid point: mass 1, radius 10, so (pi/16)(1.05)^(1/4)
    assert proc.stdout.strip() == "1 10 0.05 0.198759"
