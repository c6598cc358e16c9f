"""Self-tests for the benchmark's own helpers, gates and tracer.

Run with:  python3 -m pytest bench -q
"""

import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import calibration  # noqa: E402
import gates  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0, 7.0, 9.0, 11.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, statistics.median(values), q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.spread([5.0, 5.0, 5.0]) == 0.0


def test_ratio_and_worsening():
    assert stats.ratio(3.0, 2.0) == 1.5
    assert stats.ratio(0.0, 0.0) == 1.0
    assert math.isinf(stats.ratio(1.0, 0.0))
    assert stats.worsening(1.1, 1.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(1.1, 1.0, "higher") == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        stats.worsening(1.0, 1.0, "sideways")


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.7 for v in parent]
    slower = [v * 1.3 for v in parent]
    wobbly = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    assert stats.verdict(parent, faster, "lower", 0.1) == stats.BETTER
    assert stats.verdict(parent, slower, "lower", 0.1) == stats.WORSE
    assert stats.verdict(parent, list(parent), "lower", 0.1) == stats.NO_WORSE
    assert stats.verdict(parent, wobbly, "lower", 0.1) == stats.UNRESOLVED
    assert stats.verdict(parent, faster, "higher", 0.1) == stats.WORSE


def test_accuracy_verdict_pairs_one_seeds_runs():
    hit, trapped = 1e-3, 0.2
    assert stats.accuracy_verdict([hit, hit, trapped], [hit, hit, trapped]) == stats.NO_WORSE
    # One hit lost: worse, even though the median gap stays small.
    assert stats.accuracy_verdict([hit, hit, hit], [hit, hit, trapped]) == stats.WORSE
    assert stats.accuracy_verdict([hit, trapped, hit], [hit, hit, hit]) == stats.BETTER
    # Median gap grows by more than the hit tolerance, hit count unchanged.
    assert stats.accuracy_verdict([trapped] * 3, [trapped + 0.05] * 3) == stats.WORSE
    assert stats.accuracy_verdict([trapped] * 3, [trapped + 0.005] * 3) == stats.NO_WORSE


def test_compare_fails_on_an_accuracy_loss(tmp_path, capsys):
    import run

    def save(path, gaps):
        result = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        with open(path, "w", encoding="utf-8") as handle:
            for seed in (1, 2, 3):
                record = {"workload": "chain-vqe", "seed": seed, "gaps": gaps(seed), "result": result}
                handle.write(json.dumps(record) + "\n")

    save(tmp_path / "a.jsonl", lambda seed: [1e-3, 1e-3])
    save(tmp_path / "b.jsonl", lambda seed: [1e-3, 1e-3])
    assert run.compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 0
    save(tmp_path / "b.jsonl", lambda seed: [1e-3, 0.2 if seed == 2 else 1e-3])
    assert run.compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 1
    assert "worse: seeds [2]" in capsys.readouterr().out


def test_energy_gates_trip_on_a_wrong_energy():
    rho = 0.25
    exact = gates.chain_energy(rho)
    assert gates.check_close("e", exact, exact) is None
    assert gates.check_close("e", exact + 1e-6, exact) is not None
    assert gates.check_close("e", float("nan"), exact) is not None
    assert gates.check_variational("e", exact + 0.1, exact) is None
    assert gates.check_variational("e", exact - 1e-6, exact) is not None
    assert gates.chain_energy(0.0) == pytest.approx(math.pi / 16)
    assert gates.metric_prefactor(0.0) == 0.5


def test_digest_gates():
    text = "a,b\n1,2\n"
    manifest = {"outputs": [{"path": "/x/out.csv", "sha256": gates.sha256_text(text)}]}
    assert gates.check_manifest("m", text, manifest, "out.csv") is None
    assert gates.check_manifest("m", text + "3,4\n", manifest, "out.csv") is not None
    assert gates.check_manifest("m", text, {"outputs": []}, "out.csv") is not None


def _write_lattice_sweep(workload, energies):
    """Write a sweep CSV and a matching manifest as `bhvqe sweep` would."""
    workload.prepare()
    lines = ["run_id,method,mass,radius,energy,energy_exact"]
    for i, (m, e) in enumerate(zip(workload.masses, energies)):
        lines.append(f"r{i:04d},exact,{m!r},{workloads.RADIUS!r},{e!r},{e!r}")
    text = "\n".join(lines) + "\n"
    _, csv_path = workload._paths("lattice64")
    Path(csv_path).write_text(text, encoding="utf-8")
    manifest = {"outputs": [{"path": csv_path, "sha256": gates.sha256_text(text)}]}
    Path(csv_path + ".manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_lattice_verify_fails_exactly_the_wrong_point(tmp_path):
    workload = workloads.make("lattice64-exact", 3, str(tmp_path))
    lowest = workload.lowest_eigenvalue()
    right = [gates.metric_prefactor(m / (2 * workloads.RADIUS)) * lowest for m in workload.masses]
    _write_lattice_sweep(workload, right)
    outcome = workload.verify("lattice64", 0)
    assert len(outcome.ops) == workloads.LATTICE_MASSES and not outcome.failures

    wrong = list(right)
    wrong[1] += 1e-6
    _write_lattice_sweep(workload, wrong)
    outcome = workload.verify("lattice64", 0)
    assert list(outcome.failures) == [f"exact@{workload.masses[1]}"]

    outcome = workload.verify("lattice64", 3)
    assert len(outcome.failures) == workloads.LATTICE_MASSES


def test_inputs_follow_the_seed():
    a, b = workloads.make("chain-vqe", 5, "unused"), workloads.make("chain-vqe", 5, "unused")
    assert a.inputs == b.inputs
    assert workloads.make("chain-vqe", 6, "unused").inputs != a.inputs
    for masses, _ in a.inputs.values():
        assert len(set(masses)) == workloads.CHAIN_VQE_MASSES


def test_tracer_patches_every_lookup_and_restores():
    import bhvqe
    from bhvqe import circuits, vqe

    original = circuits.run
    layers = (("circuits", "run"), ("vqe", "spsa_minimize"), ("nosuchmodule", "f"), ("circuits", "nosuchfn"))
    tracer = tracing.Tracer(layers)
    with tracer:
        assert vqe.run is not original and circuits.run is vqe.run and bhvqe.run is vqe.run
        cfg = vqe.SpsaConfig(max_iter=3, seed=1)
        vqe.spsa_minimize(lambda th: float(vqe.run(_circuit(), th).amplitudes[0].real), [0.1] * 4, cfg)
    assert vqe.run is original and circuits.run is original and bhvqe.run is original
    assert tracer.absent == ["nosuchmodule.f", "circuits.nosuchfn"]
    run_stats, spsa_stats = tracer.stats["circuits.run"], tracer.stats["vqe.spsa_minimize"]
    assert run_stats.calls == 1 + 3 * 3
    assert spsa_stats.calls == 1
    # spsa's self time excludes the traced run calls it made
    assert spsa_stats.self_s < spsa_stats.durations[0]
    assert spsa_stats.self_s + run_stats.self_s == pytest.approx(spsa_stats.durations[0], rel=0.05, abs=1e-4)


def _circuit():
    from bhvqe import ansatz

    return ansatz.build(ansatz.AnsatzKind.from_name("ansatz3", reps=1), 1)


def test_speed_probe_rescales_by_the_speed_it_saw():
    ref = calibration.REFERENCE_S
    speed = calibration.SpeedProbe()
    speed.inside = [(2 * ref, 4 * ref)] * 3
    speed.closing = (2 * ref, 4 * ref)
    # At half (wall) and quarter (cpu) speed, the busy time outside the probes shrinks accordingly.
    assert speed.scaled(1.0 + 6 * ref, 0) == pytest.approx(0.5)
    assert speed.scaled(1.0 + 12 * ref, 1) == pytest.approx(0.25)


def test_speed_probe_samples_while_active_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedProbe() as speed:
        end = time.perf_counter() + 4 * calibration.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.inside) >= 2 and speed.closing is not None
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
