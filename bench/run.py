"""bhvqe benchmark: one serial process, closed loop, OpenBLAS pinned to one thread.

Run one workload for a fixed time and print one JSON result as the last line
of standard output:

    python3 bench/run.py --workload chain-vqe --seed 1 --seconds 30 --trace 0

A workload is a cycle of steps drawn from --seed. The run repeats the cycle
until the next step would overrun --seconds, times every step on its own
and rescales its time by the speed probe (calibration.py) to cancel the
slowdown other tenants of a shared machine impose. Every step is checked by
the correctness gates and must reproduce its first repeat's output exactly.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced cycles and reports per-layer metrics; the traced cycles wrap each
module's public functions (see tracer.py).

--save PATH appends the result, with the environment it ran in, as one JSON
line to PATH. --compare A B prints, per workload and metric, the medians of
two such result sets, their ratio and a verdict against the bounds in
BENCHMARK.json, and per VQE workload an accuracy verdict that pairs the two
sets' runs seed by seed; it exits 1 when any verdict reads worse. Exit status
of a run: 0 when every operation passed its gates, 1 when any failed, 2 when
the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Every BLAS call runs on one thread: the steadier setting on a small shared
# machine, and the plain single-threaded baseline. Set before numpy loads.
BLAS_THREADS = "1"
# At least this many set-up samples per run; one is taken before every step.
SETUP_MIN = 9
SETUP_TIMEOUT_S = 60

WORKLOAD_NAMES = ("chain-vqe", "chain-shots", "lattice64-exact")


def _pin_environment() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    # Variational runs stay in this process: no worker pool.
    os.environ.pop("BHVQE_THREADS", None)
    pythonpath = [str(SRC), str(BENCH_DIR)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(pythonpath)
    sys.path.insert(0, str(SRC))


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "BHVQE_THREADS": os.environ.get("BHVQE_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": _git_sha(),
    }


def time_setup(name: str, seed: int, workdir: str) -> float:
    """Wall time of a fresh interpreter that imports bhvqe.cli and validates the config."""
    code = "import sys, workloads; workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3]).validate()"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, name, str(seed), workdir], cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"config validation failed:\n{done.stderr}")
    return elapsed


@dataclass
class Sample:
    """One timed step: raw seconds and seconds at the speed probe's reference speed."""

    cycle: int
    step: str
    traced: bool
    wall_s: float
    cpu_s: float
    wall_ref_s: float
    cpu_ref_s: float
    outcome: object


def _cycle_time(samples: list[Sample], field: str) -> float:
    """Sum over the cycle's steps of each step's median time."""
    by_step: dict[str, list[float]] = {}
    for s in samples:
        by_step.setdefault(s.step, []).append(getattr(s, field))
    return sum(statistics.median(v) for v in by_step.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (result, info) where result is the benchmark's last output line."""
    # Imported here, not at the top: they load numpy, which must start after
    # _pin_environment has set the BLAS thread count.
    import calibration
    import gates
    import tracer as tracing
    import workloads

    workdir = str(ROOT / ".bench_work" / f"{name}-{os.getpid()}")
    tracer = tracing.Tracer()
    snapshots = []  # per traced cycle: layer -> (calls, self_s, durations)
    samples: list[Sample] = []
    setup: list[float] = []
    try:
        workload = workloads.make(name, seed, workdir)
        workload.prepare()
        steps = workload.steps()
        last_wall: dict[str, float] = {}
        cycle, cycle_s, running = 0, 0.0, True
        start = time.perf_counter()
        while running:
            # Trace runs stop only between cycles, after an untraced and a traced one.
            cycle_start = time.perf_counter()
            if trace and cycle >= 2 and cycle_start - start + cycle_s > seconds:
                break
            traced = trace and cycle % 2 == 1
            tracer.reset()
            for step in steps:
                if not trace:
                    if cycle >= 1 and time.perf_counter() - start + last_wall[step] + setup[-1] > seconds:
                        running = False
                        break
                    # Spread the set-up samples over the run, one before each step.
                    setup.append(time_setup(name, seed, workdir))
                with calibration.SpeedProbe() as speed:
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    if traced:
                        with tracer:
                            raw = workload.execute(step)
                    else:
                        raw = workload.execute(step)
                    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                outcome = workload.verify(step, raw)
                samples.append(Sample(cycle, step, traced, wall, cpu,
                                      speed.scaled(wall, 0), speed.scaled(cpu, 1), outcome))
                last_wall[step] = wall
            else:
                if traced:
                    snapshots.append(_layer_snapshot(tracer))
                cycle += 1
                cycle_s = time.perf_counter() - cycle_start
        while not trace and len(setup) < SETUP_MIN:
            setup.append(time_setup(name, seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))

    first_digest = {}
    failed_ops = []
    for s in samples:
        reference = first_digest.setdefault(s.step, s.outcome.digest)
        if s.outcome.digest != reference:
            failed_ops += [f"cycle {s.cycle} {op}: output differs from cycle 0" for op in s.outcome.ops]
        else:
            failed_ops += [f"cycle {s.cycle} {op}: {why}" for op, why in s.outcome.failures.items()]
    attempted = sum(len(s.outcome.ops) for s in samples)

    first = [s.outcome for s in samples if s.cycle == 0]
    gaps = [g for o in first for g in o.gaps]
    points = sum(o.points for o in first)
    untraced = [s for s in samples if not s.traced]
    wall = _cycle_time(untraced, "wall_ref_s")
    run_speed = sum(s.wall_ref_s for s in untraced) / sum(s.wall_s for s in untraced)
    hit_rate = sum(1 for g in gaps if g <= gates.HIT_TOL) / len(gaps) if gaps else 0.0
    gap_p50 = statistics.median(gaps) if gaps else 0.0
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cycles": cycle,
        "raw_wall_s": _cycle_time(untraced, "wall_s"),
        "raw_setup_s": statistics.median(setup) if setup else None,
        "steps": [[s.step, s.wall_s, s.wall_ref_s] for s in samples],
        "ops_per_cycle": sum(len(o.ops) for o in first),
        "vqe_runs_per_cycle": len(gaps),
        "hit_rate": hit_rate,
        "gap_p50": gap_p50,
        "gaps": gaps,
        "absent_layers": tracer.absent,
        "failures": failed_ops[:20],
    }
    if not trace:
        metrics = {
            # The run's speed, measured by the step probes, rescales the median set-up
            # time. Probing each set-up alone did not narrow its spread: a 0.3 s start
            # of a process is too short and too unlike the probe kernel.
            "setup_s": (statistics.median(setup) * run_speed, "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (_cycle_time(untraced, "cpu_ref_s"), "s"),
            "points_per_s": (points / wall, "1/s"),
            "ok_frac": (1.0 - len(failed_ops) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = _layer_metrics(snapshots, tracer.absent)
        spsa_iters = sum(o.spsa_iters for o in first)
        metrics["vqe.evals_per_iter"] = (
            metrics.get("circuits.run.calls", (0,))[0] / spsa_iters if spsa_iters else 0.0, "ratio")
        metrics["vqe.spsa_iters_per_s"] = (spsa_iters / wall, "1/s")
        metrics["vqe.hit_rate"] = (hit_rate, "ratio")
        metrics["vqe.gap_p50"] = (gap_p50, "E_P")
        traced_wall = _cycle_time([s for s in samples if s.traced], "wall_ref_s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    result = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def _layer_snapshot(tracer) -> dict:
    return {name: (s.calls, s.self_s, list(s.durations)) for name, s in tracer.stats.items()}


def _layer_metrics(snapshots, absent) -> dict:
    """calls and self_s per traced cycle (median over cycles), p50 over every call."""
    metrics = {}
    for layer in snapshots[0]:
        if layer in absent:
            continue
        durations = [d for snap in snapshots for d in snap[layer][2]]
        metrics[f"{layer}.calls"] = (statistics.median(snap[layer][0] for snap in snapshots), "count")
        metrics[f"{layer}.self_s"] = (statistics.median(snap[layer][1] for snap in snapshots), "s")
        metrics[f"{layer}.p50_us"] = (statistics.median(durations) * 1e6 if durations else 0.0, "us")
    return metrics


def compare(path_a: str, path_b: str) -> int:
    """Print one row per workload and metric: medians of A and B, B/A, verdict.

    Then one accuracy row per VQE workload, pairing A's and B's runs of the
    same seed. Returns 1 when any row reads worse, else 0.
    """
    import stats

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    betters = {m["name"]: m["better"] for m in spec["per_layer"]}

    def load(path):
        values: dict[tuple[str, str], list[float]] = {}
        gaps: dict[tuple[str, int], list[float]] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    for metric, entry in record["result"]["metrics"].items():
                        values.setdefault((record["workload"], metric), []).append(entry["value"])
                    if record.get("gaps"):
                        gaps.setdefault((record["workload"], record["seed"]), record["gaps"])
        return values, gaps

    (a, gaps_a), (b, gaps_b) = load(path_a), load(path_b)
    worse = False
    print(f"{'workload':<16} {'metric':<40} {'median A':>12} {'median B':>12} {'B/A':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        if metric in bounds:
            better, bound = bounds[metric]
            outcome = stats.verdict(a[key], b[key], better, bound)
            worse |= outcome == stats.WORSE
        else:
            outcome = f"per-layer, {betters.get(metric, '?')} is better"
        print(f"{workload:<16} {metric:<40} {med_a:>12.6g} {med_b:>12.6g} "
              f"{stats.ratio(med_b, med_a):>8.4f}  {outcome}")

    # Accuracy: exact-mode and seeded shot-mode runs are deterministic per seed,
    # so the same seed's runs are compared directly.
    paired: dict[str, dict[str, list[int]]] = {}
    for key in sorted(set(gaps_a) & set(gaps_b)):
        outcome = stats.accuracy_verdict(gaps_a[key], gaps_b[key])
        paired.setdefault(key[0], {}).setdefault(outcome, []).append(key[1])
    for workload, by_outcome in paired.items():
        seeds = sum(len(v) for v in by_outcome.values())
        if stats.WORSE in by_outcome:
            outcome = f"{stats.WORSE}: seeds {by_outcome[stats.WORSE]}"
            worse = True
        elif stats.BETTER in by_outcome:
            outcome = f"{stats.BETTER}: seeds {by_outcome[stats.BETTER]}"
        else:
            outcome = stats.NO_WORSE
        print(f"{workload:<16} {'accuracy (hits, gap_p50 per seed)':<40} {seeds:>12} seeds paired    {outcome}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="PATH", help="append the result as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved result sets")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "bhvqe" / "__init__.py").is_file():
        print(f"error: no bhvqe sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    _pin_environment()
    import bhvqe

    if Path(bhvqe.__file__).resolve().parent != SRC / "bhvqe":
        print(f"error: imported bhvqe from {bhvqe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment()
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in info["failures"]:
        print(f"gate failed: {reason}", file=sys.stderr)
    if args.save:
        with open(args.save, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**info, "env": env, "result": result}) + "\n")
    print(json.dumps({"bench": info, "env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
