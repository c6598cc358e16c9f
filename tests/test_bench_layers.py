"""The names the benchmark traces must resolve in bhvqe.

A traced benchmark run reports only the layers its tracer finds, and skips
the rest without failing. So a removed or renamed name would silently drop
per-layer metrics; these tests fail first.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look up the defining module while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    tracer = _tracer_module(monkeypatch)
    assert tracer.LAYERS
    for mod_name, fn_name in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_run_is_one_function_wherever_the_benchmark_looks_it_up():
    import bhvqe
    from bhvqe import circuits, vqe

    assert vqe.run is circuits.run
    assert bhvqe.run is circuits.run


def test_traced_benchmark_run_reports_every_per_layer_metric():
    # a run can exit 0 with every gate passing and still drop the layers its
    # tracer cannot resolve, or end on a line that is not its result
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain-vqe", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
