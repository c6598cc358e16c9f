"""The names the benchmark traces and reads must resolve in bhvqe.

A traced benchmark run reports only the layers its tracer finds, and skips
the rest without failing. So a removed or renamed name would silently drop
per-layer metrics; these tests fail first. The benchmark also calls bhvqe
names outside the traced layers, and a removed one would fail only when
the benchmark runs; the static check below fails first for those too.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
BENCH_SOURCES = sorted((ROOT / "bench").glob("*.py"))


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


def _bench_reads():
    """(file, bound name, attribute chain) for every chain bench/*.py reads on a bhvqe import."""
    reads = []
    for path in BENCH_SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}  # local name -> the name imported from bhvqe, or "" for bhvqe itself
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "bhvqe":
                bound.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.Import):
                bound.update({a.asname or a.name: "" for a in node.names if a.name == "bhvqe"})
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                reads.append((path.name, bound[node.id], tuple(reversed(chain))))
    return reads


def _from_bhvqe_import(name):
    """What `from bhvqe import name` binds: a package attribute, else a submodule."""
    package = importlib.import_module("bhvqe")
    if name and not hasattr(package, name):
        importlib.import_module(f"bhvqe.{name}")
    return getattr(package, name) if name else package


def test_every_bhvqe_name_the_benchmark_reads_resolves():
    reads = _bench_reads()
    dotted = {".".join((name, *chain)) for _, name, chain in reads}
    # the scan must see the names the workloads call, or it checks nothing
    assert {"circuits.expectation", "cli.build_config", "hamiltonian.BlackHoleParams",
            "vqe.SpsaConfig", "vqe.spsa_minimize"} <= dotted
    unresolved = []
    for path, name, chain in reads:
        obj = _from_bhvqe_import(name)
        for attr in chain:
            if not hasattr(obj, attr):
                unresolved.append(f"{path}: {'.'.join((name, *chain))}")
                break
            obj = getattr(obj, attr)
    assert unresolved == []


def test_every_public_name_resolves():
    import bhvqe

    assert [name for name in bhvqe.__all__ if not hasattr(bhvqe, name)] == []
    namespace = {}
    exec("from bhvqe import *", namespace)
    assert set(bhvqe.__all__) <= namespace.keys()


@pytest.mark.parametrize("workload", ["chain-vqe", "chain-shots", "lattice64-exact"])
def test_workload_runs_and_passes_its_gates(workload):
    # each workload end to end: chain-vqe and lattice64-exact through cli.build_config
    # and cli.main, chain-shots through sampling and the exact re-evaluation
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
