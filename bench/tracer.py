"""Layer tracer: times the calls into each module's public functions from outside.

The tracer replaces a function with a timing wrapper everywhere a caller
looks it up: in its defining module, in every ``bhvqe`` module that imported
the name, and in the package namespace. It restores every original on exit.
A layer whose module or function no longer exists is reported as absent and
skipped, so the end-to-end numbers still come out after a refactor.

Per layer it keeps the call count, the self time (the call's duration minus
the time spent in traced calls it made) and each call's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "bhvqe"

# (module, function) pairs; the layer name is "module.function".
LAYERS = (
    ("lattice", "momentum_squared"),
    ("linalg", "hermitian_eigensystem"),
    ("hamiltonian", "pauli_decompose"),
    ("hamiltonian", "to_matrix"),
    ("hamiltonian", "assemble"),
    ("hamiltonian", "exact_ground_energy"),
    ("ansatz", "build"),
    ("circuits", "run"),
    ("circuits", "expectation"),
    ("circuits", "sampled_expectation"),
    ("vqe", "spsa_minimize"),
    ("vqe", "vqe_run"),
    ("observables", "sweep"),
    ("cli", "main"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Context manager that records LayerStats for every present layer.

    Stats accumulate across uses of the same Tracer; call reset() between
    measurements that must be kept apart.
    """

    def __init__(self, layers=LAYERS):
        self.layers = tuple(f"{mod}.{fn}" for mod, fn in layers)
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {name: LayerStats() for name in self.layers}

    def _original(self, layer: str):
        mod_name, fn_name = layer.split(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            return None
        fn = getattr(module, fn_name, None)
        return fn if callable(fn) else None

    def _wrap(self, layer: str, fn):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats = tracer.stats[layer]
                stats.calls += 1
                stats.self_s += duration - child
                stats.durations.append(duration)

        return traced

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already active")
        originals = {}
        self.absent = []
        for layer in self.layers:
            fn = self._original(layer)
            if fn is None:
                self.absent.append(layer)
            else:
                originals[id(fn)] = self._wrap(layer, fn)
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._stack.clear()
