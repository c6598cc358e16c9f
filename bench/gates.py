"""Correctness gates applied to every operation the benchmark times.

Each gate returns None when the output is right and a one-line reason when
it is not. The benchmark counts an operation (one VQE run or one grid point)
as failed when any of its gates returns a reason; any failure makes the
benchmark exit nonzero.
"""

from __future__ import annotations

import hashlib
import math

# Absolute tolerance for energies that have an exact reference.
EXACT_TOL = 1e-9
# A VQE run "hits" when its exact energy at the best parameters is this close
# to the exact ground energy.
HIT_TOL = 1e-2


def chain_energy(rho: float) -> float:
    """Closed-form paper-chain ground energy (pi/16)(1 + rho)^(1/4)."""
    return math.pi / 16.0 * (1.0 + rho) ** 0.25


def metric_prefactor(rho: float) -> float:
    """Metric prefactor (1/2)(1 + rho)^(1/4), written out independently of the package."""
    return 0.5 * (1.0 + rho) ** 0.25


def check_close(label: str, value: float, reference: float) -> str | None:
    if not math.isfinite(value):
        return f"{label}: {value} is not finite"
    if abs(value - reference) > EXACT_TOL:
        return f"{label}: {value!r} differs from reference {reference!r} by more than {EXACT_TOL:g}"
    return None


def check_variational(label: str, energy: float, ground: float) -> str | None:
    """An exact-mode variational energy can never sit below the ground energy."""
    if not math.isfinite(energy):
        return f"{label}: {energy} is not finite"
    if energy < ground - EXACT_TOL:
        return f"{label}: energy {energy!r} below the ground energy {ground!r} by more than {EXACT_TOL:g}"
    return None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_manifest(label: str, csv_text: str, manifest: dict, csv_name: str) -> str | None:
    """The manifest must list the CSV with the digest of its exact bytes."""
    digest = sha256_text(csv_text)
    listed = [
        entry.get("sha256")
        for entry in manifest.get("outputs", [])
        if isinstance(entry, dict) and str(entry.get("path", "")).endswith(csv_name)
    ]
    if not listed:
        return f"{label}: manifest lists no digest for {csv_name}"
    if digest not in listed:
        return f"{label}: manifest digest {listed[0]} != CSV digest {digest}"
    return None

