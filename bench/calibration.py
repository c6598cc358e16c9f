"""Speed probe: rescales a step's time by how fast this core ran during the step.

The benchmark's reference machine is a 2-vCPU VM shared with other tenants.
While they are busy, the same code runs 1.4 to 1.9 times slower, in spells
that last from seconds to minutes, so a 30-second run can fall wholly inside
one. While a step runs, a timer signal interrupts it every PERIOD_S and
times a ~1 ms kernel; the step's time is then rescaled to the speed at which
that kernel takes REFERENCE_S. Measured on that machine over 150 s, the
rescaled times of one step varied by 5% (p90/p10) where the raw ones varied
by 43%.

The kernel mimics the program's two hot paths with plain numpy and no
package code: small tensordot/moveaxis updates of a 4-qubit state (circuit
simulation) and kron/einsum on 16x16 matrices (Pauli decomposition). Because
it never calls the package, a change to the package cannot move it. The
probes add about 2% to a step's raw time and to the self time of whichever
layer they interrupt; the rescaled time excludes them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Typical kernel time, wall and cpu, when it interrupts a step on an idle core
# of the reference machine (Xeon VM, 2 vCPUs, Python 3.11, numpy 2.4,
# OpenBLAS on 1 thread). It only sets the unit: a rescaled time is close to
# the raw time when nothing else contends for the core.
REFERENCE_S = 0.00125
PERIOD_S = 0.05

_rng = np.random.default_rng(0)
_GATE, _ = np.linalg.qr(_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))
_STATE = _rng.standard_normal((2,) * 4) + 0j
_MATRIX = _rng.standard_normal((16, 16))
_EYE = np.eye(2)


def _kernel() -> None:
    state = _STATE
    for _ in range(6):
        for q in range(4):
            state = np.moveaxis(np.tensordot(_GATE, np.moveaxis(state, q, 0), axes=([1], [0])), 0, q)
    for _ in range(10):
        np.einsum("ij,ji->", _MATRIX, np.kron(np.kron(_EYE, _EYE), np.kron(_EYE, _EYE)))


def probe() -> tuple[float, float]:
    """(wall, cpu) seconds of one kernel run."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0


class SpeedProbe:
    """Context manager that probes the core's speed every PERIOD_S while it is active.

    One more probe runs on exit, so a step shorter than PERIOD_S still gets one.
    """

    def __init__(self):
        self.inside: list[tuple[float, float]] = []
        self.closing: tuple[float, float] | None = None
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        self.inside.append(probe())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.closing = probe()

    def scaled(self, seconds: float, clock: int) -> float:
        """seconds measured inside the block (clock 0 = wall, 1 = cpu) at the reference speed.

        The probes' own time is taken out first; the rest is weighted by the
        mean speed the probes saw.
        """
        busy = seconds - sum(p[clock] for p in self.inside)
        speed = statistics.mean(REFERENCE_S / p[clock] for p in self.inside + [self.closing])
        return busy * speed
