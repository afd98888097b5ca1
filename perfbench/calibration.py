"""Machine-speed calibration for a shared, noisy CPU.

On a shared 2-vCPU virtual machine the same job runs up to about 1.8 times
slower for stretches of seconds to minutes while neighbours load the host, so
raw wall times of two runs of identical code can differ by more than any useful
regression bound.  The benchmark therefore times this fixed kernel, which does
not touch satlab, next to every job and reports times scaled to the kernel's
nominal speed: ``raw * NOMINAL_S / kernel time``.  A change to satlab cannot
move the kernel, so a faster or slower satlab still shows in full.

The kernel mixes the kinds of work the workloads do: small complex
matrix-vector products with ``np.exp`` (Dicke mixer), reshaped single-qubit
updates of a 16-amplitude vector (dense X rotation), a scalar Python search
loop (golden section, brentq) and a vectorised trigonometric power sum
(gamma-eliminated curve).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# kernel time on a quiet 2-vCPU Intel Xeon virtual machine
NOMINAL_S = 0.0032

_V = np.linalg.qr(np.random.default_rng(0).normal(size=(9, 9)))[0]
_EV = np.arange(-4.0, 5.0)
_BETAS = np.linspace(0.0, math.pi, 512, endpoint=False)
_KS = np.arange(1, 9)[:, None]


def _kernel() -> float:
    acc = 0.0
    x = np.full(9, 1.0 / 3.0, dtype=complex)
    for i in range(100):
        x = _V @ (np.exp(-1j * 0.01 * i * _EV) * (_V.T @ x))
        acc += abs(x[0])
    y = np.full(16, 0.25, dtype=complex)
    for i in range(100):
        q = i % 4
        view = y.reshape(1 << (3 - q), 2, 1 << q)
        lo, hi = view[:, 0, :], view[:, 1, :]
        c, s = math.cos(0.01 * i), -1j * math.sin(0.01 * i)
        out = np.empty_like(view)
        out[:, 0, :] = c * lo + s * hi
        out[:, 1, :] = s * lo + c * hi
        y = out.reshape(16)
        acc += abs(y[0]) ** 2
    a, b = 0.0, 3.0
    for i in range(300):
        m = 0.5 * (a + b)
        if math.sin(m) * math.cos(m + i) > 0.0:
            a = m
        else:
            b = m
        acc += m
    for i in range(3):
        c, s = np.cos(_BETAS + i), np.sin(_BETAS + i)
        acc += float(np.sum(np.abs(c[None, :] ** (8 - _KS) * (-1j * s[None, :]) ** _KS)))
    return acc


def slowness() -> float:
    """Kernel time over its nominal time: above 1 while the machine is slow."""
    start = perf_counter()
    _kernel()
    return (perf_counter() - start) / NOMINAL_S
