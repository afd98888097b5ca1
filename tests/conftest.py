"""Test-session setup: one BLAS thread per process, and shared fixtures.

OpenBLAS's worker threads spin while they wait, so when another process
shares the CPUs they slow every BLAS call: with one busy process beside it on
2 vCPUs, an L-BFGS-B evaluation in test_lockstep_matches_per_start_lbfgsb
took 430 us against 165 us with a single BLAS thread (881 us against 218 us
beside a process running matrix products).  The limits take effect only if
set before numpy loads, and pytest loads this file before any test module.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(name, "1")

# numpy loads only after the limits above
import functools  # noqa: E402
import math  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from satlab import densecore  # noqa: E402
from satlab.symcore import LayerAngles, SymmetricState  # noqa: E402


def _random_product_sum(n: int, rand: np.random.Generator, dense: bool = True):
    """A random normalized sum of 1-4 random product states, as a
    densecore.ProductSum and as its 2^n amplitudes (qubit 0 the least
    significant bit) expanded by Kronecker products, or None without
    dense."""
    size = int(rand.integers(1, 5))
    coefs = rand.normal(size=size) + 1j * rand.normal(size=size)
    vectors = rand.normal(size=(size, n, 2)) + 1j * rand.normal(size=(size, n, 2))
    gram = np.prod(np.einsum("sqi,tqi->stq", vectors.conj(), vectors), axis=2)
    coefs /= math.sqrt((coefs.conj() @ gram @ coefs).real)
    amps = sum(c * functools.reduce(np.kron, v[::-1]) for c, v in zip(coefs, vectors)) if dense else None
    return densecore.ProductSum(coefs, vectors.swapaxes(0, 1)), amps


@pytest.fixture
def random_product_sum():
    """Make (ProductSum, its dense amplitudes or None) for n qubits from a
    generator: a random normalized sum of 1-4 random product states."""
    return _random_product_sum


@pytest.fixture
def basis_state():
    """Make the Dicke basis state |e_k> of n qubits."""

    def make(n, k):
        amps = np.zeros(n + 1, dtype=complex)
        amps[k] = 1.0
        return SymmetricState(n, amps)

    return make


@pytest.fixture
def random_schedule():
    """Make depth layers of uniform random angles, gamma in [0, 2 pi) and
    beta in [0, pi), drawn from a generator."""

    def make(n, depth, rand):
        return [LayerAngles(rand.uniform(0, 2 * np.pi), rand.uniform(0, np.pi)) for _ in range(depth)]

    return make
