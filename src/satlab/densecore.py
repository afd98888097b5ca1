"""Full 2^n statevector simulator.

Serves two roles: an independent correctness oracle for the Dicke-basis
simulator, and the only representation that can host symmetry-breaking
coherent noise.  Basis index convention is little-endian: qubit 0 is the
least-significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .symcore import LayerTerms, SymmetricState, _as_angles, binomial_sqrt, checked_amplitudes

MAX_DENSE_QUBITS = 24


class ResourceCapError(RuntimeError):
    """Raised when a requested dense simulation exceeds the memory budget."""


def _check_cap(n: int):
    if n > MAX_DENSE_QUBITS:
        raise ResourceCapError(
            f"dense simulation capped at n <= {MAX_DENSE_QUBITS}, got n = {n}"
        )


@dataclass(frozen=True, eq=False)
class DenseState:
    """Normalized 2^n-amplitude state vector."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        _check_cap(self.n)
        object.__setattr__(self, "amps", checked_amplitudes(self.amps, 1 << self.n))


# what counts as one noise slot: the whole layer unitary or one gate
GRANULARITIES = ("layer", "single_qubit")


@dataclass(frozen=True)
class NoiseConfig:
    """Coherent noise channel settings.

    A noisy layer has n + 1 noise slots: slot 0 follows the phase separator
    and slot q + 1 follows the X rotation of qubit q.  In a slot that draws,
    each qubit independently with probability p_noise receives
    S(phi) = diag(1, exp(i*phi)), phi drawn fresh from N(0, phase_stddev^2).
    granularity chooses which slots draw: "layer" draws slots 0 and n (after
    the phase separator and after the whole mixer) and leaves the others
    empty, while "single_qubit" draws all n + 1.  kind="bitflip" swaps S(phi)
    for a deterministic X flip and exists only as a contrast experiment.
    """

    p_noise: float
    phase_stddev: float = 1.0
    granularity: str = "layer"
    kind: str = "phase"

    def __post_init__(self):
        if not 0.0 <= self.p_noise <= 1.0:
            raise ValueError(f"p_noise must be in [0, 1], got {self.p_noise}")
        if not 0.0 <= self.phase_stddev < math.inf:
            raise ValueError(f"phase_stddev must be finite and >= 0, got {self.phase_stddev}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.kind not in ("phase", "bitflip"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


@lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every basis index 0..2^n-1."""
    idx = np.arange(1 << n, dtype=np.int64)
    w = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        w += (idx >> q) & 1
    w.setflags(write=False)
    return w


def plus_state_dense(n: int) -> np.ndarray:
    _check_cap(n)
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)


def lift(state: SymmetricState) -> DenseState:
    """Embed a symmetric state: amp(b) = A_{weight(b)} / sqrt(C(n, weight(b)))."""
    n = state.n
    _check_cap(n)
    w = hamming_weights(n)
    amps = (state.amps / binomial_sqrt(n))[w]
    return DenseState(n, amps)


def _weight_sums(amps: np.ndarray, n: int) -> np.ndarray:
    """Sum of the amplitudes of each Hamming weight 0..n."""
    w = hamming_weights(n)
    return np.bincount(w, weights=amps.real, minlength=n + 1) + 1j * np.bincount(
        w, weights=amps.imag, minlength=n + 1
    )


def project_symmetric(state: DenseState) -> tuple[SymmetricState, float]:
    """Project onto the symmetric subspace.

    Returns the renormalized symmetric component and the norm of the part
    outside the subspace.  A fully asymmetric input has no symmetric component
    to normalize and is rejected.
    """
    n = state.n
    w = hamming_weights(n)
    comps = _weight_sums(state.amps, n) / binomial_sqrt(n)
    sym_norm = np.linalg.norm(comps)
    if sym_norm < 1e-12:
        raise ValueError("input has no symmetric component (residual norm 1)")
    # norm of the out-of-subspace component, computed directly so that exact
    # lifts report ~1e-16 instead of the sqrt(1 - s^2) cancellation floor
    sym_dense = (comps / binomial_sqrt(n))[w]
    residual = float(np.linalg.norm(state.amps - sym_dense))
    return SymmetricState(n, comps / sym_norm), residual


def overlap_dense(state: DenseState) -> float:
    """Squared overlap with the all-zeros target: |amp(0)|^2."""
    return float(abs(state.amps[0]) ** 2)


def apply_x_rotation(amps: np.ndarray, beta: float, qubit: int, n: int) -> np.ndarray:
    """Apply exp(-i*beta*X) = cos(beta) I - i sin(beta) X on one qubit."""
    view = amps.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
    lo, hi = view[:, 0, :], view[:, 1, :]
    c, s = np.cos(beta), -1j * np.sin(beta)
    out = np.empty_like(view)
    out[:, 0, :] = c * lo + s * hi
    out[:, 1, :] = s * lo + c * hi
    return out.reshape(amps.shape)


def sample_noise_slot(n: int, noise: NoiseConfig, rng: np.random.Generator):
    """Draw one slot's noise events: (qubit indices, phases or None).

    Per qubit in ascending order a uniform decides whether the qubit is hit;
    one normal phase is then drawn per hit qubit.  The fixed draw order makes
    the stream reproducible.
    """
    hits = np.flatnonzero(rng.random(n) < noise.p_noise)
    if noise.kind == "bitflip":
        return hits, None
    return hits, rng.normal(0.0, noise.phase_stddev, size=hits.size)


def apply_noise_events(amps: np.ndarray, n: int, events) -> np.ndarray:
    """Apply one slot's events: S(phi) = diag(1, e^{i phi}) or an X flip."""
    qubits, phis = events
    if len(qubits) == 0:
        return amps
    amps = amps.copy()
    for i, q in enumerate(qubits):
        view = amps.reshape(1 << (n - 1 - q), 2, 1 << q)
        if phis is None:
            view[:, [0, 1], :] = view[:, [1, 0], :]
        else:
            view[:, 1, :] *= np.exp(1j * phis[i])
    return amps


def sample_layer_noise(n: int, noise: NoiseConfig, rng: np.random.Generator) -> list:
    """Sample one layer's n + 1 noise slots; layer granularity draws only 0 and n."""
    if noise.granularity == "single_qubit":
        return [sample_noise_slot(n, noise, rng) for _ in range(n + 1)]
    first, last = (sample_noise_slot(n, noise, rng) for _ in range(2))
    empty = (np.empty(0, dtype=np.intp), None if noise.kind == "bitflip" else np.empty(0))
    return [first, *[empty] * (n - 1), last]


def apply_layer_dense(amps: np.ndarray, n: int, gamma: float, beta: float, slots=None) -> np.ndarray:
    """One circuit layer, with its n + 1 pre-sampled noise slots (see NoiseConfig) if given."""
    amps = amps.copy()
    amps[0] *= np.exp(-1j * gamma)
    if slots is not None:
        amps = apply_noise_events(amps, n, slots[0])
    for q in range(n):
        amps = apply_x_rotation(amps, beta, q, n)
        if slots is not None:
            amps = apply_noise_events(amps, n, slots[q + 1])
    return amps


def layer_terms_dense(amps: np.ndarray, n: int, slots) -> LayerTerms:
    """Split the target amplitude of one noisy layer by its gamma dependence.

    slots are the layer's n + 1 pre-sampled noise slots, as for
    apply_layer_dense.  Tracing <0| back through the layer keeps it a product
    bra, so the result has the noiseless form of symcore.LayerTerms with other
    coefficients.  Phase kicks fix |0>: a kick on qubit q reaches <0| only
    when it precedes X_q, i.e. sits in a slot s <= q (slot s > 0 follows
    X_{s-1}).  It then multiplies the weight sums by e^{i phi.x}.  X
    flips commute with the X rotations, so all of a layer's flips act as one
    mask f applied before the mixer: the sums group amplitudes by their
    distance from f, and the |0...0> term carries weight |f|.
    """
    rest = amps.copy()
    rest[0] = 0.0
    if slots[0][1] is None:
        flips = np.zeros(n, dtype=bool)
        for qubits, _ in slots:
            flips[qubits] ^= True
        events, a_weight = (np.flatnonzero(flips), None), int(flips.sum())
    else:
        phis = np.zeros(n)
        for s, (qubits, kicks) in enumerate(slots):
            ahead = qubits >= s
            phis[qubits[ahead]] += kicks[ahead]
        events, a_weight = (np.flatnonzero(phis), phis[phis != 0.0]), 0
    return LayerTerms(amps[0], a_weight, _weight_sums(apply_noise_events(rest, n, events), n))


def run_schedule_dense(
    n: int,
    schedule,
    noise: NoiseConfig | None = None,
    rng: np.random.Generator | None = None,
) -> DenseState:
    """Run the full circuit from |+>^n with optional coherent noise.

    Noise events are drawn from rng in a fixed order, so identical
    (schedule, noise, rng state) give bit-identical output.  rng is required
    with noise.
    """
    _check_cap(n)
    if noise is not None and rng is None:
        raise ValueError("noisy run_schedule_dense draws its noise from rng; pass a numpy Generator")
    amps = plus_state_dense(n)
    for layer in schedule:
        angles = _as_angles(layer)
        slots = None if noise is None else sample_layer_noise(n, noise, rng)
        amps = apply_layer_dense(amps, n, angles.gamma, angles.beta, slots)
    return DenseState(n, amps)
