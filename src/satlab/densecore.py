"""Coherent noise: the noise model, the product-sum state the noisy trainer
carries, and the full 2^n statevector simulator.

Noise breaks the permutation symmetry that the Dicke-basis simulator rests
on, but every noise event acts on one qubit, so a noisy circuit stays a sum
of product states (ProductSum), one more per layer.  The 2^n simulator is
the independent correctness oracle for both.  Basis index convention is
little-endian: qubit 0 is the least-significant bit of the basis index.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .symcore import LayerTerms, SymmetricState, _as_angles, binomial_sqrt, checked_amplitudes, mixer

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
# a noiseless layer's frozen noise: empty event lists before and after the mixer
NOISELESS = ((np.empty(0, dtype=np.intp), np.empty(0)),) * 2


@dataclass(frozen=True)
class NoiseConfig:
    """Coherent noise channel settings.

    A noisy layer draws its events in n + 1 noise slots: slot 0 follows the
    phase separator and slot q + 1 follows the X rotation of qubit q.  In a
    slot that draws, each qubit independently with probability p_noise
    receives S(phi) = diag(1, exp(i*phi)), phi drawn fresh from
    N(0, phase_stddev^2).  granularity chooses which slots draw: "layer" draws
    slots 0 and n (after the phase separator and after the whole mixer), while
    "single_qubit" draws all n + 1.  kind="bitflip" swaps S(phi) for a
    deterministic X flip and exists only as a contrast experiment.  A layer
    applies the draws folded into events before and after its mixer.
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
    """Apply an event list: S(phi) = diag(1, e^{i phi}) or an X flip per listed qubit."""
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


def sample_layer_noise(n: int, noise: NoiseConfig, rng: np.random.Generator) -> tuple:
    """Sample one layer's frozen noise as (pre, post), the events before and after its mixer.

    The slots (see NoiseConfig) are drawn in order.  A phase kick on qubit q
    in slot s <= q precedes X_q and commutes with the other rotations, so it
    joins pre; a later kick joins post; kicks on one qubit add up.  X flips
    commute with the X rotations: a layer's flips are one mask in pre.
    """
    kicks, flips = np.zeros((2, n)), np.zeros(n, dtype=bool)
    for s in range(n + 1) if noise.granularity == "single_qubit" else (0, n):
        qubits, phis = sample_noise_slot(n, noise, rng)
        if phis is None:
            flips[qubits] ^= True
        else:
            kicks[(qubits < s).astype(np.intp), qubits] += phis  # row 0 pre, row 1 post
    if noise.kind == "bitflip":
        return (np.flatnonzero(flips), None), (np.empty(0, dtype=np.intp), None)
    return tuple((np.flatnonzero(row), row[row != 0.0]) for row in kicks)


def apply_layer_dense(amps: np.ndarray, n: int, gamma: float, beta: float, frozen=NOISELESS) -> np.ndarray:
    """One circuit layer: rephase, pre, the n X rotations, post, for frozen = (pre, post)."""
    pre, post = frozen
    amps = amps.copy()
    amps[0] *= np.exp(-1j * gamma)
    amps = apply_noise_events(amps, n, pre)
    for q in range(n):
        amps = apply_x_rotation(amps, beta, q, n)
    return apply_noise_events(amps, n, post)


@lru_cache(maxsize=None)
def _roots(n: int) -> np.ndarray:
    """z_j = exp(-2i beta_j) at beta_j = pi j / (n + 1), the n + 1 roots of unity (cached, read-only)."""
    out = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    out.setflags(write=False)
    return out


# (w_0, w_1) -> (alpha, delta) = ((w_0 - w_1) / 2, (w_0 + w_1) / 2)
_HALVES = np.array(((0.5, -0.5), (0.5, 0.5)), dtype=complex)


def _times_pre(base: np.ndarray, n: int, pre) -> np.ndarray:
    """base P_q for every qubit q, (n, 2, 2), P_q being its events in pre:
    diag(1, e^{i phi}) for a kick, X for a flip, I for none."""
    qubits, phis = pre
    out = np.empty((n, 2, 2), dtype=complex)
    out[:] = base
    if len(qubits):
        if phis is None:
            out[qubits] = base[:, ::-1]
        else:
            out[qubits, :, 1] *= np.exp(1j * phis)[:, None]
    return out


class ProductSum:
    """A noisy circuit's state as a sum of product states, sum_s coefs[s]
    ⊗_q vectors[s, q], vectors[s, q] being qubit q's two-vector.  A value:
    apply_layer returns the next ProductSum and leaves this one as it was.

    Every noise event acts on one qubit, so a layer's unitary after its phase
    separator is a product of one-qubit unitaries U_q = D(post_q) e^{-i beta
    X} P_q, P_q being qubit q's pre events, and the phase separator adds one
    product state, (e^{-i gamma} - 1) head |0...0>.  After p layers from
    |+>^n (plus) the state is p + 1 product states, O(pn) numbers where the
    dense state holds 2^n.  head is the target amplitude <0...0|psi> =
    coefs . prod_q vectors[:, q, 0].
    """

    def __init__(self, coefs, vectors):
        self.coefs, self.vectors = np.asarray(coefs, dtype=complex), np.asarray(vectors, dtype=complex)
        self.head = complex(self.coefs @ np.multiply.reduce(self.vectors[:, :, 0], axis=1))

    @classmethod
    def plus(cls, n: int) -> ProductSum:
        """|+>^n."""
        return cls([1.0], np.full((1, n, 2), math.sqrt(0.5)))

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def layer_terms(self, pre) -> LayerTerms:
        """Split the target amplitude of the next layer by its gamma dependence.

        pre is the layer's frozen noise before its mixer (sample_layer_noise);
        post fixes <0| and drops out.  With w = P_q v the pre-noised vectors,
        <0|e^{-i beta X} w = e^{i beta} (alpha + delta z) per qubit, alpha =
        (w_0 - w_1) / 2, delta = (w_0 + w_1) / 2 and z = e^{-2i beta}, so the
        rephase-free part of the amplitude, e^{i n beta} times a polynomial of
        degree n in z, is evaluated at the n + 1 roots of unity and one inverse
        FFT gives its coefficients over the mixer's eigenvalues.  The phase
        separator's share moves to A = head <0|e^{-i beta X}|f>, f being the
        flip mask of weight m, so head times row m of the mixer's bra_coefs
        leaves B.  B(0) = <0|P psi> - head <0|f> is exactly 0 without flips
        and coefs . prod_q w_0 with them, w_0 = alpha + delta.
        """
        qubits, phis = pre
        n = self.n
        alpha, delta = (_times_pre(_HALVES, n, pre) @ self.vectors[..., None]).T[0]  # each (n, S)
        factors = delta[:, :, None] * _roots(n)
        factors += alpha[:, :, None]
        b = np.fft.ifft(self.coefs @ np.multiply.reduce(factors, axis=0))
        flips = len(qubits) if phis is None else 0
        b -= self.head * mixer(n).bra_coefs[flips]
        b_zero = complex(self.coefs @ np.multiply.reduce(alpha + delta, axis=0)) if flips else 0.0
        return LayerTerms(self.head, flips, b, b_zero)

    def apply_layer(self, gamma: float, beta: float, frozen) -> ProductSum:
        """The state after one layer, frozen = (pre, post): every product
        state by the batched U_q = D(post_q) e^{-i beta X} P_q, then U e_0
        appended with coefficient (e^{-i gamma} - 1) head."""
        pre, (qubits, phis) = frozen
        c, t = math.cos(beta), -1j * math.sin(beta)
        u = _times_pre(np.array(((c, t), (t, c))), self.n, pre)
        if len(qubits):
            u[qubits, 1] *= np.exp(1j * phis)[:, None]
        vectors = np.concatenate(((u @ self.vectors[..., None])[..., 0], u[None, :, :, 0]))
        return ProductSum(np.append(self.coefs, (cmath.exp(-1j * gamma) - 1.0) * self.head), vectors)


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
        frozen = NOISELESS if noise is None else sample_layer_noise(n, noise, rng)
        amps = apply_layer_dense(amps, n, angles.gamma, angles.beta, frozen)
    return DenseState(n, amps)
