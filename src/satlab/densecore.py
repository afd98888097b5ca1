"""Coherent noise: the noise model, the product-sum state the noisy trainer
carries, and the full 2^n statevector simulator.

Noise breaks the permutation symmetry that the Dicke-basis simulator rests
on, but every noise event acts on one qubit, so a noisy circuit stays a sum
of product states (ProductSum), one more per layer.  A layer's frozen noise
has one layout, per-qubit arrays (LayerNoise), which the product sum and the
2^n simulator both read; the 2^n simulator is the independent correctness
oracle for the product sum.  Basis index convention is little-endian: qubit
0 is the least-significant bit of the basis index.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .symcore import (
    LayerTerms, SymmetricState, _as_angles, _check_integer, binomial_sqrt, checked_amplitudes, dft, mixer,
)

MAX_DENSE_QUBITS = 24


class ResourceCapError(RuntimeError):
    """Raised when a requested dense simulation exceeds the memory budget."""


def _check_cap(n: int):
    _check_integer("qubit count", n, 1)
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
        _check_cap(self.n)
        object.__setattr__(self, "amps", checked_amplitudes(self.amps, 1 << self.n))


# what counts as one noise slot: the whole layer unitary or one gate
GRANULARITIES = ("layer", "single_qubit")


class LayerNoise(NamedTuple):
    """One layer's frozen noise, per qubit: the phase kicks before and after
    its mixer, shape (n,) and 0 where a qubit has none, and the flip mask.
    Before the mixer qubit q takes diag(1, e^{i pre_q}), then X where flips
    is set; after the mixer it takes diag(1, e^{i post_q})."""

    pre: np.ndarray
    post: np.ndarray
    flips: np.ndarray

    @classmethod
    def none(cls, n: int) -> LayerNoise:
        """A noiseless layer's."""
        zeros = np.zeros(n)
        return cls(zeros, zeros, np.zeros(n, dtype=bool))


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
    applies the draws folded per qubit before and after its mixer
    (LayerNoise).
    """

    p_noise: float
    phase_stddev: float = 1.0
    granularity: str = "layer"
    kind: str = "phase"

    def __post_init__(self):
        for name in ("p_noise", "phase_stddev"):
            value = getattr(self, name)
            # bool is an int subclass, and a string raises TypeError at the compare below
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
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


def sample_noise_slot(n: int, noise: NoiseConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one slot's noise per qubit: (phases, flips), 0 and False where no hit.

    Per qubit in ascending order a uniform decides whether the qubit is hit;
    one normal phase is then drawn per hit qubit, or a hit qubit flips.  The
    fixed draw order makes the stream reproducible.
    """
    hits = rng.random(n) < noise.p_noise
    phases = np.zeros(n)
    if noise.kind == "bitflip":
        return phases, hits
    phases[hits] = rng.normal(0.0, noise.phase_stddev, size=np.count_nonzero(hits))
    return phases, np.zeros(n, dtype=bool)


def apply_noise_events(amps: np.ndarray, n: int, phases: np.ndarray, flips=()) -> np.ndarray:
    """Apply S(phases[q]) = diag(1, e^{i phases[q]}) on every qubit q, then X on every qubit set in flips."""
    amps = amps.copy()
    for q in np.flatnonzero(phases):
        amps.reshape(1 << (n - 1 - q), 2, 1 << q)[:, 1, :] *= np.exp(1j * phases[q])
    for q in np.flatnonzero(flips):
        view = amps.reshape(1 << (n - 1 - q), 2, 1 << q)
        view[:, [0, 1], :] = view[:, [1, 0], :]
    return amps


def sample_layer_noise(n: int, noise: NoiseConfig, rng: np.random.Generator) -> LayerNoise:
    """Sample one layer's frozen noise: its slots (see NoiseConfig) drawn in order, folded per qubit.

    A phase kick on qubit q in slot s <= q precedes X_q and commutes with the
    other rotations, so it joins pre; a later kick joins post; kicks on one
    qubit add up.  X flips commute with the X rotations, and a layer draws
    either kicks or flips, so its flips are one mask before the mixer.
    """
    pre, post, flips = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    for s in range(n + 1) if noise.granularity == "single_qubit" else (0, n):
        phases, hits = sample_noise_slot(n, noise, rng)
        pre[s:] += phases[s:]
        post[:s] += phases[:s]
        flips ^= hits
    return LayerNoise(pre, post, flips)


def apply_layer_dense(
    amps: np.ndarray, n: int, gamma: float, beta: float, frozen: LayerNoise | None = None
) -> np.ndarray:
    """One circuit layer: rephase, the pre kicks and flips, the n X rotations,
    the post kicks; noiseless without frozen."""
    pre, post, flips = LayerNoise.none(n) if frozen is None else frozen
    amps = amps.copy()
    amps[0] *= np.exp(-1j * gamma)
    amps = apply_noise_events(amps, n, pre, flips)
    for q in range(n):
        amps = apply_x_rotation(amps, beta, q, n)
    return apply_noise_events(amps, n, post)


# complex entries per block of _product_over_qubits
PRODUCT_BLOCK = 1 << 18


def _product_over_qubits(rows: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """prod_q rows[q, s] . bra[:, j] for every row s and column j, from rows
    of shape (n, S, 2).  The factors are formed a block of qubits at a time,
    at most PRODUCT_BLOCK entries, and multiplied in qubit order: the product
    so far times each block's first factor."""
    n, size = rows.shape[:2]
    step = max(1, PRODUCT_BLOCK // (size * bra.shape[1]))
    out = None
    for lo in range(0, n, step):
        block = rows[lo : lo + step] @ bra
        if out is not None:
            np.multiply(out, block[0], out=block[0])
        out = np.multiply.reduce(block, axis=0)
    return out


class ProductSum:
    """A noisy circuit's state as a sum of product states, sum_s coefs[s]
    ⊗_q vectors[q, s], held qubit-major: vectors[q, s] is qubit q's
    two-vector in product state s, shape (n, S, 2).  A value: a layer
    returns the next ProductSum and leaves this one as it was.

    Every noise event acts on one qubit, so a layer's unitary after its phase
    separator is a product of one-qubit unitaries D(post_q) e^{-i beta X} P_q,
    P_q being qubit q's pre noise, and the phase separator adds one product
    state, (e^{-i gamma} - 1) head |0...0>.  After p layers from |+>^n (plus)
    the state is p + 1 product states, O(pn) numbers where the dense state
    holds 2^n.  head is the target amplitude <0...0|psi> = coefs . prod_q
    vectors[q, :, 0].  A layer goes in two steps: layer(frozen) applies the
    pre noise once, and the NoisyLayer it returns gives the layer's terms
    and, for the chosen angles, the next ProductSum.
    """

    def __init__(self, coefs, vectors):
        self.coefs, self.vectors = np.asarray(coefs, dtype=complex), np.asarray(vectors, dtype=complex)
        self.head = complex(self.coefs @ np.multiply.reduce(self.vectors[:, :, 0], axis=0))

    @classmethod
    def plus(cls, n: int) -> ProductSum:
        """|+>^n."""
        return cls([1.0], np.full((n, 1, 2), math.sqrt(0.5)))

    def layer(self, frozen: LayerNoise) -> NoisyLayer:
        """The next layer up to its angles, for its frozen noise (sample_layer_noise).

        Its rows are the pre-noised vectors P_q v of every product state,
        P_q = X^{f_q} diag(1, e^{i pre_q}), and one more, P|0...0> = |f>, f
        the flip mask, whose coefficient is -head until gamma is chosen.
        """
        n, size = self.vectors.shape[:2]
        rows = np.zeros((n, size + 1, 2), dtype=complex)
        rows[:, :size] = self.vectors
        rows[:, size, 0] = 1.0
        rows[:, :, 1] *= np.exp(1j * frozen.pre)[:, None]
        m = int(np.count_nonzero(frozen.flips))
        if m:
            rows[frozen.flips] = rows[frozen.flips, :, ::-1]
        return NoisyLayer(rows, np.concatenate((self.coefs, (-self.head,))), self.head, m, frozen.post)


class NoisyLayer:
    """A ProductSum's next layer before its angles are chosen: the
    pre-noised rows (n, S + 1, 2), the last one |f> of weight m, their
    coefficients coefs, the last one -head, and the phase kicks after the
    mixer, post.

    Up to the mixer the layer's state is sum_s coefs[s] ⊗_q rows[q, s] +
    e^{-i gamma} head |f>, so terms splits its target amplitude by gamma,
    and apply sends the same rows through the mixer and the post kicks.
    """

    def __init__(self, rows: np.ndarray, coefs: np.ndarray, head: complex, m: int, post: np.ndarray):
        self.rows, self.coefs, self.head, self.m, self.post = rows, coefs, head, m, post

    def terms(self) -> LayerTerms:
        """Split the target amplitude of the layer by its gamma dependence.

        Per qubit <0|e^{-i beta X} w = e^{i beta} (w_0 (1 + z) + w_1 (z - 1)) / 2
        with z = e^{-2i beta}, so B, the coefs-weighted sum over the rows,
        is e^{i n beta} times a polynomial of degree n in z: it is evaluated
        at the n + 1 roots of unity (MixerGenerator.roots), and the inverse
        DFT gives its coefficients over the mixer's eigenvalues.  A = head
        <0|e^{-i beta X}|f>.  B(0) is exactly 0 without flips, where the
        rows' w_0 give head, and coefs . prod_q w_0 with them.
        """
        n = self.rows.shape[0]
        values = self.coefs @ _product_over_qubits(self.rows, mixer(n).roots)
        b = dft(values, n + 1, True)
        b_zero = complex(self.coefs @ np.multiply.reduce(self.rows[:, :, 0], axis=0)) if self.m else 0.0
        return LayerTerms(self.head, self.m, b, b_zero)

    def apply(self, gamma: float, beta: float) -> ProductSum:
        """The state after the layer: every row by D(post_q) e^{-i beta X},
        the last one's coefficient (e^{-i gamma} - 1) head."""
        c, t = math.cos(beta), -1j * math.sin(beta)
        rows = self.rows @ np.array(((c, t), (t, c)))  # symmetric, so each row v goes to e^{-i beta X} v
        rows[:, :, 1] *= np.exp(1j * self.post)[:, None]
        coefs = self.coefs.copy()
        coefs[-1] = (cmath.exp(-1j * gamma) - 1.0) * self.head
        return ProductSum(coefs, rows)


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
        frozen = None if noise is None else sample_layer_noise(n, noise, rng)
        amps = apply_layer_dense(amps, n, angles.gamma, angles.beta, frozen)
    return DenseState(n, amps)
