"""Exact QAOA simulation restricted to the permutation-symmetric subspace.

The target state is fixed to the all-zeros computational basis state.  Because
the mixer Hamiltonian (a sum of single-qubit X operators) commutes with every
qubit permutation and both the initial plus state and the target are symmetric,
the whole circuit lives in the (n+1)-dimensional span of the Dicke states
|e_0>, ..., |e_n>.  States here are the n+1 complex amplitudes A_k = <e_k|psi>.

Noiseless circuits run in the mixer's eigenbasis (MixerGenerator.forward); the
trainers carry these eigen-coordinates, and run_schedule returns Dicke amplitudes.
They read only the mixer's closed-form first eigenvector row and its integer
eigenvalues.  The eigenvector matrix V is built on first use by
numpy.linalg.eigh; only run_schedule's Dicke amplitudes, evolve (apply_mixer)
and LayerTerms.from_sums (layer_terms and the noisy path) read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

NORM_TOL = 1e-8
# Largest qubit count whose overlaps are trusted.  The depth-1 target amplitude
# stays within 2.1e-13 (relative) of a 60-digit mpmath closed form up to here,
# so float64's range binds: past n = 1022, 2^-n (|+>^n's overlap, r_0^2) is not
# a normal float, and train_global's 2^n overflows at n = 1024.  ExperimentConfig
# rejects larger n; the library functions and trainers do not check it.
MAX_SYMMETRIC_QUBITS = 1022
# Largest excess over 1 that reported_overlap reads as rounding; the largest
# seen, over greedy-seeded train_global at n = 1..6, is 1.8e-15.
OVERLAP_EXCESS_TOL = 1e-12


@lru_cache(maxsize=None)
def binomial_sqrt(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n from the exact integers (cached, read-only).

    C(n, n // 2) overflows float64 past n = 1029, beyond MAX_SYMMETRIC_QUBITS.
    """
    out = np.sqrt(np.array([float(math.comb(n, k)) for k in range(n + 1)]))
    out.setflags(write=False)
    return out


def checked_amplitudes(amps, size: int) -> np.ndarray:
    """Read-only complex copy of a state vector of the given size.

    Rejects a wrong shape, non-finite entries and a norm off 1 by more than
    NORM_TOL.
    """
    amps = np.asarray(amps, dtype=complex).copy()
    if amps.shape != (size,):
        raise ValueError(f"expected {size} amplitudes, got shape {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("state has non-finite amplitudes")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: |amps| = {norm!r}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Normalized state in the symmetric subspace: amplitudes A_0..A_n."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        object.__setattr__(self, "amps", checked_amplitudes(self.amps, self.n + 1))


@dataclass(frozen=True, slots=True)
class LayerAngles:
    """One layer's phase-separator angle gamma and mixer angle beta.

    Stored reduced to the principal ranges gamma in [0, 2*pi), beta in [0, pi).
    Reduction of beta by pi only changes the state by a global sign.
    """

    gamma: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError(f"angles must be finite, got ({self.gamma}, {self.beta})")
        object.__setattr__(self, "gamma", float(self.gamma) % (2.0 * math.pi))
        object.__setattr__(self, "beta", float(self.beta) % math.pi)


def _as_angles(layer) -> LayerAngles:
    if isinstance(layer, LayerAngles):
        return layer
    gamma, beta = layer
    return LayerAngles(gamma, beta)


class MixerGenerator:
    """Mixer Hamiltonian, a sum of single-qubit X operators, and its eigenbasis.

    In the Dicke basis the matrix is real symmetric tridiagonal with zero
    diagonal and off-diagonal entries sqrt((k+1)(n-k)): flipping one of the
    n-k zeros of a weight-k Dicke state reaches each weight-(k+1) bitstring
    k+1 ways, and the normalization ratio supplies the square root.  Its
    eigenvalues are the integers lambda_l = -n + 2l, held exactly, and the
    first row of its eigenvectors is r = plus_state's amplitudes, held in
    closed form as row; |+>^n is e_n in this basis.  The eigenvectors V are
    built on first use by numpy.linalg.eigh, each column signed so that
    V[0] > 0 like r.  Only run_schedule's Dicke amplitudes, evolve
    (apply_mixer) and LayerTerms.from_sums (layer_terms,
    densecore.layer_terms_dense) read V, so the noiseless trainers never
    build it.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = n
        self.eigenvalues = np.arange(-n, n + 1, 2, dtype=float)
        self.row = plus_state(n).amps.real.copy()
        self.plus = np.zeros(n + 1, dtype=complex)
        self.plus[n] = 1.0
        for array in (self.eigenvalues, self.row, self.plus):
            array.setflags(write=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """V, read-only and cached, built on first use in O(n^3)."""
        k = np.arange(self.n)
        off = np.sqrt((k + 1.0) * (self.n - k))
        _, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        vectors *= np.copysign(1.0, vectors[0])
        vectors.setflags(write=False)
        return vectors

    def evolve(self, amps: np.ndarray, beta: float) -> np.ndarray:
        """Apply exp(-i*beta*H) to a Dicke amplitude vector."""
        v = self.eigenvectors
        return v @ (np.exp(-1j * beta * self.eigenvalues) * (v.T @ amps))

    def forward(self, t: np.ndarray, gammas, betas) -> tuple[np.ndarray, np.ndarray]:
        """Run layers in order on eigen-coordinates t: (states, heads).

        Layer i rephases the target and applies the mixer, t -> exp(-i*betas[i]
        *lambda) * (t + (exp(-i*gammas[i]) - 1) (r . t) r), O(n).  states[i] is
        t after i layers and heads[i] = r . states[i] its target amplitude; one
        call or one call per layer gives the same heads bitwise.
        """
        return self._sweep(t, gammas, betas)[:2]

    def _sweep(self, t: np.ndarray, gammas, betas):
        """forward's states and heads, then the kicks and phases it applied."""
        row = self.row
        kicks = np.exp(-1j * np.asarray(gammas, dtype=float)) - 1.0
        phases = np.exp(-1j * np.multiply.outer(np.asarray(betas, dtype=float), self.eigenvalues))
        states = np.empty((kicks.size + 1, self.n + 1), dtype=complex)
        heads = np.empty(kicks.size + 1, dtype=complex)
        states[0] = t
        t = states[0]
        head = heads[0] = row @ t
        for i, kick in enumerate(kicks.tolist()):
            t = states[i + 1] = phases[i] * (t + (kick * head) * row)
            head = heads[i + 1] = row @ t
        return states, heads, kicks, phases

    def neg_overlap(self, params) -> tuple[float, np.ndarray]:
        """-|A_0|^2 of a schedule run from |+>^n, and its gradient.

        params holds the 2p angles in layer order, [gamma_1, beta_1, ...,
        gamma_p, beta_p]; the gradient has the same layout.  The value is that
        of forward from e_n.  One backward sweep of the bra w with A_0 = w . t
        then gives dA_0/dbeta = w . (-i lambda t) and dA_0/dgamma = -i
        exp(-i*gamma) (r . t_in) (w . r), the reverse-mode gradient of Jones &
        Gacon, arXiv:2009.02823, at O(n) per layer.
        """
        params = np.asarray(params, dtype=float)
        gammas, betas = params[0::2], params[1::2]
        states, heads, kicks, phases = self._sweep(self.plus, gammas, betas)
        row = self.row
        # bras[i] is the bra w with A_0 = w . states[i + 1], and alongs[i] =
        # (w exp(-i betas[i] lambda)) . r meets the kick of layer i
        depth = gammas.size
        bras = np.empty((depth, self.n + 1), dtype=complex)
        alongs = np.empty(depth, dtype=complex)
        bra = row
        for i in range(depth - 1, -1, -1):
            bras[i] = bra
            bra = bra * phases[i]
            alongs[i] = along = bra @ row
            bra = bra + (kicks[i] * along) * row
        d_gamma = -1j * (kicks + 1.0) * heads[:-1] * alongs
        d_beta = -1j * ((bras * states[1:]) @ self.eigenvalues)
        # d|A_0|^2 = 2 Re(conj(A_0) dA_0)
        weight = -2.0 * heads[-1].conjugate()
        grad = np.empty(2 * depth)
        grad[0::2] = (weight * d_gamma).real
        grad[1::2] = (weight * d_beta).real
        return -abs(heads[-1]) ** 2, grad


@lru_cache(maxsize=None)
def mixer(n: int) -> MixerGenerator:
    """Cached per-n mixer generator (read-only after construction)."""
    return MixerGenerator(n)


def plus_state(n: int) -> SymmetricState:
    """|+>^n in the Dicke basis: A_k = sqrt(C(n,k) / 2^n)."""
    amps = binomial_sqrt(n) * 2.0 ** (-n / 2.0)
    return SymmetricState(n, amps.astype(complex))


def apply_phase_separator(state: SymmetricState, gamma: float) -> SymmetricState:
    """Phase the target component: A_0 -> exp(-i*gamma) * A_0."""
    amps = state.amps.copy()
    amps[0] *= np.exp(-1j * gamma)
    return SymmetricState(state.n, amps)


def apply_mixer(state: SymmetricState, beta: float) -> SymmetricState:
    """Apply the mixer unitary exp(-i*beta*H) via the cached eigendecomposition."""
    return SymmetricState(state.n, mixer(state.n).evolve(state.amps, beta))


def run_schedule(n: int, schedule) -> SymmetricState:
    """Run the full circuit from |+>^n by MixerGenerator.forward: amps = V t, A_0 = r . t."""
    angles = [_as_angles(layer) for layer in schedule]
    gen = mixer(n)
    states, heads = gen.forward(gen.plus, [a.gamma for a in angles], [a.beta for a in angles])
    amps = gen.eigenvectors @ states[-1]
    amps[0] = heads[-1]
    return SymmetricState(n, amps)


def reported_overlap(amplitude: complex) -> float:
    """|amplitude|^2 as a reported overlap: the forward is unitary only to
    rounding, so an excess over 1 up to OVERLAP_EXCESS_TOL reads 1.0, and a
    larger one raises ValueError."""
    value = float(abs(amplitude) ** 2)
    if value > 1.0 + OVERLAP_EXCESS_TOL:
        raise ValueError(f"overlap {value!r} exceeds 1 by more than {OVERLAP_EXCESS_TOL}")
    return min(value, 1.0)


def overlap(state: SymmetricState) -> float:
    """Squared overlap with the target, |A_0|^2, by reported_overlap."""
    return reported_overlap(state.amps[0])


@dataclass(frozen=True, eq=False)
class LayerTerms:
    """Target amplitude of one more layer, split by its gamma dependence.

    The phase separator rephases only |0...0>, and <0|mixer(beta) is the
    product bra of cos(beta)<0| - i sin(beta)<1| over the qubits, so
        <0|layer(gamma, beta)|psi> = A(beta) exp(-i*gamma) + B(beta),
        A = a cos^{n-m}(beta) (-i sin(beta))^m,
        B = sum_{k=0..n} cos^{n-k}(beta) (-i sin(beta))^k sums[k],
    where m = a_weight.  Noiselessly a = A_0, m = 0 and sums[k] collects the
    amplitudes of weight k >= 1 (A_k sqrt(C(n,k))); coherent noise changes
    only these coefficients.

    Both terms are held in their Fourier form over the mixer's eigenvalues
    lambda_l = -n + 2l, A = sum_l coefs[0, l] exp(-i lambda_l beta) and
    likewise B with coefs[1], since cos^{n-k}(beta) (-i sin(beta))^k
    sqrt(C(n,k)) = <0|mixer(beta)|e_k> = sum_l V[0,l] V[k,l] exp(-i lambda_l
    beta).  A scalar beta then costs O(n).  On the grid beta_j = pi j / M the
    common factor exp(i n beta_j) drops out of the moduli, and what is left is
    one length-M FFT of the coefficients (folded modulo M when n + 1 > M).  At
    beta = 0 the mixer is the identity, and at_zero = (A(0), B(0)) holds the
    exact values, so the beta = 0 snap and the gamma = 0 tie rule compare
    exact values.
    """

    coefs: np.ndarray
    at_zero: tuple[complex, complex]

    @classmethod
    def from_eigen(cls, t: np.ndarray) -> LayerTerms:
        """Noiseless terms of eigen-coordinates t, O(n): with A_0 = r . t,
        coefs[0] = A_0 r * r, coefs[1] = r * (t - A_0 r) and B(0) = 0."""
        row = mixer(t.size - 1).row
        a0 = row @ t
        return cls(np.stack([a0 * row * row, row * (t - a0 * row)]), (a0, 0.0))

    @classmethod
    def from_sums(cls, a: complex, a_weight: int, sums: np.ndarray) -> LayerTerms:
        """Terms of a, a_weight and sums, O(n^2): coefs[0] = a / sqrt(C(n,m))
        V[0] * V[m] and coefs[1] = V[0] * (V^T (sums / sqrt(C(n,k))))."""
        n, m = sums.size - 1, a_weight
        v = mixer(n).eigenvectors
        root = binomial_sqrt(n)
        coefs = np.stack([(a / root[m]) * v[0] * v[m], v[0] * (v.T @ (sums / root))])
        return cls(coefs, (a if m == 0 else 0.0, sums[0]))

    def split(self, betas) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) at each beta."""
        betas = np.atleast_1d(np.asarray(betas, dtype=float))
        freqs = mixer(self.coefs.shape[1] - 1).eigenvalues
        a_term, b_term = self.coefs @ np.exp(-1j * np.multiply.outer(freqs, betas))
        zero = betas == 0.0
        if zero.any():
            a_term[zero], b_term[zero] = self.at_zero
        return a_term, b_term

    def curve(self, betas) -> np.ndarray:
        """max over gamma of the target amplitude modulus, for each beta.

        For complex A and B, max_gamma |A exp(-i*gamma) + B| = |A| + |B|.
        """
        a_term, b_term = self.split(betas)
        return np.abs(a_term) + np.abs(b_term)

    def value(self, beta: float) -> float:
        """The curve at one beta as a float: the scalar path of curve, O(n)."""
        if beta == 0.0:
            a_term, b_term = self.at_zero
        else:
            freqs = mixer(self.coefs.shape[1] - 1).eigenvalues
            a_term, b_term = self.coefs @ np.exp(freqs * (-1j * beta))
        return float(abs(a_term) + abs(b_term))

    def grid(self, points: int) -> np.ndarray:
        """The curve at beta_j = pi j / points for j = 0..points-1, by one FFT."""
        size = self.coefs.shape[1]
        folded = np.zeros((2, -(-size // points) * points), dtype=complex)
        folded[:, :size] = self.coefs
        spectra = np.fft.fft(folded.reshape(2, -1, points).sum(axis=1), axis=1)
        vals = np.abs(spectra).sum(axis=0)
        vals[0] = abs(self.at_zero[0]) + abs(self.at_zero[1])
        return vals

    def best_gamma(self, beta: float) -> tuple[float, float]:
        """(g, gamma_star): the curve at beta and a gamma attaining it, as
        described for gamma_eliminated_overlap."""
        a_term, b_term = self.split(float(beta))
        a, b = complex(a_term[0]), complex(b_term[0])
        g = abs(a) + abs(b)
        if abs(a) == 0.0 or abs(b) == 0.0:
            return g, 0.0
        return g, float((np.angle(a) - np.angle(b)) % (2.0 * math.pi))


def layer_terms(state: SymmetricState) -> LayerTerms:
    """Noiseless one-layer terms of a symmetric state."""
    sums = state.amps * binomial_sqrt(state.n)
    sums[0] = 0.0
    return LayerTerms.from_sums(state.amps[0], 0, sums)


def gamma_eliminated_curve(state: SymmetricState, betas) -> np.ndarray:
    """max over gamma of |<0|mixer(beta) phase(gamma)|psi>| for each beta."""
    return layer_terms(state).curve(betas)


def gamma_eliminated_overlap(state: SymmetricState, beta: float) -> tuple[float, float]:
    """Best achievable target amplitude of one extra layer at fixed beta.

    Returns (g, gamma_star): g is the maximum over gamma of the target
    amplitude modulus, and gamma_star attains it by aligning the phases of the
    two terms.  When either term vanishes every gamma ties and 0 is returned.
    """
    return layer_terms(state).best_gamma(beta)


def saturation_derivatives(state: SymmetricState) -> tuple[float, float]:
    """One-sided derivatives of the gamma-eliminated curve g at beta = 0.

    Writing c2 = sqrt(C(n,2)), the curve expands for small beta > 0 as

        g(beta) = |A_0| (1 - n beta^2 / 2) + |B(beta)|,
        B(beta) = -i sqrt(n) A_1 beta - c2 A_2 beta^2 + O(beta^3),

    which gives g'(0+) = sqrt(n) |A_1| and

        g''(0+) = -n |A_0| + 2 c2 * Im(conj(A_1) A_2) / |A_1|   if A_1 != 0,
        g''(0+) = -n |A_0| + 2 c2 |A_2|                         if A_1 == 0.

    The modulus |B| makes the curvature discontinuous in the state at A_1 = 0;
    both branches are the exact limits of finite differences taken from inside
    the domain.
    """
    n = state.n
    a0, a1, a2 = abs(state.amps[0]), abs(state.amps[1]), state.amps[2] if n >= 2 else 0.0
    c2 = binomial_sqrt(n)[2] if n >= 2 else 0.0
    g1 = math.sqrt(n) * a1
    if a1 > 0.0:
        cross = float(np.imag(np.conj(state.amps[1]) * a2))
        g2 = -n * a0 + 2.0 * c2 * cross / a1
    else:
        g2 = -n * a0 + 2.0 * c2 * abs(a2)
    return g1, g2


def random_symmetric_state(n: int, rng: np.random.Generator) -> SymmetricState:
    """Haar-like random state: iid complex Gaussian amplitudes, normalized."""
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SymmetricState(n, amps / np.linalg.norm(amps))
