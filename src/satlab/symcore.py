"""Exact QAOA simulation restricted to the permutation-symmetric subspace.

The target state is fixed to the all-zeros computational basis state.  Because
the mixer Hamiltonian (a sum of single-qubit X operators) commutes with every
qubit permutation and both the initial plus state and the target are symmetric,
the whole circuit lives in the (n+1)-dimensional span of the Dicke states
|e_0>, ..., |e_n>.  States here are the n+1 complex amplitudes A_k = <e_k|psi>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

NORM_TOL = 1e-8
# Largest qubit count whose overlaps are trusted.  The amplitude vector carries
# an absolute rounding error of order machine epsilon while |A_0| shrinks like
# 2^{-n/2}, so the relative error of the target amplitude grows like
# eps * 2^{n/2}.  Against a 60-digit mpmath closed form of the depth-1 amplitude
# (worst of 40 random angle pairs) it is 8.3e-7 at n = 60 and 2.4e-6 at n = 61:
# this is the ceiling at a relative tolerance of 1e-6.  ExperimentConfig
# rejects larger n; the library functions and trainers do not check it.
MAX_SYMMETRIC_QUBITS = 60


@lru_cache(maxsize=None)
def binomial_sqrt(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n (cached, read-only).

    Exact integer binomials up to n = 50, log-gamma beyond that so large n
    cannot overflow.
    """
    if n <= 50:
        out = np.sqrt(np.array([math.comb(n, k) for k in range(n + 1)], dtype=float))
    else:
        k = np.arange(n + 1, dtype=float)
        out = np.exp(0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)))
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
    """Mixer Hamiltonian, a sum of single-qubit X operators, in the Dicke basis.

    The matrix is real symmetric tridiagonal with zero diagonal and
    off-diagonal entries sqrt((k+1)(n-k)): flipping one of the n-k zeros of a
    weight-k Dicke state reaches each weight-(k+1) bitstring k+1 ways, and the
    normalization ratio supplies the square root.  Its spectrum is the integers
    -n, -n+2, ..., n.  The eigendecomposition is computed once and cached, so
    the mixer exponential is exact for every angle at O(n^2) per application.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = n
        k = np.arange(n)
        off = np.sqrt((k + 1.0) * (n - k))
        eigenvalues, eigenvectors = eigh_tridiagonal(np.zeros(n + 1), off)
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        # the exact spectrum, matching the columns of eigenvectors
        frequencies = np.arange(-n, n + 1, 2, dtype=float)
        frequencies.setflags(write=False)
        self.frequencies = frequencies
        # |+>^n in the eigenbasis, where neg_overlap starts
        plus_coords = eigenvectors.T @ (binomial_sqrt(n) * 2.0 ** (-n / 2.0))
        plus_coords.setflags(write=False)
        self._plus_coords = plus_coords

    def evolve(self, amps: np.ndarray, beta: float) -> np.ndarray:
        """Apply exp(-i*beta*H) to a Dicke amplitude vector."""
        v = self.eigenvectors
        return v @ (np.exp(-1j * beta * self.eigenvalues) * (v.T @ amps))

    def layers(self, amps: np.ndarray, gammas, betas) -> np.ndarray:
        """Apply layers in order to a Dicke amplitude vector and return a new one.

        Layer i rephases the target, A_0 -> exp(-i*gammas[i]) * A_0, then
        applies the mixer for betas[i].  Each call copies amps once, so pass
        a whole schedule in one call where the layers are known up front.
        """
        amps = np.array(amps, dtype=complex)
        for gamma, beta in zip(gammas, betas):
            amps[0] *= np.exp(-1j * gamma)
            amps = self.evolve(amps, beta)
        return amps

    def neg_overlap(self, params) -> tuple[float, np.ndarray]:
        """-|A_0|^2 of a schedule run from |+>^n, and its gradient.

        params holds the 2p angles in layer order, [gamma_1, beta_1, ...,
        gamma_p, beta_p]; the gradient has the same layout.  The state is
        carried in the mixer's eigenbasis, t = V^T amps, where a layer is a
        rank-1 kick t += (exp(-i*gamma) - 1) (V[0] . t) V[0] followed by the
        diagonal phase exp(-i*beta*lambda), O(n) per layer.  One backward
        sweep of the bra w with A_0 = w . t then gives dA_0/dbeta =
        w . (-i lambda t) and dA_0/dgamma = -i exp(-i*gamma) (V[0] . t_in)
        (w . V[0]), the reverse-mode gradient of Jones & Gacon,
        arXiv:2009.02823.  Values agree with layers to rounding, not bitwise.
        """
        params = np.asarray(params, dtype=float)
        gammas, betas = params[0::2], params[1::2]
        depth = gammas.size
        row = self.eigenvectors[0]
        kicks = np.exp(-1j * gammas) - 1.0
        phases = np.exp(-1j * np.multiply.outer(betas, self.eigenvalues))
        # forward: states[i] is t after i layers, heads[i] = V[0] . states[i]
        states = np.empty((depth + 1, self.n + 1), dtype=complex)
        heads = np.empty(depth, dtype=complex)
        t = states[0] = self._plus_coords
        for i, kick in enumerate(kicks.tolist()):
            heads[i] = head = row @ t
            t = states[i + 1] = phases[i] * (t + (kick * head) * row)
        target = complex(row @ t)
        # backward: bras[i] is the bra w with A_0 = w . states[i + 1], and
        # alongs[i] = (w exp(-i betas[i] lambda)) . V[0] meets the kick of layer i
        bras = np.empty((depth, self.n + 1), dtype=complex)
        alongs = np.empty(depth, dtype=complex)
        bra = row
        for i in range(depth - 1, -1, -1):
            bras[i] = bra
            bra = bra * phases[i]
            alongs[i] = along = bra @ row
            bra = bra + (kicks[i] * along) * row
        d_gamma = -1j * (kicks + 1.0) * heads * alongs
        d_beta = -1j * ((bras * states[1:]) @ self.eigenvalues)
        # d|A_0|^2 = 2 Re(conj(A_0) dA_0)
        weight = -2.0 * target.conjugate()
        grad = np.empty(2 * depth)
        grad[0::2] = (weight * d_gamma).real
        grad[1::2] = (weight * d_beta).real
        return -abs(target) ** 2, grad


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
    """Run the full circuit: alternate phase separator and mixer from |+>^n."""
    angles = [_as_angles(layer) for layer in schedule]
    gammas, betas = [a.gamma for a in angles], [a.beta for a in angles]
    return SymmetricState(n, mixer(n).layers(plus_state(n).amps, gammas, betas))


def overlap(state: SymmetricState) -> float:
    """Squared overlap with the target: |A_0|^2."""
    return float(abs(state.amps[0]) ** 2)


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

    Both terms are evaluated in their Fourier form.  With V the mixer's
    eigenvectors and lambda_l = -n + 2l its eigenvalues,
    cos^{n-k}(beta) (-i sin(beta))^k sqrt(C(n,k)) = <0|mixer(beta)|e_k>
    = sum_l V[0,l] V[k,l] exp(-i lambda_l beta), so
        A = sum_l coefs[0, l] exp(-i lambda_l beta),
        coefs[0] = a / sqrt(C(n,m)) * V[0] * V[m],
        B = sum_l coefs[1, l] exp(-i lambda_l beta),
        coefs[1] = V[0] * (V^T (sums / sqrt(C(n,k)))).
    A scalar beta then costs O(n).  On the grid beta_j = pi j / M the common
    factor exp(i n beta_j) drops out of the moduli, and what is left is one
    length-M FFT of the coefficients (folded modulo M when n + 1 > M).  At
    beta = 0 the mixer is the identity, and A(0) = a [m = 0], B(0) = sums[0]
    are returned exactly, so the beta = 0 snap and the gamma = 0 tie rule
    compare exact values.  Elsewhere the terms carry the componentwise error
    of the computed eigenvectors, as MixerGenerator.evolve does.
    """

    a: complex
    a_weight: int
    sums: np.ndarray
    coefs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.sums.size - 1, self.a_weight
        v = mixer(n).eigenvectors
        root = binomial_sqrt(n)
        coefs = np.empty((2, n + 1), dtype=complex)
        coefs[0] = (self.a / root[m]) * v[0] * v[m]
        coefs[1] = v[0] * (v.T @ (self.sums / root))
        object.__setattr__(self, "coefs", coefs)

    def _at_zero(self) -> tuple[complex, complex]:
        return (self.a if self.a_weight == 0 else 0.0), self.sums[0]

    def split(self, betas) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) at each beta."""
        betas = np.atleast_1d(np.asarray(betas, dtype=float))
        freqs = mixer(self.sums.size - 1).frequencies
        a_term, b_term = self.coefs @ np.exp(-1j * np.multiply.outer(freqs, betas))
        zero = betas == 0.0
        if zero.any():
            a_term[zero], b_term[zero] = self._at_zero()
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
            a_term, b_term = self._at_zero()
        else:
            freqs = mixer(self.sums.size - 1).frequencies
            a_term, b_term = self.coefs @ np.exp(freqs * (-1j * beta))
        return float(abs(a_term) + abs(b_term))

    def grid(self, points: int) -> np.ndarray:
        """The curve at beta_j = pi j / points for j = 0..points-1, by one FFT."""
        size = self.coefs.shape[1]
        folded = np.zeros((2, -(-size // points) * points), dtype=complex)
        folded[:, :size] = self.coefs
        spectra = np.fft.fft(folded.reshape(2, -1, points).sum(axis=1), axis=1)
        vals = np.abs(spectra).sum(axis=0)
        a0, b0 = self._at_zero()
        vals[0] = abs(a0) + abs(b0)
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
    return LayerTerms(state.amps[0], 0, sums)


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
