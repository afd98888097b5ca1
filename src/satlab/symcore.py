"""Exact QAOA simulation restricted to the permutation-symmetric subspace.

The target state is fixed to the all-zeros computational basis state.  Because
the mixer Hamiltonian (a sum of single-qubit X operators) commutes with every
qubit permutation and both the initial plus state and the target are symmetric,
the whole circuit lives in the (n+1)-dimensional span of the Dicke states
|e_0>, ..., |e_n>.  States here are the n+1 complex amplitudes A_k = <e_k|psi>.

Noiseless circuits run in the mixer's eigenbasis (MixerGenerator.forward); the
trainers carry these eigen-coordinates, and run_schedule returns Dicke amplitudes.
All of them read only the mixer's closed form: its first eigenvector row, its
integer eigenvalues and the product bra <0|mixer(beta) = prod_q (cos(beta)<0| -
i sin(beta)<1|), whose Fourier coefficients (MixerGenerator.bra_coefs) give the
layer terms of a Dicke state or a noisy product sum.  The eigenvector matrix V
is built by numpy.linalg.eigh for evolve (apply_mixer) alone, a Dicke-basis
oracle that no reported number goes through, and only up to
MAX_EIGENVECTOR_QUBITS.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

NORM_TOL = 1e-8
# Largest qubit count whose overlaps are trusted.  The depth-1 target amplitude
# stays within 2.1e-13 (relative) of a 60-digit mpmath closed form up to here,
# so float64's range binds: past n = 1022, 2^-n (|+>^n's overlap, r_0^2) is not
# a normal float, and train_global's 2^n overflows at n = 1024.  MixerGenerator
# refuses larger n, and so every trainer; ExperimentConfig before any compute.
MAX_SYMMETRIC_QUBITS = 1022
# relative gap within which a smaller beta or gamma ties a larger one's value
TIE_TOLERANCE = 1e-12
# Largest excess over 1 that reported_overlap reads as rounding; the largest
# seen, over greedy-seeded train_global at n = 1..6, is 1.8e-15.
OVERLAP_EXCESS_TOL = 1e-12
# Largest qubit count for which MixerGenerator.eigenvectors builds V.  Its
# columns are signed so that V[0] > 0, and V[0, 0] = V[0, n] = 2^(-n/2) sinks
# into eigh's rounding: against the exact Krawtchouk columns every entry is
# within 6e-15 up to n = 109, and the end column is negated at n = 110, 114,
# 115, ...; at the ceiling 2^(-50) = 8.9e-16.
MAX_EIGENVECTOR_QUBITS = 100
# Most rows of a cached DFT table, the most coefficients that dft multiplies
# by one.  On one 2-vCPU VM, |B| on 2,048 points by the table against the FFT,
# abs included, took 7.1 against 18.1 us at 5 coefficients, 17.3 against 18.1
# at 32 and 22.3 against 18.1 at 41; an inverse DFT of n + 1 points by the
# table against ifft took 0.8 against 3.8 us at n = 31.
DFT_TABLE_ROWS = 32
# Largest n whose binomials all fit a float64: C(1030, 515) overflows.
MAX_BINOMIAL_QUBITS = 1029


@lru_cache(maxsize=None)
def binomial_sqrt(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n from the exact integers (cached, read-only);
    an n past MAX_BINOMIAL_QUBITS, beyond MAX_SYMMETRIC_QUBITS, is refused."""
    if n > MAX_BINOMIAL_QUBITS:
        raise ValueError(f"C(n, k) overflows float64 past MAX_BINOMIAL_QUBITS = {MAX_BINOMIAL_QUBITS}, got n = {n}")
    out = np.sqrt(np.array([float(math.comb(n, k)) for k in range(n + 1)]))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _dft_table(size: int, inverse: bool) -> np.ndarray:
    """Rows l = 0..min(DFT_TABLE_ROWS, size) - 1 of the size-point DFT matrix,
    entries exp(-2 pi i (l j mod size) / size), or with inverse those of the
    inverse DFT, exp(2 pi i (l j mod size) / size) / size: 32 rows and 1 MB at
    2,048 points.  Read-only, and cached for the last few (size, inverse).
    The entries are indexed from one length-size vector of roots of unity, so
    no temporary array is larger than the table."""
    k = np.arange(size)
    roots = np.exp((2j if inverse else -2j) * np.pi * k / size)
    if inverse:
        roots /= size
    table = roots[np.outer(k[:DFT_TABLE_ROWS], k) % size]
    table.setflags(write=False)
    return table


def dft(coefs: np.ndarray, size: int, inverse: bool = False) -> np.ndarray:
    """The size-point DFT of coefs along the last axis, or with inverse the
    inverse DFT, as np.fft.fft(coefs, size) and np.fft.ifft(coefs, size) give
    it, for at most size coefficients (ValueError otherwise, where the FFT
    would cut them): the beta grid has more points than any mixer's n + 1,
    and the inverse DFTs take n + 1.  One product with the cached
    _dft_table(size, inverse) up to DFT_TABLE_ROWS coefficients, and one FFT
    past them."""
    count = coefs.shape[-1]
    if count > size:
        raise ValueError(f"dft takes at most size = {size} coefficients, got {count}")
    if count <= DFT_TABLE_ROWS:  # past it no table has a row for every coefficient
        return coefs @ _dft_table(size, inverse)[:count]
    return np.fft.ifft(coefs, size) if inverse else np.fft.fft(coefs, size)


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an int or numpy integer of at least
    minimum.  A bool is refused, though Python counts it an int, and a float
    here rather than inside range, math.comb or numpy later."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_real(name: str, value) -> None:
    """Raise ValueError unless value is a real number that a float can hold, not a bool.

    A float returns at the first test, since LayerAngles checks two angles on every trained layer.
    """
    if isinstance(value, float):
        return
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            float(value)  # an int past the float range raises OverflowError
            return
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_nonnegative(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number >= 0, the rule of the config's _NONNEGATIVE."""
    _check_real(name, value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _principal(angle: float, period: float) -> float:
    """angle reduced into [0, period).  Python's % rounds a tiny negative
    angle up to period itself, which is the same angle as 0.0."""
    reduced = float(angle) % period
    return 0.0 if reduced == period else reduced


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
        _check_integer("qubit count", self.n, 1)
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
        _check_real("gamma", self.gamma)
        _check_real("beta", self.beta)
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError(f"angles must be finite, got ({self.gamma}, {self.beta})")
        object.__setattr__(self, "gamma", _principal(self.gamma, 2.0 * math.pi))
        object.__setattr__(self, "beta", _principal(self.beta, math.pi))


def schedule_angles(schedule) -> tuple[np.ndarray, np.ndarray]:
    """(gammas, betas) of LayerAngles or (gamma, beta) pairs, the pairs checked and reduced by LayerAngles."""
    angles = []
    for layer in schedule:
        if not isinstance(layer, LayerAngles):
            gamma, beta = layer
            layer = LayerAngles(gamma, beta)
        angles.append(layer)
    return np.array([a.gamma for a in angles]), np.array([a.beta for a in angles])


class MixerGenerator:
    """Mixer Hamiltonian, a sum of single-qubit X operators, and its eigenbasis.

    In the Dicke basis the matrix is real symmetric tridiagonal with zero
    diagonal and off-diagonal entries sqrt((k+1)(n-k)): flipping one of the
    n-k zeros of a weight-k Dicke state reaches each weight-(k+1) bitstring
    k+1 ways, and the normalization ratio supplies the square root.  Its
    eigenvalues are the integers lambda_l = -n + 2l, held exactly, and the
    first row of its eigenvectors is r = plus_state's amplitudes, held in
    closed form as row; |+>^n is e_n in this basis.  roots holds one qubit's
    bra at the n + 1 sample points of a degree-n polynomial, bra_coefs the
    Fourier coefficients of the product bra <0|mixer(beta), which
    layer_terms reads, and bra_moduli the moduli of its entries on a
    beta grid, which LayerTerms.grid reads.  The
    eigenvectors V are built on first use by numpy.linalg.eigh, each column
    signed so that V[0] > 0 like r, and only up to MAX_EIGENVECTOR_QUBITS;
    only evolve (apply_mixer) reads V, so no trainer, run_schedule or
    layer-terms path builds it.
    """

    def __init__(self, n: int):
        _check_integer("qubit count", n, 1)
        if n > MAX_SYMMETRIC_QUBITS:
            raise ValueError(f"qubit count must be <= MAX_SYMMETRIC_QUBITS = {MAX_SYMMETRIC_QUBITS}, got {n}")
        self.n = n
        self.eigenvalues = np.arange(-n, n + 1, 2, dtype=float)
        self.row = plus_state(n).amps.real.copy()
        # row cast once: numpy casts a float operand of a complex product anyway
        self._complex_row = self.row.astype(complex)
        self.plus = np.zeros(n + 1, dtype=complex)
        self.plus[n] = 1.0
        for array in (self.eigenvalues, self.row, self._complex_row, self.plus):
            array.setflags(write=False)
        self._bra_moduli = {}

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """V, read-only and cached, built on first use in O(n^3).

        Raises ValueError past MAX_EIGENVECTOR_QUBITS, where its column signs
        are no longer verified.
        """
        if self.n > MAX_EIGENVECTOR_QUBITS:
            raise ValueError(
                f"eigenvectors are verified up to n = {MAX_EIGENVECTOR_QUBITS}, got n = {self.n}"
            )
        k = np.arange(self.n)
        off = np.sqrt((k + 1.0) * (self.n - k))
        _, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        vectors *= np.copysign(1.0, vectors[0])
        vectors.setflags(write=False)
        return vectors

    @cached_property
    def roots(self) -> np.ndarray:
        """One qubit's bra <0|e^{-i beta X} = (cos(beta), -i sin(beta))
        without its factor e^{i beta}, ((1 + z) / 2, (z - 1) / 2) with z =
        e^{-2i beta}, at beta_j = pi j / (n + 1), where z runs over the n + 1
        roots of unity; shape (2, n + 1), read-only and cached.  A product of
        n of them is a polynomial of degree n in z, and the inverse DFT of
        its values here, dft(values, n + 1, inverse=True), gives its
        coefficients over the mixer's eigenvalues."""
        z = np.exp(-2j * np.pi * np.arange(self.n + 1) / (self.n + 1))
        roots = np.array(((1.0 + z) / 2, (z - 1.0) / 2))
        roots.setflags(write=False)
        return roots

    @cached_property
    def bra_coefs(self) -> np.ndarray:
        """w, read-only and cached: cos^{n-k}(beta) (-i sin(beta))^k = sum_l
        w[k, l] exp(-i lambda_l beta), built on first use in O(n^2 log n).

        Row k is <0|mixer(beta)|e_k> / sqrt(C(n,k)), so w[k] = V[0] * V[k] /
        sqrt(C(n,k)), which is real: the inverse DFT of roots[0]^(n-k)
        roots[1]^k.  The powers are running products: at n = 1022 they take
        about a tenth of the time of complex ** and stay nearer the exact w,
        within 1.1e-15 against 1.8e-15.
        """
        n = self.n
        powers = np.ones((2, n + 1, n + 1), dtype=complex)
        powers[:, 1:] = self.roots[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)  # powers[i, m] = roots[i]^m
        coefs = dft(powers[0, ::-1] * powers[1], n + 1, True).real
        coefs.setflags(write=False)
        return coefs

    @cached_property
    def derivative_rows(self) -> np.ndarray:
        """Rows 1, -i*lambda, -lambda^2, read-only and cached: the Fourier
        coefficients of F(beta) = sum_l c_l exp(-i lambda_l beta), times each
        row, give those of F, F' and F''; row 1 is also the phase rate."""
        lam = self.eigenvalues
        rows = np.stack([np.ones_like(lam), -1j * lam, -lam * lam])
        rows.setflags(write=False)
        return rows

    def bra_moduli(self, points: int, weight: int) -> np.ndarray:
        """|cos(beta_j)|^{n-m} |sin(beta_j)|^m at beta_j = pi j / points
        (points > n), for m = weight: the modulus of <0|mixer(beta_j)|x> for
        any bitstring x of weight m.  Read-only and cached per (points, weight)."""
        table = self._bra_moduli.get((points, weight))
        if table is None:
            betas = np.arange(points) * (np.pi / points)
            table = np.abs(np.cos(betas)) ** (self.n - weight) * np.abs(np.sin(betas)) ** weight
            table.setflags(write=False)
            self._bra_moduli[points, weight] = table
        return table

    def evolve(self, amps: np.ndarray, beta: float) -> np.ndarray:
        """Apply exp(-i*beta*H) to a Dicke amplitude vector."""
        v = self.eigenvectors
        return v @ (np.exp(-1j * beta * self.eigenvalues) * (v.T @ amps))

    def forward(self, t: np.ndarray, gammas, betas) -> tuple[np.ndarray, np.ndarray]:
        """Run layers in order on eigen-coordinates t: (states, heads).

        Layer i rephases the target and applies the mixer, t -> exp(-i*betas[i]
        *lambda) * (t + (exp(-i*gammas[i]) - 1) (r . t) r), O(n).  states[i] is
        t after i layers and heads[i] = r . states[i] its target amplitude; one
        call or one call per layer gives the same heads bitwise.  The angles
        may carry trailing start axes, gammas and betas of shape (p, ...), all
        run from the one t; states and heads then have shapes (p+1, ..., n+1)
        and (p+1, ...).
        """
        return self._sweep(t, gammas, betas)[:2]

    def layer(self, t: np.ndarray, head: complex, gamma: float, beta: float) -> tuple[np.ndarray, complex]:
        """One layer on eigen-coordinates t with head r . t: (t, head) after
        it, by forward's own update, so a trainer that carries (t, head) layer
        by layer reports forward's heads bitwise."""
        return self._update(t, head, *self._factors(gamma, beta))

    def _factors(self, gammas, betas):
        """The kicks exp(-i*gamma) - 1 and phases exp(-i*beta*lambda) of the
        given angles, scalars or arrays alike."""
        kicks = np.exp(-1j * np.asarray(gammas, dtype=float)) - 1.0
        phases = np.exp(-1j * (np.asarray(betas, dtype=float)[..., None] * self.eigenvalues))
        return kicks, phases

    def _update(self, t, head, kick, phase):
        """forward's layer update: (t, head) after one layer with this kick and phase."""
        row = self._complex_row
        t = phase * (t + (kick * head)[..., None] * row)
        return t, t @ row

    def _sweep(self, t: np.ndarray, gammas, betas):
        """forward's states and heads, then the kicks and phases it applied.

        A one-start sweep multiplies numpy scalars where a batched one
        multiplies arrays, so each row of a batch agrees with its own sweep to
        rounding, not bitwise.
        """
        kicks, phases = self._factors(gammas, betas)
        states = np.empty((kicks.shape[0] + 1, *phases.shape[1:]), dtype=complex)
        heads = np.empty(states.shape[:-1], dtype=complex)
        states[0] = t
        t = states[0]
        head = heads[0] = t @ self.row
        for i, kick in enumerate(kicks):
            t, head = states[i + 1], heads[i + 1] = self._update(t, head, kick, phases[i])
        return states, heads, kicks, phases

    def neg_overlap(self, params) -> tuple[float | np.ndarray, np.ndarray]:
        """-|A_0|^2 of a schedule run from |+>^n, and its gradient.

        params holds the 2p angles in layer order, [gamma_1, beta_1, ...,
        gamma_p, beta_p]; the gradient has the same layout.  The value is that
        of forward from e_n.  One backward sweep of the bra w with A_0 = w . t
        then gives dA_0/dbeta = w . (-i lambda t) and dA_0/dgamma = -i
        exp(-i*gamma) (r . t_in) (w . r), the reverse-mode gradient of Jones &
        Gacon, arXiv:2009.02823, at O(n) per layer.

        params of shape (..., 2p) hold one schedule per leading index, and
        one sweep of each direction runs them all: the values have shape (...)
        and the gradients (..., 2p).  Each row agrees with its own 1-D call to
        rounding (see _sweep); a 1-D call returns a float and a (2p,) array.
        """
        # layer axis first, as _sweep takes it
        params = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
        gammas, betas = params[0::2], params[1::2]
        states, heads, kicks, phases = self._sweep(self.plus, gammas, betas)
        row = self.row
        # bras[i] is the bra w with A_0 = w . states[i + 1], and alongs[i] =
        # (w exp(-i betas[i] lambda)) . r meets the kick of layer i
        depth = gammas.shape[0]
        bras = np.empty_like(states[1:])
        alongs = np.empty_like(heads[1:])
        bra = row
        for i in range(depth - 1, -1, -1):
            bras[i] = bra
            bra = bra * phases[i]
            alongs[i] = along = bra @ row
            bra = bra + (kicks[i] * along)[..., None] * row
        d_gamma = -1j * (kicks + 1.0) * heads[:-1] * alongs
        d_beta = -1j * ((bras * states[1:]) @ self.eigenvalues)
        # d|A_0|^2 = 2 Re(conj(A_0) dA_0)
        weight = -2.0 * heads[-1].conjugate()
        grad = np.empty((2 * depth, *heads.shape[1:]))
        grad[0::2] = (weight * d_gamma).real
        grad[1::2] = (weight * d_beta).real
        return -abs(heads[-1]) ** 2, np.moveaxis(grad, 0, -1)


@lru_cache(maxsize=None)
def mixer(n: int) -> MixerGenerator:
    """Cached per-n mixer generator (read-only after construction)."""
    return MixerGenerator(n)


def plus_state(n: int) -> SymmetricState:
    """|+>^n in the Dicke basis: A_k = sqrt(C(n,k) / 2^n)."""
    _check_integer("qubit count", n, 1)
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
    """Run the full circuit from |+>^n: the heads of MixerGenerator.forward,
    then every Dicke amplitude from them in O(pn).

    Layer j's phase separator is I + (exp(-i gamma_j) - 1)|0><0|, a rank-1
    kick, so after p layers the state is mixer(B_1)|+>^n plus, for each j,
    (exp(-i gamma_j) - 1) h_{j-1} mixer(B_j)|0...0>, where h_{j-1} is the
    head before layer j and B_j = beta_j + ... + beta_p.  Both are product
    states: mixer(B)|+>^n = exp(-i n B)|+>^n, and mixer(B)|0...0> has
    A_k = sqrt(C(n,k)) cos^{n-k}(B) (-i sin(B))^k.  A_0 is forward's last
    head, bitwise what the trainers report.
    """
    gammas, betas = schedule_angles(schedule)
    gen = mixer(n)
    _, heads = gen.forward(gen.plus, gammas, betas)
    # exp(-i B_j) as products of unit phases, which round less than the cosine
    # and sine of a summed B_j
    tails = np.cumprod(np.exp(-1j * betas[::-1]))[::-1]
    k = np.arange(n + 1)
    bras = tails.real[:, None] ** (n - k) * (-tails.imag)[:, None] ** k * (-1j) ** (k % 4)
    kicks = (np.exp(-1j * gammas) - 1.0) * heads[:-1]
    plus = (tails[0] ** n if betas.size else 1.0) * 2.0 ** (-n / 2.0)
    amps = binomial_sqrt(n) * (plus + kicks @ bras)
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


# (-i)^m by m mod 4, exactly
_MINUS_I_POWERS = (1.0, -1j, -1.0, 1j)


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

    A is held by this closed form.  B is held in its Fourier form over the
    mixer's eigenvalues lambda_l = -n + 2l, B = sum_l b_l exp(-i lambda_l
    beta), since cos^{n-k}(beta) (-i sin(beta))^k = sum_l w[k, l] exp(-i
    lambda_l beta) with w = MixerGenerator.bra_coefs (layer_terms); from the
    eigen-coordinates of a noiseless circuit b takes only the row r
    (from_eigen), and b_zero is the exact B(0).  One beta costs O(n) in at,
    which value and best_gamma read; split is curve's batch path.  On the
    grid beta_j = pi j / M the factor exp(i n beta_j) drops out of |B|,
    leaving the length-M DFT of b, dft(b, M), and |A| is |a| times the
    mixer's cached table bra_moduli(M, m).  jet contracts one cached
    kernel, b times the mixer's derivative_rows, and differentiates |A| in
    closed form.  At beta = 0 the mixer is the identity, and at, split and
    grid all return the exact at_zero = (A(0), B(0)), so the beta = 0 snap
    is exact.
    """

    a: complex
    a_weight: int
    b: np.ndarray
    b_zero: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))

    @classmethod
    def from_eigen(cls, t: np.ndarray, head: complex) -> LayerTerms:
        """Noiseless terms of eigen-coordinates t with head A_0 = r . t, as
        MixerGenerator.layer or forward computed it, O(n): a = A_0,
        a_weight = 0, b = r * (t - A_0 r) and B(0) = 0."""
        row = mixer(t.size - 1).row
        return cls(head, 0, row * (t - head * row), 0.0)

    @property
    def n(self) -> int:
        return self.b.size - 1

    @property
    def at_zero(self) -> tuple[complex, complex]:
        """(A(0), B(0)), exact."""
        return (self.a if self.a_weight == 0 else 0.0, self.b_zero)

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(-i lambda, K), made once per terms: K = b times the mixer's
        derivative_rows, so K @ exp(-i lambda beta) is (B, B', B'')."""
        rows = mixer(self.n).derivative_rows
        return rows[1], rows * self.b

    def kink_offset(self) -> float:
        """|B'(0)| / (n |a|): the beta > 0 at which the curve's model at its
        beta = 0 kink, |a| (1 - n beta^2 / 2) + |B'(0)| beta, peaks.  g'(0+)
        = |B'(0)| there and -n |a| is the curvature of |A|.  The model holds
        on both sides, as g(pi - beta) has the same one below pi.  inf
        unless the curve has that kink: a_weight = 0, a != 0 and B(0) = 0."""
        if self.a_weight or not self.a or self.b_zero:
            return math.inf
        rate, _ = self._kernel
        return float(abs(self.b @ rate)) / (self.n * abs(self.a))

    def a_term(self, beta: float) -> complex:
        """A at one beta > 0 by its closed form, O(1)."""
        m = self.a_weight
        return self.a * (math.cos(beta) ** (self.n - m) * math.sin(beta) ** m) * _MINUS_I_POWERS[m % 4]

    def at(self, beta: float) -> tuple[complex, complex]:
        """(A, B) at one beta, O(n); exact at beta = 0, from at_zero."""
        if beta == 0.0:
            return self.at_zero
        rate, _ = self._kernel
        return self.a_term(beta), complex(self.b @ np.exp(rate * beta))

    def split(self, betas) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) at each beta: the batch path of curve."""
        betas = np.atleast_1d(np.asarray(betas, dtype=float))
        rate, _ = self._kernel
        m = self.a_weight
        a_term = self.a * (np.cos(betas) ** (self.n - m) * np.sin(betas) ** m) * _MINUS_I_POWERS[m % 4]
        b_term = self.b @ np.exp(np.multiply.outer(rate, betas))
        a_term[betas == 0.0], b_term[betas == 0.0] = self.at_zero
        return a_term, b_term

    def curve(self, betas) -> np.ndarray:
        """max over gamma of the target amplitude modulus, for each beta.

        For complex A and B, max_gamma |A exp(-i*gamma) + B| = |A| + |B|.
        """
        a_term, b_term = self.split(betas)
        return np.abs(a_term) + np.abs(b_term)

    def value(self, beta: float) -> float:
        """The curve at one beta as a float, from at."""
        a_term, b_term = self.at(beta)
        return float(abs(a_term) + abs(b_term))

    def jet(self, beta: float) -> tuple[float, float, float, complex]:
        """(g, g', g'', B) of the curve at one beta > 0, O(n): newton_bisect
        reads the first three, and best_gamma can take B.

        The kernel gives (B, B', B'') by one exp and one matrix-vector
        product, and |B|' = Re(conj(B) B') / |B|, |B|'' = (|B'|^2 +
        Re(conj(B) B'') - |B|'^2) / |B|.  |A| = |a| |cos|^{n-m} |sin|^m has
        the logarithmic derivative u' = m cot(beta) - (n - m) tan(beta), so
        |A|' = |A| u' and |A|'' = |A| (u'^2 + u''), u'' = -m / sin^2(beta) -
        (n - m) / cos^2(beta).  A term with modulus 0 has no derivative there
        and is left out.  At beta = 0 the curve has a kink (B(0) = 0
        noiselessly), so beta must be positive.
        """
        rate, kernel = self._kernel
        f, f1, f2 = (kernel @ np.exp(rate * beta)).tolist()
        g = slope = curvature = 0.0
        if f:
            g = abs(f)
            slope = (f.conjugate() * f1).real / g
            curvature = (abs(f1) ** 2 + (f.conjugate() * f2).real - slope * slope) / g
        c, s = math.cos(beta), math.sin(beta)
        m, k = self.a_weight, self.n - self.a_weight
        modulus = abs(self.a) * abs(c) ** k * abs(s) ** m
        if modulus:
            u1 = m * c / s - k * s / c
            u2 = -m / (s * s) - k / (c * c)
            g, slope, curvature = g + modulus, slope + modulus * u1, curvature + modulus * (u1 * u1 + u2)
        return g, slope, curvature, f

    def grid(self, points: int) -> np.ndarray:
        """The curve at beta_j = pi j / points for j = 0..points-1, points > n:
        |B| = |dft(b, points)|, plus |a| times the mixer's cached bra_moduli table."""
        vals = np.abs(dft(self.b, points))
        vals += abs(self.a) * mixer(self.n).bra_moduli(points, self.a_weight)
        vals[0] = abs(self.at_zero[0]) + abs(self.at_zero[1])
        return vals

    def best_gamma(self, beta: float, b_term: complex | None = None) -> tuple[float, float]:
        """(g, gamma_star): value(beta) and arg A - arg B, which lines up the
        terms, or 0 by the tie rule where every gamma ties: where the span of
        the modulus over gamma, 2 min(|A|, |B|), is within TIE_TOLERANCE of g.
        b_term, given at a beta > 0, is B(beta) as jet formed it, so B is not
        computed again."""
        a, b = self.at(beta) if b_term is None else (self.a_term(beta), b_term)
        g = float(abs(a) + abs(b))
        if 2.0 * min(abs(a), abs(b)) <= TIE_TOLERANCE * g:
            return g, 0.0
        # np.angle's own arctan2 loop, one call for both phases
        arg_a, arg_b = np.arctan2((a.imag, b.imag), (a.real, b.real)).tolist()
        return g, (arg_a - arg_b) % (2.0 * math.pi)


def layer_terms(state: SymmetricState) -> LayerTerms:
    """Noiseless one-layer terms of a symmetric state, O(n^2): a = A_0 and b
    = sums @ w, sums[k] = A_k sqrt(C(n,k)) for k >= 1, w = bra_coefs.

    The |+>^n part of the sums, sum(sums) r * r with r * r = C(n,k) / 2^n,
    is split off and added back in closed form, (r * r) @ w = 2^-n e_n: a
    shallow circuit at large n is close to |+>^n, and the small rest of its
    sums would otherwise drown in the rounding of sums @ w."""
    gen = mixer(state.n)
    sums = state.amps * binomial_sqrt(state.n)
    sums[0] = 0.0
    total = sums.sum()
    b = (sums - total * gen.row * gen.row) @ gen.bra_coefs
    b[-1] += total * 2.0**-state.n
    return LayerTerms(state.amps[0], 0, b, 0.0)


def gamma_eliminated_curve(state: SymmetricState, betas) -> np.ndarray:
    """max over gamma of |<0|mixer(beta) phase(gamma)|psi>| for each beta."""
    return layer_terms(state).curve(betas)


def gamma_eliminated_overlap(state: SymmetricState, beta: float) -> tuple[float, float]:
    """Best achievable target amplitude of one extra layer at fixed beta.

    Returns (g, gamma_star): g is the maximum over gamma of the target
    amplitude modulus, and gamma_star attains it by aligning the phases of the
    two terms.  Where a term vanishes up to TIE_TOLERANCE, every gamma ties
    and 0 is returned (LayerTerms.best_gamma).
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
    c2 = math.sqrt(float(math.comb(n, 2)))
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
