import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from satlab import densecore, symcore
from satlab.symcore import (
    LayerAngles,
    MixerGenerator,
    SymmetricState,
    apply_mixer,
    apply_phase_separator,
    gamma_eliminated_curve,
    gamma_eliminated_overlap,
    mixer,
    overlap,
    plus_state,
    random_symmetric_state,
    run_schedule,
    saturation_derivatives,
)
from satlab.training import train_layerwise

rng = np.random.default_rng(20260810)


def random_schedule(n, depth, rand):
    return [LayerAngles(rand.uniform(0, 2 * np.pi), rand.uniform(0, np.pi)) for _ in range(depth)]


def basis_state(n, k):
    amps = np.zeros(n + 1, dtype=complex)
    amps[k] = 1.0
    return SymmetricState(n, amps)


# ---------------------------------------------------------------- plus state

def test_plus_state_n2():
    s = plus_state(2)
    assert np.allclose(s.amps, [0.5, 1 / np.sqrt(2), 0.5])


def test_plus_state_n1():
    s = plus_state(1)
    assert np.allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 60])
def test_plus_state_target_component(n):
    s = plus_state(n)
    assert overlap(s) == pytest.approx(2.0 ** (-n), rel=1e-12)
    assert np.all(s.amps.real > 0)
    assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------- phase separator

def test_phase_separator_identity_at_zero():
    s = random_symmetric_state(5, np.random.default_rng(1))
    assert np.allclose(apply_phase_separator(s, 0.0).amps, s.amps)


def test_phase_separator_pi_flips_sign():
    s = apply_phase_separator(plus_state(2), np.pi)
    assert np.allclose(s.amps, [-0.5, 1 / np.sqrt(2), 0.5], atol=1e-15)


def test_phase_separator_matches_dense_diagonal():
    s = random_symmetric_state(4, np.random.default_rng(2))
    gamma = np.pi / 3
    lifted = densecore.lift(s).amps.copy()
    lifted[0] *= np.exp(-1j * gamma)
    got = densecore.lift(apply_phase_separator(s, gamma)).amps
    assert np.allclose(got, lifted, atol=1e-14)


# -------------------------------------------------------------------- mixer

def test_mixer_matrix_entries():
    # the cached eigendecomposition reproduces the tridiagonal generator with
    # off-diagonal entries sqrt((k+1)(n-k)) and a zero diagonal
    gen = mixer(5)
    matrix = gen.eigenvectors @ np.diag(gen.eigenvalues) @ gen.eigenvectors.T
    for k in range(5):
        expected = math.sqrt((k + 1) * (5 - k))
        assert matrix[k, k + 1] == pytest.approx(expected)
        assert matrix[k + 1, k] == pytest.approx(expected)
    assert np.allclose(np.diag(matrix), 0.0, atol=1e-12)
    assert np.allclose(np.triu(matrix, 2), 0.0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_mixer_spectrum_is_even_integers(n):
    gen = mixer(n)
    assert np.allclose(np.sort(gen.eigenvalues), np.arange(-n, n + 1, 2), atol=1e-9)


def test_mixer_identity_at_zero():
    s = random_symmetric_state(6, np.random.default_rng(3))
    assert np.allclose(apply_mixer(s, 0.0).amps, s.amps, atol=1e-12)


def test_mixer_single_qubit_closed_form():
    # exp(-i beta X) = cos(beta) I - i sin(beta) X in the {|0>, |1>} basis
    rand = np.random.default_rng(4)
    s = random_symmetric_state(1, rand)
    for beta in rand.uniform(0, np.pi, 5):
        got = apply_mixer(s, beta).amps
        u = np.array([[np.cos(beta), -1j * np.sin(beta)], [-1j * np.sin(beta), np.cos(beta)]])
        assert np.allclose(got, u @ s.amps, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_mixer_agrees_with_dense_evolution(n):
    rand = np.random.default_rng(100 + n)
    s = random_symmetric_state(n, rand)
    beta = rand.uniform(0, np.pi)
    sym_dense = densecore.lift(apply_mixer(s, beta)).amps
    ref = densecore.apply_layer_dense(densecore.lift(s).amps, n, 0.0, beta)
    fidelity = abs(np.vdot(sym_dense, ref))
    assert fidelity >= 1 - 1e-10


# ------------------------------------------------------------- run_schedule

def test_eigenvectors_match_sign_fixed_eigh_tridiagonal():
    # numpy's dense eigh gives the same V as LAPACK's tridiagonal solver to
    # rounding; the digests of the benchmark check that they agree bitwise
    for n in range(1, 61):
        gen = MixerGenerator(n)
        k = np.arange(n)
        off = np.sqrt((k + 1.0) * (n - k))
        _, expected = eigh_tridiagonal(np.zeros(n + 1), off)
        expected *= np.copysign(1.0, expected[0])
        v = gen.eigenvectors
        np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(v.T @ v, np.eye(n + 1), rtol=0.0, atol=1e-13)
        generator = np.diag(off, 1) + np.diag(off, -1)
        np.testing.assert_allclose(generator @ v, v * gen.eigenvalues, rtol=0.0, atol=1e-13)


def test_run_schedule_builds_read_only_eigenvectors_once():
    mixer.cache_clear()
    gen = mixer(53)
    assert "eigenvectors" not in gen.__dict__
    run_schedule(53, [(0.4, 0.3)])
    v = gen.__dict__["eigenvectors"]
    assert gen.eigenvectors is v
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 4, 40])
def test_run_schedule_equals_layer_composition_exactly(n):
    # one forward call per layer makes the same floating-point operations in
    # the same order as one call for the whole schedule; the Dicke-basis
    # single-step helpers agree to rounding
    gen = mixer(n)
    rand = np.random.default_rng(700 + n)
    for depth in (1, 3, 7):
        schedule = random_schedule(n, depth, rand)
        t, state = gen.plus, plus_state(n)
        for layer in schedule:
            t = gen.forward(t, [layer.gamma], [layer.beta])[0][-1]
            state = apply_mixer(apply_phase_separator(state, layer.gamma), layer.beta)
        amps = run_schedule(n, schedule).amps
        assert amps[0] == gen.row @ t
        assert np.array_equal(amps[1:], (gen.eigenvectors @ t)[1:])
        assert np.max(np.abs(amps - state.amps)) <= 1e-14


def test_layer_kernel_leaves_its_input_alone():
    gen = mixer(3)
    t = np.array([0.1, 0.2, 0.3j, np.sqrt(0.86)])
    states, heads = gen.forward(t, [0.7, 1.1], [0.3, 0.9])
    assert np.array_equal(t, [0.1, 0.2, 0.3j, np.sqrt(0.86)])
    assert not np.shares_memory(states, t)
    assert np.array_equal(states[0], t) and heads.shape == (3,)
    states, heads = gen.forward(t, [], [])
    assert np.array_equal(states, [t]) and np.array_equal(heads, [gen.row @ t])
    states, heads = gen.forward(gen.plus, [0.7, 1.1], [0.3, 0.9])
    assert heads[0] == plus_state(3).amps[0]
    assert heads[-1] == run_schedule(3, [(0.7, 0.3), (1.1, 0.9)]).amps[0]


# ---------------------------------------------------------- adjoint gradient

@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("n", [1, 2, 4, 12, 40])
def test_neg_overlap_matches_layer_kernel_and_central_differences(n, depth):
    # n = 1 has the two-point spectrum +-1
    gen = mixer(n)
    rand = np.random.default_rng(900 + 10 * n + depth)
    params = np.column_stack(
        [rand.uniform(0, 2 * np.pi, depth), rand.uniform(0, np.pi, depth)]
    ).ravel()
    value, grad = gen.neg_overlap(params)
    # the angles are drawn in their principal ranges, which run_schedule keeps
    assert value == -overlap(run_schedule(n, params.reshape(depth, 2)))
    h = 1e-6
    central = np.empty_like(params)
    for k in range(params.size):
        step = np.zeros_like(params)
        step[k] = h
        central[k] = (gen.neg_overlap(params + step)[0] - gen.neg_overlap(params - step)[0]) / (2 * h)
    assert grad.shape == params.shape
    assert np.max(np.abs(grad - central)) <= 1e-8


def test_empty_schedule_is_plus_state():
    assert np.allclose(run_schedule(3, []).amps, plus_state(3).amps)


def test_single_qubit_perfect_layer():
    # (cos(beta) e^{-i gamma} - i sin(beta)) / sqrt(2) has unit modulus at
    # gamma = pi/2, beta = pi/4
    s = run_schedule(1, [LayerAngles(np.pi / 2, np.pi / 4)])
    assert overlap(s) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_run_schedule_matches_dense(n):
    rand = np.random.default_rng(200 + n)
    schedule = random_schedule(n, n + 2, rand)
    got = overlap(run_schedule(n, schedule))
    ref = densecore.overlap_dense(densecore.run_schedule_dense(n, schedule))
    assert got == pytest.approx(ref, abs=1e-10)


# ------------------------------------------------------------------ overlap

def test_overlap_examples():
    assert overlap(plus_state(5)) == pytest.approx(2.0**-5)
    assert overlap(basis_state(4, 0)) == 1.0
    assert overlap(basis_state(4, 1)) == 0.0


# ------------------------------------------------- gamma-eliminated overlap

def test_gamma_elimination_at_beta_zero():
    s = random_symmetric_state(5, np.random.default_rng(5))
    g, gamma_star = gamma_eliminated_overlap(s, 0.0)
    assert g == pytest.approx(abs(s.amps[0]), abs=1e-14)
    assert gamma_star == 0.0


def test_gamma_elimination_two_component_family():
    # A_0|e_0> + A_2|e_2> gives (|A_0| - c2|A_2|) cos^n + c2|A_2| cos^{n-2}
    n, a2 = 4, 0.2
    a0 = math.sqrt(1 - a2**2)
    c2 = math.sqrt(math.comb(n, 2))
    assert a2 <= a0 / c2 * (1 + 1e-12) or True  # family bound not required here
    amps = np.zeros(n + 1, dtype=complex)
    amps[0], amps[2] = a0, a2
    s = SymmetricState(n, amps)
    betas = np.linspace(0, np.pi / 2, 31)
    expected = (a0 - c2 * a2) * np.cos(betas) ** n + c2 * a2 * np.cos(betas) ** (n - 2)
    assert np.allclose(gamma_eliminated_curve(s, betas), expected, atol=1e-12)


@pytest.mark.parametrize("trial", range(20))
def test_gamma_elimination_matches_grid_search(trial):
    rand = np.random.default_rng(300 + trial)
    n = int(rand.integers(2, 8))
    s = random_symmetric_state(n, rand)
    beta = float(rand.uniform(0, np.pi))
    g, _ = gamma_eliminated_overlap(s, beta)
    gammas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    after = apply_mixer(apply_phase_separator(s, 0.0), beta)  # gamma folded in below
    a_term = s.amps[0] * np.cos(beta) ** n
    b_term = after.amps[0] - a_term
    brute = np.max(np.abs(a_term * np.exp(-1j * gammas) + b_term))
    assert g == pytest.approx(brute, abs=1e-6)


def test_gamma_star_attains_maximum():
    rand = np.random.default_rng(6)
    for _ in range(50):
        n = int(rand.integers(2, 7))
        s = random_symmetric_state(n, rand)
        beta = float(rand.uniform(0, np.pi))
        g, gamma_star = gamma_eliminated_overlap(s, beta)
        achieved = abs(apply_mixer(apply_phase_separator(s, gamma_star), beta).amps[0])
        assert achieved == pytest.approx(g, abs=1e-12)


def test_gamma_elimination_dominates_random_gamma():
    rand = np.random.default_rng(7)
    s = random_symmetric_state(5, rand)
    beta = 0.7
    g, _ = gamma_eliminated_overlap(s, beta)
    for gamma in rand.uniform(0, 2 * np.pi, 1000):
        value = abs(apply_mixer(apply_phase_separator(s, gamma), beta).amps[0])
        assert value <= g + 1e-12


# --------------------------------------------------------------- recursion

def test_one_layer_amplitude_recursion():
    # composing the two unitaries and reading A_0 equals the direct
    # two-term expression with the gamma phase on the A_0 term
    rand = np.random.default_rng(8)
    for _ in range(25):
        n = int(rand.integers(2, 9))
        s = random_symmetric_state(n, rand)
        gamma, beta = rand.uniform(0, 2 * np.pi), rand.uniform(0, np.pi)
        composed = apply_mixer(apply_phase_separator(s, gamma), beta).amps[0]
        a_term, b_term = symcore.layer_terms(s).split(beta)
        direct = a_term[0] * np.exp(-1j * gamma) + b_term[0]
        assert composed == pytest.approx(direct, abs=1e-10)


# ------------------------------------------------------------ spectral form

@pytest.mark.parametrize("n", [1, 5, 40])
def test_fft_grid_matches_direct_curve(n):
    # m = 2, 3 fold the n + 1 frequencies modulo m once n + 1 > m
    rand = np.random.default_rng(40 + n)
    states = [plus_state(n), random_symmetric_state(n, rand), run_schedule(n, random_schedule(n, 3, rand))]
    for s in states:
        terms = symcore.layer_terms(s)
        for m in (2, 3, 64, 2048):
            betas = np.linspace(0, np.pi, m, endpoint=False)
            assert np.max(np.abs(terms.grid(m) - terms.curve(betas))) < 1e-13
        betas = rand.uniform(0, np.pi, 16)
        scalar = np.array([terms.value(b) for b in betas])
        assert np.max(np.abs(scalar - terms.curve(betas))) < 1e-14


def test_layer_terms_exact_at_beta_zero():
    s = random_symmetric_state(6, np.random.default_rng(12))
    terms = symcore.layer_terms(s)
    a_term, b_term = terms.split([0.0, 0.25])
    assert a_term[0] == s.amps[0] and b_term[0] == 0.0
    assert terms.value(0.0) == terms.grid(16)[0] == abs(s.amps[0])


# ------------------------------------------------------------- derivatives

def test_derivatives_on_target_state():
    s = basis_state(4, 0)
    g1, g2 = saturation_derivatives(s)
    assert g1 == 0.0
    assert g2 == pytest.approx(-4.0)


def test_derivative_slope_on_plus_state():
    g1, _ = saturation_derivatives(plus_state(2))
    assert g1 == pytest.approx(1.0, abs=1e-12)


def _fd_first(f, h):
    # second-order one-sided stencil at the left boundary of [0, pi)
    return (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)


def _fd_second(f, h):
    return (2 * f(0.0) - 5 * f(h) + 4 * f(2 * h) - f(3 * h)) / h**2


@pytest.mark.parametrize("trial", range(25))
def test_derivatives_match_finite_differences(trial):
    rand = np.random.default_rng(400 + trial)
    n = int(rand.integers(2, 9))
    s = random_symmetric_state(n, rand)
    while abs(s.amps[1]) < 0.05:  # keep the expansion scale well above h
        s = random_symmetric_state(n, rand)
    f = lambda b: float(gamma_eliminated_curve(s, b)[0])
    g1, g2 = saturation_derivatives(s)
    assert g1 == pytest.approx(_fd_first(f, 1e-5), rel=1e-4)
    assert g2 == pytest.approx(_fd_second(f, 1e-4), rel=1e-3, abs=1e-3)


def test_second_derivative_zero_a1_branch():
    n = 5
    amps = np.zeros(n + 1, dtype=complex)
    amps[0], amps[2], amps[4] = 0.8, 0.36 * np.exp(1j * 0.9), np.sqrt(1 - 0.64 - 0.36**2)
    s = SymmetricState(n, amps / np.linalg.norm(amps))
    f = lambda b: float(gamma_eliminated_curve(s, b)[0])
    _, g2 = saturation_derivatives(s)
    assert g2 == pytest.approx(_fd_second(f, 1e-4), rel=1e-3)


# --------------------------------------------------------------- invariants

def test_norm_preserved_along_random_circuits():
    rand = np.random.default_rng(9)
    for n in (2, 5, 9):
        state = plus_state(n)
        for layer in random_schedule(n, 6, rand):
            state = apply_mixer(apply_phase_separator(state, layer.gamma), layer.beta)
            assert abs(np.linalg.norm(state.amps) - 1) < 1e-10


def test_layer_angles_reduced_to_principal_ranges():
    a = LayerAngles(2 * np.pi + 0.5, np.pi + 0.25)
    assert a.gamma == pytest.approx(0.5)
    assert a.beta == pytest.approx(0.25)
    with pytest.raises(ValueError):
        LayerAngles(np.nan, 0.0)


def test_state_validation():
    with pytest.raises(ValueError):
        SymmetricState(3, np.array([1.0, 0, 0]))  # wrong length
    with pytest.raises(ValueError):
        SymmetricState(2, np.array([1.0, 1.0, 0]))  # not normalized


def test_state_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SymmetricState(2, np.array([bad, 1.0, 0.0]))


# ------------------------------------------------------- validity ceiling

ORACLE_ANGLES = [(0.4, 0.3), (1.3, 0.7), (2.5, 1.2)]


def _depth_one_relative_error(n):
    """Worst relative error of the depth-1 target amplitude over ORACLE_ANGLES,
    against the closed form 2^{-n/2} [e^{-i n beta} + (e^{-i gamma} - 1) cos^n beta]
    evaluated with 60 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(60):
        for gamma, beta in ORACLE_ANGLES:
            g, b = mpmath.mpf(gamma), mpmath.mpf(beta)
            exact = mpmath.power(2, -mpmath.mpf(n) / 2) * (
                mpmath.expj(-n * b) + (mpmath.expj(-g) - 1) * mpmath.cos(b) ** n
            )
            got = mpmath.mpc(run_schedule(n, [(gamma, beta)]).amps[0])
            worst = max(worst, float(abs(got - exact) / abs(exact)))
    return worst


def test_validity_ceiling_against_mpmath_oracle():
    # the amplitude is still accurate at the ceiling; past it float64's range
    # binds: 2^-n, the overlap of |+>^n, is no longer a normal float
    ceiling = symcore.MAX_SYMMETRIC_QUBITS
    assert _depth_one_relative_error(ceiling) <= 1e-6
    tiny = np.finfo(float).tiny
    assert overlap(plus_state(ceiling)) >= tiny > overlap(plus_state(ceiling + 1))


def _mp_target_amplitude(n, schedule):
    """A_0 of the eigenbasis recursion t -> exp(-i beta lambda) (t + (exp(-i gamma)
    - 1) (r . t) r) from t = e_n, with the exact row r_l = sqrt(C(n,l) / 2^n),
    evaluated with 40 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        row = [mpmath.sqrt(mpmath.mpf(math.comb(n, l)) / 2**n) for l in range(n + 1)]
        t = [mpmath.mpc(0)] * n + [mpmath.mpc(1)]
        for layer in schedule:
            kick = (mpmath.expj(-mpmath.mpf(layer.gamma)) - 1) * mpmath.fdot(row, t)
            t = [
                mpmath.expj(-mpmath.mpf(layer.beta) * (2 * l - n)) * (x + kick * r)
                for l, (x, r) in enumerate(zip(t, row))
            ]
        return mpmath.fdot(row, t)


@pytest.mark.parametrize("n", [40, 60, 80, 100])
def test_forward_matches_mpmath_recursion(n):
    # a greedy depth-n schedule and random depth-1 to depth-3 angles
    mpmath = pytest.importorskip("mpmath")
    rand = np.random.default_rng(1100 + n)
    schedules = [train_layerwise(n, n).schedule()]
    schedules += [random_schedule(n, depth, rand) for depth in (1, 2, 3) for _ in range(3)]
    for schedule in schedules:
        exact = _mp_target_amplitude(n, schedule)
        got = mpmath.mpc(run_schedule(n, schedule).amps[0])
        assert float(abs(got - exact) / abs(exact)) <= 1e-10
