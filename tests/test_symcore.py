import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from satlab import analysis, densecore, symcore
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
from satlab.training import train_layerwise, train_layerwise_noisy

rng = np.random.default_rng(20260810)


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

def _krawtchouk_eigenvectors(n):
    """V from the exact integer Krawtchouk values: V[k, l] = K_k(n - l)
    sqrt(C(n,l) / C(n,k)) / 2^{n/2}, with (k+1) K_{k+1}(x) = (n - 2x) K_k(x)
    - (n - k + 1) K_{k-1}(x) from K_0 = 1, K_1 = n - 2x."""
    v = np.empty((n + 1, n + 1))
    for l in range(n + 1):
        x = n - l
        values = [1, n - 2 * x]
        for k in range(1, n):
            values.append(((n - 2 * x) * values[k] - (n - k + 1) * values[k - 1]) // (k + 1))
        for k in range(n + 1):
            v[k, l] = float(values[k]) * math.sqrt(math.comb(n, l) / math.comb(n, k)) / 2 ** (n / 2)
    return v


def test_eigenvectors_match_sign_fixed_eigh_tridiagonal():
    # numpy's dense eigh gives the same V as LAPACK's tridiagonal solver to
    # rounding, and both give the exact columns, signs included, up to the
    # ceiling; the digests of the benchmark check that they agree bitwise
    for n in range(1, symcore.MAX_EIGENVECTOR_QUBITS + 1):
        gen = MixerGenerator(n)
        k = np.arange(n)
        off = np.sqrt((k + 1.0) * (n - k))
        _, expected = eigh_tridiagonal(np.zeros(n + 1), off)
        expected *= np.copysign(1.0, expected[0])
        v = gen.eigenvectors
        np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(v, _krawtchouk_eigenvectors(n), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(v.T @ v, np.eye(n + 1), rtol=0.0, atol=1e-13)
        generator = np.diag(off, 1) + np.diag(off, -1)
        np.testing.assert_allclose(generator @ v, v * gen.eigenvalues, rtol=0.0, atol=1e-13)


def test_eigenvectors_refused_past_their_ceiling():
    gen = MixerGenerator(symcore.MAX_EIGENVECTOR_QUBITS + 1)
    with pytest.raises(ValueError, match="verified up to"):
        gen.eigenvectors


@pytest.mark.parametrize("n", [True, False, 4.0, "4", None, 0, -3, 2.0, 2.5])
def test_mixer_rejects_a_bad_qubit_count(n):
    # True would pass as 1 and read plus[True] = 1.0 as a mask, so plus = [1, 1];
    # the states refuse the same counts, before math.comb or the amplitude count
    with pytest.raises(ValueError, match="qubit count"):
        MixerGenerator(n)
    with pytest.raises(ValueError, match="qubit count"):
        plus_state(n)
    with pytest.raises(ValueError, match="qubit count"):
        SymmetricState(n, np.array([1.0, 0.0, 0.0]))
    # the 2^n oracle takes the same check before its 1 << n
    with pytest.raises(ValueError, match="qubit count"):
        densecore.run_schedule_dense(n, [])
    with pytest.raises(ValueError, match="qubit count"):
        densecore.DenseState(n, np.array([1.0, 0.0]))
    assert MixerGenerator(np.int64(3)).n == 3
    assert plus_state(np.int64(3)).n == 3


def test_bra_coefs_are_cached_read_only_products_of_eigenvector_rows():
    for n in range(1, 61):
        gen = MixerGenerator(n)
        w = gen.bra_coefs
        assert gen.bra_coefs is w and w.dtype == float
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        v = gen.eigenvectors
        expected = v[0] * v / symcore.binomial_sqrt(n)[:, None]
        np.testing.assert_allclose(w, expected, rtol=0.0, atol=2e-15)
    # the Fourier sum gives the bra's amplitudes at any beta
    gen = mixer(40)
    k = np.arange(41)
    for beta in np.random.default_rng(11).uniform(0, np.pi, 5):
        direct = np.cos(beta) ** (40 - k) * (-1j * np.sin(beta)) ** k
        fourier = gen.bra_coefs @ np.exp(-1j * beta * gen.eigenvalues)
        np.testing.assert_allclose(fourier, direct, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 4, 40])
def test_run_schedule_equals_layer_composition_exactly(n, random_schedule):
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
        assert np.max(np.abs(amps - state.amps)) <= 1e-14


@pytest.mark.parametrize("n", [1, 4, 40])
def test_layer_carries_forward_heads_bitwise(n, random_schedule):
    # MixerGenerator.layer is forward's own update, so (t, head) carried one
    # layer at a time equals one forward call bitwise, and the carried head
    # that LayerTerms.from_eigen takes is r . t bitwise, also at gamma = 0,
    # beta = 0 and beta just below pi
    gen = mixer(n)
    rand = np.random.default_rng(750 + n)
    below_pi = np.nextafter(np.pi, 0.0)
    for _ in range(5):
        schedule = random_schedule(n, 7, rand)
        schedule += [
            LayerAngles(0.0, rand.uniform(0, np.pi)),
            LayerAngles(rand.uniform(0, 2 * np.pi), 0.0),
            LayerAngles(rand.uniform(0, 2 * np.pi), below_pi),
            LayerAngles(0.0, 0.0),
        ]
        rand.shuffle(schedule)
        states, heads = gen.forward(gen.plus, [a.gamma for a in schedule], [a.beta for a in schedule])
        t, head = gen.plus, gen.plus @ gen.row
        for layer, state, expected in zip(schedule, states[1:], heads[1:]):
            t, head = gen.layer(t, head, layer.gamma, layer.beta)
            assert np.array_equal(t, state) and head == expected and head == t @ gen.row


@pytest.mark.parametrize("n", [1, 4, 40])
def test_batched_factors_equal_per_layer_factors_bitwise(n):
    # forward takes its kicks and phases for all layers and starts at once,
    # layer one layer at a time: the same numbers either way
    gen = mixer(n)
    rand = np.random.default_rng(760 + n)
    gammas = np.array([0.0, *rand.uniform(0, 2 * np.pi, 17)])
    betas = np.array([0.0, np.nextafter(np.pi, 0.0), *rand.uniform(0, np.pi, 16)])
    for shape in ((18,), (6, 3)):  # p layers, then p layers of 3 starts
        kicks, phases = gen._factors(gammas.reshape(shape), betas.reshape(shape))
        rows = phases.reshape(-1, n + 1)
        for gamma, beta, kick, phase in zip(gammas.tolist(), betas.tolist(), kicks.ravel(), rows):
            one_kick, one_phase = gen._factors(gamma, beta)
            assert one_kick == kick and np.array_equal(one_phase, phase)


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


@pytest.mark.parametrize("starts", [1, 5, 33])
@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("n", [1, 2, 4, 12, 40])
def test_batched_neg_overlap_rows_match_their_own_calls(n, depth, starts):
    gen = mixer(n)
    rand = np.random.default_rng(1900 + 100 * n + 10 * depth + starts)
    params = np.stack(
        [rand.uniform(0, 2 * np.pi, (starts, depth)), rand.uniform(0, np.pi, (starts, depth))], axis=2
    ).reshape(starts, 2 * depth)
    values, grads = gen.neg_overlap(params)
    assert values.shape == (starts,) and grads.shape == (starts, 2 * depth)
    for row, value, grad in zip(params, values, grads):
        one_value, one_grad = gen.neg_overlap(row)
        # value and gradient are 2 Re(conj(A_0) x): the batched and the 1-D
        # sweep round A_0 differently by O(eps), which moves each by about
        # eps |x| = eps (|value| + |gradient|) / |A_0|
        scale = (abs(one_value) + np.max(np.abs(one_grad))) / np.sqrt(abs(one_value))
        assert abs(value - one_value) <= 1e-14 * scale
        assert np.max(np.abs(grad - one_grad)) <= 1e-14 * scale
    # central differences of the batched values, every row at once
    h = 1e-6
    for k in range(2 * depth):
        step = np.zeros(2 * depth)
        step[k] = h
        central = (gen.neg_overlap(params + step)[0] - gen.neg_overlap(params - step)[0]) / (2 * h)
        assert np.max(np.abs(grads[:, k] - central)) <= 1e-8


def test_batched_neg_overlap_keeps_leading_axes():
    gen = mixer(3)
    params = np.random.default_rng(7).uniform(0, np.pi, (2, 3, 4))
    values, grads = gen.neg_overlap(params)
    assert values.shape == (2, 3) and grads.shape == (2, 3, 4)
    flat_values, flat_grads = gen.neg_overlap(params.reshape(6, 4))
    np.testing.assert_allclose(values.ravel(), flat_values, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(grads.reshape(6, 4), flat_grads, rtol=1e-14, atol=1e-15)


def test_empty_schedule_is_plus_state():
    gammas, betas = symcore.schedule_angles([])
    assert gammas.shape == betas.shape == (0,)
    for n in (3, 110, 1022):
        assert np.array_equal(run_schedule(n, []).amps, plus_state(n).amps)
    for n in (1, 4):
        assert np.array_equal(densecore.run_schedule_dense(n, []).amps, densecore.plus_state_dense(n))


def test_single_qubit_perfect_layer():
    # (cos(beta) e^{-i gamma} - i sin(beta)) / sqrt(2) has unit modulus at
    # gamma = pi/2, beta = pi/4
    s = run_schedule(1, [LayerAngles(np.pi / 2, np.pi / 4)])
    assert overlap(s) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_run_schedule_matches_dense(n, random_schedule):
    rand = np.random.default_rng(200 + n)
    schedule = random_schedule(n, n + 2, rand)
    got = overlap(run_schedule(n, schedule))
    ref = densecore.overlap_dense(densecore.run_schedule_dense(n, schedule))
    assert got == pytest.approx(ref, abs=1e-10)


# ------------------------------------------------------------------ overlap

def test_overlap_examples(basis_state):
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

# grid sizes above every n + 1 below, as LayerTerms.grid requires; symcore.dft
# takes its DFT table up to 32 coefficients and the FFT past them
GRID_SIZES = (64, 1000, 2048, 4096)


@pytest.mark.parametrize("n", [1, 5, 31, 32, 40])
def test_fft_grid_matches_direct_curve(n, random_schedule):
    rand = np.random.default_rng(40 + n)
    states = [plus_state(n), random_symmetric_state(n, rand), run_schedule(n, random_schedule(n, 3, rand))]
    for s in states:
        terms = symcore.layer_terms(s)
        for m in GRID_SIZES:
            betas = np.linspace(0, np.pi, m, endpoint=False)
            assert np.max(np.abs(terms.grid(m) - terms.curve(betas))) < 1e-13
        # a grid of n points or fewer cannot hold the n + 1 frequencies, and
        # is refused rather than cut
        with pytest.raises(ValueError, match="at most size"):
            terms.grid(n)
        betas = rand.uniform(0, np.pi, 16)
        scalar = np.array([terms.value(b) for b in betas])
        assert np.max(np.abs(scalar - terms.curve(betas))) < 1e-14


@pytest.mark.parametrize("n", [1, 4, 9, 30, 31, 32])
def test_fft_grid_matches_direct_curve_at_every_a_weight(n):
    # grid adds |a| times the mixer's cached table to the DFT of b
    rand = np.random.default_rng(80 + n)
    sums = rand.normal(size=n + 1) + 1j * rand.normal(size=n + 1)
    sums /= np.linalg.norm(sums)
    gen = mixer(n)
    for weight in range(n + 1):
        terms = symcore.LayerTerms(0.6 * np.exp(1j * weight), weight, sums @ gen.bra_coefs, sums[0])
        for m in GRID_SIZES:
            betas = np.linspace(0, np.pi, m, endpoint=False)
            assert np.max(np.abs(terms.grid(m) - terms.curve(betas))) < 1e-13
        table = gen.bra_moduli(2048, weight)
        assert gen.bra_moduli(2048, weight) is table and not table.flags.writeable
    for m in GRID_SIZES:
        table = symcore._dft_table(m, False)
        assert symcore._dft_table(m, False) is table and not table.flags.writeable
    assert symcore._dft_table(2048, False).shape == (32, 2048)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("count, size", [(31, 31), (32, 32), (33, 33), (31, 2048), (32, 2048), (33, 2048),
                                         (17, 4096)])
def test_dft_matches_numpy_fft(count, size, inverse):
    # one product with the cached table of min(32, size) rows takes up to 32
    # coefficients, and one FFT more; a 2-D input transforms each row
    rand = np.random.default_rng(count * size)
    coefs = rand.normal(size=(3, count)) + 1j * rand.normal(size=(3, count))
    assert symcore._dft_table(size, inverse).shape[0] == min(32, size)
    expected = np.fft.ifft(coefs, size) if inverse else np.fft.fft(coefs, size)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(symcore.dft(coefs, size, inverse) - expected)) < 1e-14 * scale
    for row, want in zip(coefs, expected):
        assert np.max(np.abs(symcore.dft(row, size, inverse) - want)) < 1e-14 * scale


@pytest.mark.parametrize("n", [31, 40])
def test_dft_builds_only_the_tables_it_reads(n):
    # past DFT_TABLE_ROWS coefficients dft takes the FFT before any lookup:
    # at n = 31 the noisy terms and bra_coefs share one inverse table and the
    # grid reads another, and at n = 40 none is built
    symcore._dft_table.cache_clear()
    train_layerwise_noisy(n, 2, densecore.NoiseConfig(0.1), rng=np.random.default_rng(0))
    MixerGenerator(n).bra_coefs
    assert symcore._dft_table.cache_info().currsize == (2 if n < 32 else 0)


def test_mixer_roots_are_the_qubit_bra_at_the_roots_of_unity():
    for n in (1, 4, 31, 40):
        roots = mixer(n).roots
        assert mixer(n).roots is roots and not roots.flags.writeable
        betas = np.pi * np.arange(n + 1) / (n + 1)
        bra = np.array((np.cos(betas), -1j * np.sin(betas))) * np.exp(-1j * betas)
        np.testing.assert_allclose(roots, bra, rtol=0.0, atol=1e-15)


def test_layer_terms_exact_at_beta_zero():
    s = random_symmetric_state(6, np.random.default_rng(12))
    terms = symcore.layer_terms(s)
    a_term, b_term = terms.split([0.0, 0.25])
    assert a_term[0] == s.amps[0] and b_term[0] == 0.0
    assert terms.value(0.0) == terms.grid(16)[0] == abs(s.amps[0])


def _random_terms(n, rand):
    a, b_zero = rand.normal(size=2) + 1j * rand.normal(size=2)
    b = rand.normal(size=n + 1) + 1j * rand.normal(size=n + 1)
    return symcore.LayerTerms(a, int(rand.integers(n + 1)), b * (b_zero / b.sum()), b_zero)


def test_value_is_best_gammas_curve_value_bitwise():
    rand = np.random.default_rng(61)
    for n in (1, 4, 9, 30):
        terms = _random_terms(n, rand)
        for beta in [0.0, *rand.uniform(0, np.pi, 20)]:
            assert terms.value(beta) == terms.best_gamma(beta)[0]


def test_at_matches_split():
    rand = np.random.default_rng(62)
    terms = _random_terms(7, rand)
    betas = [0.0, *rand.uniform(0, np.pi, 10)]
    a_terms, b_terms = terms.split(betas)
    for beta, a_term, b_term in zip(betas, a_terms, b_terms):
        a, b = terms.at(beta)
        assert a == pytest.approx(a_term, abs=1e-14) and b == pytest.approx(b_term, abs=1e-14)
    assert terms.at(0.0) == terms.at_zero


class PairTerms(symcore.LayerTerms):
    """Terms whose (A, B) at a "beta" is that pair itself."""

    def at(self, pair):
        return pair


def test_best_gamma_is_the_phase_difference_bitwise():
    # best_gamma takes both phases by one arctan2 call; it must give
    # np.angle(A) - np.angle(B) reduced to [0, 2 pi) bitwise, over every
    # quadrant, the axes and moduli from 1e-300 to 1e5, with the two moduli
    # within 1e6 of each other, so that no pair ties
    rand = np.random.default_rng(64)
    size = 100_000
    log_a = rand.uniform(-300, 5, size)
    log_b = np.clip(log_a + rand.uniform(-6, 6, size), -300, 5)
    a = 10.0**log_a * np.exp(1j * rand.uniform(-np.pi, np.pi, size))
    b = 10.0**log_b * np.exp(1j * rand.uniform(-np.pi, np.pi, size))
    axes = [(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, -1.0)]
    scaled = [[complex(s * x, s * y) for x, y in axes] for s in (1e-300, 1.0, 3e4)]
    pairs = [*zip(a.tolist(), b.tolist()), *((x, y) for row in scaled for x in row for y in row)]
    terms = PairTerms(0.0, 0, np.zeros(2), 0.0)
    for x, y in pairs:
        g, gamma = terms.best_gamma((x, y))
        assert g == float(abs(x) + abs(y))
        assert gamma == float((np.angle(x) - np.angle(y)) % (2 * np.pi))


@pytest.mark.parametrize("theta", [0.0, 1.0, 2.5, 4.0, 5.5])
def test_rounding_sized_term_takes_gamma_zero(theta):
    # A vanishes but for a rounding-size a, so every gamma ties and the tie
    # rule gives gamma = 0, whatever the phase of the rounding
    rand = np.random.default_rng(63)
    n = 4
    sums = rand.normal(size=n + 1) + 1j * rand.normal(size=n + 1)
    sums /= np.linalg.norm(sums)
    terms = symcore.LayerTerms(0.0, 2, sums @ mixer(n).bra_coefs, sums[0])
    noisy = symcore.LayerTerms(1e-17 * np.exp(1j * theta), 2, terms.b, terms.b_zero)
    for beta in rand.uniform(0.1, np.pi - 0.1, 10):
        g, gamma = noisy.best_gamma(beta)
        assert gamma == 0.0 and g == pytest.approx(terms.value(beta), abs=1e-15)
    # a term above the tolerance is still aligned
    aligned = symcore.LayerTerms(1e-3 * np.exp(1j * theta), 2, terms.b, terms.b_zero)
    beta = 0.7
    g, gamma = aligned.best_gamma(beta)
    a, b = aligned.at(beta)
    assert abs(a * np.exp(-1j * gamma) + b) == pytest.approx(g, rel=1e-13)


# ------------------------------------------------------------- derivatives

def test_derivatives_on_target_state(basis_state):
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


def test_binomials_past_float64_range():
    # C(1030, 515) overflows float64: each call raised OverflowError, though
    # the last two need only sqrt(C(n, 2))
    limit = symcore.MAX_BINOMIAL_QUBITS
    assert plus_state(limit).n == limit
    with pytest.raises(ValueError, match=f"MAX_BINOMIAL_QUBITS = {limit}, got n = {limit + 1}"):
        plus_state(limit + 1)
    family = analysis.make_nontrainable_state(limit + 1, 1.0, 0.0)
    assert analysis.check_conditions(family).condition2_pass
    s = random_symmetric_state(1300, np.random.default_rng(34))
    g1, g2 = saturation_derivatives(s)
    assert g1 == math.sqrt(1300) * abs(s.amps[1]) and math.isfinite(g2)
    # at the limit sqrt(C(n, 2)) is the binomial table's entry, bitwise
    amps = np.zeros(limit + 1, dtype=complex)
    amps[0], amps[2] = 0.6, 0.8
    _, g2 = saturation_derivatives(SymmetricState(limit, amps))
    assert g2 == -limit * 0.6 + 2.0 * symcore.binomial_sqrt(limit)[2] * 0.8


@pytest.mark.parametrize("n", [1, 2, 4, 12, 40])
def test_layer_terms_derivatives_match_central_differences(n, random_product_sum):
    # noiseless terms along a random circuit and, up to n = 12, noisy terms
    # of each noise layout on a random product sum; the curve's scale is n g
    # per derivative.  At n = 40 a random sum's curve dips to 1e-3 of its
    # Fourier coefficients, and the second difference at h = 2.5e-6 no
    # longer resolves the curvature from rounding
    rand = np.random.default_rng(70 + n)
    gen = mixer(n)
    states, heads = gen.forward(gen.plus, rand.uniform(0, 2 * np.pi, 3), rand.uniform(0, np.pi, 3))
    all_terms = [symcore.LayerTerms.from_eigen(t, head) for t, head in zip(states, heads)]
    if n <= 12:
        for noise in (
            densecore.NoiseConfig(0.5),
            densecore.NoiseConfig(0.5, granularity="single_qubit"),
            densecore.NoiseConfig(0.5, kind="bitflip"),
        ):
            state, _ = random_product_sum(n, rand, dense=False)
            all_terms.append(state.layer(densecore.sample_layer_noise(n, noise, rand)).terms())
    h = 1e-4 / n
    for terms in all_terms:
        f = terms.value
        for beta in rand.uniform(0.05, np.pi - 0.05, 8):
            g, slope, curvature, _ = terms.jet(beta)
            assert g == pytest.approx(f(beta), rel=1e-14)
            assert abs(slope - (f(beta + h) - f(beta - h)) / (2 * h)) <= 1e-5 * n * g
            assert abs(curvature - (f(beta + h) - 2 * f(beta) + f(beta - h)) / h**2) <= 1e-4 * n * n * g


@pytest.mark.parametrize("trial", range(25))
def test_layer_terms_derivatives_approach_saturation_derivatives(trial):
    # g'(0+) = sqrt(n) |A_1| and g''(0+) from the small-beta expansion; at
    # beta the derivatives are off by O(beta), and the last trial takes the
    # A_1 = 0 branch
    rand = np.random.default_rng(400 + trial)
    n = int(rand.integers(2, 9))
    s = random_symmetric_state(n, rand)
    if trial == 24:
        n = 5
        amps = np.zeros(n + 1, dtype=complex)
        amps[0], amps[2], amps[4] = 0.8, 0.36 * np.exp(1j * 0.9), np.sqrt(1 - 0.64 - 0.36**2)
        s = SymmetricState(n, amps)
    g1, g2 = saturation_derivatives(s)
    _, slope, curvature, _ = symcore.layer_terms(s).jet(1e-7)
    assert abs(slope - g1) <= 1e-6 * n
    assert abs(curvature - g2) <= 1e-6 * n * n


# --------------------------------------------------------------- invariants

def test_norm_preserved_along_random_circuits(random_schedule):
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
    # % rounds a tiny negative angle up to its period, the same angle as 0
    tiny = LayerAngles(-1e-20, -1e-20)
    assert (tiny.gamma, tiny.beta) == (0.0, 0.0)
    with pytest.raises(ValueError):
        LayerAngles(np.nan, 0.0)


@pytest.mark.parametrize("bad", ["x", None, 0.5j, True, False, np.bool_(True)])
def test_layer_angles_take_only_real_numbers(bad):
    # a string fails only inside math.isfinite, and a flag would run as the
    # angle 1.0 or 0.0; both are refused by type, like a complex angle
    with pytest.raises(ValueError, match="gamma must be a real number"):
        LayerAngles(bad, 0.5)
    with pytest.raises(ValueError, match="beta must be a real number"):
        LayerAngles(0.5, bad)
    # a schedule of pairs is refused by the same check, before any compute
    with pytest.raises(ValueError, match="must be a real number"):
        run_schedule(3, [(0.1, 0.2), (bad, 0.1)])
    assert LayerAngles(np.float32(0.5), np.int64(1)) == LayerAngles(0.5, 1.0)


def test_real_number_check_refuses_an_int_no_float_can_hold():
    # each of these raised OverflowError, and the noise config was accepted
    # only to overflow in its first noise draw
    huge = 10**400
    cases = [
        ("gamma", lambda: LayerAngles(huge, 0)),
        ("gamma", lambda: run_schedule(3, [(huge, 0.0)])),
        ("a0", lambda: analysis.make_nontrainable_state(4, huge, 0.0)),
        ("phase_stddev", lambda: densecore.NoiseConfig(0.1, phase_stddev=huge)),
    ]
    for name, make in cases:
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            make()


def test_noisy_dense_replay_refuses_a_bad_layer_before_drawing():
    # the whole schedule is read before the first layer's noise is drawn
    rand, noise = np.random.default_rng(32), densecore.NoiseConfig(0.5)
    state = rand.bit_generator.state
    for bad in ("bad", True):
        with pytest.raises(ValueError, match="gamma must be a real number"):
            densecore.run_schedule_dense(3, [(0.1, 0.2), (0.3, 0.4), (bad, 0.1)], noise, rand)
    with pytest.raises(ValueError):
        densecore.run_schedule_dense(3, [(0.1, 0.2), (0.3, 0.4, 0.5)], noise, rand)
    assert rand.bit_generator.state == state


def test_schedule_forms_give_identical_states(random_schedule):
    rand = np.random.default_rng(33)
    n = 5
    layers = random_schedule(n, 4, rand)
    pairs = [(a.gamma, a.beta) for a in layers]
    forms = {"angles": layers, "pairs": pairs, "array": np.array(pairs)}
    gammas, betas = symcore.schedule_angles(layers)
    assert gammas.shape == betas.shape == (4,)
    noise = densecore.NoiseConfig(0.5, granularity="single_qubit")
    ref = run_schedule(n, layers).amps
    dense = densecore.run_schedule_dense(n, layers).amps
    noisy = densecore.run_schedule_dense(n, layers, noise, np.random.default_rng(34)).amps
    for name, schedule in forms.items():
        got_gammas, got_betas = symcore.schedule_angles(schedule)
        assert np.array_equal(got_gammas, gammas) and np.array_equal(got_betas, betas), name
        assert np.array_equal(run_schedule(n, schedule).amps, ref), name
        assert np.array_equal(densecore.run_schedule_dense(n, schedule).amps, dense), name
        again = densecore.run_schedule_dense(n, schedule, noise, np.random.default_rng(34)).amps
        assert np.array_equal(again, noisy), name


@pytest.mark.parametrize("layer", [(0.1, 0.2, 0.3), (0.1,), ()])
def test_schedule_angles_refuses_a_layer_that_is_not_a_pair(layer):
    with pytest.raises(ValueError):
        symcore.schedule_angles([(0.1, 0.2), layer])
    with pytest.raises(ValueError):
        run_schedule(3, [layer])
    with pytest.raises(ValueError):
        densecore.run_schedule_dense(3, [layer])


def test_schedule_angles_reduces_as_layer_angles_does():
    pairs = [(2 * np.pi + 0.5, np.pi + 0.25), (-1e-20, -1e-20), (-3.0, 7.0), (40.0, -np.pi),
             (2 * np.pi, np.pi)]
    gammas, betas = symcore.schedule_angles(pairs)
    reduced = [LayerAngles(gamma, beta) for gamma, beta in pairs]
    assert gammas.tolist() == [a.gamma for a in reduced]
    assert betas.tolist() == [a.beta for a in reduced]
    assert np.all((0.0 <= gammas) & (gammas < 2 * np.pi)) and np.all((0.0 <= betas) & (betas < np.pi))
    assert np.array_equal(run_schedule(4, pairs).amps, run_schedule(4, reduced).amps)
    dense = densecore.run_schedule_dense
    assert np.array_equal(dense(4, pairs).amps, dense(4, reduced).amps)


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


def _mp_target_amplitudes(n, schedule):
    """A_0 after each layer, from none to all, of the eigenbasis recursion
    t -> exp(-i beta lambda) (t + (exp(-i gamma) - 1) (r . t) r) from t = e_n,
    with the exact row r_l = sqrt(C(n,l) / 2^n), evaluated with 40
    significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        row = [mpmath.sqrt(mpmath.mpf(math.comb(n, l)) / 2**n) for l in range(n + 1)]
        t = [mpmath.mpc(0)] * n + [mpmath.mpc(1)]
        heads = [mpmath.fdot(row, t)]
        for layer in schedule:
            kick = (mpmath.expj(-mpmath.mpf(layer.gamma)) - 1) * heads[-1]
            # exp(-i beta lambda_l) by running products from lambda_0 = -n
            phase, step = mpmath.expj(n * mpmath.mpf(layer.beta)), mpmath.expj(-2 * mpmath.mpf(layer.beta))
            for l, r in enumerate(row):
                t[l] = phase * (t[l] + kick * r)
                phase *= step
            heads.append(mpmath.fdot(row, t))
        return heads


@pytest.mark.parametrize("n", [40, 60, 80, 100])
def test_forward_matches_mpmath_recursion(n, random_schedule):
    # a greedy depth-n schedule and random depth-1 to depth-3 angles
    mpmath = pytest.importorskip("mpmath")
    rand = np.random.default_rng(1100 + n)
    schedules = [train_layerwise(n, n).schedule()]
    schedules += [random_schedule(n, depth, rand) for depth in (1, 2, 3) for _ in range(3)]
    for schedule in schedules:
        exact = _mp_target_amplitudes(n, schedule)[-1]
        got = mpmath.mpc(run_schedule(n, schedule).amps[0])
        assert float(abs(got - exact) / abs(exact)) <= 1e-10


def _mp_dicke_amplitudes(n, schedule):
    """A_k = sqrt(C(n,k)) [exp(-i n B_1) 2^{-n/2} + sum_j (exp(-i gamma_j) - 1)
    h_{j-1} cos^{n-k}(B_j) (-i sin(B_j))^k] with B_j = beta_j + ... + beta_p
    and the heads h of _mp_target_amplitudes, with 40 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    heads = _mp_target_amplitudes(n, schedule)
    with mpmath.workdps(40):
        betas = [mpmath.mpf(layer.beta) for layer in schedule]
        tails = [mpmath.fsum(betas[j:]) for j in range(len(betas))]
        kicks = [(mpmath.expj(-mpmath.mpf(layer.gamma)) - 1) * h for layer, h in zip(schedule, heads)]
        plus = mpmath.expj(-n * mpmath.fsum(betas)) * mpmath.power(2, -mpmath.mpf(n) / 2)
        # each kicked term's powers, k = 0..n, by running products
        terms = []
        for kick, b in zip(kicks, tails):
            cos, sin = mpmath.cos(b), -1j * mpmath.sin(b)
            cos_powers, sin_powers = [kick], [mpmath.mpf(1)]
            for _ in range(n):
                cos_powers.append(cos_powers[-1] * cos)
                sin_powers.append(sin_powers[-1] * sin)
            terms.append([cos_powers[n - k] * sin_powers[k] for k in range(n + 1)])
        return [
            mpmath.sqrt(math.comb(n, k)) * (plus + mpmath.fsum(term[k] for term in terms))
            for k in range(n + 1)
        ]


@pytest.mark.parametrize("n", [110, 200, 1022])
def test_run_schedule_amplitudes_match_mpmath_kick_sum(n, random_schedule):
    # short random schedules everywhere, and a greedy depth-n one where the
    # eigenvector path gave the wrong signs (n = 110, 200); on it A_1 and A_2,
    # which the non-trainability conditions read, also keep relative accuracy
    # (the eigenvector path gave them as rounding noise of about 1e-17)
    rand = np.random.default_rng(1300 + n)
    schedules = [random_schedule(n, depth, rand) for depth in (1, 2, 3)]
    if n <= 200:
        schedules.append(train_layerwise(n, n).schedule())
    for schedule in schedules:
        exact = np.array([complex(a) for a in _mp_dicke_amplitudes(n, schedule)])
        amps = run_schedule(n, schedule).amps
        assert np.max(np.abs(amps - exact)) <= 1e-12
    if n <= 200:
        assert abs(amps[1] - exact[1]) <= 1e-6 * abs(exact[1])
        assert abs(amps[2] - exact[2]) <= 1e-11 * abs(exact[2])
