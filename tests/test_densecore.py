import tracemalloc

import numpy as np
import pytest

from satlab import densecore, symcore
from satlab.densecore import (
    DenseState,
    NoiseConfig,
    ProductSum,
    ResourceCapError,
    apply_layer_dense,
    apply_noise_events,
    apply_x_rotation,
    hamming_weights,
    lift,
    overlap_dense,
    plus_state_dense,
    project_symmetric,
    run_schedule_dense,
    sample_layer_noise,
    sample_noise_slot,
)
from satlab.symcore import plus_state, random_symmetric_state, run_schedule


# --------------------------------------------------------------------- lift

def test_lift_target_state(basis_state):
    d = lift(basis_state(3, 0))
    assert d.amps[0] == 1.0
    assert np.all(d.amps[1:] == 0.0)


def test_lift_plus_two_qubits():
    assert np.allclose(lift(plus_state(2)).amps, [0.5, 0.5, 0.5, 0.5])


def test_lift_single_excitation(basis_state):
    d = lift(basis_state(3, 1))
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2, 4]] = 1 / np.sqrt(3)
    assert np.allclose(d.amps, expected)


# ------------------------------------------------------------------ project

def test_project_round_trip():
    rand = np.random.default_rng(0)
    for n in (2, 4, 7):
        s = random_symmetric_state(n, rand)
        back, residual = project_symmetric(lift(s))
        assert residual < 1e-12
        assert np.allclose(back.amps, s.amps, atol=1e-12)


def test_project_antisymmetric_component():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0  # |01>: average of |01> and |10> keeps half the weight
    sym, residual = project_symmetric(DenseState(2, amps))
    assert abs(sym.amps[1]) == pytest.approx(1.0, abs=1e-12)
    assert residual == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_project_rejects_fully_asymmetric():
    amps = np.zeros(4, dtype=complex)
    amps[[1, 2]] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
    with pytest.raises(ValueError):
        project_symmetric(DenseState(2, amps))


def test_noisy_run_leaves_symmetric_subspace(random_schedule):
    noise = NoiseConfig(p_noise=0.5)
    rand = np.random.default_rng(3)
    schedule = random_schedule(4, 4, np.random.default_rng(5))
    out = run_schedule_dense(4, schedule, noise, rand)
    _, residual = project_symmetric(out)
    assert residual > 0.0


# ------------------------------------------------------------ run schedule

@pytest.mark.parametrize("n", [1, 3, 5])
def test_noiseless_run_matches_lifted_symcore(n, random_schedule):
    schedule = random_schedule(n, n + 1, np.random.default_rng(10 + n))
    dense = run_schedule_dense(n, schedule)
    ref = lift(run_schedule(n, schedule))
    assert np.max(np.abs(dense.amps - ref.amps)) < 1e-10


def test_full_probability_zero_variance_noise_is_identity(random_schedule):
    schedule = random_schedule(3, 3, np.random.default_rng(11))
    noise = NoiseConfig(p_noise=1.0, phase_stddev=0.0)
    out = run_schedule_dense(3, schedule, noise, np.random.default_rng(1))
    ref = run_schedule_dense(3, schedule)
    assert np.allclose(out.amps, ref.amps, atol=1e-12)


def test_noiseless_symmetry_preservation(random_schedule):
    schedule = random_schedule(5, 6, np.random.default_rng(12))
    _, residual = project_symmetric(run_schedule_dense(5, schedule))
    assert residual < 1e-10


def test_noisy_run_stays_normalized(random_schedule):
    noise = NoiseConfig(p_noise=0.7)
    schedule = random_schedule(4, 5, np.random.default_rng(13))
    out = run_schedule_dense(4, schedule, noise, np.random.default_rng(2))
    assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-10)


def test_single_qubit_granularity_runs_and_differs(random_schedule):
    schedule = random_schedule(3, 3, np.random.default_rng(14))
    coarse = NoiseConfig(p_noise=0.8, granularity="layer")
    fine = NoiseConfig(p_noise=0.8, granularity="single_qubit")
    out_coarse = run_schedule_dense(3, schedule, coarse, np.random.default_rng(4))
    out_fine = run_schedule_dense(3, schedule, fine, np.random.default_rng(4))
    assert not np.allclose(out_coarse.amps, out_fine.amps)


def gate_by_gate_layer(psi, n, gamma, beta, slots):
    """Reference layer: rephase, slot 0, then each X_q followed by slot q + 1."""
    out = psi.copy()
    out[0] *= np.exp(-1j * gamma)
    out = apply_noise_events(out, n, *slots[0])
    for q in range(n):
        out = apply_noise_events(apply_x_rotation(out, beta, q, n), n, *slots[q + 1])
    return out


@pytest.mark.parametrize("kind", ["phase", "bitflip"])
def test_noise_slot_layout(kind):
    # sample_layer_noise draws from the same stream positions as one
    # sample_noise_slot call per drawn slot (0 and n at layer granularity, all
    # n + 1 at single_qubit) and leaves the generator in the same state.  Its
    # per-qubit fold applies as the gate-by-gate layer does: bitwise, except
    # that single_qubit phase kicks on one qubit are summed before they are
    # exponentiated.  At layer granularity the fold is the two slots' arrays
    rand = np.random.default_rng(21)
    for granularity in ("layer", "single_qubit"):
        noise = NoiseConfig(0.6, granularity=granularity, kind=kind)
        events = 0
        for n in range(1, 9):
            empty = (np.zeros(n), np.zeros(n, dtype=bool))
            for _ in range(30):
                seed = int(rand.integers(2**32))
                rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                frozen = sample_layer_noise(n, noise, rng)
                if granularity == "layer":
                    first, last = sample_noise_slot(n, noise, twin), sample_noise_slot(n, noise, twin)
                    slots = [first, *[empty] * (n - 1), last]
                    assert np.array_equal(frozen.pre, first[0]) and np.array_equal(frozen.post, last[0])
                else:
                    slots = [sample_noise_slot(n, noise, twin) for _ in range(n + 1)]
                assert rng.random() == twin.random()
                assert np.array_equal(frozen.flips, np.logical_xor.reduce([flips for _, flips in slots]))
                if kind == "bitflip":
                    assert not frozen.pre.any() and not frozen.post.any()
                else:
                    assert not frozen.flips.any()
                events += np.count_nonzero(frozen.pre) + np.count_nonzero(frozen.post) + np.count_nonzero(frozen.flips)

                psi = rand.normal(size=1 << n) + 1j * rand.normal(size=1 << n)
                psi /= np.linalg.norm(psi)
                gamma, beta = rand.uniform(0, 2 * np.pi), rand.uniform(0, np.pi)
                got = apply_layer_dense(psi, n, gamma, beta, frozen)
                want = gate_by_gate_layer(psi, n, gamma, beta, slots)
                if granularity == "layer" or kind == "bitflip":
                    assert np.array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-15
        assert events > 0


def test_determinism_bit_identical(random_schedule):
    schedule = random_schedule(4, 4, np.random.default_rng(15))
    noise = NoiseConfig(p_noise=0.4)
    a = run_schedule_dense(4, schedule, noise, np.random.default_rng(9))
    b = run_schedule_dense(4, schedule, noise, np.random.default_rng(9))
    assert np.array_equal(a.amps, b.amps)


# -------------------------------------------------------------------- noise

def test_phase_kick_overlap_identity():
    # |<+|S(phi)|+>|^2 = cos^2(phi/2), checked through the simulator itself
    plus = plus_state_dense(1)
    for phi in (0.3, -1.2, 2.5):
        out = apply_noise_events(plus, 1, np.array([phi]))
        assert abs(np.vdot(plus, out)) ** 2 == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)


def test_phase_kick_mean_overlap_on_plus():
    # |<+|S(phi)|+>|^2 = cos^2(phi/2); over phi ~ N(0, sigma^2) the mean is
    # about 1 - sigma^2/4 for small sigma
    rand = np.random.default_rng(16)
    sigma = 0.1
    phis = rand.normal(0, sigma, 200_000)
    mean = np.mean(np.cos(phis / 2) ** 2)
    # per-sample std is about sqrt(2) sigma^2 / 4, so the sampling error of the
    # mean is near 8e-6; allow that plus the sigma^4/16 truncation bias
    assert mean == pytest.approx(1 - sigma**2 / 4, abs=5e-5)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3])
def test_small_angle_amplitude_expansion(sigma):
    # mean of |<psi|S(phi)|psi>| stays within sigma^2 of 1 in the small-angle
    # regime, for a fixed state with excited population p1
    rand = np.random.default_rng(17)
    p1 = 0.37
    psi = np.zeros(2, dtype=complex)
    psi[0], psi[1] = np.sqrt(1 - p1), np.sqrt(p1)
    phis = rand.normal(0, sigma, 200_000)
    # spot check that the simulator realizes the analytic kick amplitude
    for phi in phis[:50]:
        kicked = apply_noise_events(psi, 1, np.array([phi]))
        analytic = (1 - p1) + p1 * np.exp(1j * phi)
        assert np.vdot(psi, kicked) == pytest.approx(analytic, abs=1e-12)
    amp = np.abs((1 - p1) + p1 * np.exp(1j * phis))
    assert abs(1 - np.mean(amp)) <= sigma**2


def test_amplitude_loss_scales_with_population_product():
    # the quadratic infidelity coefficient tracks p1 (1 - p1)
    rand = np.random.default_rng(23)
    sigma = 0.2
    phis = rand.normal(0, sigma, 400_000)
    losses = {}
    for p1 in (0.2, 0.5):
        amp = np.abs((1 - p1) + p1 * np.exp(1j * phis))
        losses[p1] = 1 - np.mean(amp)
    expected_ratio = (0.2 * 0.8) / (0.5 * 0.5)
    assert losses[0.2] / losses[0.5] == pytest.approx(expected_ratio, rel=0.1)


def test_phase_events_leave_target_amplitude():
    # S(phi) is diagonal with 1 on every bit-0 entry, so amp(0) never moves
    amps = plus_state_dense(3)
    out = apply_noise_events(amps, 3, np.array([0.3, 0.0, -1.1]))
    assert out[0] == amps[0]
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_phase_events_match_basis_state_formula():
    # amp(x) picks up exp(i phi_q) for every hit qubit q set in x; the kicks
    # act in place on strided views, so allow a few ulps of rounding
    rand = np.random.default_rng(29)
    for n in (1, 3, 6):
        amps = rand.normal(size=1 << n) + 1j * rand.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        qubits = np.flatnonzero(rand.random(n) < 0.6)
        phis = rand.normal(size=qubits.size)
        idx = np.arange(1 << n)
        phase = sum(phi * ((idx >> q) & 1) for q, phi in zip(qubits, phis))
        phases = np.zeros(n)
        phases[qubits] = phis
        out = apply_noise_events(amps, n, phases)
        assert np.max(np.abs(out - amps * np.exp(1j * phase))) < 1e-15


def test_bitflip_events_swap_amplitudes():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    out = apply_noise_events(amps, 2, np.zeros(2), np.array([False, True]))
    assert out[2] == 1.0 and out[0] == 0.0


def test_sample_noise_slot_probability_extremes():
    rand = np.random.default_rng(18)
    none_cfg = NoiseConfig(p_noise=0.0)
    all_cfg = NoiseConfig(p_noise=1.0)
    phases, flips = sample_noise_slot(5, none_cfg, rand)
    assert phases.shape == flips.shape == (5,)
    assert np.count_nonzero(phases) == 0 and np.count_nonzero(flips) == 0
    phases, flips = sample_noise_slot(5, all_cfg, rand)
    assert np.count_nonzero(phases) == 5 and np.count_nonzero(flips) == 0
    phases, flips = sample_noise_slot(5, NoiseConfig(p_noise=1.0, kind="bitflip"), rand)
    assert np.count_nonzero(phases) == 0 and np.count_nonzero(flips) == 5


# ------------------------------------------------------------------ overlap

def test_overlap_dense_examples():
    assert overlap_dense(DenseState(3, plus_state_dense(3))) == pytest.approx(2.0**-3)
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0
    assert overlap_dense(DenseState(3, amps)) == 1.0


def test_overlap_matches_symcore_after_lift():
    rand = np.random.default_rng(19)
    for _ in range(10):
        n = int(rand.integers(2, 8))
        s = random_symmetric_state(n, rand)
        assert overlap_dense(lift(s)) == pytest.approx(symcore.overlap(s), abs=1e-12)


# ---------------------------------------------------------------- resources

def test_memory_cap():
    with pytest.raises(ResourceCapError):
        run_schedule_dense(25, [])


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(p_noise=1.5)
    for stddev in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="phase_stddev"):
            NoiseConfig(p_noise=0.1, phase_stddev=stddev)
    with pytest.raises(ValueError):
        NoiseConfig(p_noise=0.1, granularity="per_gate")
    with pytest.raises(ValueError, match="noise kind"):
        NoiseConfig(p_noise=0.1, kind="amplitude")


@pytest.mark.parametrize("field", ["p_noise", "phase_stddev"])
def test_noise_config_takes_only_real_numbers(field):
    # a flag is an int to Python and a string fails only at a compare, so
    # both are refused by type; numpy numbers pass
    for bad in (True, False, np.bool_(True), "0.1", None, 0.1j):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            NoiseConfig(**{"p_noise": 0.1, field: bad})
    assert getattr(NoiseConfig(**{"p_noise": 0.1, field: np.float64(0.5)}), field) == 0.5
    assert getattr(NoiseConfig(**{"p_noise": 0.1, field: np.int64(1)}), field) == 1


def test_hamming_weights_small():
    assert list(hamming_weights(3)) == [0, 1, 1, 2, 1, 2, 2, 3]


def test_dense_state_rejects_non_finite_amplitudes():
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        DenseState(2, amps)


@pytest.mark.parametrize("kind", ["phase", "bitflip"])
@pytest.mark.parametrize("granularity", ["layer", "single_qubit"])
def test_noisy_layer_fft_grid_matches_direct_curve(granularity, kind, random_product_sum):
    # a layer's bit flips act as one mask f before the mixer, so A(0) = 0 and
    # B(0) = psi[f], terms that the noiseless split never has; phase kicks
    # keep A(0) = psi[0] and B(0) = 0.  beta = 0 stays exact for both: B(0)
    # is exactly 0 without flips, and the product sum's <f|psi> with them
    rand = np.random.default_rng(37)
    n = 5
    noise = NoiseConfig(0.5, granularity=granularity, kind=kind)
    flipped = 0
    for _ in range(8):
        state, psi = random_product_sum(n, rand)
        frozen = sample_layer_noise(n, noise, rand)
        terms = state.layer(frozen).terms()
        mask = sum(1 << int(q) for q in np.flatnonzero(frozen.flips))
        for m in (7, 2048):
            betas = np.linspace(0, np.pi, m, endpoint=False)
            assert np.max(np.abs(terms.grid(m) - terms.curve(betas))) < 1e-13
        a_term, b_term = terms.split(0.0)
        assert abs(state.head - psi[0]) < 1e-15
        if mask:
            flipped += 1
            assert a_term[0] == 0.0
            assert abs(b_term[0] - psi[mask]) < 1e-15
        else:
            assert (a_term[0], b_term[0]) == (state.head, 0.0)
    assert (flipped > 0) == (kind == "bitflip")


def _bits(state):
    return state.coefs.tobytes(), state.vectors.tobytes(), np.complex128(state.head).tobytes()


def _advance(state, gamma, beta, frozen):
    return state.layer(frozen).apply(gamma, beta)


@pytest.mark.parametrize("kind", ["phase", "bitflip"])
def test_product_sum_apply_layer_returns_a_value(kind):
    # a layer leaves its input bitwise as it was, so one prefix extended
    # by two different layers gives, bitwise, each layer's replay from |+>^n
    rand = np.random.default_rng(43)
    noise = NoiseConfig(0.5, granularity="single_qubit", kind=kind)
    for n in (1, 4, 9):
        layers = [(*rand.uniform(0, np.pi, size=2), sample_layer_noise(n, noise, rand)) for _ in range(5)]
        prefix = ProductSum.plus(n)
        for layer in layers[:3]:
            prefix = _advance(prefix, *layer)
        before = _bits(prefix)
        ends = [_advance(prefix, *layer) for layer in layers[3:]]
        assert _bits(prefix) == before
        for last, end in zip(layers[3:], ends):
            replay = ProductSum.plus(n)
            for layer in (*layers[:3], last):
                replay = _advance(replay, *layer)
            assert _bits(replay) == _bits(end)
        assert _bits(ends[0]) != _bits(ends[1])


@pytest.mark.parametrize("n", [31, 32, 255, 256])
def test_noisy_layer_terms_match_product_sum_head(n):
    # the inverse DFT is a product with a cached table up to n = 31 and
    # np.fft.ifft past it; either way the terms give the target amplitude
    # that the product sum after the layer holds, coefs . prod_q vectors[q,
    # :, 0].  Amplitudes at large n span decades across beta, so the error
    # is taken against their largest modulus
    rand = np.random.default_rng(53)
    noise = NoiseConfig(0.5, granularity="single_qubit")
    state = ProductSum.plus(n)
    for _ in range(4):
        state = state.layer(sample_layer_noise(n, noise, rand)).apply(*rand.uniform(0, np.pi, size=2))
    layer = state.layer(sample_layer_noise(n, noise, rand))
    assert (symcore._dft_table(n + 1, True).shape[0] > n) == (n < 32)
    terms = layer.terms()
    gammas, betas = rand.uniform(0, 2 * np.pi, 8), rand.uniform(0, np.pi, 8)
    a_term, b_term = terms.split(betas)
    got = a_term * np.exp(-1j * gammas) + b_term
    direct = np.array([layer.apply(gamma, beta).head for gamma, beta in zip(gammas, betas)])
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_layer_terms_product_is_the_same_in_blocks(monkeypatch):
    # the product over qubits runs in qubit order block after block, so
    # blocks of one qubit give the one-block terms bitwise
    rand = np.random.default_rng(47)
    n, size = 9, 4
    state = ProductSum(rand.normal(size=size) + 1j * rand.normal(size=size), rand.normal(size=(n, size, 2)) + 0j)
    layer = state.layer(sample_layer_noise(n, NoiseConfig(0.5), rand))
    whole = layer.terms()
    monkeypatch.setattr(densecore, "PRODUCT_BLOCK", 1)
    blocked = layer.terms()
    assert np.array_equal(blocked.b, whole.b) and blocked.b_zero == whole.b_zero


def test_layer_terms_memory_is_bounded():
    # one layer's terms at n = S = 200 form the (n, S, n + 1) factors a block
    # of PRODUCT_BLOCK entries at a time: all at once they take 132 MB
    rand = np.random.default_rng(53)
    n = 200
    state = ProductSum(rand.normal(size=n) + 1j * rand.normal(size=n), rand.normal(size=(n, n, 2)) + 0j)
    frozen = sample_layer_noise(n, NoiseConfig(0.1), rand)
    tracemalloc.start()
    try:
        terms = state.layer(frozen).terms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms.b.shape == (n + 1,) and np.all(np.isfinite(terms.b))
    assert peak <= 16e6
