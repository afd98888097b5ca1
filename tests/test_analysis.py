import math

import numpy as np
import pytest

from satlab import symcore
from satlab.analysis import (
    beta_schedule_stats,
    check_conditions,
    detect_saturation,
    effective_beta,
    make_nontrainable_state,
    trainability_probe,
)
from satlab.symcore import (
    LayerAngles,
    SymmetricState,
    gamma_eliminated_curve,
    plus_state,
    random_symmetric_state,
    run_schedule,
    saturation_derivatives,
)
from satlab.training import LayerRecord, TrainingTrace, train_layerwise


def synthetic_trace(n, overlaps, betas=None):
    trace = TrainingTrace(n)
    betas = betas if betas is not None else [0.1] * len(overlaps)
    for ov, beta in zip(overlaps, betas):
        trace.records.append(LayerRecord(LayerAngles(0.0, beta), ov, 0.0, 0))
    return trace


@pytest.mark.parametrize(
    "overlaps, status",
    [
        ([0.2], "depth_limit"),
        ([0.2, 0.5], "depth_limit"),
        ([0.2, 0.5, 0.5 + 1e-12], "saturated"),
        ([0.5, 1.0 - 1e-12], "overlap_one"),
    ],
)
def test_status_follows_appended_records(overlaps, status):
    assert synthetic_trace(4, overlaps).status == status


# ------------------------------------------------------- saturation detection

def test_no_saturation_when_overlap_reaches_one():
    trace = train_layerwise(1, 3)
    report = detect_saturation(trace)
    assert report.p_star is None


def test_no_saturation_on_strictly_increasing_trace():
    trace = synthetic_trace(4, [0.2, 0.4, 0.6, 0.8])
    assert detect_saturation(trace, eps_sat=1e-8).p_star is None


def test_saturation_on_flat_synthetic_trace():
    trace = synthetic_trace(4, [0.2, 0.5, 0.5 + 1e-12, 0.7])
    report = detect_saturation(trace, eps_sat=1e-8)
    assert report.p_star == 2
    assert report.overlap_at_p_star == pytest.approx(0.5)
    assert report.improvement_after == pytest.approx(1e-12, rel=0.1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_knee_detected_at_depth_n(n):
    # the layerwise gain collapses by about three orders of magnitude after
    # depth n; at that resolution the saturation depth equals n
    trace = train_layerwise(n, n + 2)
    report = detect_saturation(trace, eps_sat=1e-4)
    assert report.p_star == n
    assert report.overlap_at_p_star < 1.0


def test_detection_requires_depth_two():
    with pytest.raises(ValueError):
        detect_saturation(synthetic_trace(3, [0.5]))


def test_report_carries_state_diagnostics():
    trace = train_layerwise(4, 6)
    report = detect_saturation(trace, eps_sat=1e-4)
    state = run_schedule(4, trace.schedule()[: report.p_star])
    assert report.a1_magnitude == pytest.approx(abs(state.amps[1]), abs=1e-12)
    assert report.a2_bound == pytest.approx(math.sqrt(8 / 3) * abs(state.amps[0]), abs=1e-12)


# ----------------------------------------------------------------- conditions

def test_conditions_fail_on_single_excitation(basis_state):
    check = check_conditions(basis_state(4, 1))
    assert not check.condition1_pass


def test_conditions_fail_on_plus_state():
    n = 6
    check = check_conditions(plus_state(n))
    assert check.a1_magnitude == pytest.approx(math.sqrt(n / 2.0**n), abs=1e-12)
    assert not check.condition1_pass


def test_conditions_near_saturation_at_knee_scale():
    # the trained state at depth n satisfies both conditions at the measured
    # amplitude scale of the greedy fixed-point approach
    for n in (4, 6, 8):
        trace = train_layerwise(n, n)
        state = run_schedule(n, trace.schedule())
        check = check_conditions(state, tol=2e-2)
        assert check.condition1_pass
        assert check.condition2_pass


def test_condition2_equivalence():
    rand = np.random.default_rng(56)
    for _ in range(50):
        state = random_symmetric_state(int(rand.integers(2, 8)), rand)
        check = check_conditions(state)
        assert check.condition2_pass == (check.a2_magnitude <= check.a2_bound + check.tolerance)


def test_condition2_has_no_bound_at_n1():
    check = check_conditions(random_symmetric_state(1, np.random.default_rng(57)))
    assert check.a2_bound is None and check.a2_magnitude == 0.0
    assert check.condition2_pass


def test_condition2_bound_formula():
    s = random_symmetric_state(7, np.random.default_rng(0))
    check = check_conditions(s)
    assert check.a2_bound == pytest.approx(math.sqrt(14 / 6) * abs(s.amps[0]), abs=1e-12)


# -------------------------------------------------------- trainability probe

def test_probe_on_target_state(basis_state):
    gain, beta = trainability_probe(basis_state(5, 0))
    assert gain == 0.0 and beta == 0.0


@pytest.mark.parametrize("n", [*range(3, 12), 110, 400, 1022])
def test_probe_on_nontrainable_family(n):
    # the refined value near beta = 0 lands within rounding of the exact g(0),
    # and the tie rule gives beta = 0 exactly
    rand = np.random.default_rng(50 + n)
    c2 = math.sqrt(math.comb(n, 2))
    for _ in range(10):
        a2 = rand.uniform(0, 1) / math.sqrt(1 + c2**2)  # stays within the bound
        a0 = math.sqrt(1 - a2**2)
        state = make_nontrainable_state(n, a0, a2, phases=tuple(rand.uniform(0, 2 * np.pi, 2)))
        assert trainability_probe(state) == (0.0, 0.0)


@pytest.mark.parametrize("n", [100, 110])
def test_probe_on_greedy_prefix_matches_the_next_greedy_layer(n):
    # the probe reads the prefix's Dicke amplitudes, where greedy reads its
    # eigen-coordinates; past n of about 130 the amplitudes' absolute
    # rounding swamps overlaps this small (3.5e-32 at n = 110)
    trace = train_layerwise(n, 6)
    gain, beta = trainability_probe(run_schedule(n, trace.schedule()[:5]))
    assert gain == pytest.approx(trace.overlaps()[5] - trace.overlaps()[4], rel=0.02)
    assert beta == pytest.approx(trace.records[5].angles.beta, rel=0.05)


def test_probe_boundary_member():
    n = 4
    c2 = math.sqrt(6)
    a0 = math.sqrt(c2**2 / (1 + c2**2))
    state = make_nontrainable_state(n, a0, a0 / c2)
    gain, _ = trainability_probe(state)
    assert gain <= 1e-9


def test_probe_finds_gain_with_first_amplitude():
    rand = np.random.default_rng(51)
    for _ in range(25):
        n = int(rand.integers(2, 9))
        state = random_symmetric_state(n, rand)
        if abs(state.amps[1]) > 0.1 and symcore.overlap(state) < 0.99:
            gain, _ = trainability_probe(state)
            assert gain > 0.0


# --------------------------------------------------- non-trainable family

def test_family_reduces_to_target():
    state = make_nontrainable_state(4, 1.0, 0.0)
    assert abs(state.amps[0]) == pytest.approx(1.0)
    assert np.all(np.abs(state.amps[1:]) == 0)


def test_family_rejects_bound_violation():
    n = 4
    a2 = 1.5 / math.sqrt(6) * 0.9
    a0 = math.sqrt(1 - a2**2)
    with pytest.raises(ValueError):
        make_nontrainable_state(n, a0, 1.5 * a0 / math.sqrt(6))
    with pytest.raises(ValueError):
        make_nontrainable_state(n, 0.9, 0.9)  # not normalized
    with pytest.raises(ValueError, match="nonnegative"):
        make_nontrainable_state(n, 1.0, -0.1)
    # the qubit count is refused before math.comb sees it
    for bad in (2.5, 4.0, True, 1):
        with pytest.raises(ValueError, match="^n must be"):
            make_nontrainable_state(bad, 1.0, 0.0)


def test_family_takes_only_real_numbers():
    # a string modulus fails only at the compare with 0, and flags would run
    # as the moduli (1, 0); both are refused by type, and so are the phases
    for bad in ("1", True, False, None, 1j):
        cases = {"a0": (bad, 0.0, (0.0, 0.0)), "a2": (1.0, bad, (0.0, 0.0)),
                 "phase0": (1.0, 0.0, (bad, 0.0)), "phase2": (1.0, 0.0, (0.0, bad))}
        for name, (a0, a2, phases) in cases.items():
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                make_nontrainable_state(4, a0, a2, phases)
    with pytest.raises(ValueError, match="a0 must be a real number"):
        make_nontrainable_state(4, True, False)
    state = make_nontrainable_state(4, np.float64(1.0), np.int64(0), (np.float32(0.5), 0))
    assert state.amps[0] == pytest.approx(np.exp(0.5j))
    # a scalar was indexed into a TypeError, and a third phase was dropped
    for phases in (0.5, (0.0, 0.0, 9.0)):
        with pytest.raises(ValueError, match="^phases must be a pair of real numbers"):
            make_nontrainable_state(4, 1.0, 0.0, phases)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -1e-3, "x", True, None])
def test_thresholds_take_only_finite_numbers_at_least_zero(bad):
    # NaN found no saturation and failed both conditions without a word, and
    # a string raised TypeError; the config's eps_sat has the same rule
    trace = train_layerwise(4, 6)
    for name in ("eps_sat", "eps_one"):
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            detect_saturation(trace, **{name: bad})
    with pytest.raises(ValueError, match="^tol must be a"):
        check_conditions(plus_state(4), tol=bad)
    assert detect_saturation(trace, eps_sat=0, eps_one=0.0).eps_sat == 0


def test_family_curve_matches_closed_form():
    rand = np.random.default_rng(52)
    betas = np.linspace(0, np.pi / 2, 1024)
    for n in (3, 5, 8):
        c2 = math.sqrt(math.comb(n, 2))
        a2 = rand.uniform(0, 1) / math.sqrt(1 + c2**2)
        a0 = math.sqrt(1 - a2**2)
        state = make_nontrainable_state(n, a0, a2, phases=(0.4, 1.9))
        expected = (a0 - c2 * a2) * np.cos(betas) ** n + c2 * a2 * np.cos(betas) ** (n - 2)
        assert np.max(np.abs(gamma_eliminated_curve(state, betas) - expected)) < 1e-10


# ------------------------------------------------------ derivative agreement

def test_slope_is_sqrt_n_times_a1():
    rand = np.random.default_rng(53)
    for _ in range(30):
        n = int(rand.integers(2, 10))
        s = random_symmetric_state(n, rand)
        g1, _ = saturation_derivatives(s)
        assert g1 == pytest.approx(math.sqrt(n) * abs(s.amps[1]), abs=1e-12)


def test_negative_curvature_implies_condition2():
    # on states with A_1 = 0, non-positive curvature at beta = 0 implies the
    # second condition (the converse direction has slack)
    rand = np.random.default_rng(54)
    for _ in range(200):
        n = int(rand.integers(2, 9))
        amps = rand.normal(size=n + 1) + 1j * rand.normal(size=n + 1)
        amps[1] = 0.0
        s = SymmetricState(n, amps / np.linalg.norm(amps))
        _, g2 = saturation_derivatives(s)
        if g2 <= 0:
            assert check_conditions(s, tol=1e-8).condition2_pass


def test_positive_curvature_means_trainable():
    rand = np.random.default_rng(55)
    found = 0
    for _ in range(300):
        n = int(rand.integers(2, 7))
        amps = rand.normal(size=n + 1) + 1j * rand.normal(size=n + 1)
        amps[1] = 0.0
        s = SymmetricState(n, amps / np.linalg.norm(amps))
        _, g2 = saturation_derivatives(s)
        if g2 > 1e-3 and symcore.overlap(s) < 0.99:
            gain, _ = trainability_probe(s)
            assert gain > 0.0
            found += 1
    assert found > 20


# ---------------------------------------------------------- schedule stats

def test_effective_beta_folds_mirror():
    assert effective_beta(0.3) == pytest.approx(0.3)
    assert effective_beta(np.pi - 0.004) == pytest.approx(0.004, abs=1e-12)
    assert effective_beta(np.pi + 0.2) == pytest.approx(0.2, abs=1e-12)


def test_stats_on_constant_schedule():
    n = 3
    trace = synthetic_trace(n, [0.3, 0.4, 0.5, 0.6], betas=[0.2, 0.2, 0.2, 0.2])
    stats = beta_schedule_stats(trace)
    assert stats.decrease_violations == 0
    assert stats.beta_first == pytest.approx(0.2)


def test_stats_requires_deep_trace():
    with pytest.raises(ValueError):
        beta_schedule_stats(synthetic_trace(5, [0.2, 0.3]))


def test_stats_on_trained_schedule():
    n = 6
    trace = train_layerwise(n, n + 1)
    stats = beta_schedule_stats(trace)
    assert stats.beta_final < 1e-2  # trivial angle at the measured scale
    assert stats.beta_first_rel_dev < 0.5  # asymptotic pi/n guide, loose here
    assert stats.decrease_violations == 0
    assert stats.beta_first_target == pytest.approx(np.pi / n)
