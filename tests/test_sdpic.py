import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigrates import (
    DomainError,
    EntryDistribution,
    SampleMatrix,
    Spectrum,
    ber_experiment,
    covariance,
    decide_bits,
    derive_rng,
    error_free_condition,
    iterate_to_limit,
    make_rng,
    make_transmission,
    mf_decode,
    run_decode,
    sample_matrix,
    sdpic_closed,
    sdpic_stage,
    spectrum,
    stage_trace,
    weighted_sdpic,
)
from eigrates.core import covariance_batch, eigvalues_batch, sample_batch

R = EntryDistribution.RADEMACHER


def orthogonal_pair():
    return SampleMatrix(R, 2, 2, np.array([[1.0, 1.0], [1.0, -1.0]]), seed=0)


def scalar_code(entries):
    arr = np.array([entries], dtype=float)
    return SampleMatrix(R, 1, arr.shape[1], arr, seed=0)


def random_bits(rng, k):
    return (rng.integers(0, 2, k) * 2 - 1).astype(float)


def divergent_instance():
    # +/-1, k=8, n=4: lambda_max = 3.618..., so the recursion overflows
    return sample_matrix(R, 8, 4, 1)


class TestTransmission:
    def test_signal(self):
        tx = make_transmission([1, -1, 1], [4.0, 1.0, 9.0])
        assert np.allclose(tx.signal, [2.0, -1.0, 3.0])
        assert tx.k == 3

    def test_default_unit_powers(self):
        tx = make_transmission([1, -1])
        assert np.array_equal(tx.powers, [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(DomainError):
            make_transmission([1, 0])
        with pytest.raises(DomainError):
            make_transmission([1, -1], [1.0, -2.0])


class TestMfDecode:
    def test_orthogonal_codes_are_exact(self):
        z = np.array([1.0, -1.0])
        assert np.allclose(mf_decode(orthogonal_pair(), z), z, atol=1e-15)

    def test_k1_rademacher_identity(self):
        c = scalar_code([1, -1, 1, 1])
        assert mf_decode(c, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_equals_w_times_z(self):
        rng = make_rng(3)
        for _ in range(20):
            k, n = int(rng.integers(1, 8)), int(rng.integers(4, 40))
            c = sample_matrix(R, k, n, int(rng.integers(1 << 30)))
            z = random_bits(rng, k)
            w = covariance(c).values
            assert np.max(np.abs(mf_decode(c, z) - w @ z)) <= 1e-10

    def test_interference_decomposition(self):
        # the estimate is the sent vector plus (W - I) Z
        c = sample_matrix(R, 4, 16, 9)
        z = np.array([1.0, 1.0, -1.0, 1.0])
        w = covariance(c).values
        assert np.allclose(mf_decode(c, z) - z, (w - np.eye(4)) @ z, atol=1e-12)

    def test_dimension_gate(self):
        with pytest.raises(DomainError):
            mf_decode(orthogonal_pair(), np.array([1.0, 1.0, 1.0]))


class TestStagesAndClosedForm:
    def test_identity_is_fixed_point(self):
        z = np.array([1.0, -1.0])
        for s in (1, 2, 5, 17):
            assert np.allclose(sdpic_stage(orthogonal_pair(), z, s), z, atol=1e-14)

    def test_scalar_geometric(self):
        # w = 0.5: two stages give 1 - (1 - w)^2 = 0.75
        est = sdpic_stage(_scale_to_half(), np.array([1.0]), 2)
        assert est[0] == pytest.approx(0.75, abs=1e-12)

    def test_stage_one_is_matched_filter(self):
        c = sample_matrix(R, 3, 9, 4)
        z = np.array([1.0, -1.0, 1.0])
        assert np.max(np.abs(sdpic_closed(c, z, 1) - mf_decode(c, z))) <= 1e-10

    def test_stage_zero_rejected(self):
        with pytest.raises(DomainError):
            sdpic_stage(orthogonal_pair(), np.array([1.0, 1.0]), 0)
        with pytest.raises(DomainError):
            sdpic_closed(orthogonal_pair(), np.array([1.0, 1.0]), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(4, 40), st.integers(1, 24), st.integers(0, 2**20))
    def test_recursion_equals_partial_sum(self, k, n, s, seed):
        c = sample_matrix(R, k, n, seed)
        z = random_bits(make_rng(seed + 1), k)
        a = sdpic_stage(c, z, s)
        b = sdpic_closed(c, z, s)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) <= 1e-10 * scale

    def test_matches_spectral_form_in_convergent_regime(self):
        # [I - (I-W)^s] Z computed through the eigendecomposition
        rng = make_rng(8)
        found = 0
        while found < 10:
            c = sample_matrix(R, 3, 40, int(rng.integers(1 << 30)))
            sp = spectrum(covariance(c))
            if not (0.0 < sp.lambda_min and sp.lambda_max < 2.0):
                continue
            found += 1
            z = random_bits(rng, 3)
            for s in (1, 3, 8):
                q = sp.eigenvectors
                inner = 1.0 - (1.0 - sp.eigenvalues) ** s
                oracle = q @ (inner * (q.T @ z))
                assert np.max(np.abs(sdpic_closed(c, z, s) - oracle)) <= 1e-9

    def test_convergence_toward_z(self):
        rng = make_rng(12)
        c = sample_matrix(R, 3, 60, 44)
        sp = spectrum(covariance(c))
        assert 0.0 < sp.lambda_min and sp.lambda_max < 2.0
        z = random_bits(rng, 3)
        devs = [np.max(np.abs(sdpic_closed(c, z, s) - z)) for s in (1, 4, 16, 64)]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 1e-6


def _scale_to_half():
    # 1 x 2 code with one zero column: W = [0.5]
    return SampleMatrix(EntryDistribution.UNIFORM_SYM, 1, 2, np.array([[1.0, 0.0]]), seed=0)


class TestWeighted:
    def test_weight_one_is_bit_identical(self):
        rng = make_rng(5)
        for _ in range(30):
            k, n, s = int(rng.integers(1, 10)), int(rng.integers(4, 40)), int(rng.integers(1, 20))
            c = sample_matrix(R, k, n, int(rng.integers(1 << 30)))
            z = random_bits(rng, k)
            assert np.array_equal(weighted_sdpic(c, z, s, 1.0), sdpic_closed(c, z, s))

    def test_scalar_geometric(self):
        est = weighted_sdpic(scalar_code([1, -1]), np.array([1.0]), 3, 2.0)
        assert est[0] == pytest.approx(0.875, abs=1e-12)

    def test_large_weight_always_converges(self):
        # taking M > k guarantees lambda_max <= k < M
        rng = make_rng(6)
        checked = 0
        while checked < 10:
            c = sample_matrix(R, 3, 30, int(rng.integers(1 << 30)))
            sp = spectrum(covariance(c))
            if sp.lambda_min <= 1e-9:
                continue
            checked += 1
            z = random_bits(rng, 3)
            est = weighted_sdpic(c, z, 4000, 4.0)
            assert np.max(np.abs(est - z)) < 1e-8

    def test_weight_gate(self):
        with pytest.raises(DomainError):
            weighted_sdpic(orthogonal_pair(), np.array([1.0, 1.0]), 2, 0.0)


class TestDecideBits:
    def test_signs(self):
        assert np.array_equal(decide_bits(np.array([0.3, -2.5]), 1), [1.0, -1.0])

    def test_zero_coin_reproducible(self):
        a = decide_bits(np.zeros(4), 42)
        b = decide_bits(np.zeros(4), 42)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_zero_coin_fair(self):
        draws = [decide_bits(np.zeros(1), seed)[0] for seed in range(400)]
        assert 0.4 < np.mean(np.array(draws) == 1.0) < 0.6

    def test_positive_scale_invariance(self):
        rng = make_rng(7)
        for _ in range(20):
            est = rng.standard_normal(6)
            est[rng.integers(0, 6)] = 0.0
            assert np.array_equal(decide_bits(est, 11), decide_bits(3.7 * est, 11))


class TestErrorFreeCondition:
    def test_worked_example(self):
        sp = Spectrum(np.array([0.8, 1.0, 1.0, 1.2]), np.eye(4), 0.0)
        # eps = 0.2, 0.2^2 * sqrt(4) = 0.08 < 1
        assert error_free_condition(sp, 2, 4)

    def test_singular_never_passes(self):
        sp = Spectrum(np.array([0.0, 1.0]), np.eye(2), 0.0)
        for s in (1, 2, 10, 100):
            assert not error_free_condition(sp, s, 2)

    def test_threshold_form(self):
        # condition is equivalent to eps < k ** (-1/(2s))
        rng = make_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            s = int(rng.integers(1, 5))
            eps = float(rng.uniform(0.0, 1.5))
            lam = np.sort(np.array([1.0 - eps, 1.0 + eps * rng.uniform(0.0, 1.0)]))
            sp = Spectrum(lam, np.eye(2), 0.0)
            expected = eps < k ** (-1.0 / (2.0 * s))
            assert error_free_condition(sp, s, k) == expected


class TestDecodeAndLimit:
    def test_run_decode_stage_one(self):
        c = sample_matrix(R, 3, 12, 3)
        z = np.array([1.0, -1.0, 1.0])
        state = run_decode(c, z, 1, coin_seed=5)
        assert state.stage == 1
        assert np.allclose(state.estimate, mf_decode(c, z))
        assert set(np.unique(state.decided)) <= {-1.0, 1.0}

    def test_iterate_to_limit_converges(self):
        rng = make_rng(14)
        while True:
            c = sample_matrix(R, 3, 50, int(rng.integers(1 << 30)))
            sp = spectrum(covariance(c))
            if 0.0 < sp.lambda_min and sp.lambda_max < 2.0:
                break
        z = random_bits(rng, 3)
        est, stages, converged = iterate_to_limit(c, z)
        assert converged
        assert np.max(np.abs(est - z)) < 1e-8

    def test_iterate_to_limit_hits_cap_when_divergent(self):
        c = divergent_instance()
        assert spectrum(covariance(c)).lambda_max == pytest.approx(3.618, abs=1e-3)
        est, stages, converged = iterate_to_limit(c, np.ones(8))
        assert (stages, converged) == (1000, False)
        assert est.shape == (8,)

    def test_divergent_instance_emits_no_warnings(self):
        c = divergent_instance()
        z = np.ones(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sdpic_stage(c, z, 1000)
            sdpic_closed(c, z, 1000)
            weighted_sdpic(c, z, 1000, 1.0)
            run_decode(c, z, 1000, coin_seed=1)

    def test_stage_trace_follows_sdpic_stage(self):
        c = sample_matrix(R, 4, 9, 21)
        z = np.array([1.0, -1.0, -1.0, 1.0])
        rows = stage_trace(c, z, 12, coin_seed=2)
        for stage, dev, errors in rows:
            est = sdpic_stage(c, z, stage)
            assert dev == float(np.max(np.abs(est - z)))
            assert errors == int(np.count_nonzero(decide_bits(est, 2) != z))
        assert stage_trace(c, z, 0, coin_seed=2) == []

    def test_stage_trace_rows(self):
        c = sample_matrix(R, 2, 10, 3)
        rows = stage_trace(c, np.array([1.0, -1.0]), 5, coin_seed=1)
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
        assert all(isinstance(r[2], int) for r in rows)


class TestBerExperiment:
    def test_counts_are_consistent(self):
        est = ber_experiment(3, 16, 2, trials=20000, seed=5)
        assert est.any_user_error_count >= max(est.per_user_error_counts)
        assert est.any_user_error_count <= sum(est.per_user_error_counts)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_deterministic(self):
        a = ber_experiment(2, 12, math.inf, trials=5000, seed=9)
        b = ber_experiment(2, 12, math.inf, trials=5000, seed=9)
        assert a == b

    def test_error_free_condition_implies_no_errors(self):
        # spot-check of the implication on batched instances
        rng = make_rng(10)
        violations = 0
        for s in (1, 2, 3):
            entries = sample_batch(R, rng, 500, 4, 32)
            w = covariance_batch(entries)
            lam = eigvalues_batch(w)
            eps = np.maximum(1.0 - lam[:, 0], lam[:, -1] - 1.0)
            ok = eps**s * 2.0 < 1.0
            z = (rng.integers(0, 2, size=(500, 4)) * 2 - 1).astype(float)
            term = np.einsum("tij,tj->ti", w, z)
            acc = term.copy()
            for _ in range(s - 1):
                term = term - np.einsum("tij,tj->ti", w, term)
                acc += term
            wrong = np.any(np.sign(acc) != z, axis=1)
            violations += int(np.count_nonzero(ok & wrong))
        assert violations == 0

    def test_infinite_mode_classifies_oscillation(self):
        est = ber_experiment(3, 12, math.inf, trials=20000, seed=77)
        assert est.cap_hit_count >= est.oscillation_count
        assert est.any_user_error_count >= est.oscillation_count

    def test_cap_hits_match_single_instance_limit(self):
        # one chunk, so every trial comes from derive_rng(seed, 0)
        k, n, trials, seed = 3, 8, 400, 31
        est = ber_experiment(k, n, math.inf, trials=trials, seed=seed)
        rng = derive_rng(seed, 0)
        bits = (rng.integers(0, 2, size=(trials, k)) * 2 - 1).astype(np.float64)
        rng.integers(0, 2, size=(trials, k))  # the tie-break coins
        entries = sample_batch(R, rng, trials, k, n)
        capped = sum(not iterate_to_limit(SampleMatrix(R, k, n, entries[t], seed=0), bits[t])[2]
                     for t in range(trials))
        assert capped > 0
        assert est.cap_hit_count == capped

    def test_weighted_mode_runs(self):
        est = ber_experiment(3, 16, 4, trials=5000, seed=3, weight=4.0)
        assert est.weight == 4.0
        assert est.trials == 5000

    def test_gates(self):
        with pytest.raises(DomainError):
            ber_experiment(2, 8, 0, trials=10, seed=1)
        with pytest.raises(DomainError):
            ber_experiment(2, 8, 2, trials=0, seed=1)
        with pytest.raises(DomainError):
            ber_experiment(2, 8, 2, trials=10, seed=1, weight=-1.0)
