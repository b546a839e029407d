import functools
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
from eigrates import core, sdpic
from eigrates.core import covariance_batch, eigvalues_batch, sample_batch

R = EntryDistribution.RADEMACHER


def orthogonal_pair():
    return SampleMatrix(R, 2, 2, np.array([[1.0, 1.0], [1.0, -1.0]]), seed=0)


def scalar_code(entries):
    arr = np.array([entries], dtype=float)
    return SampleMatrix(R, 1, arr.shape[1], arr, seed=0)


def random_bits(rng, k):
    return (rng.integers(0, 2, k) * 2 - 1).astype(float)


def chunk_zero_instances(k, n, trials, seed):
    """(code, bits) of each trial ber_experiment draws in chunk 0."""
    rng = derive_rng(seed, 0)
    bits = (rng.integers(0, 2, size=(trials, k)) * 2 - 1).astype(np.float64)
    rng.integers(0, 2, size=(trials, k))  # the tie-break coins
    entries = sample_batch(R, rng, trials, k, n)
    return [(SampleMatrix(R, k, n, entries[t], seed=0), bits[t]) for t in range(trials)]


def divergent_instance():
    # +/-1, k=8, n=4: lambda_max = 3.618..., so the recursion overflows
    return sample_matrix(R, 8, 4, 1)


def chunk_zero_stack(k, n, trials, seed):
    """(W stack, bits) of the trials ber_experiment draws in chunk 0."""
    rng = derive_rng(seed, 0)
    bits = (rng.integers(0, 2, size=(trials, k)) * 2 - 1).astype(np.float64)
    rng.integers(0, 2, size=(trials, k))  # the tie-break coins
    return core.gram_batch(R, rng, trials, k, n), bits


def eager_recursion(w, z, cap, tol=None, visit=None, product=sdpic._stack_product):
    """The recursion compacting its stack in every stage where a trial
    converges: the reference that sdpic._recursion must match bit for bit."""
    est1 = product(w, z)
    est = est1.copy()
    stages = np.full(len(z), cap)
    converged = np.zeros(len(z), dtype=bool)
    rows, wa, e1a, ea = np.arange(len(z)), w, est1, est1
    with np.errstate(over="ignore", invalid="ignore"):
        if visit is not None:
            visit(1, ea)
        for stage in range(2, cap + 1):
            nxt = e1a - (product(wa, ea) - ea)
            done = None if tol is None else np.max(np.abs(nxt - ea), axis=1) < tol
            ea = nxt
            if visit is not None:
                visit(stage, ea)
            if done is not None and np.any(done):
                est[rows[done]] = ea[done]
                stages[rows[done]] = stage
                converged[rows[done]] = True
                keep = ~done
                rows, wa, e1a, ea = rows[keep], wa[keep], e1a[keep], ea[keep]
                if rows.size == 0:
                    break
        est[rows] = ea
        ahead = np.full_like(est, np.nan)
        ahead[rows] = e1a - (product(wa, ea) - ea)
    return est, stages, converged, ahead


def mixed_stack(k, t, seed):
    """W stack whose trials converge at many stages, hit the cap, or overflow."""
    rng = make_rng(seed)
    w = covariance_batch(sample_batch(EntryDistribution.STD_NORMAL, rng, t, k, 4 * k))
    w *= rng.uniform(0.2, 1.6, size=(t, 1, 1))
    w[: t // 8] = core.gram_batch(R, rng, t // 8, k, 2 * k)  # singular and lambda_max >= 2
    z = (rng.integers(0, 2, size=(t, k)) * 2 - 1).astype(np.float64)
    return w, z


def assert_same_results(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)


# ber_experiment(3, n, inf, 10**5, 909) for n = 8, 10, ..., 24: any-user,
# per-user, cap-hit and oscillation counts, p_hat, empirical rate and the
# Clopper-Pearson interval.
PINNED_INFINITE_MODE = {
    8: (11415, (11185, 9682, 9715), 11172, 11172, 0.11415, 0.27128023825079156,
         (0.11218530318217708, 0.11613710695616686)),
    10: (1775, (1720, 1715, 1713), 3678, 1718, 0.01775, 0.4031369763060712,
         (0.01694062340488013, 0.018587517363533777)),
    12: (1196, (1187, 1184, 1186), 1183, 1183, 0.01196, 0.3688489608716376,
         (0.011295430523228235, 0.012653096905916275)),
    14: (894, (891, 890, 894), 892, 892, 0.00894, 0.33694426355690815,
         (0.008365877090029391, 0.009542869829641924)),
    16: (688, (685, 628, 628), 685, 685, 0.00688, 0.3111960391898053,
         (0.0063770218726447525, 0.0074118902097408115)),
    18: (172, (166, 149, 143), 265, 172, 0.00172, 0.3536350548975986,
         (0.0014727265799496698, 0.0019968531865285563)),
    20: (68, (68, 68, 68), 86, 68, 0.00068, 0.3646708879897061,
         (0.000528084094878771, 0.000861983549085098)),
    22: (49, (49, 49, 49), 49, 49, 0.00049, 0.346413871220891,
         (0.00036252599732335773, 0.0006477548687888402)),
    24: (35, (35, 33, 33), 35, 35, 0.00035, 0.33156572514503396,
         (0.00024379955314601253, 0.0004867319861444924)),
}


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

    # each stage gate and each weight gate, fed one bad value
    GATED = {
        "sdpic_stage": lambda s: sdpic_stage(orthogonal_pair(), np.ones(2), s),
        "sdpic_closed": lambda s: sdpic_closed(orthogonal_pair(), np.ones(2), s),
        "weighted_sdpic": lambda s: weighted_sdpic(orthogonal_pair(), np.ones(2), s, 1.0),
        "error_free_condition": lambda s: error_free_condition(
            Spectrum(np.array([0.9, 1.1]), np.eye(2), 0.0), s, 2),
        "ber_experiment": lambda s: ber_experiment(2, 8, s, trials=10, seed=1),
        "weighted_sdpic_weight": lambda w: weighted_sdpic(orthogonal_pair(), np.ones(2), 2, w),
        "ber_experiment_weight": lambda w: ber_experiment(2, 8, 2, trials=10, seed=1, weight=w),
    }

    @pytest.mark.parametrize("bad", [0, -1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", GATED)
    def test_stage_and_weight_gates(self, entry, bad):
        with pytest.raises(DomainError):
            self.GATED[entry](bad)

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

    def test_converges_with_weight_below_lambda_max(self):
        # the sharp condition is 0 < lambda_min and lambda_max < 2M, the
        # spectral radius of I - W/M below 1: here M = lambda_max / 1.5
        c = sample_matrix(R, 3, 6, 0)
        sp = spectrum(covariance(c))
        assert sp.lambda_max == pytest.approx(5.0 / 3.0) and sp.lambda_min > 0.0
        z = np.ones(3)
        est = weighted_sdpic(c, z, 200, sp.lambda_max / 1.5)
        assert np.max(np.abs(est - z)) < 1e-15
        # past lambda_max = 2M the residual grows
        est = weighted_sdpic(c, z, 200, sp.lambda_max / 2.5)
        assert np.max(np.abs(est - z)) > 1e10

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

    def test_nan_falls_to_the_zero_coin(self):
        est = np.array([np.nan, 0.0, 2.0, -np.inf])
        decided = decide_bits(est, 5)
        assert np.array_equal(decided[2:], [1.0, -1.0])
        assert decided[0] == decide_bits(np.zeros(1), 5)[0]
        assert decided[1] == decide_bits(np.zeros(2), 5)[1]

    def test_overflowed_decode_decides_every_bit(self):
        state = run_decode(divergent_instance(), np.ones(8), 1000, coin_seed=1)
        assert np.all(np.isnan(state.estimate))
        assert set(np.unique(state.decided)) <= {-1.0, 1.0}


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
        capped = sum(not iterate_to_limit(c, b)[2]
                     for c, b in chunk_zero_instances(k, n, trials, seed))
        assert capped > 0
        assert est.cap_hit_count == capped

    def test_oscillations_match_single_instance_limit_and_spectrum(self):
        # one chunk: a capped trial oscillates when lambda_max >= 2 or W is singular
        k, n, trials, seed = 3, 10, 2000, 41
        est = ber_experiment(k, n, math.inf, trials=trials, seed=seed)
        oscillating = 0
        for c, b in chunk_zero_instances(k, n, trials, seed):
            if iterate_to_limit(c, b)[2]:
                continue
            w = covariance(c).values
            lam = np.linalg.eigvalsh(w)
            scale = max(1.0, float(np.trace(w)))
            oscillating += bool(lam[-1] >= sdpic.PING_PONG_LAMBDA - 1e-12
                                or lam[0] <= core.ZERO_EIG_TOL * scale)
        assert 0 < oscillating < est.cap_hit_count
        assert est.oscillation_count == oscillating

    def test_oscillation_ties_do_not_depend_on_round_off(self):
        # at k=3, n=18 some capped trials have lambda_max exactly 2 and two
        # users with equal last steps; einsum and matmul round them apart
        args = (3, 18, math.inf, 10**5, 909)
        stacked = ber_experiment(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdpic, "_recursion",
                       functools.partial(sdpic._recursion, product=sdpic._matrix_product))
            per_matrix = ber_experiment(*args)
        assert stacked.oscillation_count > 0
        assert stacked.per_user_error_counts == per_matrix.per_user_error_counts

    def test_infinite_mode_records_are_pinned(self):
        for n, (hits, per_user, caps, osc, p_hat, rate, ci) in PINNED_INFINITE_MODE.items():
            record = ber_experiment(3, n, math.inf, 10**5, 909).record()
            assert record == {
                "experiment": "sdpic_ber", "k": 3, "n": n, "s": "inf", "weight": None,
                "trials": 10**5, "any_user_error_count": hits,
                "per_user_error_counts": list(per_user), "p_hat": p_hat,
                "empirical_rate": rate, "seed": 909, "cap_hit_count": caps,
                "oscillation_count": osc, "ci": list(ci),
            }

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

    def test_weight_rejected_at_infinite_stage(self):
        # the infinite mode runs the unweighted recursion, so a weight
        # would be recorded without having been used
        with pytest.raises(DomainError):
            ber_experiment(3, 16, math.inf, 2000, 5, weight=1.5)


class TestContractionScreen:
    @pytest.mark.parametrize("k, n", [(3, 8), (3, 12), (3, 18), (3, 24), (4, 16)])
    def test_screened_trials_converge_without_error(self, k, n):
        trials, seed = sdpic.CHUNK_TRIALS, 909
        w, bits = chunk_zero_stack(k, n, trials, seed)
        est, _, converged, _ = sdpic._recursion(w, bits, sdpic.INFTY_STAGE_CAP,
                                                sdpic.INFTY_TOL)
        q = np.max(np.sum(np.abs(np.eye(k) - w), axis=2), axis=1)
        screened = q <= sdpic.CONTRACTION_SCREEN
        assert np.count_nonzero(screened) > trials // 2
        assert np.all(converged[screened])
        assert np.max(np.abs(est[screened] - bits[screened])) <= 1e-9
        assert np.array_equal(np.sign(est[screened]), bits[screened])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdpic, "CONTRACTION_SCREEN", -1.0)  # screens nothing
            unscreened = ber_experiment(k, n, math.inf, trials, seed)
        assert ber_experiment(k, n, math.inf, trials, seed) == unscreened


class TestRecursionKeepsItsBits:
    @pytest.mark.parametrize("product", [sdpic._stack_product, sdpic._matrix_product])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("cap", [40, 1000])
    def test_mixed_stacks(self, k, cap, product):
        w, z = mixed_stack(k, 1500, seed=k)
        expected = eager_recursion(w, z, cap, sdpic.INFTY_TOL, product=product)
        assert 0 < np.count_nonzero(expected[2]) < len(z)  # some converge, some do not
        assert_same_results(sdpic._recursion(w, z, cap, sdpic.INFTY_TOL, product=product),
                            expected)

    @pytest.mark.parametrize("product", [sdpic._stack_product, sdpic._matrix_product])
    def test_divergent_instance(self, product):
        w, z = sdpic._instance(divergent_instance(), np.ones(8))
        expected = eager_recursion(w, z, sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL,
                                   product=product)
        assert not np.all(np.isfinite(expected[0]))
        assert_same_results(sdpic._recursion(w, z, sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL,
                                             product=product), expected)

    def test_visit_without_tolerance(self):
        w, z = mixed_stack(3, 200, seed=5)
        seen, seen_eager = [], []
        got = sdpic._recursion(w, z, 60, visit=lambda s, e: seen.append((s, e.copy())))
        expected = eager_recursion(w, z, 60, visit=lambda s, e: seen_eager.append((s, e.copy())))
        assert_same_results(got, expected)
        assert [s for s, _ in seen] == list(range(1, 61))
        for (sa, a), (sb, b) in zip(seen, seen_eager, strict=True):
            assert sa == sb and np.array_equal(a, b, equal_nan=True)

    def test_visit_arrays_stay_valid(self):
        # the iterates of a block share one buffer, reused block after
        # block: an array that visit keeps uncopied must keep its stage
        w, z = mixed_stack(3, 200, seed=6)
        cap = 4 * sdpic._block_stages(200, 3) + 5
        kept, seen_eager = [], []
        sdpic._recursion(w, z, cap, visit=lambda s, e: kept.append(e))
        eager_recursion(w, z, cap, visit=lambda s, e: seen_eager.append(e.copy()))
        assert len(kept) == cap
        for a, b in zip(kept, seen_eager, strict=True):
            assert np.array_equal(a, b, equal_nan=True)

    def test_rows_stop_at_every_offset_of_a_block(self):
        # scalar trials whose contraction |1 - w| spreads their stops over
        # six blocks, among rows that never stop (w = 2 alternates 2, 0, 2,
        # ...), too few to compact the stack: each stop's offset in its
        # block is (stage - 2) mod b
        t, stopping = 1024, 192
        b = sdpic._block_stages(t, 1)
        assert b == sdpic.BLOCK_STAGES
        ratio = 10.0 ** (-10.0 / np.linspace(1.0, 6.0 * b, stopping))
        w = np.full((t, 1, 1), 2.0)
        w[:stopping, 0, 0] = 1.0 + ratio * np.where(np.arange(stopping) % 2, 1.0, -1.0)
        z = np.ones((t, 1))
        expected = eager_recursion(w, z, 1000, sdpic.INFTY_TOL)
        assert np.count_nonzero(expected[2]) == stopping < t // 4
        assert set((expected[1][:stopping] - 2) % b) == set(range(b))
        assert_same_results(sdpic._recursion(w, z, 1000, sdpic.INFTY_TOL), expected)

    @pytest.mark.parametrize("product", [sdpic._stack_product, sdpic._matrix_product])
    @pytest.mark.parametrize("cap_of", [lambda b: 1, lambda b: 2, lambda b: b - 1,
                                        lambda b: b + 1, lambda b: 1000],
                             ids=["1", "2", "b-1", "b+1", "1000"])
    def test_caps_at_block_edges(self, cap_of, product):
        w, z = mixed_stack(3, 40, seed=8)
        cap = cap_of(sdpic._block_stages(40, 3))
        for tol in (sdpic.INFTY_TOL, None):
            assert_same_results(sdpic._recursion(w, z, cap, tol, product=product),
                                eager_recursion(w, z, cap, tol, product=product))

    @pytest.mark.parametrize("tol", [sdpic.INFTY_TOL, None])
    def test_empty_stack(self, tol):
        w, z = np.zeros((0, 3, 3)), np.zeros((0, 3))
        got = sdpic._recursion(w, z, sdpic.INFTY_STAGE_CAP, tol)
        assert all(len(a) == 0 for a in got)
        assert_same_results(got, eager_recursion(w, z, sdpic.INFTY_STAGE_CAP, tol))

    def test_stack_of_one_stage_blocks(self):
        # 4096 rows of 8 users fill the buffer's floats at one stage a block
        w, z = mixed_stack(8, 4096, seed=9)
        assert sdpic._block_stages(4096, 8) == 1
        expected = eager_recursion(w, z, 300, sdpic.INFTY_TOL)
        assert 0 < np.count_nonzero(expected[2]) < len(z)
        assert_same_results(sdpic._recursion(w, z, 300, sdpic.INFTY_TOL), expected)

    def test_instance_laws_through_iterate_to_limit(self):
        rng = make_rng(12)
        laws = (R, EntryDistribution.UNIFORM_SYM, EntryDistribution.STD_NORMAL)
        outcomes = set()
        for i in range(48):  # every (law, k) pair twice
            k = i % 8 + 1
            c = sample_matrix(laws[i % 3], k, int(rng.integers(4, 65)),
                              int(rng.integers(1 << 30)))
            z = random_bits(rng, k)
            est, stages, converged = iterate_to_limit(c, z)
            expected = eager_recursion(*sdpic._instance(c, z), sdpic.INFTY_STAGE_CAP,
                                       sdpic.INFTY_TOL, product=sdpic._matrix_product)
            assert np.array_equal(est, expected[0][0], equal_nan=True)
            assert (stages, converged) == (expected[1][0], expected[2][0])
            outcomes.add(converged)
        assert outcomes == {True, False}


class TestDistinctPairs:
    # at s=inf an outcome depends only on (W, Z), so ber_experiment decodes
    # each distinct pair of a pool once and scatters the result to its trials
    @pytest.mark.parametrize("args", [
        (3, 8, math.inf, 1 << 16, 12345),
        (4, 6, math.inf, 20000, 3),
        (3, 18, math.inf, 10**5, 909),  # oscillation ties at lambda_max = 2
        # singular W with Z = (1, -1) decodes to exact zeros: each duplicate
        # of that pair takes its own coins
        (2, 2, math.inf, 20000, 4),
    ])
    def test_counts_equal_decoding_every_trial(self, args):
        deduplicated = ber_experiment(*args)
        with pytest.MonkeyPatch.context() as mp:
            # every row its own class
            mp.setattr(sdpic, "_sign_gram_classes",
                       lambda w, n, extra: (np.arange(len(w)), np.arange(len(w))))
            every_trial = ber_experiment(*args)
        assert deduplicated.cap_hit_count > 0
        assert deduplicated == every_trial

    @pytest.mark.parametrize("k, n", [(2, 2), (3, 8), (4, 6), (3, 18)])
    def test_one_decode_per_distinct_pair(self, monkeypatch, k, n):
        # CHUNK_TRIALS trials make one chunk and so one pool
        trials, seed = sdpic.CHUNK_TRIALS, 909
        w, bits = chunk_zero_stack(k, n, trials, seed)
        rest = np.max(np.sum(np.abs(np.eye(k) - w), axis=2), axis=1) > sdpic.CONTRACTION_SCREEN
        pairs = {m.tobytes() + b.tobytes() for m, b in zip(w[rest], bits[rest])}
        decoded = []
        recursion = sdpic._recursion
        monkeypatch.setattr(sdpic, "_recursion",
                            lambda w, z, *args: decoded.append(len(z)) or recursion(w, z, *args))
        ber_experiment(k, n, math.inf, trials, seed)
        assert decoded == [len(pairs)]
        assert len(pairs) < np.count_nonzero(rest)
