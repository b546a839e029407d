import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigrates import (
    DimensionError,
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
    run_decode,
    sample_matrix,
    sdpic_closed,
    sdpic_stage,
    spectrum,
    stage_trace,
    weighted_sdpic,
    zero_count_at_least,
)
from eigrates import core, mclab, sdpic
from eigrates.core import covariance_batch, eigvalues_batch

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
    entries = R.sample(rng, (trials, k, n))
    return [(SampleMatrix(R, k, n, entries[t], seed=0), bits[t]) for t in range(trials)]


def divergent_instance():
    # +/-1, k=8, n=4: lambda_max = 3.618..., so the recursion overflows
    return sample_matrix(R, 8, 4, 1)


def chunk_zero_stack(k, n, trials, seed):
    """(W stack, bits) of the trials ber_experiment draws in chunk 0."""
    rng = derive_rng(seed, 0)
    bits = (rng.integers(0, 2, size=(trials, k)) * 2 - 1).astype(np.float64)
    rng.integers(0, 2, size=(trials, k))  # the tie-break coins
    return np.concatenate(list(core.gram_blocks(R, rng, trials, k, n))), bits


def _matrix_product(w, x, out=None):
    """W x row by row with the bits of w @ x: the matmul reference whose bits
    the single-instance decoders (np.dot) must keep."""
    return np.matmul(w, x[..., None], out=None if out is None else out[..., None])[..., 0]


def instance_stack(c, z):
    """A single instance's W and Z as a stack of one."""
    w, z = sdpic._instance(c, z)
    return w[None], z[None]


def eager_recursion(w, z, cap, tol=None, visit=None):
    """The recursion compacting its stack in every stage where a trial
    converges: the reference that sdpic._recursion must match bit for bit,
    with the stack product that sdpic._stack_product is when called."""
    product = sdpic._stack_product
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


def eager_trace(c, z, stages, coin_seed):
    """stage_trace's rows built from eager_recursion's per-stage iterates."""
    iterates = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdpic, "_stack_product", _matrix_product)
        eager_recursion(*instance_stack(c, z), stages,
                        visit=lambda s, e: iterates.append((s, e[0].copy())))
    assert [s for s, _ in iterates] == list(range(1, stages + 1))
    return [(s, float(np.max(np.abs(e - z))),
             int(np.count_nonzero(decide_bits(e, coin_seed) != z))) for s, e in iterates]


def mixed_stack(k, t, seed):
    """W stack whose trials converge at many stages, hit the cap, or overflow."""
    rng = derive_rng(seed)
    w = covariance_batch(EntryDistribution.STD_NORMAL.sample(rng, (t, k, 4 * k)))
    w *= rng.uniform(0.2, 1.6, size=(t, 1, 1))
    # singular and lambda_max >= 2
    w[: t // 8] = np.concatenate(list(core.gram_blocks(R, rng, t // 8, k, 2 * k)))
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

# ber_experiment's full records at finite stages, where estimates that are
# exactly zero go to a coin, so the counts follow the decode's round-off.
PINNED_FINITE_MODE = [
    ((4, 6, 3, 20000, 3), {},
     {"experiment": "sdpic_ber", "k": 4, "n": 6, "s": 3, "weight": None, "trials": 20000,
      "any_user_error_count": 4021, "per_user_error_counts": [989, 1069, 1063, 1000],
      "p_hat": 0.20105, "empirical_rate": 0.267366940939809, "seed": 3, "cap_hit_count": 0,
      "oscillation_count": 0, "ci": [0.19551425728734234, 0.20667277734871126]}),
    ((4, 12, 5, 20000, 9), {},
     {"experiment": "sdpic_ber", "k": 4, "n": 12, "s": 5, "weight": None, "trials": 20000,
      "any_user_error_count": 413, "per_user_error_counts": [110, 89, 110, 108],
      "p_hat": 0.02065, "empirical_rate": 0.3233366632979246, "seed": 9, "cap_hit_count": 0,
      "oscillation_count": 0, "ci": [0.018724031418748736, 0.022717015692593562]}),
    ((6, 10, 4, 20000, 2), {"weight": 1.5},
     {"experiment": "sdpic_ber", "k": 6, "n": 10, "s": 4, "weight": 1.5, "trials": 20000,
      "any_user_error_count": 802, "per_user_error_counts": [163, 157, 152, 178, 158, 161],
      "p_hat": 0.0401, "empirical_rate": 0.3216378944669614, "seed": 2, "cap_hit_count": 0,
      "oscillation_count": 0, "ci": [0.03742298433478585, 0.04291173101851218]}),
]


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
        assert np.max(np.abs(sdpic_closed(c, z, 1) - covariance(c).values @ z)) <= 1e-10

    def test_stage_zero_rejected(self):
        with pytest.raises(DomainError):
            sdpic_stage(orthogonal_pair(), np.array([1.0, 1.0]), 0)
        with pytest.raises(DomainError):
            sdpic_closed(orthogonal_pair(), np.array([1.0, 1.0]), 0)

    def test_signal_dimension_gate(self):
        with pytest.raises(DimensionError):
            sdpic_stage(orthogonal_pair(), np.array([1.0, 1.0, 1.0]), 1)

    # each stage gate and each weight gate, fed one bad value
    GATED = {
        "sdpic_stage": lambda s: sdpic_stage(orthogonal_pair(), np.ones(2), s),
        "sdpic_closed": lambda s: sdpic_closed(orthogonal_pair(), np.ones(2), s),
        "weighted_sdpic": lambda s: weighted_sdpic(orthogonal_pair(), np.ones(2), s, 1.0),
        "error_free_condition": lambda s: error_free_condition(
            Spectrum(np.array([0.9, 1.1]), np.eye(2), 0.0), s),
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
        z = random_bits(derive_rng(seed + 1), k)
        a = sdpic_stage(c, z, s)
        b = sdpic_closed(c, z, s)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) <= 1e-10 * scale

    def test_matches_spectral_form_in_convergent_regime(self):
        # [I - (I-W)^s] Z computed through the eigendecomposition
        rng = derive_rng(8)
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
        rng = derive_rng(12)
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
        rng = derive_rng(5)
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
        rng = derive_rng(6)
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
        rng = derive_rng(7)
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
        assert error_free_condition(sp, 2)

    def test_singular_never_passes(self):
        sp = Spectrum(np.array([0.0, 1.0]), np.eye(2), 0.0)
        for s in (1, 2, 10, 100):
            assert not error_free_condition(sp, s)

    def test_threshold_form(self):
        # condition is equivalent to eps < k ** (-1/(2s))
        rng = derive_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            s = int(rng.integers(1, 5))
            eps = float(rng.uniform(0.0, 1.5))
            lam = np.array([1.0 - eps] + [1.0] * (k - 2) + [1.0 + eps * rng.uniform(0.0, 1.0)])
            sp = Spectrum(lam, np.eye(k), 0.0)
            expected = eps < k ** (-1.0 / (2.0 * s))
            assert error_free_condition(sp, s) == expected


class TestDecodeAndLimit:
    def test_run_decode_stage_one(self):
        c = sample_matrix(R, 3, 12, 3)
        z = np.array([1.0, -1.0, 1.0])
        state = run_decode(c, z, 1, coin_seed=5)
        assert state.stage == 1
        assert np.allclose(state.estimate, covariance(c).values @ z)
        assert set(np.unique(state.decided)) <= {-1.0, 1.0}

    def test_iterate_to_limit_converges(self):
        rng = derive_rng(14)
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
            iterate_to_limit(c, z)
            stage_trace(c, z, 1000, coin_seed=1)

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
        rng = derive_rng(10)
        violations = 0
        for s in (1, 2, 3):
            entries = R.sample(rng, (500, 4, 32))
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
                                or lam[0] <= mclab.ZERO_EIG_TOL * scale)
        assert 0 < oscillating < est.cap_hit_count
        assert est.oscillation_count == oscillating

    def test_oscillation_ties_do_not_depend_on_round_off(self):
        # at k=3, n=18 some capped trials have lambda_max exactly 2 and two
        # users with equal last steps; einsum and matmul round them apart
        args = (3, 18, math.inf, 10**5, 909)
        stacked = ber_experiment(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdpic, "_stack_product", _matrix_product)
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

    def test_finite_mode_records_are_pinned(self):
        for args, kwargs, record in PINNED_FINITE_MODE:
            assert ber_experiment(*args, **kwargs).record() == record

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

    def test_memory_holds_no_chunk_stack(self):
        # at k = n = 32 a 2^14-trial chunk of W takes 128 MiB, a gram block 8
        tracemalloc.start()
        try:
            ber_experiment(32, 32, 6, 1 << 14, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * core.GRAM_BLOCK_ENTRIES

    def test_infinite_mode_pools_distances(self):
        # at (16, 64) every trial of a 2^14-trial chunk is unsettled: its pool
        # takes 1.9 MiB as distances, 32 MiB as float W.  Float W is built
        # one gram block of sign classes at a time; the classes' whole
        # float W, held by the recursion, peaked at 73.7 MiB, and a pool of
        # float W (its chunk list, their join and the distinct rows) at 88.6
        tracemalloc.start()
        try:
            ber_experiment(16, 64, math.inf, 1 << 14, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * core.GRAM_BLOCK_ENTRIES

    @pytest.mark.parametrize("k, n, trials", [(4, 6, 20000), (3, 8, 20000), (5, 9, 3000)])
    def test_split_pools_keep_their_records(self, k, n, trials, monkeypatch):
        # a shrunk gram block splits every screen and pool into many blocks
        # (at (5, 9) almost every trial is its own sign class, so fewer
        # trials give as many blocks); each row's arithmetic does not
        # depend on its block
        args = (k, n, math.inf, trials, 17)
        whole = ber_experiment(*args)
        calls = []
        for name in ("_decode_pool", "_recursion"):
            def counted(*a, _f=getattr(sdpic, name), _name=name, **kw):
                calls.append(_name)
                return _f(*a, **kw)
            monkeypatch.setattr(sdpic, name, counted)
        monkeypatch.setattr(core, "GRAM_BLOCK_ENTRIES", 1 << 9)
        assert ber_experiment(*args) == whole
        # each pool's _decode_pool call is followed by its _recursion calls
        per_pool = " ".join(calls).split("_decode_pool")[1:]
        assert per_pool and all(len(pool.split()) > 1 for pool in per_pool)

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


    def test_integer_decision_at_q_exactly_0_9(self, monkeypatch):
        # n q = max_i sum_(j != i) |n - 2 d_ij|.  At n = 20, distances
        # (d01, d02, d12) = (5, 6, 7) give row sums 10 + 8, 10 + 6 and 8 + 6,
        # so q = 18/20 = 0.9 exactly, and the trial is settled.  (A row of
        # distances (1, 10) has the same sum, but at k = 3 the parity of
        # d01 + d02 + d12 then puts another row at 20.)
        k, n = 3, 20
        distances = np.array([[5, 6, 7], [5, 4, 9], [1, 10, 9]], dtype=np.uint8)
        assert sdpic._unsettled(distances, k, n).tolist() == [False, True, True]
        w = core._sign_gram(distances, k, n)
        q = np.max(np.sum(np.abs(np.eye(k) - w), axis=2), axis=1)
        assert q[0] == 0.9 and np.allclose(q[1:], [1.1, 1.0], rtol=0, atol=1e-15)
        # settled or not, such a trial decodes without error for every Z
        for bits in np.array(np.meshgrid(*[[-1.0, 1.0]] * k)).reshape(k, -1).T:
            est, _, converged, _ = sdpic._recursion(w[:1], bits[None], sdpic.INFTY_STAGE_CAP,
                                                    sdpic.INFTY_TOL)
            assert converged[0] and np.array_equal(np.sign(est[0]), bits)
        # chunk 0 of this run holds many q = 0.9 trials; decoding every trial
        # gives the same records
        trials, seed = sdpic.CHUNK_TRIALS, 909
        w, _ = chunk_zero_stack(k, n, trials, seed)
        n_q = np.rint(n * np.max(np.sum(np.abs(np.eye(k) - w), axis=2), axis=1))
        assert np.count_nonzero(n_q == 18) > 100
        screened = ber_experiment(k, n, math.inf, trials, seed)
        monkeypatch.setattr(sdpic, "CONTRACTION_SCREEN", -1.0)  # screens nothing
        assert ber_experiment(k, n, math.inf, trials, seed) == screened

    @pytest.mark.parametrize("k, n", [(3, 20), (3, 10), (4, 30), (5, 40)])
    def test_float_and_integer_screens_differ_only_at_0_9(self, k, n):
        trials, seed = sdpic.CHUNK_TRIALS, 5
        w, _ = chunk_zero_stack(k, n, trials, seed)
        rows, cols = np.triu_indices(k, 1)
        distances = np.rint((1.0 - w[:, rows, cols]) * n / 2).astype(np.uint8)
        exact = sdpic._unsettled(distances, k, n)
        q = np.max(np.sum(np.abs(np.eye(k) - w), axis=2), axis=1)
        on_level = np.rint(n * q) * 10 == 9 * n
        assert np.array_equal(exact[~on_level], (q > sdpic.CONTRACTION_SCREEN)[~on_level])
        assert not exact[on_level].any()


class TestRecursionKeepsItsBits:
    @pytest.mark.parametrize("product", [sdpic._stack_product, _matrix_product])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("cap", [40, 1000])
    def test_mixed_stacks(self, k, cap, product, monkeypatch):
        monkeypatch.setattr(sdpic, "_stack_product", product)
        w, z = mixed_stack(k, 1500, seed=k)
        expected = eager_recursion(w, z, cap, sdpic.INFTY_TOL)
        assert 0 < np.count_nonzero(expected[2]) < len(z)  # some converge, some do not
        assert_same_results(sdpic._recursion(w, z, cap, sdpic.INFTY_TOL), expected)

    @pytest.mark.parametrize("product", [sdpic._stack_product, _matrix_product])
    def test_divergent_instance(self, product, monkeypatch):
        monkeypatch.setattr(sdpic, "_stack_product", product)
        w, z = instance_stack(divergent_instance(), np.ones(8))
        expected = eager_recursion(w, z, sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL)
        assert not np.all(np.isfinite(expected[0]))
        assert_same_results(sdpic._recursion(w, z, sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL),
                            expected)

    def test_visit_without_tolerance(self):
        # with no tol every trial runs to the cap; stage_trace, the one
        # per-stage reader of the recursion, gives rows built from the same
        # stage's iterate of the reference recursion, bit for bit
        w, z = mixed_stack(3, 200, seed=5)
        assert_same_results(sdpic._recursion(w, z, 60), eager_recursion(w, z, 60))
        c, z = sample_matrix(R, 3, 40, 4), np.array([1.0, -1.0, 1.0])
        assert stage_trace(c, z, 60, coin_seed=5) == eager_trace(c, z, 60, 5)

    def test_visit_arrays_stay_valid(self):
        # on a diverging instance each row keeps its stage: the rows equal
        # the reference's, and a shorter trace is their prefix
        c, z = divergent_instance(), np.ones(8)
        rows = stage_trace(c, z, 60, coin_seed=5)
        assert rows == eager_trace(c, z, 60, 5)
        assert rows[-1][1] > 1e20
        assert stage_trace(c, z, 17, coin_seed=5) == rows[:17]

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

    @pytest.mark.parametrize("product", [sdpic._stack_product, _matrix_product])
    @pytest.mark.parametrize("cap_of", [lambda b: 1, lambda b: 2, lambda b: b - 1,
                                        lambda b: b + 1, lambda b: 1000],
                             ids=["1", "2", "b-1", "b+1", "1000"])
    def test_caps_at_block_edges(self, cap_of, product, monkeypatch):
        monkeypatch.setattr(sdpic, "_stack_product", product)
        w, z = mixed_stack(3, 40, seed=8)
        cap = cap_of(sdpic._block_stages(40, 3))
        for tol in (sdpic.INFTY_TOL, None):
            assert_same_results(sdpic._recursion(w, z, cap, tol),
                                eager_recursion(w, z, cap, tol))

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

    def test_instance_laws_through_iterate_to_limit(self, monkeypatch):
        monkeypatch.setattr(sdpic, "_stack_product", _matrix_product)  # the reference's product
        rng = derive_rng(12)
        laws = (R, EntryDistribution.UNIFORM_SYM, EntryDistribution.STD_NORMAL)
        outcomes = set()
        for i in range(48):  # every (law, k) pair twice
            k = i % 8 + 1
            c = sample_matrix(laws[i % 3], k, int(rng.integers(4, 65)),
                              int(rng.integers(1 << 30)))
            z = random_bits(rng, k)
            est, stages, converged = iterate_to_limit(c, z)
            expected = eager_recursion(*instance_stack(c, z), sdpic.INFTY_STAGE_CAP,
                                       sdpic.INFTY_TOL)
            assert np.array_equal(est, expected[0][0], equal_nan=True)
            assert (stages, converged) == (expected[1][0], expected[2][0])
            outcomes.add(converged)
        assert outcomes == {True, False}


def matmul_partial_sum(w, z, s, weight=1.0):
    """The partial sum M^-1 sum_{j<s} (I - W/M)^j W Z with the matmul reference
    as the product."""
    m_inv = 1.0 / weight
    with np.errstate(over="ignore", invalid="ignore"):
        term = _matrix_product(w, z)
        acc = term.copy()
        for _ in range(s - 1):
            term = term - m_inv * _matrix_product(w, term)
            acc += term
        return acc * m_inv


class TestInstanceKeepsMatmulBits:
    # a single instance's products are np.dot's gemv, which must give the
    # bits of matmul's per-matrix loop
    @staticmethod
    def instances():
        rng = derive_rng(13)
        laws = (R, EntryDistribution.UNIFORM_SYM, EntryDistribution.STD_NORMAL)
        for i in range(48):  # every (law, k) pair twice
            k = i % 8 + 1
            c = sample_matrix(laws[i % 3], k, int(rng.integers(4, 65)),
                              int(rng.integers(1 << 30)))
            yield c, random_bits(rng, k), int(rng.integers(1, 33))
        # W = [[1, 1], [1, 1]]: capped, alternating between (2, 2) and (0, 0)
        yield SampleMatrix(R, 2, 2, np.ones((2, 2)), seed=0), np.ones(2), 1000
        yield divergent_instance(), np.ones(8), 1000  # overflows

    def test_decoders(self, monkeypatch):
        monkeypatch.setattr(sdpic, "_stack_product", _matrix_product)  # the reference's product
        capped = []
        for c, z, s in self.instances():
            w, zb = instance_stack(c, z)
            est, stages, converged = iterate_to_limit(c, z)
            expected = eager_recursion(w, zb, sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL)
            assert np.array_equal(est, expected[0][0], equal_nan=True)
            assert (stages, converged) == (expected[1][0], expected[2][0])
            if not converged:
                capped.append(bool(np.all(np.isfinite(est))))
            expected = eager_recursion(w, zb, s)[0][0]
            assert np.array_equal(sdpic_stage(c, z, s), expected, equal_nan=True)
            assert np.array_equal(sdpic_closed(c, z, s), matmul_partial_sum(w, zb, s)[0],
                                  equal_nan=True)
            for weight in (0.7, 1.0, 1.5):
                assert np.array_equal(weighted_sdpic(c, z, s, weight),
                                      matmul_partial_sum(w, zb, s, weight)[0], equal_nan=True)
            assert stage_trace(c, z, min(s, 60), 3) == eager_trace(c, z, min(s, 60), 3)
        assert True in capped and False in capped


def sign_stack(k, seed):
    """+/-1 W stack holding singular, lambda_max >= 2 and overflowing trials
    among convergent ones, with random bits."""
    rng = derive_rng(seed)
    w = np.concatenate([block for n in (max(1, k // 2), k, 2 * k, 8 * k)
                        for block in core.gram_blocks(R, rng, 300, k, n)])
    z = (rng.integers(0, 2, size=(len(w), k)) * 2 - 1).astype(np.float64)
    return np.ascontiguousarray(w), z


class TestSignSymmetry:
    # negating user i's code row and bit negates row and column i of W off
    # the diagonal and row i of every iterate, exactly; the s=inf pool
    # decodes each sign class against Z = 1 on this identity
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_recursion(self, k):
        w, z = sign_stack(k, seed=k)
        d = random_bits(derive_rng(k, 1), (len(w), k))
        lam = eigvalues_batch(w)
        assert np.any(lam[:, -1] >= 2.0) and np.any(zero_count_at_least(1)(lam))
        est, stages, converged, ahead = sdpic._recursion(w, z, sdpic.INFTY_STAGE_CAP,
                                                         sdpic.INFTY_TOL)
        assert 0 < np.count_nonzero(converged) < len(z)
        # |1 - lambda| <= k - 1, so the iterates overflow from k = 4 only
        assert np.all(np.isfinite(est)) == (k < 4)
        dwd = d[:, :, None] * w * d[:, None, :]
        assert_same_results(
            sdpic._recursion(dwd, d * z, sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL),
            (d * est, stages, converged, d * ahead))

    @pytest.mark.parametrize("s", [1, 4, 32])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_partial_sum(self, k, s):
        w, z = sign_stack(k, seed=k)
        d = random_bits(derive_rng(k, 1), (len(w), k))
        dwd = d[:, :, None] * w * d[:, None, :]
        assert_same_results([sdpic._partial_sum(dwd, d * z, s)],
                            [d * sdpic._partial_sum(w, z, s)])


def every_trial_pool(distances, bits, coins, k, n):
    """sdpic._decode_pool with every trial decoded on its own (W, Z): no sign
    flip and no deduplication, the reference for the pooled counts."""
    est, _, converged, ahead = sdpic._recursion(
        np.ascontiguousarray(core._sign_gram(distances, k, n)), bits,
        sdpic.INFTY_STAGE_CAP, sdpic.INFTY_TOL)
    capped = np.flatnonzero(~converged)
    oscillating = np.zeros(len(bits), dtype=bool)
    if capped.size > 0:
        oscillating[capped] = sdpic._oscillating(core._sign_gram(distances[capped], k, n))
    wrong = sdpic._decide_batch(est, coins) != bits
    osc = np.flatnonzero(oscillating)
    marked = wrong[osc] | (np.sign(ahead[osc]) != np.sign(est[osc]))
    quiet = np.flatnonzero(~np.any(marked, axis=1))
    step = np.abs(ahead[osc[quiet]] - est[osc[quiet]])
    top = step >= np.max(step, axis=1, keepdims=True) * (1.0 - sdpic._TIE_RTOL)
    marked[quiet, np.argmax(top, axis=1)] = True
    wrong[osc] = marked
    return wrong, int(np.count_nonzero(~converged)), osc.size


def unsettled_sign_classes(k, n, trials, seed):
    """(W, bits, D W D) of chunk 0's trials that the contraction screen
    leaves to decode.  A sign flip turns a zero of W into -0.0, which the
    pool's D W D, built from flipped distances, holds as +0.0: adding 0.0
    makes them equal."""
    w, bits = chunk_zero_stack(k, n, trials, seed)
    rest = np.max(np.sum(np.abs(np.eye(k) - w), axis=2), axis=1) > sdpic.CONTRACTION_SCREEN
    w, bits = w[rest], bits[rest]
    return w, bits, bits[:, :, None] * w * bits[:, None, :] + 0.0


class TestDistinctPairs:
    # at s=inf (W, Z) decodes as D decode(D W D, 1) with D = diag(Z), so
    # ber_experiment decodes each sign class of a pool once against Z = 1
    # and multiplies the result back by each trial's bits
    @pytest.mark.parametrize("args", [
        (3, 8, math.inf, 1 << 16, 12345),
        (4, 6, math.inf, 20000, 3),
        (3, 18, math.inf, 10**5, 909),  # oscillation ties at lambda_max = 2
        # singular W with Z = (1, -1) decodes to exact zeros: each trial of
        # that class takes its own coins
        (2, 2, math.inf, 20000, 4),
    ])
    def test_counts_equal_decoding_every_trial(self, args):
        classes = ber_experiment(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdpic, "_decode_pool", every_trial_pool)
            every_trial = ber_experiment(*args)
        assert classes.cap_hit_count > 0
        assert classes == every_trial

    @pytest.mark.parametrize("k, n", [(2, 2), (3, 8), (4, 6), (3, 18)])
    def test_one_decode_per_sign_class(self, monkeypatch, k, n):
        # CHUNK_TRIALS trials make one chunk and so one pool
        trials, seed = sdpic.CHUNK_TRIALS, 909
        w, bits, dwd = unsettled_sign_classes(k, n, trials, seed)
        pairs = {m.tobytes() + b.tobytes() for m, b in zip(w, bits)}
        classes = {m.tobytes() for m in dwd}
        decoded = []
        recursion = sdpic._recursion
        monkeypatch.setattr(sdpic, "_recursion",
                            lambda w, z, *args: decoded.append(len(z)) or recursion(w, z, *args))
        ber_experiment(k, n, math.inf, trials, seed)
        assert decoded == [len(classes)]
        assert len(classes) <= len(pairs) < len(w)
        if (k, n) in ((3, 8), (4, 6)):
            assert len(classes) < len(pairs)

    @pytest.mark.parametrize("k, n", [(3, 8), (4, 6), (3, 18), (5, 9)])
    def test_class_oscillation_flag_is_each_members(self, monkeypatch, k, n):
        # a capped class's flag is decided on its D W D, whose eigenvalues
        # are each member's W's to LAPACK's round-off
        trials, seed = sdpic.CHUNK_TRIALS, 909
        w, _, dwd = unsettled_sign_classes(k, n, trials, seed)
        members = {}
        for t, m in enumerate(dwd):
            members.setdefault(m.tobytes(), []).append(t)
        flagged = []
        oscillating = sdpic._oscillating
        monkeypatch.setattr(sdpic, "_oscillating",
                            lambda w: flagged.append((w, oscillating(w))) or flagged[-1][1])
        ber_experiment(k, n, math.inf, trials, seed)
        [(capped, flags)] = flagged
        assert flags.any()
        for m, flag in zip(capped, flags):
            own = sdpic._oscillating(w[members[m.tobytes()]])
            assert own.size > 0 and np.all(own == flag)
