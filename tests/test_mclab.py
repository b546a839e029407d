import math
import tracemalloc

import numpy as np
import pytest

from eigrates import (
    CgfSpec,
    DomainError,
    EntryDistribution,
    TailSide,
    UnitVector,
    clopper_pearson,
    derive_rng,
    enumerate_exact,
    estimate_tail,
    legendre,
    max_above,
    min_below,
    spectrum_histogram,
    zero_count_at_least,
    zero_eigen_rate,
)
from eigrates import mclab, ber_experiment
from eigrates.core import _chunks, covariance_batch, eigvalues_batch, gram_batch, sample_batch
from eigrates.mclab import _multisets, _sign_matrix_counts
import wishart_reference

R = EntryDistribution.RADEMACHER
U = EntryDistribution.UNIFORM_SYM
N = EntryDistribution.STD_NORMAL


class TestClopperPearson:
    def test_brackets_the_estimate(self):
        lo, hi = clopper_pearson(37, 1000)
        assert lo <= 0.037 <= hi

    def test_zero_and_full(self):
        lo, hi = clopper_pearson(0, 500)
        assert lo == 0.0 and 0 < hi < 0.02
        lo, hi = clopper_pearson(500, 500)
        assert 0.98 < lo < 1.0 and hi == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            clopper_pearson(5, 4)

    def test_matches_scipy_beta_quantile(self):
        # scipy.stats is the oracle here only; the package uses scipy.special
        from scipy.stats import beta

        pairs = [(h, t) for t in range(1, 41) for h in range(t + 1)]
        for t in (10**3, 10**4, 10**5, 10**6, 7 * 10**7):
            pairs += [(h, t) for h in (0, 1, 2, 3, 17, t // 3, t // 2, t - 2, t - 1, t)]
        tail = (1.0 - mclab.CI_LEVEL) / 2.0
        for hits, trials in pairs:
            lo = 0.0 if hits == 0 else float(beta.ppf(tail, hits, trials - hits + 1))
            hi = 1.0 if hits == trials else float(beta.ppf(1.0 - tail, hits + 1, trials - hits))
            assert clopper_pearson(hits, trials) == (lo, hi), (hits, trials)


class TestEstimateTail:
    def test_exhaustive_k2_n2_min(self):
        # lambda_min = 0 iff the two rows are equal or opposite: 2 of 4 choices
        est = estimate_tail(R, 2, 2, 0.0, TailSide.MIN_BELOW, 80000, 7)
        assert est.ci_low <= 0.5 <= est.ci_high
        assert abs(est.p_hat - 0.5) < 0.01

    def test_exhaustive_k2_n2_max(self):
        # eigenvalues are 1 +/- |rho| with rho in {-1, 0, 0, 1}
        est = estimate_tail(R, 2, 2, 2.0, TailSide.MAX_ABOVE, 80000, 7)
        assert abs(est.p_hat - 0.5) < 0.01

    def test_certain_event(self):
        est = estimate_tail(U, 3, 5, 0.0, TailSide.MAX_ABOVE, 500, 1)
        assert est.p_hat == 1.0
        assert est.empirical_rate == 0.0

    def test_monotone_in_alpha_shared_seed(self):
        alphas = [0.2, 0.5, 0.8, 1.0, 1.3]
        mins = [estimate_tail(R, 3, 12, a, TailSide.MIN_BELOW, 4000, 99).hits for a in alphas]
        maxs = [estimate_tail(R, 3, 12, a, TailSide.MAX_ABOVE, 4000, 99).hits for a in alphas]
        assert mins == sorted(mins)
        assert maxs == sorted(maxs, reverse=True)

    def test_rademacher_spectrum_cap(self):
        # the largest eigenvalue never exceeds k, so the event is impossible
        est = estimate_tail(R, 3, 6, 3.0 + 1e-9, TailSide.MAX_ABOVE, 5000, 4)
        assert est.hits == 0
        assert est.empirical_rate is None

    def test_determinism(self):
        a = estimate_tail(N, 2, 10, 1.5, TailSide.MAX_ABOVE, 3000, 5)
        b = estimate_tail(N, 2, 10, 1.5, TailSide.MAX_ABOVE, 3000, 5)
        assert a == b

    @pytest.mark.parametrize("dist, k, n", [(R, 3, 16), (U, 2, 3), (N, 2, 3)])
    def test_stream_layout(self, dist, k, n):
        # chunk c holds up to CHUNK_TRIALS trials drawn from derive_rng(seed, c)
        seed = 11
        sizes = [mclab.CHUNK_TRIALS, 5]
        # normal-entry W is a Bartlett draw, the others come from the entries
        def draw(rng, size):
            if dist is N:
                return wishart_reference.bartlett_gram(rng, size, k, n)
            return covariance_batch(sample_batch(dist, rng, size, k, n))
        lam_min = np.concatenate([eigvalues_batch(draw(derive_rng(seed, c), size))[:, 0]
                                  for c, size in enumerate(sizes)])
        # levels at the last chunk's own eigenvalues: another stream misses them
        for alpha in lam_min[-sizes[-1]:]:
            est = estimate_tail(dist, k, n, float(alpha), TailSide.MIN_BELOW, sum(sizes), seed)
            assert est.hits == int(np.count_nonzero(lam_min <= alpha))

    @pytest.mark.parametrize("k, n, deduplicated", [
        (3, 8, True), (3, 20, True), (4, 10, True), (8, 2, True), (8, 64, False)])
    def test_one_eigen_solve_per_distinct_sign_matrix(self, monkeypatch, k, n, deduplicated):
        # +/-1 chunks solve each distinct W once when there are at most
        # CHUNK_TRIALS column-class multisets; (8, 2) has 8,256, (8, 64) far more
        seed, trials = 21, mclab.CHUNK_TRIALS + 3000
        lam = np.concatenate([eigvalues_batch(gram_batch(R, rng, size, k, n))
                              for rng, size in _chunks(seed, trials, mclab.CHUNK_TRIALS)])
        solved = []
        monkeypatch.setattr(mclab, "eigvalues_batch",
                            lambda w: solved.append(len(w)) or eigvalues_batch(w))
        pooled = np.concatenate(list(mclab._spectra(R, k, n, trials, seed)))
        assert np.array_equal(pooled, lam)
        assert (sum(solved) < trials) == deduplicated
        for alpha, side, event in [(0.5, TailSide.MIN_BELOW, lam[:, 0] <= 0.5),
                                   (1.5, TailSide.MAX_ABOVE, lam[:, -1] >= 1.5)]:
            est = estimate_tail(R, k, n, alpha, side, trials, seed)
            assert est.hits == int(np.count_nonzero(event))
        hist = spectrum_histogram(R, k, n, trials, 40, seed)
        mass, edges = np.histogram(lam.ravel(), bins=40)
        assert np.array_equal(hist.bin_edges, edges)
        assert np.array_equal(hist.mass, mass / lam.size)

    @pytest.mark.parametrize("k, n", [(3, 4), (3, 71), (5, 4), (9, 2), (17, 1)])
    def test_distinct_sign_eigvalues(self, monkeypatch, k, n):
        # (9, 2) and (17, 1) pack their keys into more than one int64 word
        w = gram_batch(R, derive_rng(2), 5000, k, n)
        solved = []
        monkeypatch.setattr(mclab, "eigvalues_batch",
                            lambda w: solved.append(w) or eigvalues_batch(w))
        assert np.array_equal(mclab._distinct_sign_eigvalues(w, n), eigvalues_batch(w))
        distinct = {m.tobytes() for m in w}
        assert len(solved[0]) == len(distinct) == len({m.tobytes() for m in solved[0]})

    def test_trials_gate(self):
        with pytest.raises(DomainError):
            estimate_tail(N, 2, 10, 1.5, TailSide.MAX_ABOVE, 0, 5)

    def test_side_parse(self):
        assert TailSide.parse("min_below") is TailSide.MIN_BELOW
        assert TailSide.parse("MAX_ABOVE") is TailSide.MAX_ABOVE
        with pytest.raises(DomainError):
            TailSide.parse("sideways")


class TestNormalTailOracle:
    """Normal-entry estimate_tail at k=2 against the exact tails of
    wishart_reference, within 5 standard errors of the exact p."""

    SEED = 1313  # fixed before the first run
    TRIALS = 1 << 20

    @pytest.mark.parametrize("n", [5, 40, 200])
    @pytest.mark.parametrize("larger", [True, False])
    def test_oracle_mass(self, n, larger):
        assert abs(wishart_reference.total_mass(n, larger) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n, p", [(100, 9.446e-2), (200, 1.438e-2), (400, 3.337e-4)])
    def test_oracle_values(self, n, p):
        assert float(f"{wishart_reference.max_above(n, 1.3):.4g}") == p

    @pytest.mark.parametrize("side, n, alpha", [
        (TailSide.MAX_ABOVE, 100, 1.3), (TailSide.MAX_ABOVE, 200, 1.3),
        (TailSide.MAX_ABOVE, 400, 1.3), (TailSide.MIN_BELOW, 50, 0.6),
        (TailSide.MIN_BELOW, 100, 0.6)])
    def test_estimate_tail_matches(self, side, n, alpha):
        exact = (wishart_reference.max_above if side is TailSide.MAX_ABOVE
                 else wishart_reference.min_below)(n, alpha)
        est = estimate_tail(N, 2, n, alpha, side, self.TRIALS, self.SEED)
        se = math.sqrt(exact * (1 - exact) / self.TRIALS)
        assert abs(est.p_hat - exact) <= 5 * se, (est.p_hat, exact, (est.p_hat - exact) / se)


def bit_walk(k: int, n: int, predicates) -> list[float]:
    """Exact probability of each predicate by walking all 2^(k*n) sign
    matrices, one bit pattern each: the oracle for enumerate_exact."""
    bits = k * n
    total = 1 << bits
    step = 1 << min(18, bits)
    shifts = np.arange(bits, dtype=np.uint32)
    hits = [0] * len(predicates)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint32)
        signs = (2 * ((idx[:, None] >> shifts) & 1).astype(np.int8) - 1).astype(np.float64)
        lam = eigvalues_batch(covariance_batch(signs.reshape(-1, k, n)))
        for i, pred in enumerate(predicates):
            hits[i] += int(np.count_nonzero(pred(lam)))
    return [h / total for h in hits]


# every shape with k*n <= 16
SMALL_SHAPES = [(k, n) for k in range(1, 17) for n in range(1, 16 // k + 1)]


class TestEnumerateExact:
    @pytest.mark.parametrize("k,n", SMALL_SHAPES)
    def test_equals_the_bit_walk(self, k, n):
        # levels 0.5, 1.5 and 2.0 are hit exactly by some +/-1 spectra
        predicates = [side(alpha) for side in (min_below, max_above)
                      for alpha in (0.5, 1.5, 2.0)]
        predicates += [zero_count_at_least(l) for l in range(1, k)]
        exact = [enumerate_exact(k, n, pred) for pred in predicates]
        assert exact == bit_walk(k, n, predicates)

    def test_memory_stays_within_a_chunk(self, monkeypatch):
        # 2^19 classes at (20, 1): a table of every class pattern would take
        # 80 MB; chunked, numpy never holds more than a few chunks' worth
        monkeypatch.setattr(mclab, "eigvalues_batch", lambda w: np.zeros(w.shape[:-1]))
        tracemalloc.start()
        try:
            enumerate_exact(20, 1, min_below(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * mclab.ENUM_CHUNK_ENTRIES

    @pytest.mark.parametrize("k,n", [(1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3),
                                     (12, 2), (24, 1)])
    def test_counts_cover_every_sign_matrix(self, k, n):
        total = sum(int(_sign_matrix_counts(rows).sum())
                    for rows in _multisets(1 << (k - 1), n, 1 << 16))
        assert total == 1 << (k * n)

    def test_k2_n2_zero_event(self):
        assert enumerate_exact(2, 2, zero_count_at_least(1)) == 0.5

    def test_k2_n4_zero_event(self):
        # rows equal or opposite: 2 * 2^-4
        assert enumerate_exact(2, 4, zero_count_at_least(1)) == 0.125

    def test_k1_unit_mass(self):
        assert enumerate_exact(1, 5, max_above(1.0)) == 1.0
        assert enumerate_exact(1, 5, max_above(1.0 + 1e-9)) == 0.0

    def test_k3_rank_deficiency_count(self):
        # rank <= 1 iff rows 2 and 3 both equal +/- row 1: (2*2^-n)^2
        assert enumerate_exact(3, 3, zero_count_at_least(2)) == 2.0 ** (2 - 2 * 3)

    def test_size_gate(self):
        with pytest.raises(DomainError):
            enumerate_exact(5, 6, min_below(1.0))

    def test_agrees_with_monte_carlo(self):
        for k, n, pred, alpha, side in [
            (2, 6, min_below(0.4), 0.4, TailSide.MIN_BELOW),
            (3, 5, max_above(1.8), 1.8, TailSide.MAX_ABOVE),
            (2, 8, max_above(2.2), 2.2, TailSide.MAX_ABOVE),
        ]:
            exact = enumerate_exact(k, n, pred)
            est = estimate_tail(R, k, n, alpha, side, 40000, 17)
            assert est.ci_low <= exact <= est.ci_high


class TestZeroEigenRate:
    def test_exact_small_n(self):
        (pt,) = zero_eigen_rate(2, 1, [10], trials=10, seed=0)
        assert pt.method == "exact"
        assert pt.p_hat == 2.0**-9
        assert pt.empirical_rate == pytest.approx(0.9 * math.log(2.0), abs=1e-12)

    def test_mc_large_n(self):
        (pt,) = zero_eigen_rate(2, 1, [16], trials=300000, seed=3)
        assert pt.method == "mc"
        assert pt.ci_low <= 2.0**-15 <= pt.ci_high

    def test_l_gate(self):
        with pytest.raises(DomainError):
            zero_eigen_rate(2, 2, [10], trials=10, seed=0)

    def test_mc_trials_gate(self):
        # the Monte Carlo branch once divided its hits by zero trials
        with pytest.raises(DomainError):
            zero_eigen_rate(2, 1, [6, 16], trials=0, seed=0)

    def test_exact_sweep_needs_no_trials(self):
        points = zero_eigen_rate(2, 1, [6, 10], trials=0, seed=0)
        assert [p.method for p in points] == ["exact", "exact"]

    def test_rate_trend_toward_log2(self):
        points = zero_eigen_rate(2, 1, [6, 9, 12], trials=10, seed=0)
        rates = [p.empirical_rate for p in points]
        assert rates == sorted(rates)
        assert rates[-1] < math.log(2.0)


class TestSpectrumHistogram:
    def test_bulk_support_normal(self):
        h = spectrum_histogram(N, 20, 200, 300, 30, 5)
        assert h.outside_fraction <= 0.01
        assert h.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bulk_support_rademacher(self):
        h = spectrum_histogram(R, 20, 200, 300, 30, 5)
        assert h.outside_fraction <= 0.01

    def test_k1_concentrates_at_one(self):
        h = spectrum_histogram(U, 1, 4000, 600, 10, 2)
        assert h.bin_edges[0] > 0.8 and h.bin_edges[-1] < 1.2

    def test_bin_gate(self):
        with pytest.raises(DomainError):
            spectrum_histogram(N, 2, 10, 10, 50, 1)

    def test_shape_gate(self):
        # n = 0 once divided by zero in the bulk edges, then crashed in np.histogram
        with pytest.raises(DomainError):
            spectrum_histogram(N, 2, 0, 100, 10, 1)


class TestChernoffSideBound:
    def test_fixed_direction_upper_bound(self):
        # For a fixed direction the probability bound P <= exp(-n * rate)
        # holds at every n; the Monte Carlo CI must not contradict it.
        x = UnitVector.uniform(2)
        spec = CgfSpec.for_direction(R, x)
        n, trials, alpha = 30, 40000, 0.5
        rate, _ = legendre(spec, alpha)
        hits = 0
        chunk = 8000
        for index in range(trials // chunk):
            rng = derive_rng(123, index)
            entries = R.sample(rng, (chunk, 2, n))
            s = np.einsum("k,tkn->tn", x.coords, entries)
            qf = np.mean(s * s, axis=1)
            hits += int(np.count_nonzero(qf <= alpha))
        lo, _ = clopper_pearson(hits, trials)
        assert lo <= math.exp(-n * rate) + 1e-12


class TestRecords:
    """The JSON records of the result types, pinned field by field."""

    def test_tail_estimate(self):
        est = estimate_tail(N, 2, 20, 1.3, TailSide.MAX_ABOVE, 500, 3)
        assert est.record() == {
            "experiment": "tail", "dist": "normal", "k": 2, "n": 20, "alpha": 1.3,
            "side": "max_above", "trials": 500, "hits": 241, "p_hat": 0.482,
            "ci": [0.4374208363760878, 0.5267931648122826],
            "empirical_rate": 0.036490558246576835, "seed": 3,
        }

    def test_zero_eigen_points(self):
        exact, mc = zero_eigen_rate(2, 1, [6, 14], 1000, 1)
        assert exact.record() == {
            "experiment": "zero_eigen", "k": 2, "l": 1, "n": 6, "method": "exact",
            "trials": None, "hits": None, "p_hat": 0.03125, "ci": None,
            "empirical_rate": 0.5776226504666211, "seed": None,
        }
        assert mc.record() == {
            "experiment": "zero_eigen", "k": 2, "l": 1, "n": 14, "method": "mc",
            "trials": 1000, "hits": 0, "p_hat": 0.0, "ci": [0.0, 0.003682083896865671],
            "empirical_rate": None, "seed": 1,
        }

    def test_ber_estimates(self):
        assert ber_experiment(3, 8, 3, 400, 2, weight=0.8).record() == {
            "experiment": "sdpic_ber", "k": 3, "n": 8, "s": 3, "weight": 0.8,
            "trials": 400, "any_user_error_count": 22, "per_user_error_counts": [6, 9, 7],
            "p_hat": 0.055, "ci": [0.03478548020372223, 0.08208923736452577],
            "empirical_rate": 0.36255276171870826, "seed": 2,
            "cap_hit_count": 0, "oscillation_count": 0,
        }
        assert ber_experiment(3, 8, math.inf, 400, 4).record() == {
            "experiment": "sdpic_ber", "k": 3, "n": 8, "s": "inf", "weight": None,
            "trials": 400, "any_user_error_count": 46, "per_user_error_counts": [46, 40, 41],
            "p_hat": 0.115, "ci": [0.08543574724338862, 0.15040266262311575],
            "empirical_rate": 0.2703528938273609, "seed": 4,
            "cap_hit_count": 45, "oscillation_count": 45,
        }
