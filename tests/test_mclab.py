import hashlib
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
    estimate_tails,
    legendre_solve,
    max_above,
    min_below,
    spectrum_histogram,
    zero_count_at_least,
    zero_eigen_rate,
)
from eigrates import mclab, ber_experiment
from eigrates.core import (
    GRAM_BLOCK_ENTRIES,
    _chunks,
    _sign_distances,
    _sign_gram,
    _sign_gram_classes,
    covariance_batch,
    eigvalues_batch,
    gram_blocks,
)
from eigrates.mclab import _multisets, _sign_matrix_counts
import wishart_reference

R = EntryDistribution.RADEMACHER
U = EntryDistribution.UNIFORM_SYM
N = EntryDistribution.STD_NORMAL


def chunk_grams(dist, k, n, trials, seed):
    """The W of each chunk that _spectra samples, one stack per chunk."""
    return [np.concatenate(list(gram_blocks(dist, rng, size, k, n)))
            for rng, size in _chunks(seed, trials, mclab.CHUNK_TRIALS)]


def trial_eigvalues(dist, k, n, trials, seed):
    """Ascending eigenvalues of every trial that _spectra samples, one row
    per trial: the reference for its (lam, count) pairs."""
    return np.concatenate([eigvalues_batch(w) for w in chunk_grams(dist, k, n, trials, seed)])


def expand(pairs):
    """_spectra's (lam, count) pairs as one row per trial, rows sorted."""
    lam = np.concatenate([np.repeat(lam, count, axis=0) for lam, count in pairs])
    return sort_rows(lam)


def sort_rows(lam):
    return lam[np.lexsort(lam.T[::-1])]


# +/-1 Monte Carlo outputs, pinned before the distance refactor: each shape
# maps to (min_below levels, max_above levels), and each level to its hits
# over PINNED_TRIALS trials at PINNED_SEED (two chunks).  Levels with an
# integer n * alpha put tied W on the level, where round-off decides.
PINNED_TRIALS, PINNED_SEED = 70000, 26
PINNED_SIGN_TAILS = {
    (3, 8): (((0.0, 0.25, 0.5), (1329, 13878, 45617)),
             ((1.5, 2.0, 2.5), (43296, 6676, 103))),
    (3, 24): (((0.4, 0.5, 0.625), (1160, 5788, 19110)),
              ((1.4, 1.5, 1.75), (19105, 8021, 598))),
    (4, 10): (((0.0, 0.1, 0.3), (423, 1272, 30807)),
              ((1.7, 2.0, 2.5), (39083, 11703, 571))),
    (5, 5): (((0.0, 0.1, 0.2), (22378, 58073, 68878)),
             ((2.2, 3.0, 3.6), (42757, 5067, 364))),
    (6, 3): (((0.0, 0.05, 0.3), (64705, 70000, 70000)),
             ((3.4, 4.0, 5.0), (37160, 11499, 1346))),
    (8, 2): (((0.0, 0.5, 1.0), (70000, 70000, 70000)),
             ((5.0, 6.0, 7.0), (45486, 8303, 5004))),
    (8, 64): (((0.4, 0.45, 0.5), (1848, 7975, 21945)),
              ((1.6, 1.7, 1.85), (22218, 7282, 812))),
    (2, 16): (((0.375, 0.5, 0.625), (1466, 5370, 14669)),
              ((1.375, 1.5, 1.625), (14669, 5370, 1466))),
    (2, 300): (((0.85, 0.9, 0.96), (662, 6453, 36548)),
               ((1.04, 1.1, 1.15), (36548, 6453, 662))),
}
# zero_eigen_rate(k, 1, n_list, PINNED_TRIALS, PINNED_SEED): (method, hits, p_hat)
PINNED_ZERO_POINTS = {
    (2, (6, 13, 14, 16, 18)): [("exact", None, 0.03125), ("mc", 11, 11 / 70000),
                               ("mc", 7, 7 / 70000), ("mc", 2, 2 / 70000),
                               ("mc", 1, 1 / 70000)],
    (3, (4, 8, 9, 12)): [("exact", None, 0.34375), ("exact", None, 0.0233154296875),
                         ("mc", 770, 770 / 70000), ("mc", 103, 103 / 70000)],
}
# SHA-256 of spectrum_histogram(R, k, n, PINNED_TRIALS, 40, PINNED_SEED)'s
# mass then bin edges, and its outside fraction
PINNED_HISTOGRAMS = {
    (3, 8): ("9edcd67bd21bc735153b9081e11206b520d0d533376faaac00b25c872c5c63ef",
             0.008242857142857142),
    (2, 16): ("f7ab96f1c3510de9ef3f48bc9d1bc8fcdf77403c62923e6d19e4e7a798291ff0",
              0.0019357142857142856),
}


class TestPinnedSignTails:
    @pytest.mark.parametrize("k, n", list(PINNED_SIGN_TAILS))
    def test_tail_hits(self, k, n):
        for side, (levels, hits) in zip((TailSide.MIN_BELOW, TailSide.MAX_ABOVE),
                                        PINNED_SIGN_TAILS[k, n]):
            estimates = estimate_tails(R, k, n, levels, side, PINNED_TRIALS, PINNED_SEED)
            assert tuple(e.hits for e in estimates) == hits, side

    @pytest.mark.parametrize("k, n_list", list(PINNED_ZERO_POINTS))
    def test_zero_eigen_points(self, k, n_list):
        points = zero_eigen_rate(k, 1, n_list, PINNED_TRIALS, PINNED_SEED)
        assert [(p.method, p.hits, p.p_hat) for p in points] == PINNED_ZERO_POINTS[k, n_list]

    @pytest.mark.parametrize("k, n", list(PINNED_HISTOGRAMS))
    def test_histogram_mass(self, k, n):
        h = spectrum_histogram(R, k, n, PINNED_TRIALS, 40, PINNED_SEED)
        digest = hashlib.sha256(h.mass.tobytes() + h.bin_edges.tobytes()).hexdigest()
        assert (digest, h.outside_fraction) == PINNED_HISTOGRAMS[k, n]


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
            return covariance_batch(dist.sample(rng, (size, k, n)))
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
        lam = trial_eigvalues(R, k, n, trials, seed)
        solved = []
        monkeypatch.setattr(mclab, "eigvalues_batch",
                            lambda w: solved.append(len(w)) or eigvalues_batch(w))
        pairs = list(mclab._spectra(R, k, n, trials, seed))
        assert sum(int(count.sum()) for _, count in pairs) == trials
        assert np.array_equal(expand(pairs), sort_rows(lam))
        assert (sum(solved) < trials) == deduplicated
        for alpha, side, event in [(0.5, TailSide.MIN_BELOW, lam[:, 0] <= 0.5),
                                   (1.5, TailSide.MAX_ABOVE, lam[:, -1] >= 1.5)]:
            est = estimate_tail(R, k, n, alpha, side, trials, seed)
            assert est.hits == int(np.count_nonzero(event))
        hist = spectrum_histogram(R, k, n, trials, 40, seed)
        mass, edges = np.histogram(lam.ravel(), bins=40)
        assert np.array_equal(hist.bin_edges, edges)
        assert np.array_equal(hist.mass, mass / lam.size)

    @pytest.mark.parametrize("k, n", [(8, 2), (5, 5), (6, 3), (4, 10), (3, 8), (2, 16), (1, 5)])
    def test_each_chunk_solves_its_distinct_classes(self, monkeypatch, k, n):
        # one key per chunk, over all its gram blocks: a chunk solves each
        # distinct W once, however many blocks hold it
        seed, trials = 5, mclab.CHUNK_TRIALS + 3000
        distinct = [len({m.tobytes() for m in w}) for w in chunk_grams(R, k, n, trials, seed)]
        solved = []  # rows solved, per chunk
        classes = mclab._sign_gram_classes

        def chunk_classes(distances, n):
            solved.append(0)
            return classes(distances, n)

        def solve(w):
            solved[-1] += len(w)
            return eigvalues_batch(w)
        monkeypatch.setattr(mclab, "_sign_gram_classes", chunk_classes)
        monkeypatch.setattr(mclab, "eigvalues_batch", solve)
        for _ in mclab._spectra(R, k, n, trials, seed):
            pass
        assert solved == distinct

    def test_multiset_gate_matches_math_comb(self):
        cap = mclab.CHUNK_TRIALS
        for classes in (1 << e for e in range(20)):
            for n in [*range(40), 100, 1000]:
                assert mclab._multisets_at_most(classes, n, cap) == (
                    math.comb(classes + n - 1, n) <= cap), (classes, n)

    @pytest.mark.parametrize("k, n, key", [(3, 8, 8), (17, 10**6, None), (64, 10**5, None)])
    def test_dedup_decided_without_math_comb(self, monkeypatch, k, n, key):
        # math.comb builds a binomial of 355,228 bits at (17, 10^6); the chunk
        # itself is not drawn here.  key: the n of the distances drawn for
        # the exact key, None for W drawn in gram blocks
        def no_comb(*args):
            raise AssertionError("math.comb called")
        keys = []
        monkeypatch.setattr(math, "comb", no_comb)
        monkeypatch.setattr(mclab, "gram_blocks", lambda dist, rng, m, k, n:
                            keys.append(None) or [np.zeros((m, k, k))])
        monkeypatch.setattr(mclab, "_sign_distances", lambda rng, m, k, n:
                            keys.append(n) or np.zeros((m, k * (k - 1) // 2), dtype=np.uint8))
        monkeypatch.setattr(mclab, "_eigvalues", lambda w, count, screen: (w[:, 0], count))
        next(mclab._spectra(R, k, n, 1, 0))
        assert keys == [key]

    @pytest.mark.parametrize("k, n", [(3, 4), (3, 71), (5, 4), (9, 2), (17, 1)])
    def test_distinct_sign_eigvalues(self, monkeypatch, k, n):
        # _eigvalues over a chunk's distinct W with their trial counts, or
        # over every W with count 1, with no screen or one at the median of
        # either extreme eigenvalue, which keeps the rows at or beyond it;
        # (9, 2) and (17, 1) pack their keys into more than one int64 word
        distances = _sign_distances(derive_rng(2), 5000, k, n)
        w = _sign_gram(distances, k, n)
        lam = eigvalues_batch(w)
        first, inverse = _sign_gram_classes(distances, n)
        distinct = _sign_gram(distances[first], k, n)
        assert np.array_equal(distinct[inverse], w)
        upper, lower = float(np.median(lam[:, -1])), float(np.median(lam[:, 0]))
        screens = [(None, np.ones(len(w), dtype=bool)),
                   ((upper, -1.0), lam[:, -1] >= upper - 1e-6),
                   ((lower, 1.0), lam[:, 0] <= lower + 1e-6)]
        assert n == 1 or not all(keep.all() for _, keep in screens)
        solved = []
        monkeypatch.setattr(mclab, "eigvalues_batch",
                            lambda w: solved.append(w) or eigvalues_batch(w))
        for screen, keep in screens:
            for stack, count in ((distinct, np.bincount(inverse)),
                                 (w, np.ones(len(w), dtype=np.int64))):
                solved.clear()
                kept = mclab._eigvalues(stack, count, screen)
                assert np.array_equal(expand([kept]), sort_rows(lam[keep]))
                rows = np.concatenate(solved)
                # each kept W solved once, each distinct one once over the classes
                kept_w = {m.tobytes() for m in w[keep]}
                assert len(rows) == (len(kept_w) if stack is distinct else np.count_nonzero(keep))
                assert {m.tobytes() for m in rows} == kept_w

    def test_trials_gate(self):
        with pytest.raises(DomainError):
            estimate_tail(N, 2, 10, 1.5, TailSide.MAX_ABOVE, 0, 5)
        # no levels: nothing to count or screen
        assert estimate_tails(N, 2, 10, (), TailSide.MAX_ABOVE, 10, 5) == []

    def test_empty_grid_samples_nothing(self, monkeypatch):
        def no_spectra(*args):
            raise AssertionError("an empty level grid sampled trials")

        monkeypatch.setattr(mclab, "_spectra", no_spectra)
        assert estimate_tails(R, 8, 64, (), TailSide.MAX_ABOVE, 1 << 15, 1) == []
        # the trial gate still runs first
        with pytest.raises(DomainError):
            estimate_tails(R, 8, 64, (), TailSide.MAX_ABOVE, 0, 1)

    def test_side_parse(self):
        # one spelling per side: the enum value
        for side in TailSide:
            assert TailSide.parse(side.value) is side
        for name in ("MAX_ABOVE", " min_below", "sideways"):
            with pytest.raises(DomainError, match="unknown tail side"):
                TailSide.parse(name)


class TestTailScreen:
    # estimate_tails drops the W that a Cholesky factorization proves reach
    # no level; the counts must be those of solving every W
    @staticmethod
    def _unscreened(monkeypatch):
        # a screen that proves nothing: every W goes to the eigen solve
        monkeypatch.setattr(mclab, "cholesky_completes",
                            lambda w, shift, sign: np.zeros(len(w), dtype=bool))

    @pytest.mark.parametrize("dist", [R, U, N])
    @pytest.mark.parametrize("k, n", [(3, 30), (8, 64), (6, 3), (16, 40)])
    def test_counts_equal_unscreened(self, monkeypatch, dist, k, n):
        seed, trials = 31, 6000
        lam = trial_eigvalues(dist, k, n, trials, seed)
        lam_min, lam_max = lam[:, 0], lam[:, -1]
        # three-level grids at sampled eigenvalues: in each tail, so the
        # screened level (the lowest upper level, the highest lower one)
        # ties with a trial; and across the spectrum, where screening the
        # other tail's side of W would drop hits
        grids = [
            (TailSide.MAX_ABOVE, np.quantile(lam_max, [0.9, 0.99, 0.999], method="higher")),
            (TailSide.MIN_BELOW, np.quantile(lam_min, [0.001, 0.01, 0.1], method="lower")),
            (TailSide.MAX_ABOVE, np.quantile(lam_min, [0.1, 0.5, 0.9], method="higher")),
            (TailSide.MIN_BELOW, np.quantile(lam_max, [0.1, 0.5, 0.9], method="lower")),
        ]
        grids = [(side, tuple(grid.tolist())) for side, grid in grids]
        screened = [[e.hits for e in estimate_tails(dist, k, n, grid, side, trials, seed)]
                    for side, grid in grids]
        for (side, grid), hits in zip(grids, screened):
            event = lam_max >= np.array(grid)[:, None] if side is TailSide.MAX_ABOVE \
                else lam_min <= np.array(grid)[:, None]
            assert hits == np.count_nonzero(event, axis=1).tolist()
        self._unscreened(monkeypatch)
        assert screened == [[e.hits for e in estimate_tails(dist, k, n, grid, side, trials, seed)]
                            for side, grid in grids]

    def test_sign_ties(self, monkeypatch):
        # at (3, 200) n W is an integer matrix, and lambda_max = q/n exactly
        # for many W; levels at such q/n put those W on the level (1.7 is
        # the rate curve's level, out of reach of this many trials)
        k, n, seed, trials = 3, 200, 41, 20000
        lam_max = trial_eigvalues(R, k, n, trials, seed)[:, -1]
        integral = np.abs(lam_max * n - np.rint(lam_max * n)) < 1e-9 * n
        levels = [1.7] + [q / n for q in np.unique(np.rint(lam_max[integral] * n))[-6:]]
        ties = sum(int(np.count_nonzero(np.abs(lam_max - a) < 1e-12)) for a in levels)
        assert ties >= 5
        screened = [estimate_tail(R, k, n, a, TailSide.MAX_ABOVE, trials, seed).hits
                    for a in levels]
        assert screened == [int(np.count_nonzero(lam_max >= a)) for a in levels]
        self._unscreened(monkeypatch)
        assert screened == [estimate_tail(R, k, n, a, TailSide.MAX_ABOVE, trials, seed).hits
                            for a in levels]

    def test_screen_of_events(self):
        # one screen for events on one tail side, at the level nearest the
        # bulk; none for no events, a zero count, or both sides
        screen = mclab._tail_screen
        assert screen([]) is None
        assert screen([zero_count_at_least(1)]) is None
        assert screen([zero_count_at_least(1), max_above(1.5)]) is None
        assert screen([min_below(0.5), max_above(1.5)]) is None
        assert screen([max_above(2.0), max_above(1.5), max_above(np.float64(1.7))]) == (1.5, -1.0)
        assert screen([min_below(0.25), min_below(0.5), min_below(0.3)]) == (0.5, 1.0)
        level, _ = screen([max_above(2), max_above(np.float64(1.7))])
        assert type(level) is float and level == 1.7
        assert screen([max_above(math.inf)]) == (math.inf, -1.0)

    @pytest.mark.parametrize("k, n", [(3, 8), (4, 6)])
    def test_enumeration_equals_unscreened(self, monkeypatch, k, n):
        # enumeration shares Monte Carlo's screen; levels 0.5, 1.5 and 2.0
        # hold W with an eigenvalue exactly on the level
        events = [side(alpha) for side in (min_below, max_above)
                  for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5)]
        solved = []
        monkeypatch.setattr(mclab, "eigvalues_batch",
                            lambda w: solved.append(len(w)) or eigvalues_batch(w))
        screened = [enumerate_exact(k, n, event) for event in events]
        kept = sum(solved)
        solved.clear()
        self._unscreened(monkeypatch)
        assert screened == [enumerate_exact(k, n, event) for event in events]
        assert kept < sum(solved)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("dist", [R, N])
    def test_levels_not_finite(self, dist, alpha):
        # the shift is infinite or NaN: no warning, and LAPACK decides every W
        lam = trial_eigvalues(dist, 4, 9, 3000, 2)
        upper = estimate_tail(dist, 4, 9, alpha, TailSide.MAX_ABOVE, 3000, 2)
        lower = estimate_tail(dist, 4, 9, alpha, TailSide.MIN_BELOW, 3000, 2)
        assert upper.hits == np.count_nonzero(lam[:, -1] >= alpha)
        assert lower.hits == np.count_nonzero(lam[:, 0] <= alpha)

    @pytest.mark.parametrize("k, n", [(3, 30), (6, 3)])
    def test_screens_distinct_sign_matrices_only(self, monkeypatch, k, n):
        # a deduplicated +/-1 chunk screens each of its distinct W once, in
        # one call, however many gram blocks (6 at (3, 30), 3 at (6, 3)) hold it
        screened = []
        screen = mclab.cholesky_completes

        def spy(w, shift, sign):
            screened.append({m.tobytes() for m in w})
            assert len(screened[-1]) == len(w)
            return screen(w, shift, sign)
        monkeypatch.setattr(mclab, "cholesky_completes", spy)
        trials, seed = mclab.CHUNK_TRIALS, 8
        estimate_tail(R, k, n, 1.5, TailSide.MAX_ABOVE, trials, seed)
        w, = chunk_grams(R, k, n, trials, seed)
        assert screened == [{m.tobytes() for m in w}]
        assert len(screened[0]) <= math.comb((1 << (k - 1)) + n - 1, n)


class TestMemoryBound:
    @pytest.mark.parametrize("dist", [R, U, N])
    def test_estimate_tail_holds_no_chunk_stack(self, dist):
        # at k = n = 32 a 2^13-trial chunk of W takes 64 MiB, a gram block 8
        # (normal entries peak near 34 MiB, the others near 25)
        tracemalloc.start()
        try:
            estimate_tail(dist, 32, 32, 3.0, TailSide.MAX_ABOVE, 1 << 13, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * GRAM_BLOCK_ENTRIES

    @pytest.mark.parametrize("k, n", [(17, 1), (12, 1)])
    def test_deduplicated_chunk_holds_no_wide_key(self, k, n):
        # a 2^16-trial chunk keeps its distances (8.5 MiB at (17, 1)) and a
        # key of them; an int64 copy of the distances would take 94 MiB
        # (peaks near 26 and 10 MiB)
        tracemalloc.start()
        try:
            estimate_tail(R, k, n, 1.5, TailSide.MAX_ABOVE, mclab.CHUNK_TRIALS, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * GRAM_BLOCK_ENTRIES


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
        assert peak < 6 * 8 * GRAM_BLOCK_ENTRIES

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
        with pytest.raises(DomainError):
            enumerate_exact(0, 5, min_below(1.0))

    def test_agrees_with_monte_carlo(self):
        for k, n, pred, alpha, side in [
            (2, 6, min_below(0.4), 0.4, TailSide.MIN_BELOW),
            (3, 5, max_above(1.8), 1.8, TailSide.MAX_ABOVE),
            (2, 8, max_above(2.2), 2.2, TailSide.MAX_ABOVE),
        ]:
            exact = enumerate_exact(k, n, pred)
            est = estimate_tail(R, k, n, alpha, side, 40000, 17)
            assert est.ci_low <= exact <= est.ci_high


class TestZeroEigenvalueRule:
    def test_zero_count_at_least(self):
        lam = np.array([[0.0, 0.0, 3.0], [1e-12, 2e-9, 3.0], [0.0, 0.5, 2.5]])
        assert zero_count_at_least(1)(lam).tolist() == [True, True, True]
        assert zero_count_at_least(2)(lam).tolist() == [True, True, False]

    def test_scale_is_max_of_one_and_trace(self):
        # the scale is the eigenvalue sum when it exceeds 1, and 1 otherwise
        assert zero_count_at_least(1)(np.array([[3e-9, 3.0]]))[0]
        assert not zero_count_at_least(1)(np.array([[3.1e-9, 3.0]]))[0]
        assert zero_count_at_least(1)(np.array([[0.9e-9, 0.1]]))[0]
        assert not zero_count_at_least(1)(np.array([[1.1e-9, 0.1]]))[0]

    @pytest.mark.parametrize("l", [0, -1])
    def test_l_below_one(self, l):
        # l = 0 once read lam[:, -1] and counted no W at all
        with pytest.raises(DomainError, match="l >= 1"):
            enumerate_exact(2, 3, zero_count_at_least(l))

    def test_more_zeros_than_eigenvalues(self):
        # a k-row W has at most k zero eigenvalues; l > k once raised IndexError
        lam = np.zeros((4, 2))
        assert zero_count_at_least(2)(lam).all()
        assert not zero_count_at_least(3)(lam).any()
        assert enumerate_exact(2, 3, zero_count_at_least(3)) == 0.0
        assert enumerate_exact(2, 3, zero_count_at_least(2)) == 0.0


class TestOneEventCall:
    # every eigenvalue decision in the package is a SpectralEvent call
    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        call = mclab.SpectralEvent.__call__
        monkeypatch.setattr(mclab.SpectralEvent, "__call__",
                            lambda event, lam: made.append(event) or call(event, lam))
        return made

    def test_enumeration_and_monte_carlo(self, calls):
        assert enumerate_exact(3, 4, max_above(1.5)) > 0
        assert set(calls) == {max_above(1.5)}
        calls.clear()
        estimate_tails(U, 3, 8, (0.2, 0.3), TailSide.MIN_BELOW, 1000, 3)
        assert set(calls) == {min_below(0.2), min_below(0.3)}

    def test_zero_eigen_points(self, calls):
        for n, method in [(4, "exact"), (12, "mc")]:
            calls.clear()
            point, = zero_eigen_rate(3, 2, [n], 1000, 5)
            assert point.method == method
            assert calls and set(calls) == {zero_count_at_least(2)}

    def test_capped_sign_classes(self, calls):
        est = ber_experiment(3, 8, math.inf, 1 << 16, 12345)
        assert est.cap_hit_count > 0
        assert set(calls) == {max_above(2.0 - 1e-12), zero_count_at_least(1)}


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

    def test_enumerates_only_when_cheap(self):
        # (12, 2) passes k*n <= 24 but has comb(2049, 2) = 2,098,176
        # multisets of column classes, so it is sampled; k = 2 up to n = 12
        # and k = 3 up to n = 8 have at most 165 and stay exact
        (pt,) = zero_eigen_rate(12, 1, [2], trials=10, seed=0)
        assert pt.method == "mc"
        assert {p.method for p in zero_eigen_rate(2, 1, range(1, 13), 0, 0)} == {"exact"}
        assert {p.method for p in zero_eigen_rate(3, 1, range(1, 9), 0, 0)} == {"exact"}

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

    def test_outside_fraction_above_square(self):
        # at k > n the n nonzero eigenvalues of W are those of (1/n) C^T C and
        # lie in [(sqrt(k/n) - 1)^2, (sqrt(k/n) + 1)^2]; the k - n structural
        # zeros of each trial count as inside
        k, n, trials, seed = 5, 3, 4000, 9
        h = spectrum_histogram(U, k, n, trials, 20, seed)
        c = np.concatenate([U.sample(rng, (size, k, n))
                            for rng, size in _chunks(seed, trials, mclab.CHUNK_TRIALS)])
        nonzero = np.linalg.eigvalsh(np.swapaxes(c, -1, -2) @ c / n)
        lo, hi = (math.sqrt(k / n) - 1.0) ** 2, (math.sqrt(k / n) + 1.0) ** 2
        outside = np.count_nonzero((nonzero < lo - 0.05) | (nonzero > hi + 0.05))
        assert np.count_nonzero(nonzero < lo - 0.05) > 0
        assert h.outside_fraction == outside / (trials * k)

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
        rate = legendre_solve(spec, alpha).rate
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
