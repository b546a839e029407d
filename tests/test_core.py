import math
import tracemalloc
import warnings

import numpy as np
import pytest

from eigrates import (
    ConvergenceError,
    CovMatrix,
    DimensionError,
    DomainError,
    EntryDistribution,
    SampleMatrix,
    UnitVector,
    covariance,
    derive_rng,
    make_rng,
    mp_edges,
    quadratic_form,
    sample_matrix,
    spectrum,
    trace_stat,
)
from eigrates import core
from eigrates.core import (
    bottom_eigenvalues_vanish,
    covariance_batch,
    eigvalues_batch,
    gram_batch,
    sample_batch,
)
from jacobi_reference import jacobi_eigh
from wishart_reference import bartlett_gram

R = EntryDistribution.RADEMACHER
U = EntryDistribution.UNIFORM_SYM
N = EntryDistribution.STD_NORMAL


class TestSampling:
    def test_rademacher_support(self):
        c = sample_matrix(R, 2, 4, 123)
        assert set(np.unique(c.entries)) <= {-1.0, 1.0}

    def test_uniform_support_and_moments(self):
        c = sample_matrix(U, 1, 10**6, 7)
        assert np.all(np.abs(c.entries) <= math.sqrt(3.0))
        assert abs(c.entries.mean()) < 0.005
        assert abs(c.entries.var() - 1.0) < 0.01

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_normalization(self, dist):
        # mean 0, variance 1 for every entry law
        draws = dist.sample(make_rng(99), 1_200_000)
        assert abs(draws.mean()) < 5e-3
        assert abs(draws.var() - 1.0) < 5e-3

    def test_determinism(self):
        a = sample_matrix(N, 3, 3, 42)
        b = sample_matrix(N, 3, 3, 42)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, sample_matrix(N, 3, 3, 43).entries)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            sample_matrix(R, 0, 4, 1)
        with pytest.raises(DimensionError):
            sample_matrix(R, 4, 0, 1)
        with pytest.raises(DimensionError):
            SampleMatrix(R, 0, 4, np.ones((0, 4)), seed=0)
        with pytest.raises(DimensionError):
            SampleMatrix(R, 2, 4, np.ones((4, 2)), seed=0)
        with pytest.raises(DimensionError):
            CovMatrix(np.ones((2, 3)), n=4)

    @pytest.mark.parametrize("dist, bad", [(R, 0.5), (R, -1.0 - 1e-15), (U, 1.7321)])
    def test_entries_off_the_support_rejected(self, dist, bad):
        entries = np.ones((2, 3))
        entries[1, 2] = bad
        with pytest.raises(DomainError):
            SampleMatrix(dist, 2, 3, entries, seed=0)

    def test_derived_streams(self):
        a = derive_rng(5, 0).standard_normal(4)
        b = derive_rng(5, 0).standard_normal(4)
        c = derive_rng(5, 1).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("k, n, seed, rows", [
        (3, 8, 1, ["------++", "--+-----", "++-+-++-"]),
        (2, 5, 12345, ["+-++-", "--+-+"]),
        (3, 3, 99, ["--+", "-++", "--+"]),
        (1, 1, 7, ["-"]),
    ])
    def test_rademacher_entries_are_pinned(self, k, n, seed, rows):
        # the +/-1 stream of sample_matrix must not move
        entries = sample_matrix(R, k, n, seed).entries
        assert ["".join("+" if v > 0 else "-" for v in row) for row in entries] == rows

    def test_parse_aliases(self):
        assert EntryDistribution.parse("normal") is N
        assert EntryDistribution.parse("gaussian") is N
        with pytest.raises(DomainError):
            EntryDistribution.parse("cauchy")


class TestCovariance:
    def test_orthogonal_rows_give_identity(self):
        c = SampleMatrix(R, 2, 2, np.array([[1.0, 1.0], [1.0, -1.0]]), seed=0)
        w = covariance(c)
        assert np.allclose(w.values, np.eye(2), atol=1e-15)

    def test_equal_rows_give_zero_eigenvalue(self):
        row = sample_matrix(R, 1, 8, 3).entries[0]
        c = SampleMatrix(R, 2, 8, np.vstack([row, row]), seed=3)
        sp = spectrum(covariance(c))
        assert abs(sp.lambda_min) < 1e-12

    def test_k1(self):
        c = sample_matrix(U, 1, 50, 9)
        w = covariance(c)
        assert w.values.shape == (1, 1)
        assert w.values[0, 0] == pytest.approx(np.mean(c.entries[0] ** 2))

    def test_diagonal_is_row_mean_squares(self):
        c = sample_matrix(N, 4, 33, 11)
        w = covariance(c)
        expected = np.mean(c.entries**2, axis=1)
        assert np.max(np.abs(np.diag(w.values) - expected)) < 1e-12

    def test_symmetry(self):
        c = sample_matrix(N, 6, 40, 12)
        w = covariance(c).values
        assert np.max(np.abs(w - w.T)) <= 1e-12


class TestSpectrum:
    def test_identity(self):
        sp = spectrum(CovMatrix(np.eye(2), n=2))
        assert np.allclose(sp.eigenvalues, [1.0, 1.0])

    def test_rank_one_ones(self):
        # characteristic polynomial lambda^2 - 2 lambda
        vals, _, _ = jacobi_eigh(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(vals, [0.0, 2.0], atol=1e-14)

    def test_trace_invariance(self):
        c = sample_matrix(N, 5, 20, 21)
        w = covariance(c)
        sp = spectrum(w)
        assert abs(sp.eigenvalues.sum() - w.trace) < 1e-9 * 5

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13])
    def test_against_lapack(self, k):
        c = sample_matrix(N, k, 3 * k, 100 + k)
        w = covariance(c)
        sp = spectrum(w)
        assert np.max(np.abs(sp.eigenvalues - np.linalg.eigvalsh(w.values))) < 1e-10

    def test_reconstruction_and_orthonormality(self):
        c = sample_matrix(R, 6, 24, 31)
        w = covariance(c)
        sp = spectrum(w)
        q = sp.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-9
        assert np.max(np.abs(q @ np.diag(sp.eigenvalues) @ q.T - w.values)) <= 1e-9

    def test_sorted_ascending(self):
        sp = spectrum(covariance(sample_matrix(U, 7, 25, 8)))
        assert np.all(np.diff(sp.eigenvalues) >= 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_convergence_error_carries_residual(self):
        with pytest.raises(ConvergenceError) as err:
            jacobi_eigh(np.array([[1.0, 0.5], [0.5, 1.0]]), max_sweeps=0)
        assert err.value.offdiag_residual > 0


class TestSpectrumAgainstJacobi:
    # spectrum() runs LAPACK; the pure-Python Jacobi solver is its reference
    def assert_matches_jacobi(self, w):
        sp = spectrum(w)
        vals, _, _ = jacobi_eigh(w.values)
        scale = max(1.0, float(np.linalg.norm(w.values)))
        assert np.max(np.abs(sp.eigenvalues - vals)) <= 1e-12 * scale
        q = sp.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(w.k))) <= 1e-12
        assert np.max(np.abs(q @ np.diag(sp.eigenvalues) @ q.T - w.values)) <= 1e-12 * scale
        assert sp.offdiag_residual <= core.JACOBI_TOL_FACTOR * float(np.linalg.norm(w.values))

    @pytest.mark.parametrize("dist", [R, U, N])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_random_instances(self, dist, k):
        for seed in range(5):
            self.assert_matches_jacobi(covariance(sample_matrix(dist, k, 2 * k + seed, seed)))

    @pytest.mark.parametrize("dist", [R, U, N])
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_equal_rows_are_singular(self, dist, k):
        row = sample_matrix(dist, 1, 12, k).entries[0]
        c = SampleMatrix(dist, k, 12, np.tile(row, (k, 1)), seed=k)
        w = covariance(c)
        self.assert_matches_jacobi(w)
        assert np.all(np.abs(spectrum(w).eigenvalues[:-1]) <= 1e-12 * k)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_zero_and_identity(self, k):
        for value in (0.0, 1.0):
            w = CovMatrix(value * np.eye(k), n=4)
            sp = spectrum(w)
            assert np.array_equal(sp.eigenvalues, np.full(k, value))
            assert sp.offdiag_residual == 0.0
            self.assert_matches_jacobi(w)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            spectrum(CovMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), n=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # rejected before any arithmetic on it, so without a RuntimeWarning
        values = np.eye(3)
        values[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                spectrum(CovMatrix(values, n=3))

    def test_perturbed_eigenvectors_fail_the_certificate(self, monkeypatch):
        w = covariance(sample_matrix(N, 5, 20, 7))
        eigh = np.linalg.eigh

        def perturbed(a):
            vals, vecs = eigh(a)
            return vals, vecs + 1e-6 * make_rng(1).standard_normal(vecs.shape)

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError) as err:
            spectrum(w)
        assert err.value.offdiag_residual > core.JACOBI_TOL_FACTOR * float(np.linalg.norm(w.values))


class TestZeroEigenvalueRule:
    def test_bottom_eigenvalues_vanish(self):
        lam = np.array([[0.0, 0.0, 3.0], [1e-12, 2e-9, 3.0], [0.0, 0.5, 2.5]])
        assert bottom_eigenvalues_vanish(lam, 1).tolist() == [True, True, True]
        assert bottom_eigenvalues_vanish(lam, 2).tolist() == [True, True, False]

    def test_scale_is_max_of_one_and_trace(self):
        # the scale is the eigenvalue sum when it exceeds 1, and 1 otherwise
        assert bottom_eigenvalues_vanish(np.array([[3e-9, 3.0]]), 1)[0]
        assert not bottom_eigenvalues_vanish(np.array([[3.1e-9, 3.0]]), 1)[0]
        assert bottom_eigenvalues_vanish(np.array([[0.9e-9, 0.1]]), 1)[0]
        assert not bottom_eigenvalues_vanish(np.array([[1.1e-9, 0.1]]), 1)[0]


class TestQuadraticForm:
    def test_basis_vector_gives_diagonal(self):
        c = sample_matrix(N, 3, 17, 5)
        e1 = UnitVector(np.array([1.0, 0.0, 0.0]))
        assert quadratic_form(c, e1) == pytest.approx(covariance(c).values[0, 0], abs=1e-12)

    def test_rademacher_upper_bound(self):
        # Cauchy-Schwarz: each column term is at most sum of squares = k
        rng = make_rng(77)
        for _ in range(50):
            c = sample_matrix(R, 5, 11, int(rng.integers(1 << 30)))
            x = UnitVector.random(5, rng)
            assert quadratic_form(c, x) <= 5.0 + 1e-12

    def test_matches_bilinear_form(self):
        rng = make_rng(13)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 9))
            c = sample_matrix(N, k, int(rng.integers(4, 40)), int(rng.integers(1 << 30)))
            x = UnitVector.random(k, rng)
            w = covariance(c).values
            worst = max(worst, abs(quadratic_form(c, x) - x.coords @ w @ x.coords))
        assert worst <= 1e-10

    def test_dimension_mismatch(self):
        c = sample_matrix(N, 3, 5, 1)
        with pytest.raises(DimensionError):
            quadratic_form(c, UnitVector.uniform(4))


class TestTraceStat:
    def test_rademacher_trace_is_k(self):
        w = covariance(sample_matrix(R, 6, 30, 2))
        assert trace_stat(w) == pytest.approx(6.0, abs=1e-12)

    def test_identity(self):
        assert trace_stat(CovMatrix(np.eye(3), n=5)) == 3.0

    def test_bounds_lambda_max(self):
        rng = make_rng(3)
        for _ in range(30):
            c = sample_matrix(N, int(rng.integers(1, 7)), 12, int(rng.integers(1 << 30)))
            w = covariance(c)
            assert spectrum(w).lambda_max <= trace_stat(w) + 1e-9


class TestMpEdges:
    def test_degenerate(self):
        assert mp_edges(0.0) == (1.0, 1.0)

    def test_square_case(self):
        assert mp_edges(1.0) == (0.0, 4.0)

    def test_sdpic_safe_ratio(self):
        # upper edge reaches 2 exactly at beta = (sqrt(2)-1)^2 ~ 0.17
        beta = (math.sqrt(2.0) - 1.0) ** 2
        lo, hi = mp_edges(beta)
        assert hi == pytest.approx(2.0, abs=1e-12)
        assert beta == pytest.approx(0.17, abs=0.005)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mp_edges(-0.1)


class TestUnitVector:
    def test_validates_norm(self):
        with pytest.raises(DomainError):
            UnitVector(np.array([1.0, 1.0]))
        for coords in (np.eye(2), np.array([])):
            with pytest.raises(DimensionError):
                UnitVector(coords)

    def test_of_normalizes(self):
        x = UnitVector.of([3.0, 4.0])
        assert np.allclose(x.coords, [0.6, 0.8])

    def test_structured_directions(self):
        assert np.allclose(UnitVector.uniform(4).coords, 0.5)
        two = UnitVector.two_sparse(5).coords
        assert np.allclose(two[:2], 1.0 / math.sqrt(2.0)) and np.all(two[2:] == 0)
        with pytest.raises(DimensionError):
            UnitVector.two_sparse(1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            UnitVector.of([0.0, 0.0])


class TestBatchHelpers:
    # the Monte Carlo fast path must agree with the certified Jacobi solver
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_eigvalues_batch_matches_jacobi(self, k):
        rng = make_rng(50 + k)
        entries = sample_batch(R, rng, 64, k, 12)
        w = covariance_batch(entries)
        lam = eigvalues_batch(w)
        for i in range(64):
            ref, _, _ = jacobi_eigh(w[i])
            assert np.max(np.abs(lam[i] - ref)) < 1e-9

    def test_batch_sampling_matches_single(self):
        # same generator state gives the same draws regardless of packing
        a = sample_batch(R, derive_rng(9, 0), 2, 3, 5)
        b = derive_rng(9, 0).integers(0, 2, size=(2, 3, 5)) * 2 - 1
        assert np.array_equal(a, b.astype(float))


class TestRandomBits:
    # random_bits must replay Generator.integers(0, 2, ...) bit for bit and
    # leave the generator in the same state, buffered half word included
    def assert_replays(self, counts, seed=8):
        expected_rng, rng = derive_rng(seed), derive_rng(seed)
        for count in counts:
            expected = expected_rng.integers(0, 2, size=count)
            bits = core.random_bits(rng, count)
            assert bits.dtype == bool and bits.shape == (count,)
            assert np.array_equal(bits, expected == 1)
            assert repr(rng.bit_generator.state) == repr(expected_rng.bit_generator.state)
        assert np.array_equal(rng.standard_normal(5), expected_rng.standard_normal(5))
        assert repr(rng.bit_generator.state) == repr(expected_rng.bit_generator.state)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 1023, 1024])
    def test_single_call(self, count):
        self.assert_replays([count])

    @pytest.mark.parametrize("counts", [
        [1, 1], [1, 2], [1, 3], [3, 1023], [1, 0, 1], [1023, 1024, 1], [5, 7, 9, 2]])
    def test_calls_starting_on_a_buffered_half(self, counts):
        self.assert_replays(counts)

    def test_shape(self):
        expected = derive_rng(4).integers(0, 2, size=(3, 2, 5))
        assert np.array_equal(core.random_bits(derive_rng(4), (3, 2, 5)), expected == 1)


class TestGramBatch:
    # For +/-1 and uniform entries gram_batch must replay the entry path
    # exactly: same W bits, same stream.  Normal-entry W is a Bartlett draw,
    # and must follow its documented layout whatever the block size.
    def assert_layout(self, dist, m, k, n, seed=3):
        expected_rng, rng = derive_rng(seed, k, n), derive_rng(seed, k, n)
        if dist is R:  # the entries numpy's own bounded draw gives
            entries = (expected_rng.integers(0, 2, size=(m, k, n)) * 2 - 1).astype(np.float64)
            expected = covariance_batch(entries)
        elif dist is U:
            expected = covariance_batch(sample_batch(dist, expected_rng, m, k, n))
        else:
            expected = bartlett_gram(expected_rng, m, k, n)
        w = gram_batch(dist, rng, m, k, n)
        assert w.dtype == expected.dtype and w.shape == (m, k, k)
        assert np.array_equal(w, expected)
        assert repr(rng.bit_generator.state) == repr(expected_rng.bit_generator.state)

    @pytest.mark.parametrize("dist", [R, U, N])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 130])
    def test_small_blocks(self, monkeypatch, dist, k, n):
        monkeypatch.setattr(core, "GRAM_BLOCK_ENTRIES", 1 << 12)
        if dist is N:  # blocks of (1 << 12) // k^2 trials
            step = max(1, (1 << 12) // (k * k))
        else:
            step = max(1, (1 << 12) // (k * max(n, k)))
        self.assert_layout(dist, 3 * step + 2, k, n)

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_default_block(self, dist):
        k, n = 8, 65
        step = core.GRAM_BLOCK_ENTRIES // (k * (k if dist is N else n))
        self.assert_layout(dist, step + 7, k, n)

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_scratch_is_bounded_when_k_exceeds_n(self, dist):
        # at k=64, n=1 the k*k products per trial, not the k*n entries,
        # set the size of the temporaries
        m, k = 2000, 64
        tracemalloc.start()
        try:
            gram_batch(dist, derive_rng(5), m, k, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * k * k + 6 * 8 * core.GRAM_BLOCK_ENTRIES


class TestBartlettLaw:
    # Bartlett W against the entry path covariance_batch(sample_batch(N, ...)),
    # which has the same law: tail counts as a two-sample check, moments
    # against E W = I and n Var W_ij = 1 + delta_ij, each within 5 standard
    # errors.  (5, 3) has k > n, so W has rank n.
    TRIALS = 1 << 15
    SIGMAS = 5.0

    @staticmethod
    def tail_events(lam, k, n):
        """lambda_max above and the smallest nonzero eigenvalue below the
        bulk edges (1 -+ sqrt(k/n))^2 (for k > n the lower one bounds the
        nonzero eigenvalues)."""
        root = math.sqrt(k / n)
        lower, upper = (1 - root) ** 2, (1 + root) ** 2
        return lam[:, -1] >= upper, lam[:, max(0, k - n)] <= lower

    @pytest.mark.parametrize("k, n", [(4, 10), (8, 64), (5, 3)])
    def test_tail_counts_match_the_entry_path(self, k, n):
        m = self.TRIALS
        bartlett = eigvalues_batch(gram_batch(N, derive_rng(41, k, n, 0), m, k, n))
        entries = eigvalues_batch(covariance_batch(
            sample_batch(N, derive_rng(41, k, n, 1), m, k, n)))
        for a, b in zip(self.tail_events(bartlett, k, n), self.tail_events(entries, k, n)):
            p_a, p_b = np.mean(a), np.mean(b)
            pooled = (p_a + p_b) / 2
            assert 0.01 < pooled < 0.99, pooled
            se = math.sqrt(pooled * (1 - pooled) * 2 / m)
            assert abs(p_a - p_b) <= self.SIGMAS * se, (k, n, p_a, p_b)

    @pytest.mark.parametrize("k, n", [(4, 10), (8, 64), (5, 3)])
    def test_moments(self, k, n):
        m = self.TRIALS
        w = gram_batch(N, derive_rng(43, k, n), m, k, n)
        identity = np.eye(k)
        deviation = w - identity
        mean_se = deviation.std(axis=0) / math.sqrt(m)
        assert np.all(np.abs(deviation.mean(axis=0)) <= self.SIGMAS * mean_se)
        scaled = n * deviation ** 2  # mean 1 + delta_ij
        var_se = scaled.std(axis=0) / math.sqrt(m)
        assert np.all(np.abs(scaled.mean(axis=0) - (1 + identity)) <= self.SIGMAS * var_se)

    def test_rank_when_k_exceeds_n(self):
        k, n = 5, 3
        lam = eigvalues_batch(gram_batch(N, derive_rng(47), self.TRIALS, k, n))
        assert np.all(bottom_eigenvalues_vanish(lam, k - n))
        assert not np.any(bottom_eigenvalues_vanish(lam, k - n + 1))


class TestSignGramClasses:
    # the exact key that mclab's distinct-W eigen solve and ber_experiment's
    # distinct-(W, Z) decode share
    @pytest.mark.parametrize("with_extra", [False, True])
    @pytest.mark.parametrize("k, n", [(3, 4), (3, 71), (9, 2), (17, 1)])
    def test_first_and_inverse_rebuild_the_stack(self, k, n, with_extra):
        # (9, 2) and (17, 1) pack their keys into two and three int64 words
        rng = derive_rng(4)
        w = gram_batch(R, rng, 5000, k, n)
        extra = rng.integers(-2, 3, size=(5000, 2)) if with_extra else None
        first, inverse = core._sign_gram_classes(w, n, extra)
        assert np.array_equal(w[first][inverse], w)
        rows = [m.tobytes() for m in w]
        if with_extra:
            assert np.array_equal(extra[first][inverse], extra)
            rows = [m + e.tobytes() for m, e in zip(rows, extra)]
        assert len(first) == len(set(rows)) < len(w)
        # each class is represented by its first row
        assert np.array_equal(np.unique(inverse, return_index=True)[1], first)

    def test_empty_stack(self):
        first, inverse = core._sign_gram_classes(np.empty((0, 3, 3)), 8,
                                                 np.empty((0, 1), dtype=np.int64))
        assert first.size == inverse.size == 0


class TestCholeskyCompletes:
    # the tail screen: Cholesky of sign * (w - shift I) completes iff that
    # matrix is positive definite, decided here against eigvalsh
    @staticmethod
    def _stack(rng, m, k):
        # random eigenvectors; the smallest eigenvalue is +/-10^u, u in
        # [-6, 0], so at least 1e-6 from 0, and the rest lie above it
        q = np.linalg.qr(rng.standard_normal((m, k, k)))[0]
        smallest = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-6, 0, size=m)
        lam = smallest[:, None] + np.concatenate(
            [np.zeros((m, 1)), rng.uniform(0, 3, size=(m, k - 1))], axis=1)
        a = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
        return (a + np.swapaxes(a, -1, -2)) / 2.0

    @pytest.mark.parametrize("k", [3, 8, 16, 64])
    def test_matches_eigvalsh(self, k):
        rng = derive_rng(61, k)
        step = max(1, core.CHOLESKY_BLOCK_ENTRIES // (k * k))
        m = 2 * step + 77  # not a multiple of the block
        a = self._stack(rng, m, k)
        definite = np.all(np.linalg.eigvalsh(a) > 0, axis=1)
        assert 0 < np.count_nonzero(definite) < m
        assert np.array_equal(core.cholesky_completes(a, 0.0, 1.0), definite)
        # the same decisions as lambda_min(w) > c and lambda_max(w) < c
        for c in (-1.5, 0.5, 2.0):
            eye = c * np.eye(k)
            assert np.array_equal(core.cholesky_completes(a + eye, c, 1.0), definite)
            assert np.array_equal(core.cholesky_completes(eye - a, c, -1.0), definite)

    def test_empty_stack(self):
        out = core.cholesky_completes(np.empty((0, 5, 5)), 1.0, -1.0)
        assert out.shape == (0,) and out.dtype == bool

    def test_failed_rows_do_not_warn(self):
        k = 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # every row fails at column 0
            eye = np.broadcast_to(np.eye(k), (300, k, k))
            assert not np.any(core.cholesky_completes(eye, 10.0, 1.0))
            # rows fail late, next to rows that complete: all-ones rank-1
            # matrices (a zero pivot at column 1), indefinite matrices with
            # huge entries, and definite ones
            rng = derive_rng(62)
            ones = np.ones((100, k, k))
            huge = 1e150 * self._stack(rng, 100, k)
            mixed = np.concatenate([ones, huge, np.broadcast_to(np.eye(k), (100, k, k))])
            out = core.cholesky_completes(mixed, 0.0, 1.0)
        assert not np.any(out[:100])
        assert np.array_equal(out[100:200], np.all(np.linalg.eigvalsh(huge) > 0, axis=1))
        assert np.all(out[200:])

    def test_scratch_is_bounded(self):
        # blocks of CHOLESKY_BLOCK_ENTRIES floats: no copy of the whole stack
        m, k = 1 << 16, 8
        w = gram_batch(R, derive_rng(63), m, k, 64)
        tracemalloc.start()
        try:
            core.cholesky_completes(w, 1.9, -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * core.CHOLESKY_BLOCK_ENTRIES < w.nbytes
