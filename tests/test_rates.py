import math

import numpy as np
import pytest

from eigrates import (
    CgfMethod,
    CgfSpec,
    DomainError,
    EntryDistribution,
    OptimizerSettings,
    UnitVector,
    UnsupportedDomainError,
    cgf,
    cgf_derivative,
    chernoff_squared_entry,
    grid_covering,
    legendre,
    legendre_solve,
    make_rng,
    mgf_bound_check,
    phase_transition_alpha_star,
    phase_transition_alpha_star_k,
    rate_joint_wishart,
    rate_k,
    rate_lower_bound_bounded,
    rate_lower_bound_rademacher,
    rate_two_sparse,
    rate_wishart,
    rogers_covering,
    wishart_t_star,
)
from eigrates.rates import _tilted

R = EntryDistribution.RADEMACHER
U = EntryDistribution.UNIFORM_SYM
N = EntryDistribution.STD_NORMAL

FAST_OPTS = OptimizerSettings(random_restarts=4, seed=123)


def spec_for(dist, k=2, coords=None):
    x = UnitVector.uniform(k) if coords is None else UnitVector.of(coords)
    return CgfSpec.for_direction(dist, x)


def cgf_differences(spec, t):
    """(Lambda', Lambda'') from differences of cgf: central, or second-order
    forward where t - h leaves the domain."""
    h = 1e-3 * max(1.0, abs(t))
    if t - h < spec.domain[0]:
        f = [cgf(spec, t + i * h) for i in range(4)]
        return ((-3 * f[0] + 4 * f[1] - f[2]) / (2 * h),
                (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h))
    lo, mid, hi = (cgf(spec, t + i * h) for i in (-1, 0, 1))
    return (hi - lo) / (2 * h), (hi - 2 * mid + lo) / (h * h)


class TestCgf:
    def test_two_coordinate_rademacher(self):
        # E[exp(t S^2)] = (exp(2t) + 1)/2 along (1,1)/sqrt(2)
        spec = spec_for(R, 2)
        for t in (-0.7, -0.2, 0.1, 0.5, 1.3):
            assert cgf(spec, t) == pytest.approx(math.log(0.5 * (math.exp(2 * t) + 1)), abs=1e-12)

    def test_normal_closed_form(self):
        spec = spec_for(N, 4)
        assert cgf(spec, 0.25) == pytest.approx(-0.5 * math.log(0.5), abs=1e-14)

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_zero_at_origin(self, dist):
        assert cgf(spec_for(dist, 3), 0.0) == 0.0

    def test_normal_domain(self):
        with pytest.raises(DomainError):
            cgf(spec_for(N, 2), 0.5)

    def test_uniform_negative_t_unsupported(self):
        with pytest.raises(UnsupportedDomainError):
            cgf(spec_for(U, 2), -0.1)

    def test_enumeration_cap(self):
        with pytest.raises(DomainError):
            CgfSpec.for_direction(R, UnitVector.uniform(25))

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_slope_one_at_origin(self, dist):
        # Lambda'(0) = E[S^2] = 1 on the unit sphere
        rng = make_rng(11)
        for _ in range(5):
            spec = CgfSpec.for_direction(dist, UnitVector.random(4, rng))
            h = 1e-5
            if dist is U:
                slope = (cgf(spec, h) - cgf(spec, 0.0)) / h
            else:
                slope = (cgf(spec, h) - cgf(spec, -h)) / (2 * h)
            assert slope == pytest.approx(1.0, abs=1e-4)
            assert cgf_derivative(spec, 0.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_convexity_on_grid(self, dist):
        spec = spec_for(dist, 3)
        ts = np.linspace(0.0, 0.4, 9)
        vals = [cgf(spec, float(t)) for t in ts]
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-10)

    def test_uniform_matches_monte_carlo(self):
        # independent check of the Gaussian-mixture quadrature
        spec = spec_for(U, 3, coords=[2.0, -1.0, 0.5])
        rng = make_rng(5)
        s = spec.x.coords @ U.sample(rng, (3, 2_000_000))
        for t in (0.05, 0.2):
            mc = math.log(np.mean(np.exp(t * s * s)))
            assert cgf(spec, t) == pytest.approx(mc, abs=5e-3)

    def test_enumeration_matches_explicit_sum(self):
        # brute-force over all 2^k sign vectors as the oracle
        x = UnitVector.of([3.0, 2.0, 1.0, 1.0])
        spec = CgfSpec.for_direction(R, x)
        signs = np.array([[1 if (i >> j) & 1 else -1 for j in range(4)] for i in range(16)])
        s2 = (signs @ x.coords) ** 2
        for t in (-0.5, 0.2, 0.9):
            oracle = math.log(np.mean(np.exp(t * s2)))
            assert cgf(spec, t) == pytest.approx(oracle, abs=1e-12)


class TestTilted:
    def test_uniform_moments_at_origin(self):
        # Lambda'(0) = E S^2 = 1 and Lambda''(0) = Var S^2 = 2 - (6/5) sum x^4
        rng = make_rng(13)
        for k in (1, 2, 3, 6):
            x = UnitVector.random(k, rng)
            lam, slope, curv = _tilted(CgfSpec.for_direction(U, x), 0.0)
            assert lam == 0.0
            assert slope == pytest.approx(1.0, abs=1e-14)
            assert curv == pytest.approx(2.0 - 1.2 * np.sum(x.coords ** 4), abs=1e-13)

    @pytest.mark.parametrize("dist", [R, U, N])
    @pytest.mark.parametrize("t", [1e-6, 0.3, 5.0, 49.0])
    def test_derivatives_match_differences_of_cgf(self, dist, t):
        # differences of cgf are the oracle; the normal CGF only exists for
        # t < 1/2, so its large tilts are checked at -t
        if dist is N and t >= 0.5:
            t = -t
        spec = spec_for(dist, 3, coords=[2.0, -1.0, 0.5])
        lam, slope, curv = _tilted(spec, t)
        d1, d2 = cgf_differences(spec, t)
        assert lam == cgf(spec, t)
        assert slope == cgf_derivative(spec, t)
        assert slope == pytest.approx(d1, rel=1e-5, abs=1e-7)
        assert curv == pytest.approx(d2, rel=1e-4, abs=1e-7)

    def test_domain_is_checked(self):
        with pytest.raises(DomainError):
            cgf_derivative(spec_for(N, 2), 0.5)
        with pytest.raises(UnsupportedDomainError):
            cgf_derivative(spec_for(U, 2), -0.1)


class TestLegendre:
    def test_wishart_example(self):
        rate, t_star = legendre(spec_for(N, 3), 2.0)
        assert rate == pytest.approx(0.5 * (1.0 - math.log(2.0)), abs=1e-10)
        assert t_star == pytest.approx(0.25, abs=1e-8)

    def test_mean_case(self):
        rate, t_star = legendre(spec_for(R, 2), 1.0)
        assert abs(rate) <= 1e-12
        assert abs(t_star) <= 1e-7

    def test_two_atom_boundary(self):
        # sup_t (2t - log((exp(2t)+1)/2)) = log 2, reached only in the limit
        spec = spec_for(R, 2)
        rate, t_star = legendre(spec, 2.0)
        assert rate == pytest.approx(math.log(2.0), abs=1e-12)
        assert math.isinf(t_star)
        rate_beyond, _ = legendre(spec, 2.0 + 1e-6)
        assert math.isinf(rate_beyond)

    def test_lower_support_boundary(self):
        # uniform direction with k=3 has S^2 >= 1/3 with mass 3/4 at 1/3
        spec = spec_for(R, 3)
        rate, t_star = legendre(spec, 1.0 / 3.0)
        assert rate == pytest.approx(-math.log(0.75), abs=1e-12)
        assert t_star == -math.inf
        rate_below, _ = legendre(spec, 0.2)
        assert math.isinf(rate_below)

    def test_never_negative(self):
        rng = make_rng(8)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            spec = CgfSpec.for_direction(R, UnitVector.random(k, rng))
            alpha = float(rng.uniform(0.05, 2.5))
            rate, _ = legendre(spec, alpha)
            assert rate >= 0.0
            if abs(alpha - 1.0) > 0.02 and math.isfinite(rate):
                assert rate > 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            legendre(spec_for(N, 2), 0.0)

    def test_uniform_lower_tail_unsupported(self):
        with pytest.raises(UnsupportedDomainError):
            legendre(spec_for(U, 2), 0.7)

    def test_solver_counters(self):
        # pinned: a forced bisection or a wasted probe would change them
        spec = CgfSpec.for_direction(R, UnitVector.uniform(8))
        sol = legendre_solve(spec, 0.75)
        assert (sol.newton_steps, sol.bisection_steps, sol.expansions) == (5, 0, 0)
        assert sol.converged and not sol.boundary
        at_atom = legendre_solve(spec, 8.0)  # all signs equal: S^2 = k
        assert at_atom.rate == pytest.approx(7 * math.log(2.0), abs=1e-12)
        assert (at_atom.newton_steps, at_atom.bisection_steps, at_atom.expansions) == (0, 0, 0)

    def test_window_edge_is_reported(self):
        # the uniform upper tail at a = 2.99 needs a tilt beyond T_EDGE
        spec = spec_for(U, coords=[1.0])
        sol = legendre_solve(spec, 2.99)
        assert sol.boundary and not sol.converged
        assert sol.t_star == math.nextafter(50.0, 0.0)
        assert sol.rate == pytest.approx(sol.t_star * 2.99 - cgf(spec, sol.t_star), abs=1e-12)

    def test_normal_is_the_closed_form_beyond_the_window(self):
        # at alpha = 1/200 the optimal tilt is -99.5, outside |t| <= T_EDGE,
        # where the window-limited supremum is 2.0576
        sol = legendre_solve(spec_for(N, 2), 0.005)
        assert sol.converged and not sol.boundary
        assert sol.rate == rate_wishart(0.005) == pytest.approx(2.151658683274018, abs=1e-15)
        assert sol.t_star == wishart_t_star(0.005) == -99.5

    def test_matches_grid_supremum(self):
        # direct sup over a dense t grid as an independent oracle
        spec = CgfSpec.for_direction(R, UnitVector.of([2.0, 1.0, 1.0]))
        for alpha in (0.6, 1.4):
            rate, _ = legendre(spec, alpha)
            ts = np.linspace(-6.0, 6.0, 20001)
            grid = max(t * alpha - cgf(spec, float(t)) for t in ts)
            assert rate == pytest.approx(grid, abs=1e-6)
            assert rate >= grid - 1e-12


class TestClosedForms:
    def test_rate_wishart(self):
        assert rate_wishart(1.0) == 0.0
        assert rate_wishart(2.0) == pytest.approx(0.15342640972, abs=1e-10)
        assert rate_wishart(0.253) == pytest.approx(0.3136, abs=5e-4)
        with pytest.raises(DomainError):
            rate_wishart(0.0)

    def test_wishart_t_star(self):
        assert wishart_t_star(2.0) == 0.25
        assert wishart_t_star(1.0) == 0.0

    def test_rate_two_sparse(self):
        assert rate_two_sparse(1.0) == 0.0
        assert rate_two_sparse(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert rate_two_sparse(2.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert rate_two_sparse(0.253) == pytest.approx(0.3134, abs=5e-4)
        with pytest.raises(DomainError):
            rate_two_sparse(2.1)

    def test_joint_wishart(self):
        assert rate_joint_wishart(1.0, 1.0) == 0.0
        assert rate_joint_wishart(2.0, 0.5) == pytest.approx(0.25, abs=1e-5)
        assert rate_joint_wishart(1.7, 1.0) == rate_wishart(1.7)
        with pytest.raises(DomainError):
            rate_joint_wishart(0.5, 2.0)

    def test_bounded_lower_bound(self):
        assert rate_lower_bound_bounded(2.0, 1.0) == pytest.approx(0.15342640972, abs=1e-10)
        assert rate_lower_bound_bounded(3.0, math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-12)
        assert rate_lower_bound_bounded(6.0, math.sqrt(3.0)) == pytest.approx(0.15342640972, abs=1e-10)
        with pytest.raises(DomainError):
            rate_lower_bound_bounded(2.0, math.sqrt(3.0))

    def test_rademacher_lower_bound(self):
        assert rate_lower_bound_rademacher(2.0) == pytest.approx(0.15342640972, abs=1e-10)
        # the two branch formulas agree at 1/2
        at_half = 0.5 * (math.log(2.0) - 0.5)
        assert rate_lower_bound_rademacher(0.5) == pytest.approx(at_half, abs=1e-14)
        assert 0.5 * (0.5 - 1 - math.log(0.5)) == pytest.approx(at_half, abs=1e-14)
        assert rate_lower_bound_rademacher(0.1) == pytest.approx(0.5 * (math.log(2.0) - 0.1), abs=1e-14)
        with pytest.raises(DomainError):
            rate_lower_bound_rademacher(0.0)


class TestChernoffSquaredEntry:
    def test_rademacher_point_mass(self):
        assert chernoff_squared_entry(R, 1.0) == 0.0
        assert math.isinf(chernoff_squared_entry(R, 1.5))

    def test_normal_chi_square(self):
        assert chernoff_squared_entry(N, 2.0) == pytest.approx(0.15342640972, abs=1e-9)
        assert chernoff_squared_entry(N, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_numeric(self):
        # frozen from an independent adaptive-quadrature + grid-sup oracle
        assert chernoff_squared_entry(U, 2.0) == pytest.approx(0.5693028308, abs=1e-6)
        assert math.isinf(chernoff_squared_entry(U, 3.5))
        with pytest.raises(UnsupportedDomainError):
            chernoff_squared_entry(U, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            chernoff_squared_entry(N, 0.0)

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_is_the_one_coordinate_transform(self, dist):
        spec = spec_for(dist, coords=[1.0])
        for a in (0.5, 1.0, 1.5, 2.0, 2.9):
            if dist is U and a < 1.0:
                continue
            assert chernoff_squared_entry(dist, a) == legendre_solve(spec, a).rate

    def test_uniform_near_the_support_edge(self):
        # the optimal tilt is about 40; the value was frozen from an
        # independent adaptive quadrature of E exp(3 t u^2) and a root solve
        assert chernoff_squared_entry(U, 2.975) == pytest.approx(4.476436940110148, abs=1e-9)


class TestCoverings:
    def test_grid_values(self):
        assert grid_covering(4, 8) == (pytest.approx(0.75), 4096.0)
        assert grid_covering(1, 2) == (pytest.approx(1.5), 2.0)

    def test_grid_validity_gate(self):
        with pytest.raises(DomainError):
            grid_covering(4, 3)

    def test_rogers_formula(self):
        expected = math.log(4 * 3 * math.sqrt(3.0) * (math.log(3.0) + math.log(math.log(3.0)) + math.log(3.0))) + 3 * math.log(3.0)
        assert rogers_covering(3, 3.0) == pytest.approx(expected, abs=1e-12)
        assert rogers_covering(2, 10.0) > 0.0

    def test_rogers_gates(self):
        with pytest.raises(DomainError):
            rogers_covering(2, 1.2)  # below sqrt(k/(k-1)) = sqrt(2)
        with pytest.raises(DomainError):
            rogers_covering(1, 10.0)


class TestMgfBoundCheck:
    def test_two_coordinate_example(self):
        x = UnitVector.uniform(2)
        assert mgf_bound_check(R, x, 0.3)
        lhs = math.log(0.5 * (math.exp(0.6) + 1.0))
        rhs = -0.5 * math.log(0.4)
        assert lhs <= rhs

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_equality_at_zero(self, dist):
        assert mgf_bound_check(dist, UnitVector.uniform(3), 0.0)

    def test_rademacher_extreme_tilt(self):
        rng = make_rng(21)
        for k in (2, 5, 9, 12):
            assert mgf_bound_check(R, UnitVector.random(k, rng), -1.0)

    @pytest.mark.parametrize("dist", [R, U, N])
    def test_random_pairs(self, dist):
        rng = make_rng(31)
        for _ in range(200):
            k = int(rng.integers(2, 11))
            x = UnitVector.random(k, rng)
            if dist is R:
                t = float(rng.uniform(-1.0, 0.4999))
            elif dist is N:
                t = float(rng.uniform(0.0, 0.4999))
            else:
                t = float(rng.uniform(0.0, 1.0 / 6.0 - 1e-9))
            assert mgf_bound_check(dist, x, t)

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            mgf_bound_check(R, UnitVector.uniform(2), 0.6)
        with pytest.raises(DomainError):
            mgf_bound_check(U, UnitVector.uniform(2), 0.3)


class TestRateK:
    def test_normal_direction_independent(self):
        for k in (2, 5, 9):
            res = rate_k(N, k, 2.0, FAST_OPTS)
            assert res.rate == pytest.approx(rate_wishart(2.0), abs=1e-8)
            assert res.converged

    def test_rademacher_dominates_wishart(self):
        res = rate_k(R, 3, 1.5, FAST_OPTS)
        assert res.rate >= rate_wishart(1.5) - 1e-8

    def test_k2_lower_tail_matches_circle_scan(self):
        # brute force over the one-parameter sphere (cos, sin) as the oracle
        res = rate_k(R, 2, 0.5, FAST_OPTS)
        best = math.inf
        for theta in np.linspace(0.0, math.pi / 4.0, 300):
            x = UnitVector.of([math.cos(theta), math.sin(theta)])
            val, _ = legendre(CgfSpec.for_direction(R, x), 0.5)
            best = min(best, val)
        assert res.rate == pytest.approx(best, abs=1e-6)
        assert res.rate == pytest.approx(rate_two_sparse(0.5), abs=1e-7)

    def test_infimum_below_any_direction(self):
        rng = make_rng(17)
        res = rate_k(R, 4, 1.4, FAST_OPTS)
        for _ in range(50):
            x = UnitVector.random(4, rng)
            val, _ = legendre(CgfSpec.for_direction(R, x), 1.4)
            assert res.rate <= val + 1e-9

    def test_alpha_monotonicity(self):
        lower = [rate_k(R, 3, a, FAST_OPTS).rate for a in (0.4, 0.6, 0.8, 1.0)]
        assert all(lower[i] >= lower[i + 1] - 1e-9 for i in range(3))
        upper = [rate_k(R, 3, a, FAST_OPTS).rate for a in (1.0, 1.4, 1.9, 2.5)]
        assert all(upper[i] <= upper[i + 1] + 1e-9 for i in range(3))

    def test_beyond_rademacher_spectrum_is_infinite(self):
        # the largest eigenvalue never exceeds k for +/-1 entries
        res = rate_k(R, 3, 3.5, FAST_OPTS)
        assert res.infinite and math.isinf(res.rate)

    def test_result_fields(self):
        res = rate_k(R, 2, 1.3, FAST_OPTS)
        assert res.alpha == 1.3
        assert res.restarts_used == 2 + FAST_OPTS.random_restarts
        assert abs(np.linalg.norm(res.x_star.coords) - 1.0) < 1e-12

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            rate_k(R, 1, 1.5, FAST_OPTS)
        with pytest.raises(DomainError):
            rate_k(R, 25, 1.5, FAST_OPTS)
        with pytest.raises(UnsupportedDomainError):
            rate_k(U, 3, 0.5, FAST_OPTS)
        with pytest.raises(DomainError):
            rate_k(N, 3, -1.0, FAST_OPTS)

    def test_negative_restarts_rejected(self):
        # -1 restarts once ran no random restart and returned a rate
        with pytest.raises(DomainError):
            rate_k(R, 3, 0.5, OptimizerSettings(random_restarts=-1, seed=1))


class TestPhaseTransition:
    def test_limit_crossing(self):
        star = phase_transition_alpha_star()
        assert star == pytest.approx(0.253, abs=0.005)
        # root-finder contract: the two curves agree there
        assert abs(rate_wishart(star) - rate_two_sparse(star)) <= 1e-8
        assert isinstance(star, float)

    def test_crossing_sign_structure(self):
        star = phase_transition_alpha_star()
        assert rate_wishart(star - 0.01) > rate_two_sparse(star - 0.01)
        assert rate_wishart(star + 0.01) < rate_two_sparse(star + 0.01)

    def test_k3(self):
        assert phase_transition_alpha_star_k(3) == pytest.approx(0.425, abs=0.015)

    def test_k2_degenerate(self):
        assert phase_transition_alpha_star_k(2) == 1.0

    def test_k_gate(self):
        with pytest.raises(DomainError):
            phase_transition_alpha_star_k(13)

    def test_small_k_sequence_reported(self, capsys):
        # the drift with k is observed, not asserted
        seq = {k: round(phase_transition_alpha_star_k(k), 4) for k in (3, 4, 5, 6)}
        print(f"alpha*_k sequence: {seq}")
        assert set(seq) == {3, 4, 5, 6}
