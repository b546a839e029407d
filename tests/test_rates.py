import math
import tracemalloc
import warnings

import numpy as np
import pytest

from eigrates import (
    CgfSpec,
    DomainError,
    EntryDistribution,
    OptimizerSettings,
    UnitVector,
    UnsupportedDomainError,
    cgf,
    cgf_derivative,
    chernoff_squared_entry,
    derive_rng,
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
from eigrates import rates
from eigrates.rates import _cgf_gradient, _crossing, _descend, _tilted

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


def graded_gauss_legendre(levels=12, nodes=8):
    """Composite Gauss-Legendre rule on [0, 1], panels halving toward 1."""
    g, w = np.polynomial.legendre.leggauss(nodes)
    cuts = np.concatenate([[0.0], 1.0 - 2.0 ** -np.arange(1, levels + 1), [1.0]])
    a, b = cuts[:-1], cuts[1:]
    return ((0.5 * (b - a)[:, None] * (g + 1.0) + a[:, None]).ravel(),
            (0.5 * (b - a)[:, None] * w).ravel())


def cube_moments(x, t):
    """(Lambda, Lambda', Lambda'') for uniform entries along a 3-d direction,
    by a tensor rule over the cube graded toward its faces, where the
    tilted mass of a large t sits."""
    u, w = graded_gauss_legendre()
    u, w = np.concatenate([-u[::-1], u]), np.concatenate([w[::-1], w])
    a = math.sqrt(3.0) * np.asarray(x)
    peak = 3.0 * t * float(np.sum(np.abs(x))) ** 2  # t S^2 at the corner
    pair = (a[1] * u)[:, None] + (a[2] * u)[None, :]
    wpair = np.outer(w, w)
    tot = m1 = m2 = 0.0
    for ui, wi in zip(u, w):
        s2 = (a[0] * ui + pair) ** 2
        e = wi * wpair * np.exp(t * s2 - peak)
        tot, m1, m2 = tot + e.sum(), m1 + (e * s2).sum(), m2 + (e * s2 * s2).sum()
    mean = m1 / tot
    return peak + math.log(tot / 8.0), mean, m2 / tot - mean * mean


class TestUniformRule:
    @pytest.mark.parametrize("t", [20.0, 30.0, 49.0])
    def test_large_tilt_against_cube_rule(self, t):
        # at t = 49, sqrt(6t) sum|x| = 26.2 sits at the largest node of a rule
        # centred at 0, which was off by 0.030 in Lambda with Lambda'' < 0
        spec = spec_for(U, 3, coords=[2.0, -1.0, 0.5])
        lam, slope, curv = _tilted(spec, t)
        want = cube_moments(spec.x.coords, t)
        assert lam == pytest.approx(want[0], abs=1e-10)
        assert slope == pytest.approx(want[1], abs=1e-10)
        assert curv == pytest.approx(want[2], abs=1e-10)
        assert curv > 0.0


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
        for dist in (R, U, N):
            for alpha in (0.0, math.nan):
                with pytest.raises(DomainError):
                    legendre(spec_for(dist, 2), alpha)

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
        assert legendre_solve(spec_for(N, 2), math.inf).rate == math.inf

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
        assert rate_wishart(math.inf) == math.inf
        for alpha in (0.0, math.nan):
            with pytest.raises(DomainError):
                rate_wishart(alpha)

    def test_wishart_t_star(self):
        assert wishart_t_star(2.0) == 0.25
        assert wishart_t_star(1.0) == 0.0
        for alpha in (0.0, math.nan):
            with pytest.raises(DomainError):
                wishart_t_star(alpha)

    def test_rate_two_sparse(self):
        assert rate_two_sparse(1.0) == 0.0
        assert rate_two_sparse(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert rate_two_sparse(2.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert rate_two_sparse(0.253) == pytest.approx(0.3134, abs=5e-4)
        for alpha in (-0.1, 2.1, math.nan):
            with pytest.raises(DomainError):
                rate_two_sparse(alpha)

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
        for alpha, bound in ((2.0, math.sqrt(3.0)), (math.nan, 1.0), (2.0, math.nan)):
            with pytest.raises(DomainError):
                rate_lower_bound_bounded(alpha, bound)

    def test_rademacher_lower_bound(self):
        assert rate_lower_bound_rademacher(2.0) == pytest.approx(0.15342640972, abs=1e-10)
        # the two branch formulas agree at 1/2
        at_half = 0.5 * (math.log(2.0) - 0.5)
        assert rate_lower_bound_rademacher(0.5) == pytest.approx(at_half, abs=1e-14)
        assert 0.5 * (0.5 - 1 - math.log(0.5)) == pytest.approx(at_half, abs=1e-14)
        assert rate_lower_bound_rademacher(0.1) == pytest.approx(0.5 * (math.log(2.0) - 0.1), abs=1e-14)
        for alpha in (0.0, math.nan):
            with pytest.raises(DomainError):
                rate_lower_bound_rademacher(alpha)


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
        assert math.isinf(chernoff_squared_entry(U, 3.0))  # the support edge: no atom
        with pytest.raises(UnsupportedDomainError):
            chernoff_squared_entry(U, 0.5)

    def test_domain(self):
        for dist in (R, U, N):
            for a in (0.0, math.nan):
                with pytest.raises(DomainError):
                    chernoff_squared_entry(dist, a)

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
        assert grid_covering(400, 40) == (pytest.approx(1.5), math.inf)  # 40^400 overflows

    def test_grid_validity_gate(self):
        with pytest.raises(DomainError):
            grid_covering(4, 3)
        with pytest.raises(DomainError):
            grid_covering(0, 3)

    def test_rogers_formula(self):
        expected = math.log(4 * 3 * math.sqrt(3.0) * (math.log(3.0) + math.log(math.log(3.0)) + math.log(3.0))) + 3 * math.log(3.0)
        assert rogers_covering(3, 3.0) == pytest.approx(expected, abs=1e-12)
        assert rogers_covering(2, 10.0) > 0.0

    def test_rogers_gates(self):
        with pytest.raises(DomainError):
            rogers_covering(2, 1.2)  # below sqrt(k/(k-1)) = sqrt(2)
        with pytest.raises(DomainError):
            rogers_covering(1, 10.0)
        with pytest.raises(DomainError):
            rogers_covering(3, math.nan)


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

    def test_domain_gates(self, monkeypatch):
        # every gate fires before a start direction is built: at k = 10^9 one
        # start would be 8 GB
        def no_start(*args):
            raise AssertionError("start direction built before the domain gates")

        for name in ("uniform", "two_sparse", "random"):
            monkeypatch.setattr(UnitVector, name, no_start)
        with pytest.raises(DomainError):
            rate_k(R, 1, 1.5, FAST_OPTS)
        for k in (25, 10**9):
            with pytest.raises(DomainError):
                rate_k(R, k, 1.5, FAST_OPTS)
        with pytest.raises(UnsupportedDomainError):
            rate_k(U, 3, 0.5, FAST_OPTS)
        with pytest.raises(DomainError):
            rate_k(N, 3, -1.0, FAST_OPTS)
        for dist in (R, U, N):
            for k in (3, 10**9):
                with pytest.raises(DomainError):
                    rate_k(dist, k, math.nan, OptimizerSettings(random_restarts=10**6))

    def test_negative_restarts_rejected(self):
        # -1 restarts once ran no random restart and returned a rate
        with pytest.raises(DomainError):
            rate_k(R, 3, 0.5, OptimizerSettings(random_restarts=-1, seed=1))


def rate_solve(dist, coords, alpha):
    return legendre_solve(CgfSpec.for_direction(dist, UnitVector.of(coords)), alpha)


def tangent_pair(dist, x, alpha, h=1e-6):
    """(analytic, central-difference) tangential gradients of the rate at the
    unit vector x, or None where a tilt on the stencil is infinite."""
    sol = rate_solve(dist, x, alpha)
    if not math.isfinite(sol.t_star):
        return None
    grad = -_cgf_gradient(CgfSpec.for_direction(dist, UnitVector(x)), sol.t_star)
    diff = np.empty_like(x)
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = h
        up, dn = rate_solve(dist, x + bump, alpha), rate_solve(dist, x - bump, alpha)
        if not (math.isfinite(up.t_star) and math.isfinite(dn.t_star)):
            return None
        diff[j] = (up.rate - dn.rate) / (2.0 * h)
    return grad - np.dot(grad, x) * x, diff - np.dot(diff, x) * x


class TestCgfGradient:
    @pytest.mark.parametrize("dist, ks, alphas", [
        (R, range(2, 11), (0.5, 0.75, 1.5, 2.0)),
        (U, range(2, 5), (1.5, 2.0, 2.5)),
    ])
    def test_matches_central_differences(self, dist, ks, alphas):
        rng = make_rng(41)
        checked = 0
        for k in ks:
            for alpha in alphas:
                for _ in range(3):
                    pair = tangent_pair(dist, UnitVector.random(k, rng).coords, alpha)
                    if pair is None:
                        continue
                    analytic, diff = pair
                    assert np.max(np.abs(analytic - diff)) <= 1e-8, (k, alpha)
                    checked += 1
        assert checked >= 2 * len(ks) * len(alphas)

    def test_normal_is_zero(self):
        spec = CgfSpec.for_direction(N, UnitVector.random(5, make_rng(3)))
        assert np.array_equal(_cgf_gradient(spec, 0.3), np.zeros(5))
        res = rate_k(N, 5, 2.0, FAST_OPTS)
        assert all(d.steps == 0 and d.converged for d in res.descents)

    def test_k24_needs_no_pattern_matrix(self):
        # a 2^23 x 24 sign-pattern matrix would take 1.5 GiB; the gradient's
        # scratch is the tilted weights and the halves it folds them into
        x = UnitVector.random(24, make_rng(9))
        spec = CgfSpec.for_direction(R, x)
        sol = legendre_solve(spec, 1.5)
        tracemalloc.start()
        try:
            grad = _cgf_gradient(spec, sol.t_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 2 ** 23
        # the directional derivative along a tangent agrees with a central
        # difference of the rate
        d = make_rng(10).standard_normal(24)
        d -= np.dot(d, x.coords) * x.coords
        d /= np.linalg.norm(d)
        h = 1e-6
        up = rate_solve(R, x.coords + h * d, 1.5).rate
        dn = rate_solve(R, x.coords - h * d, 1.5).rate
        assert -np.dot(grad, d) == pytest.approx((up - dn) / (2.0 * h), abs=1e-8)


class TestDescent:
    def test_two_sparse_start_ends_on_its_atom(self):
        # (1, 1, 0, ...)/sqrt(2) gives S^2 = 2 on half the sign patterns; no
        # gradient is taken at the infinite tilt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, x, descent = _descend(R, UnitVector.two_sparse(9).coords, 2.0)
        assert sol.t_star == math.inf
        assert abs(sol.rate - math.log(2.0)) <= math.ulp(math.log(2.0))
        assert descent == (sol.rate, 0, True)
        assert np.allclose(x, UnitVector.two_sparse(9).coords, rtol=0.0, atol=1e-15)

    def test_descents_report_every_start(self):
        res = rate_k(R, 6, 1.5, FAST_OPTS)
        assert len(res.descents) == res.restarts_used
        assert res.rate == min(d.rate for d in res.descents)
        assert res.converged == all(d.converged for d in res.descents)
        assert all(d.steps >= 0 for d in res.descents)

    def test_infinite_start_takes_no_step(self):
        # beyond the +/-1 spectrum every start has an infinite rate
        res = rate_k(R, 3, 3.5, FAST_OPTS)
        assert all(d == (math.inf, 0, True) for d in res.descents)

    def test_structured_starts_unchanged(self):
        # (rate, steps, converged) of the all-equal and two-coordinate
        # starts, exactly as steepest descent ended them
        pins = (
            (R, 3, 0.5, (0.12255368178707848, 0, True), (0.130812035941137, 0, True)),
            (R, 4, 0.75, (0.023730335164223987, 0, True), (0.031583942401963105, 0, True)),
            (R, 7, 1.5, (0.05814001589547396, 0, True), (0.13081203594113622, 0, True)),
            (R, 10, 2.0, (0.18242670641549408, 0, True), (0.6931471805599454, 0, True)),
            (U, 2, 2.0, (0.2669334107614948, 0, True), (0.2669334107614948, 0, True)),
        )
        for dist, k, alpha, uniform, two_sparse in pins:
            res = rate_k(dist, k, alpha, OptimizerSettings(random_restarts=0, seed=404))
            assert res.descents == (uniform, two_sparse), (dist, k, alpha)

    def test_first_trial_is_the_gradient_step(self, monkeypatch):
        # with no secant pair the direction is -DESCENT_INITIAL_STEP * g, so
        # the first trial is the steepest-descent step to the last bit, on
        # the sphere itself: neither the start nor the trial is re-sorted
        start = make_rng(17).standard_normal(6)
        x = start / np.linalg.norm(start)
        spec = CgfSpec.for_direction(R, UnitVector(x))
        grad = -_cgf_gradient(spec, legendre_solve(spec, 0.75).t_star)
        grad -= np.dot(grad, x) * x
        expected = x - rates.DESCENT_INITIAL_STEP * grad
        expected /= np.linalg.norm(expected)
        seen = []
        objective = rates._sphere_objective
        monkeypatch.setattr(rates, "_sphere_objective",
                            lambda d, c, a: seen.append(c.copy()) or objective(d, c, a))
        _descend(R, start, 0.75)
        assert np.array_equal(seen[0], x)
        assert np.array_equal(seen[1], expected)

    def test_x_star_is_sorted_and_nonnegative(self, monkeypatch):
        # both structured starts moved to a coordinate axis (rate inf below
        # alpha = 1), so a random start gives x_star; the descents end on
        # signed representatives of the all-equal optimum, and rate_k
        # reports the one with |coords| sorted descending
        axis = classmethod(lambda cls, k: UnitVector(np.eye(k)[0]))
        monkeypatch.setattr(UnitVector, "uniform", axis)
        monkeypatch.setattr(UnitVector, "two_sparse", axis)
        ends = []
        descend = rates._descend

        def recording(*args):
            result = descend(*args)
            ends.append(result[1])
            return result

        monkeypatch.setattr(rates, "_descend", recording)
        res = rate_k(R, 6, 1.5, OptimizerSettings(random_restarts=2, seed=404))
        assert res.descents[0].rate == res.descents[1].rate == math.inf
        assert all(np.any(x < 0.0) for x in ends[2:])
        c = res.x_star.coords
        assert np.all(c >= 0.0) and np.all(np.diff(c) <= 0.0)
        assert np.max(np.abs(c - 1.0 / math.sqrt(6.0))) <= 1e-5

    def test_reordering_start_reaches_the_optimum(self):
        # from (0.6, 0.5, 0.4, 0.1) the descent ends on the all-equal rate
        sol, x, descent = _descend(R, np.array([0.6, 0.5, 0.4, 0.1]), 0.75)
        assert descent.converged and 0 < descent.steps < rates.DESCENT_MAX_ITERATIONS
        all_equal = rate_k(R, 4, 0.75, OptimizerSettings(random_restarts=0)).rate
        assert abs(sol.rate - all_equal) <= 1e-12

    @pytest.mark.parametrize("start, alpha", [((0.9, 0.3, 0.2, 0.1), 2.0),
                                              ((0.9, 0.6, 0.1), 0.5)])
    def test_short_step_does_not_end_a_descent(self, start, alpha):
        # from these starts a quasi-Newton step gains under
        # DESCENT_IMPROVEMENT_TOL 1.6e-10 and 3.2e-12 above the optimum; the
        # descent must go on from the gradient step there, not stop
        sol, x, descent = _descend(R, np.array(start), alpha)
        all_equal = rate_k(R, len(start), alpha, OptimizerSettings(random_restarts=0)).rate
        assert descent.converged
        assert abs(sol.rate - all_equal) <= 1e-13

    def test_stalled_search_on_a_slope_is_not_converged(self, monkeypatch):
        # an uphill "gradient" makes every trial fail; the descent stops
        # where it started but, with a gradient step expected to gain far
        # more than DESCENT_IMPROVEMENT_TOL, does not call that converged
        gradient = rates._cgf_gradient
        monkeypatch.setattr(rates, "_cgf_gradient", lambda spec, t: -gradient(spec, t))
        sol, x, descent = _descend(R, np.array([0.6, 0.5, 0.4, 0.1]), 0.75)
        assert descent.steps == 0 and not descent.converged

    def test_c04_random_starts_end_stationary(self):
        # convergence measured apart from the stop rule: every c04 random
        # start with a finite tilt ends where the tangent gradient is small
        worst = 0.0
        for alpha in (0.5, 0.75, 1.5, 2.0):
            for k in range(2, 11):
                rng = derive_rng(404, k)
                for _ in range(4):
                    sol, x, descent = _descend(R, UnitVector.random(k, rng).coords, alpha)
                    assert descent.converged, (k, alpha)
                    if math.isfinite(sol.t_star):
                        spec = CgfSpec.for_direction(R, UnitVector(x))
                        grad = -_cgf_gradient(spec, sol.t_star)
                        grad -= np.dot(grad, x) * x
                        worst = max(worst, float(np.linalg.norm(grad)))
        assert worst < 1e-5

    def test_normal_large_k_stays_linear(self):
        # the normal gradient is 0, so no step is taken and no k x k array
        # may appear: at k = 10^5 one would be 80 GB
        tracemalloc.start()
        try:
            res = rate_k(N, 10 ** 5, 2.0, OptimizerSettings(random_restarts=1, seed=404))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rate == rate_wishart(2.0)
        assert all(d.steps == 0 and d.converged for d in res.descents)
        assert peak < 64 * 2 ** 20

    def test_uniform_k200_random_start(self, monkeypatch):
        # a k = 200 uniform random start descends to the all-equal rate in a
        # few dozen transform solves; steepest descent took 203 and stopped
        # at its iteration cap 2.7e-4 above
        solves = []
        solve = rates.legendre_solve
        monkeypatch.setattr(rates, "legendre_solve",
                            lambda spec, a: solves.append(a) or solve(spec, a))
        res = rate_k(U, 200, 2.0, OptimizerSettings(random_restarts=1, seed=404))
        assert res.converged
        assert abs(res.descents[2].rate - res.descents[0].rate) <= 1e-9
        assert len(solves) < 60


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

    def test_k_points_pinned(self):
        # the values the numeric two-coordinate solve gave, to the last bit
        pins = (1.0, 0.42453502655029296, 0.34179317474365234, 0.3256602859497071,
                0.3088982009887695, 0.30000514984130866, 0.29309230804443376,
                0.2881101608276368, 0.28420070648193374, 0.28109592437744146,
                0.27855731964111335)
        assert tuple(phase_transition_alpha_star_k(k) for k in range(2, 13)) == pins

    def test_k2_degenerate(self):
        assert phase_transition_alpha_star_k(2) == 1.0

    def test_k_gate(self):
        with pytest.raises(DomainError):
            phase_transition_alpha_star_k(13)

    def test_crossing_is_the_last(self):
        # cos(4 pi a) falls through 0 at 1/8 and 5/8 (and rises at 3/8 and
        # 7/8); a grid of 0.1 steps brackets both falls, its ends alone neither
        def gap(a):
            return math.cos(4.0 * math.pi * a)

        grid = np.linspace(0.0, 1.0, 11)
        assert _crossing(gap, grid, 1e-10) == pytest.approx(0.625, abs=1e-9)
        with pytest.raises(DomainError):
            _crossing(gap, grid[[0, -1]], 1e-10)

    def test_small_k_sequence_reported(self, capsys):
        # the drift with k is observed, not asserted
        seq = {k: round(phase_transition_alpha_star_k(k), 4) for k in (3, 4, 5, 6)}
        print(f"alpha*_k sequence: {seq}")
        assert set(seq) == {3, 4, 5, 6}


# rate_k(R, k, alpha, OptimizerSettings(4, 404)) on the c04 acceptance grid
# and rate_k(dist, k, alpha, OptimizerSettings(1, 404)) on the nine perfbench
# rate_sweep points, as the finite-difference descent computed them:
# (k, alpha, rate, converged, x_star) and (dist, k, alpha, ...).  The
# limited-memory quasi-Newton descent keeps every rate within 1e-12 and
# every x_star within 1e-8, and converges from every start, where steepest
# descent stopped at its iteration cap from random starts at alpha = 0.75,
# k >= 4.
C04_PINS = (
    (2, 0.5, 0.13081203594113705, True,
     (0.70710678119, 0.70710678119)),
    (3, 0.5, 0.12255368178707837, True,
     (0.57735026919, 0.57735026919, 0.57735026919)),
    (4, 0.5, 0.11466396905885523, True,
     (0.50000000001, 0.5, 0.5, 0.5)),
    (5, 0.5, 0.11065053805868807, True,
     (0.44721359552, 0.44721359551, 0.4472135955, 0.44721359549, 0.44721359549)),
    (6, 0.5, 0.10807181607266958, True,
     (0.40824829047, 0.40824829047, 0.40824829046, 0.40824829046, 0.40824829046, 0.40824829046)),
    (7, 0.5, 0.10629014128067943, True,
     (0.37796447301, 0.37796447301, 0.37796447301, 0.37796447301, 0.37796447301, 0.37796447301, 0.37796447301)),
    (8, 0.5, 0.10498540342037965, True,
     (0.35355339061, 0.35355339061, 0.35355339061, 0.35355339058, 0.35355339058, 0.35355339058, 0.35355339058, 0.35355339058)),
    (9, 0.5, 0.10398907233804555, True,
     (0.33333333337, 0.33333333337, 0.33333333337, 0.33333333333, 0.33333333333, 0.33333333332, 0.33333333332, 0.33333333332, 0.33333333327)),
    (10, 0.5, 0.10320349260090456, True,
     (0.31622776604, 0.31622776603, 0.31622776603, 0.31622776603, 0.31622776603, 0.31622776603, 0.31622776603, 0.31622776603, 0.31622776596, 0.31622776595)),
    (2, 0.75, 0.03158394240196327, True,
     (0.70710678119, 0.70710678119)),
    (3, 0.75, 0.025941369265427394, True,
     (0.57735026921, 0.5773502692, 0.57735026917)),
    (4, 0.75, 0.023730335164223904, True,
     (0.50000000001, 0.5, 0.5, 0.5)),
    (5, 0.75, 0.022567030006872935, True,
     (0.4472135955, 0.4472135955, 0.4472135955, 0.4472135955, 0.4472135955)),
    (6, 0.75, 0.021850341853523386, True,
     (0.40824829048, 0.40824829047, 0.40824829047, 0.40824829046, 0.40824829046, 0.40824829045)),
    (7, 0.75, 0.02136469991075257, True,
     (0.37796447302, 0.37796447302, 0.37796447301, 0.37796447301, 0.37796447301, 0.37796447299, 0.37796447299)),
    (8, 0.75, 0.021013947850359566, True,
     (0.35355339061, 0.3535533906, 0.3535533906, 0.3535533906, 0.35355339059, 0.35355339059, 0.35355339059, 0.35355339058)),
    (9, 0.75, 0.020748761828305068, True,
     (0.33333333335, 0.33333333334, 0.33333333334, 0.33333333334, 0.33333333333, 0.33333333333, 0.33333333333, 0.33333333332, 0.33333333331)),
    (10, 0.75, 0.020541244718744356, True,
     (0.31622776609, 0.31622776608, 0.31622776608, 0.31622776608, 0.31622776598, 0.31622776598, 0.31622776598, 0.31622776597, 0.31622776597, 0.31622776596)),
    (2, 1.5, 0.13081203594113677, True,
     (0.70710678119, 0.70710678119)),
    (3, 1.5, 0.08301074146762022, True,
     (0.57735026919, 0.57735026919, 0.57735026919)),
    (4, 1.5, 0.07000845717083837, True,
     (0.50000000001, 0.50000000001, 0.5, 0.49999999999)),
    (5, 1.5, 0.06394169579198627, True,
     (0.44721359551, 0.44721359551, 0.4472135955, 0.44721359549, 0.44721359549)),
    (6, 1.5, 0.06042994930503842, True,
     (0.40824829047, 0.40824829046, 0.40824829046, 0.40824829046, 0.40824829046, 0.40824829046)),
    (7, 1.5, 0.058140015895473685, True,
     (0.37796447312, 0.37796447302, 0.377964473, 0.37796447299, 0.37796447298, 0.37796447298, 0.37796447298)),
    (8, 1.5, 0.05652877146647084, True,
     (0.35355339061, 0.3535533906, 0.3535533906, 0.3535533906, 0.35355339059, 0.35355339059, 0.35355339058, 0.35355339057)),
    (9, 1.5, 0.05533344339855084, True,
     (0.33333333344, 0.33333333336, 0.33333333334, 0.33333333334, 0.33333333332, 0.33333333332, 0.3333333333, 0.33333333329, 0.33333333329)),
    (10, 1.5, 0.054411401098330814, True,
     (0.31622776607, 0.31622776604, 0.31622776603, 0.31622776603, 0.31622776602, 0.31622776602, 0.31622776599, 0.31622776599, 0.31622776598, 0.31622776598)),
    (2, 2.0, 0.6931471805599453, True,
     (0.70710678119, 0.70710678119)),
    (3, 2.0, 0.31275151471136664, True,
     (0.57735026919, 0.57735026919, 0.57735026919)),
    (4, 2.0, 0.2501165830054991, True,
     (0.50000000002, 0.50000000002, 0.49999999999, 0.49999999997)),
    (5, 2.0, 0.22295685885636163, True,
     (0.44721359551, 0.44721359551, 0.4472135955, 0.44721359549, 0.44721359549)),
    (6, 2.0, 0.20774057463674322, True,
     (0.40824829047, 0.40824829047, 0.40824829047, 0.40824829046, 0.40824829046, 0.40824829046)),
    (7, 2.0, 0.19800082383512974, True,
     (0.37796447305, 0.37796447305, 0.37796447302, 0.37796447302, 0.37796447299, 0.37796447298, 0.37796447296)),
    (8, 2.0, 0.19122902800439023, True,
     (0.35355339066, 0.35355339066, 0.35355339064, 0.35355339059, 0.35355339057, 0.35355339056, 0.35355339054, 0.35355339053)),
    (9, 2.0, 0.18624670323785697, True,
     (0.33333333337, 0.33333333337, 0.33333333336, 0.33333333334, 0.33333333334, 0.33333333334, 0.33333333332, 0.33333333329, 0.33333333328)),
    (10, 2.0, 0.1824267064154933, True,
     (0.31622776605, 0.31622776603, 0.31622776602, 0.31622776602, 0.31622776602, 0.31622776602, 0.31622776601, 0.31622776601, 0.31622776601, 0.31622776599)),
)
SWEEP_PINS = (
    (R, 3, 0.75, 0.025941369265427394, True,
     (0.57735026921, 0.5773502692, 0.57735026917)),
    (R, 4, 0.75, 0.023730335164223904, True,
     (0.50000000001, 0.5, 0.5, 0.5)),
    (R, 5, 0.5, 0.11065053805868807, True,
     (0.44721359552, 0.44721359551, 0.4472135955, 0.44721359549, 0.44721359549)),
    (R, 6, 0.5, 0.10807181607266958, True,
     (0.40824829047, 0.40824829047, 0.40824829046, 0.40824829046, 0.40824829046, 0.40824829046)),
    (R, 7, 1.5, 0.058140015895473685, True,
     (0.37796447312, 0.37796447302, 0.377964473, 0.37796447299, 0.37796447298, 0.37796447298, 0.37796447298)),
    (R, 8, 1.5, 0.05652877146647084, True,
     (0.35355339061, 0.3535533906, 0.3535533906, 0.3535533906, 0.35355339059, 0.35355339059, 0.35355339058, 0.35355339057)),
    (R, 9, 2.0, 0.18624670323785697, True,
     (0.33333333337, 0.33333333337, 0.33333333336, 0.33333333334, 0.33333333334, 0.33333333334, 0.33333333332, 0.33333333329, 0.33333333328)),
    (R, 10, 2.0, 0.1824267064154933, True,
     (0.31622776605, 0.31622776603, 0.31622776602, 0.31622776602, 0.31622776602, 0.31622776602, 0.31622776601, 0.31622776601, 0.31622776601, 0.31622776599)),
    (U, 2, 2.0, 0.266933410761495, True,
     (0.70710678119, 0.70710678119)),
)


class TestPinnedRates:
    def test_c04_grid(self, monkeypatch):
        # steepest descent took 12,457 transform solves on this grid
        solves = []
        solve = rates.legendre_solve
        monkeypatch.setattr(rates, "legendre_solve",
                            lambda spec, a: solves.append(a) or solve(spec, a))
        opts = OptimizerSettings(random_restarts=4, seed=404)
        for k, alpha, rate, converged, x_star in C04_PINS:
            res = rate_k(R, k, alpha, opts)
            assert abs(res.rate - rate) <= 1e-12, (k, alpha, res.rate)
            assert res.converged == converged, (k, alpha)
            assert np.max(np.abs(res.x_star.coords - x_star)) <= 1e-8, (k, alpha)
        assert len(solves) < 12_457 / 3

    def test_rate_sweep_points(self):
        opts = OptimizerSettings(random_restarts=1, seed=404)
        for dist, k, alpha, rate, converged, x_star in SWEEP_PINS:
            res = rate_k(dist, k, alpha, opts)
            assert abs(res.rate - rate) <= 1e-12, (dist, k, alpha, res.rate)
            assert res.converged == converged, (dist, k, alpha)
            assert np.max(np.abs(res.x_star.coords - x_star)) <= 1e-8, (dist, k, alpha)
