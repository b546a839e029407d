"""Cumulant generating functions of directional quadratic forms and their
Legendre transforms.

For a unit direction x and one column of entries, S = sum_m x_m C_m.  The
exponential decay constant of P(<x, W x> beyond alpha) is the transform
sup_t (t*alpha - log E[exp(t S^2)]), and the decay constant for the extreme
eigenvalues is the infimum of that transform over the unit sphere.  This
module evaluates the CGF and its first two derivatives, the mean and
variance of S^2 under the tilted law, in one pass per entry law (sign
enumeration for +/-1 entries, a closed form for normal entries,
Gaussian-mixture quadrature centred on the tilted peak for symmetric
uniform entries).  It solves the transform by safeguarded Newton on the
analytic CGF derivative inside a certified bracket, with the one bracketed
root solver that also locates the phase transitions, and minimizes over the
sphere by multi-start projected gradient descent.  By the envelope theorem
the rate's gradient in x is -d Lambda_x/dx at the optimal tilt, so each
descent step takes its gradient from the solve it has already done.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, logsumexp

from .core import EntryDistribution, UnitVector, derive_rng
from .errors import DomainError, UnsupportedDomainError

LOG2 = math.log(2.0)

# Sign-pattern enumeration is exact but costs 2^(k-1) per CGF evaluation.
ENUMERATION_MAX_K = 24

# |t| cap for the transform search; reaching it means the derivative never
# straddled the target level inside the numerically safe window.
T_EDGE = 50.0

# Gauss-Hermite rule size for the symmetric-uniform CGF.
_QUAD_NODES = 201

_ATOL = 1e-12


class CgfMethod(enum.Enum):
    EXACT_ENUMERATION = "exact_enumeration"
    CLOSED_FORM_NORMAL = "closed_form_normal"
    GAUSSIAN_MIXTURE_QUADRATURE = "gaussian_mixture_quadrature"


@functools.lru_cache(maxsize=4)
def _hermgauss(nodes: int):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    # E[g(Z)] for standard normal Z: sum w_i g(sqrt(2) x_i) / sqrt(pi)
    return np.sqrt(2.0) * x, np.log(w) - 0.5 * math.log(math.pi)


@dataclass
class CgfSpec:
    """Evaluation recipe for Lambda(t) = log E[exp(t S^2)] along a direction.

    domain is the half-open interval of admissible t.  The enumerated S
    support and its square are cached on the spec, so repeated evaluations
    inside one transform solve, and the gradient after it, reuse them.
    """

    dist: EntryDistribution
    x: UnitVector
    method: CgfMethod
    domain: tuple[float, float]
    _s: np.ndarray | None = field(default=None, repr=False, compare=False)
    _s2: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def for_direction(cls, dist: EntryDistribution, x: UnitVector) -> "CgfSpec":
        if dist is EntryDistribution.RADEMACHER:
            if x.k > ENUMERATION_MAX_K:
                raise DomainError(
                    f"exact enumeration supports k <= {ENUMERATION_MAX_K}, got k={x.k}"
                )
            return cls(dist, x, CgfMethod.EXACT_ENUMERATION, (-math.inf, math.inf))
        if dist is EntryDistribution.STD_NORMAL:
            return cls(dist, x, CgfMethod.CLOSED_FORM_NORMAL, (-math.inf, 0.5))
        return cls(dist, x, CgfMethod.GAUSSIAN_MIXTURE_QUADRATURE, (0.0, math.inf))

    # -- exact enumeration ---------------------------------------------------

    def signed_support(self) -> np.ndarray:
        """All values of S over sign patterns with the first sign fixed.

        Global sign flips leave S^2 invariant, so the 2^(k-1) half-space
        patterns carry its full distribution with uniform weight.  The
        array is built by doubling: coordinate j >= 1 is added on the
        first half and subtracted on the second half of each block of
        2^j entries.
        """
        if self._s is None:
            coords = self.x.coords
            values = np.array([coords[0]])
            for xj in coords[1:]:
                values = np.concatenate([values + xj, values - xj])
            self._s = values
        return self._s

    def squared_support(self) -> np.ndarray:
        """All values of S^2 over the sign patterns of signed_support."""
        if self._s2 is None:
            s = self.signed_support()
            self._s2 = s * s
        return self._s2

    def ess_sup_s2(self) -> float:
        if self.method is CgfMethod.EXACT_ENUMERATION:
            return float(np.max(self.squared_support()))
        if self.dist is EntryDistribution.UNIFORM_SYM:
            s = float(np.sum(np.abs(self.x.coords)))
            return 3.0 * s * s
        return math.inf

    def ess_inf_s2(self) -> float:
        if self.method is CgfMethod.EXACT_ENUMERATION:
            return float(np.min(self.squared_support()))
        return 0.0

    def atom_log_prob(self, value: float) -> float:
        """log P(S^2 = value) from the enumerated support."""
        s2 = self.squared_support()
        hits = int(np.count_nonzero(np.isclose(s2, value, rtol=1e-12, atol=1e-12)))
        if hits == 0:
            return -math.inf
        return math.log(hits) - (self.x.k - 1) * LOG2


def cgf(spec: CgfSpec, t: float) -> float:
    """Exact log E[exp(t S^2)] for admissible t."""
    return _tilted(spec, t)[0]


def cgf_derivative(spec: CgfSpec, t: float) -> float:
    """d/dt log E[exp(t S^2)]: the tilted mean of S^2."""
    return _tilted(spec, t)[1]


def _tilted(spec: CgfSpec, t: float) -> tuple[float, float, float]:
    """(Lambda(t), Lambda'(t), Lambda''(t)) from one pass over the tilted law.

    The derivatives are the mean and variance of S^2 under the exponentially
    tilted law.  For uniform entries, E[exp(t S^2)] = E_Z[prod_j sinhc(v_j)]
    with v_j = sqrt(6t) Z x_j and Z standard normal (_uniform_rule), and
    d/dt log sinhc(v_j) = 3 Z^2 x_j^2 q(v_j) with q(v) = (v coth v - 1)/v^2;
    Lambda'' adds the tilted mean of 9 Z^4 sum_j x_j^4 q'(v_j)/v_j to the
    tilted variance of the sum.
    """
    lo, hi = spec.domain
    if not (lo <= t < hi):
        if spec.method is CgfMethod.GAUSSIAN_MIXTURE_QUADRATURE and t < 0:
            raise UnsupportedDomainError(
                "symmetric-uniform CGF needs t >= 0 (sqrt(2t) must be real)"
            )
        raise DomainError(f"t={t} outside the admissible domain {spec.domain}")
    if spec.method is CgfMethod.CLOSED_FORM_NORMAL:
        d = 1.0 / (1.0 - 2.0 * t)
        return -0.5 * math.log1p(-2.0 * t), d, 2.0 * d * d
    if spec.method is CgfMethod.EXACT_ENUMERATION:
        s2 = spec.squared_support()
        w, m = _sign_weights(spec, t)
        tot = float(np.sum(w))
        lam = m + math.log(tot) - (spec.x.k - 1) * LOG2
        mean = float(np.dot(w, s2)) / tot
        sq_dev = s2 - mean
        sq_dev *= sq_dev
        return lam, mean, float(np.dot(w, sq_dev)) / tot
    z, v, lam, p = _uniform_rule(spec, t)
    q, dq = _coth_terms(v)
    zx2 = 3.0 * np.outer(z * z, spec.x.coords ** 2)
    g = np.sum(zx2 * q, axis=1)
    mean = float(np.dot(p, g))
    centered = g - mean
    curv = np.dot(p, centered * centered) + np.dot(p, np.sum(zx2 * zx2 * dq, axis=1))
    return lam, mean, float(curv)


def _sign_weights(spec: CgfSpec, t: float) -> tuple[np.ndarray, float]:
    """(exp(t S^2 - m) over the sign patterns, m = max t S^2), in one array."""
    w = t * spec.squared_support()
    m = float(np.max(w))
    w -= m
    np.exp(w, out=w)
    return w, m


def _uniform_rule(spec: CgfSpec, t: float):
    """(Z nodes, v = sqrt(6t) Z x, Lambda(t), tilted node weights) for
    uniform entries.

    The integrand f(z) = prod_j sinhc(v_j) is even, so E f(Z) equals
    E[2 Phi(Z) f(Z)] (Phi the normal CDF), whose mass sits in one peak near
    mu = sqrt(6t) sum_j |x_j| instead of two at +/-mu.  The Gauss-Hermite
    rule is shifted onto N(mu, 1) through the likelihood ratio
    exp(mu^2/2 - mu z).  Both factors are entire, so the shifted rule keeps
    its accuracy at every t; centred at 0 it lost the peak once mu neared
    its largest node, 27.4.
    """
    z, log_w = _hermgauss(_QUAD_NODES)
    root = math.sqrt(6.0 * t)
    mu = root * float(np.sum(np.abs(spec.x.coords)))
    z = z + mu
    v = root * np.outer(z, spec.x.coords)
    log_node = (log_w + LOG2 + log_ndtr(z) + mu * (0.5 * mu - z)
                + np.sum(_log_sinhc(v), axis=1))
    lam = 0.0 if t == 0.0 else float(logsumexp(log_node))
    return z, v, lam, np.exp(log_node - lam)


def _cgf_gradient(spec: CgfSpec, t: float) -> np.ndarray:
    """d/dx_j log E[exp(t S^2)] at fixed t: the tilted mean of 2 t S dS/dx_j.

    At the optimal tilt t* of a transform solve this is minus the gradient
    of the rate in x (envelope theorem); t* itself is not differentiated.
    For +/-1 entries it is 2t sum_i w_i S_i sigma_ij over the sign patterns
    with the normalized tilted weights w, and coordinate j's sum is a
    +/- split of w * S along the doubling axis of j.  For uniform entries
    it is the tilted mean of 6 t Z^2 x_j q(v_j), on the rule of _tilted.
    Normal entries have S standard normal along every direction: 0.
    """
    if spec.method is CgfMethod.CLOSED_FORM_NORMAL:
        return np.zeros(spec.x.k)
    if spec.method is CgfMethod.GAUSSIAN_MIXTURE_QUADRATURE:
        z, v, _, p = _uniform_rule(spec, t)
        return 6.0 * t * spec.x.coords * ((p * z * z) @ _coth_terms(v)[0])
    ws = _sign_weights(spec, t)[0]
    ws /= np.sum(ws)
    ws *= spec.signed_support()
    grad = np.empty(spec.x.k)
    for j in range(spec.x.k - 1, 0, -1):
        plus, minus = ws.reshape(2, -1)  # the sign of x_j splits the halves
        grad[j] = np.sum(plus) - np.sum(minus)
        ws = plus + minus
    grad[0] = ws[0]
    return 2.0 * t * grad


def _log_sinhc(v: np.ndarray) -> np.ndarray:
    """log(sinh(v)/v), even in v, to round-off in absolute terms at every |v|."""
    a = np.abs(v)
    small = a < 1e-6
    safe = np.where(small, 1.0, a)
    big = safe + np.log(-np.expm1(-2.0 * safe) / (2.0 * safe))
    return np.where(small, a * a / 6.0, big)


# Taylor coefficients in v^2 of q(v) = (v coth v - 1)/v^2 and of q'(v)/v,
# used below |v| = 0.1 where the closed forms cancel.
_Q_SERIES = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555)
_DQ_SERIES = (-2 / 45, 8 / 945, -2 / 1575, 16 / 93555, -2764 / 127702575)


def _coth_terms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q(v), q'(v)/v) with q(v) = (v coth v - 1)/v^2, both even in v."""
    a = np.abs(v)
    small = a < 0.1
    safe = np.where(small, 1.0, a)
    e = np.exp(-2.0 * safe)
    one_minus = -np.expm1(-2.0 * safe)
    coth = (1.0 + e) / one_minus
    csch2 = 4.0 * e / (one_minus * one_minus)
    q = (safe * coth - 1.0) / (safe * safe)
    dq = (coth - safe * csch2) / safe ** 3 - 2.0 * q / (safe * safe)
    a2 = a * a
    return (np.where(small, np.polynomial.polynomial.polyval(a2, _Q_SERIES), q),
            np.where(small, np.polynomial.polynomial.polyval(a2, _DQ_SERIES), dq))


# ---------------------------------------------------------------------------
# Legendre-Fenchel transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LegendreSolve:
    """One transform solve: the rate, the optimal tilt, and how it ended.

    The counters are the root solver's: Newton and bisection steps inside
    the bracket, and the outward probes that built it.
    """

    rate: float
    t_star: float
    boundary: bool
    converged: bool
    newton_steps: int = 0
    bisection_steps: int = 0
    expansions: int = 0


def legendre(spec: CgfSpec, alpha: float) -> tuple[float, float]:
    """sup_t (t*alpha - Lambda(t)) with t restricted by the sign of alpha - 1.

    Returns (rate, t_star); t_star is +/-inf when the optimum sits at the
    support boundary (alpha at or beyond the essential range of S^2).
    """
    sol = legendre_solve(spec, alpha)
    return sol.rate, sol.t_star


def legendre_solve(spec: CgfSpec, alpha: float) -> LegendreSolve:
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if spec.method is CgfMethod.GAUSSIAN_MIXTURE_QUADRATURE and alpha < 1.0:
        raise UnsupportedDomainError(
            "lower-tail transforms need t < 0, unsupported for symmetric-uniform entries"
        )

    if spec.method is CgfMethod.CLOSED_FORM_NORMAL:
        # S is standard normal along every direction
        return LegendreSolve(rate_wishart(alpha), wishart_t_star(alpha), False, True)

    ess_sup = spec.ess_sup_s2()
    ess_inf = spec.ess_inf_s2()
    if alpha >= 1.0:
        # upper tail, t >= 0
        if math.isfinite(ess_sup):
            if alpha > ess_sup * (1.0 + 1e-12) + _ATOL:
                return LegendreSolve(math.inf, math.inf, True, True)
            if alpha >= ess_sup * (1.0 - 1e-12) - _ATOL:
                if spec.method is CgfMethod.EXACT_ENUMERATION:
                    rate = 0.0 - spec.atom_log_prob(ess_sup)  # +0.0 for a sure atom
                else:
                    rate = math.inf  # continuous law: no atom at the ess sup
                return LegendreSolve(rate, math.inf, True, True)
        return _solve_transform(spec, alpha, side=+1)
    # lower tail, t <= 0
    if alpha < ess_inf * (1.0 - 1e-12) - _ATOL:
        return LegendreSolve(math.inf, -math.inf, True, True)
    if alpha <= ess_inf * (1.0 + 1e-12) + _ATOL and ess_inf > 0.0:
        rate = 0.0 - spec.atom_log_prob(ess_inf)
        return LegendreSolve(rate, -math.inf, True, True)
    return _solve_transform(spec, alpha, side=-1)


def _solve_transform(spec: CgfSpec, alpha: float, side: int) -> LegendreSolve:
    """Solve Lambda'(t) = alpha over t >= 0 (side=+1) or t <= 0 (-1).

    Lambda is convex, so Lambda' - alpha is increasing and its root is the
    optimal tilt.  The bracket grows outward from t = 0 by doubling up to
    |t| = T_EDGE (the laws solved here have no finite domain edge on the
    searched side); if the derivative never straddles alpha inside that
    window, the transform is taken just inside the edge and the solve is
    marked unconverged.
    """
    edge = side * T_EDGE

    def outward(t: float) -> float | None:
        if t == edge:
            return None
        return side * min(max(2.0 * abs(t), 1.0), T_EDGE)

    def residual(t: float):
        lam, deriv, curv = _tilted(spec, t)
        return deriv - alpha, curv, lam

    lo, hi = (0.0, None) if side > 0 else (None, 0.0)
    root = _bracketed_root(residual, lo, hi, 0.0, 1e-14, 1e-13 * max(1.0, alpha), outward)
    counts = (root.newton_steps, root.bisection_steps, root.expansions)
    if root.at_edge:
        t_at = math.nextafter(edge, 0.0)
        val = t_at * alpha - _tilted(spec, t_at)[0]
        return LegendreSolve(_clip_rate(val), t_at, True, False, *counts)
    rate = root.t * alpha - root.value[2]
    return LegendreSolve(_clip_rate(rate), root.t, False, True, *counts)


def _clip_rate(rate: float) -> float:
    # t = 0 is always admissible and gives 0, so the sup is never negative.
    return max(rate, 0.0)


@dataclass
class _Root:
    """Where _bracketed_root stopped: the last point, f there, the bracket
    (an end is None while it is open) and the step counts.  at_edge means
    the bracket was still open when outward ran out of probes."""

    t: float
    value: tuple
    lo: float | None
    hi: float | None
    newton_steps: int = 0
    bisection_steps: int = 0
    expansions: int = 0
    at_edge: bool = False


# Newton and bisection steps allowed in one solve.
_MAX_STEPS = 120


def _bracketed_root(f, lo, hi, t, xtol, ftol=0.0, outward=None) -> _Root:
    """Root of the increasing function f on [lo, hi], starting from t.

    f(t) returns (value, slope, ...); a value below 0 moves lo to t, any
    other moves hi.  A Newton step is taken when the slope is positive and
    the step lands strictly inside the bracket, or, while an end is still
    None, no farther than the probe outward(t); otherwise the step is the
    midpoint, or that probe.  outward returning None ends the search at the
    edge.  Stops when hi - lo <= xtol * max(1, |lo|, |hi|), |value| < ftol,
    a Newton step would not move t, or after _MAX_STEPS Newton and
    bisection steps.
    """
    root = _Root(t, (), lo, hi)
    while True:
        root.t, root.value = t, f(t)
        val, slope = root.value[0], root.value[1]
        if val < 0.0:
            root.lo = t
        else:
            root.hi = t
        lo, hi = root.lo, root.hi
        closed = lo is not None and hi is not None
        if (abs(val) < ftol or root.newton_steps + root.bisection_steps >= _MAX_STEPS
                or closed and hi - lo <= xtol * max(1.0, abs(lo), abs(hi))):
            return root
        if not closed:
            probe = outward(t)
            if probe is None:
                root.at_edge = True
                return root
        newton = slope is not None and slope > 0.0
        t_new = t - val / slope if newton else math.nan
        if t_new == t:
            return root  # the Newton step is below one ulp of t
        if newton and (lo < t_new < hi if closed else abs(t_new - t) <= abs(probe - t)):
            root.newton_steps += 1
        elif closed:
            t_new = 0.5 * (lo + hi)
            root.bisection_steps += 1
        else:
            t_new = probe
            root.expansions += 1
        t = t_new


# ---------------------------------------------------------------------------
# Closed forms and bounds
# ---------------------------------------------------------------------------

def rate_wishart(alpha: float) -> float:
    """(alpha - 1 - log alpha)/2: the k-independent normal-entry rate."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return 0.5 * (alpha - 1.0 - math.log(alpha))


def wishart_t_star(alpha: float) -> float:
    """Optimal tilt 1/2 - 1/(2 alpha) for the normal-entry transform."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return 0.5 - 0.5 / alpha


def rate_two_sparse(alpha: float) -> float:
    """(alpha/2) log alpha + ((2-alpha)/2) log(2-alpha), with 0 log 0 = 0.

    The transform along the two-coordinate direction for +/-1 entries.
    """
    if alpha < 0 or alpha > 2:
        raise DomainError(f"two-sparse rate needs 0 <= alpha <= 2, got {alpha}")

    def xlogx(v: float) -> float:
        return 0.0 if v == 0.0 else v * math.log(v)

    return 0.5 * (xlogx(alpha) + xlogx(2.0 - alpha))


def rate_joint_wishart(alpha: float, beta: float) -> float:
    """Joint top/bottom deviation rate for normal entries: the rates add."""
    if not (0 < beta <= 1 <= alpha):
        raise DomainError(f"need 0 < beta <= 1 <= alpha, got alpha={alpha}, beta={beta}")
    return rate_wishart(alpha) + rate_wishart(beta)


def rate_lower_bound_bounded(alpha: float, bound: float) -> float:
    """(alpha/M^2 - 1 - log(alpha/M^2))/2 for entries with |C| < M, alpha >= M^2."""
    if bound < 1.0:
        raise DomainError(f"entry bound must be >= 1, got {bound}")
    if alpha < bound * bound:
        raise DomainError(f"need alpha >= M^2 = {bound * bound}, got {alpha}")
    return rate_wishart(alpha / (bound * bound))


def rate_lower_bound_rademacher(alpha: float) -> float:
    """Piecewise lower bound for +/-1 entries.

    (alpha - 1 - log alpha)/2 on alpha >= 1/2 and (log 2 - alpha)/2 on
    0 < alpha <= 1/2; the pieces agree at 1/2.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if alpha >= 0.5:
        return rate_wishart(alpha)
    return 0.5 * (LOG2 - alpha)


def chernoff_squared_entry(dist: EntryDistribution, a: float) -> float:
    """Legendre transform of the squared-entry CGF at level a.

    This is the k = 1 transform, along S = C_1: 0 at a = 1 and infinite
    elsewhere for +/-1 entries, (a - 1 - log a)/2 for normal entries, and a
    numeric transform on a >= 1 for uniform entries.  The numeric tilt is
    searched on |t| <= T_EDGE; for uniform entries the optimal tilt passes
    T_EDGE near a = 2.98, and beyond, the value is the supremum over the
    window, finite but below the transform.  At a = 2.975 the tilt is
    about 40 and the transform about 4.476.
    """
    return legendre_solve(CgfSpec.for_direction(dist, UnitVector.of([1.0])), a).rate


# ---------------------------------------------------------------------------
# Sphere covering counts
# ---------------------------------------------------------------------------

def grid_covering(k: int, grid_l: int) -> tuple[float, float]:
    """Cube-grid covering of the sphere: mesh bound 3 sqrt(k)/L, count L^k."""
    if k < 1 or grid_l < 1:
        raise DomainError("k and L must be positive integers")
    if math.sqrt(k) / grid_l > 0.5:
        raise DomainError(
            f"grid covering needs sqrt(k)/L <= 1/2, got {math.sqrt(k) / grid_l:.4f}"
        )
    d_bound = 3.0 * math.sqrt(k) / grid_l
    try:
        count_bound = float(grid_l ** k)
    except OverflowError:
        count_bound = math.inf
    return d_bound, count_bound


def rogers_covering(k: int, radius_ratio: float) -> float:
    """log of the sphere-covering count 4 k sqrt(k) R^k (log k + log log k + log R).

    Only the leading form of the asymptotic bound; the (1 + O(1/log k))
    factor is dropped.  Returned in log-space to avoid overflow in R^k.
    """
    if k < 2:
        raise DomainError("covering count needs k >= 2 (log log k undefined below)")
    if radius_ratio <= math.sqrt(k / (k - 1.0)):
        raise DomainError(
            f"covering bound needs R > sqrt(k/(k-1)) = {math.sqrt(k / (k - 1.0)):.6f}"
        )
    bracket = math.log(k) + math.log(math.log(k)) + math.log(radius_ratio)
    return math.log(4.0 * k * math.sqrt(k) * bracket) + k * math.log(radius_ratio)


# ---------------------------------------------------------------------------
# MGF domination check
# ---------------------------------------------------------------------------

def mgf_bound_check(dist: EntryDistribution, x: UnitVector, t: float) -> bool:
    """True iff the exact CGF is below -log(1 - 2 M^2 t)/2 at this t.

    M = 1 for +/-1 entries (where the bound extends to t >= -1) and for
    normal entries (where it is an identity); M = sqrt(3) for the uniform
    case, checkable on 0 <= t < 1/(2 M^2).
    """
    if dist is EntryDistribution.RADEMACHER:
        if not (-1.0 <= t < 0.5):
            raise DomainError(f"checkable domain is [-1, 1/2) for +/-1 entries, got t={t}")
        m2 = 1.0
    elif dist is EntryDistribution.STD_NORMAL:
        if not (0.0 <= t < 0.5):
            raise DomainError(f"checkable domain is [0, 1/2) for normal entries, got t={t}")
        m2 = 1.0
    else:
        m2 = 3.0
        if not (0.0 <= t < 1.0 / (2.0 * m2)):
            raise DomainError(
                f"checkable domain is [0, {1.0 / (2.0 * m2):.4f}) for uniform entries, got t={t}"
            )
    spec = CgfSpec.for_direction(dist, x)
    return cgf(spec, t) <= -0.5 * math.log1p(-2.0 * m2 * t) + 1e-10


# ---------------------------------------------------------------------------
# Sphere infimum
# ---------------------------------------------------------------------------

# Projected-gradient sphere descent: iteration cap, the improvement below
# which a descent counts as converged, and the first line-search step.  The
# gradient is analytic (_cgf_gradient at the solve's optimal tilt).
DESCENT_MAX_ITERATIONS = 200
DESCENT_IMPROVEMENT_TOL = 1e-9
DESCENT_INITIAL_STEP = 0.25


@dataclass(frozen=True)
class OptimizerSettings:
    """Restart count and seed of the multi-start sphere search."""

    random_restarts: int = 32
    seed: int = 909090


class Descent(NamedTuple):
    """How one start of the sphere search ended: its rate, the descent
    steps it accepted, and whether it converged."""

    rate: float
    steps: int
    converged: bool


@dataclass(frozen=True)
class RateResult:
    """Sphere-infimum transform value with its optimizer provenance.

    descents holds one Descent per start, in start order: the all-equal
    direction, the two-coordinate direction, then the random restarts.
    """

    alpha: float
    rate: float
    infinite: bool
    t_star: float
    t_star_at_boundary: bool
    x_star: UnitVector
    restarts_used: int
    converged: bool
    descents: tuple[Descent, ...]


def _canonical(coords: np.ndarray) -> np.ndarray:
    # sign flips and permutations leave the law of S invariant for every
    # symmetric entry law, so iterate in |coords| sorted descending
    return np.sort(np.abs(coords))[::-1]


def _sphere_objective(dist: EntryDistribution, coords: np.ndarray,
                      alpha: float) -> tuple[CgfSpec, LegendreSolve]:
    spec = CgfSpec.for_direction(dist, UnitVector(coords / np.linalg.norm(coords)))
    return spec, legendre_solve(spec, alpha)


def _descend(dist: EntryDistribution, start: np.ndarray,
             alpha: float) -> tuple[LegendreSolve, np.ndarray, Descent]:
    """Armijo line search along the projected gradient -dLambda_x/dx (t*).

    A solve whose optimal tilt is infinite (an atom, or a level beyond the
    support) has no gradient: the descent ends there, converged.
    """
    x = _canonical(start / np.linalg.norm(start))
    spec, best = _sphere_objective(dist, x, alpha)
    step = DESCENT_INITIAL_STEP
    steps = 0
    converged = False
    for _ in range(DESCENT_MAX_ITERATIONS):
        if not math.isfinite(best.t_star):
            converged = True
            break
        grad = -_cgf_gradient(spec, best.t_star)
        tangent = grad - np.dot(grad, x) * x
        gnorm = float(np.linalg.norm(tangent))
        if gnorm < 1e-12:
            converged = True
            break
        improvement = 0.0
        while step > 1e-13:
            trial = x - step * tangent
            trial = _canonical(trial / np.linalg.norm(trial))
            cand_spec, cand = _sphere_objective(dist, trial, alpha)
            if cand.rate < best.rate - 1e-4 * step * gnorm * gnorm:
                improvement = best.rate - cand.rate
                x, spec, best = trial, cand_spec, cand
                steps += 1
                step = min(step * 1.5, 1.0)
                break
            step *= 0.5
        if improvement < DESCENT_IMPROVEMENT_TOL:
            converged = True
            break
    return best, x, Descent(best.rate, steps, converged)


def rate_k(dist: EntryDistribution, k: int, alpha: float,
           opts: OptimizerSettings | None = None) -> RateResult:
    """Infimum over the unit sphere of the directional transform at alpha.

    Starts from the all-equal and two-coordinate directions (the two
    candidate optima) plus seeded random restarts, descending each with
    the projected analytic gradient of the rate (one transform solve per
    line-search trial, none for the gradient); ties break toward the
    lexicographically smallest canonical direction.
    """
    opts = opts or OptimizerSettings()
    if k < 2:
        raise DomainError(f"sphere infimum needs k >= 2, got k={k}")
    if opts.random_restarts < 0:
        raise DomainError(f"need random_restarts >= 0, got {opts.random_restarts}")
    if dist is EntryDistribution.RADEMACHER and k > ENUMERATION_MAX_K:
        raise DomainError(f"exact enumeration supports k <= {ENUMERATION_MAX_K}")
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if dist is EntryDistribution.UNIFORM_SYM and alpha < 1.0:
        raise UnsupportedDomainError(
            "lower-tail sphere rates are unsupported for symmetric-uniform entries"
        )

    starts = [UnitVector.uniform(k).coords, UnitVector.two_sparse(k).coords]
    rng = derive_rng(opts.seed, k)
    starts += [UnitVector.random(k, rng).coords for _ in range(opts.random_restarts)]

    best: LegendreSolve | None = None
    best_x: np.ndarray | None = None
    descents = []
    for start in starts:
        sol, x_end, descent = _descend(dist, start, alpha)
        descents.append(descent)
        if best is None or sol.rate < best.rate or (
            sol.rate == best.rate and tuple(x_end) < tuple(best_x)
        ):
            best, best_x = sol, x_end
    return RateResult(
        alpha=alpha,
        rate=best.rate,
        infinite=math.isinf(best.rate),
        t_star=best.t_star,
        t_star_at_boundary=best.boundary,
        x_star=UnitVector(best_x / np.linalg.norm(best_x)),
        restarts_used=len(starts),
        converged=all(d.converged for d in descents),
        descents=tuple(descents),
    )


# ---------------------------------------------------------------------------
# Strategy phase transition
# ---------------------------------------------------------------------------

# Width of the final bracket around each phase-transition crossing.
PHASE_TOL = 1e-8
PHASE_K_TOL = 1e-7


def phase_transition_alpha_star() -> float:
    """Crossing point in (0, 1) of the large-k rate and the two-sparse rate.

    Below the crossing the two-coordinate strategy has the smaller rate;
    above it the all-equal strategy wins.  Bisected to width PHASE_TOL.
    """
    def gap(a: float) -> float:
        return rate_wishart(a) - rate_two_sparse(a)

    lo, hi = None, None
    grid = np.linspace(0.02, 0.98, 97)
    for a, b in zip(grid[:-1], grid[1:]):
        if gap(a) > 0.0 >= gap(b):
            lo, hi = a, b
            break
    if lo is None:
        raise DomainError("no strategy crossing found on (0, 1)")
    return _bisect_crossing(gap, lo, hi, PHASE_TOL)


def _bisect_crossing(gap, lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] bisected to width tol around the sign change of
    the decreasing gap (gap(lo) > 0 >= gap(hi))."""
    root = _bracketed_root(lambda a: (-gap(a), None), lo, hi, 0.5 * (lo + hi), tol)
    return float(0.5 * (root.lo + root.hi))


def phase_transition_alpha_star_k(k: int) -> float:
    """Largest alpha in (0, 1) where the all-equal and two-coordinate
    transforms agree for +/-1 entries at this k.

    Located by a grid scan for the last sign change of the strategy gap,
    then bisection to width PHASE_K_TOL = 1e-7.  k = 2 is degenerate (the
    strategies coincide) and returns the marker 1.0.
    """
    if not (2 <= k <= 12):
        raise DomainError(f"phase-transition scan supports 2 <= k <= 12, got k={k}")
    if k == 2:
        return 1.0

    spec_k = CgfSpec.for_direction(EntryDistribution.RADEMACHER, UnitVector.uniform(k))
    spec_2 = CgfSpec.for_direction(EntryDistribution.RADEMACHER, UnitVector.two_sparse(k))

    def gap(a: float) -> float:
        g_k = legendre_solve(spec_k, a).rate
        g_2 = legendre_solve(spec_2, a).rate
        if math.isinf(g_k):
            return math.inf
        return g_k - g_2

    grid = np.linspace(0.01, 0.99, 99)
    bracket = None
    for a, b in zip(grid[:-1], grid[1:]):
        if gap(a) > 0.0 >= gap(b):
            bracket = (a, b)
    if bracket is None:
        raise DomainError(f"no strategy crossing found on (0, 1) for k={k}")
    return _bisect_crossing(gap, *bracket, PHASE_K_TOL)
