"""Exact k=2 normal-entry tails and a one-shot Bartlett draw, for the tests.

For standard normal entries nW = C C^T is real Wishart W_2(n, I).  Its
eigenvalues l1 > l2 have the joint density (Muirhead, Aspects of
Multivariate Statistical Theory, 1982, Sec. 3.2)

    (l1 l2)^((n-3)/2) e^(-(l1 + l2)/2) (l1 - l2) / (4 Gamma(n - 1)).

With a = (n - 1)/2 and x = l/2, integrating the other eigenvalue out with
the regularized incomplete gamma functions P and Q gives the density of
each extreme, up to the common factor c(l) = l^(a-1) e^(-x) 2^a Gamma(a)
/ (4 Gamma(n - 1)):

    larger  l1 = l:  c(l) [(l - 2a) P(a, x) + 2 x^a e^(-x) / Gamma(a)]
    smaller l2 = l:  c(l) [(2a - l) Q(a, x) + 2 x^a e^(-x) / Gamma(a)]

One quad over the tail, scaled by the density at the level, gives
P(lambda_max(W) >= alpha) or P(lambda_min(W) <= alpha).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln


def _log_extreme_density(l: float, n: int, larger: bool) -> float:
    """log density at l of the larger (or smaller) eigenvalue of nW, k=2."""
    a = (n - 1) / 2.0
    x = l / 2.0
    log_poisson = a * math.log(x) - x - gammaln(a)  # log(x^a e^-x / Gamma(a))
    if larger:
        bracket = (l - 2 * a) * gammainc(a, x) + 2.0 * math.exp(log_poisson)
    else:
        bracket = (2 * a - l) * gammaincc(a, x) + 2.0 * math.exp(log_poisson)
    if bracket <= 0.0:  # underflow or round-off far out, where the density is nil
        return -math.inf
    return ((a - 1) * math.log(l) - x + a * math.log(2.0) + gammaln(a)
            - math.log(4.0) - gammaln(n - 1) + math.log(bracket))


def _integral(n: int, larger: bool, lo: float, hi: float, scale_at: float) -> float:
    ref = _log_extreme_density(scale_at, n, larger)
    value, _ = quad(lambda l: math.exp(_log_extreme_density(l, n, larger) - ref),
                    lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    return value * math.exp(ref)


def max_above(n: int, alpha: float) -> float:
    """P(lambda_max(W) >= alpha), W = C C^T / n for a 2 x n normal C."""
    return _integral(n, True, alpha * n, math.inf, alpha * n)


def min_below(n: int, alpha: float) -> float:
    """P(lambda_min(W) <= alpha), W = C C^T / n for a 2 x n normal C."""
    return _integral(n, False, 0.0, alpha * n, alpha * n)


def total_mass(n: int, larger: bool) -> float:
    """Integral of one extreme's density over (0, inf); 1 up to quadrature."""
    mode = float(n)
    return (_integral(n, larger, 0.0, mode, mode)
            + _integral(n, larger, mode, math.inf, mode))


def bartlett_gram(rng: np.random.Generator, m: int, k: int, n: int) -> np.ndarray:
    """W = L L^T / n for m trials, drawn in one shot in the normal-entry
    stream layout of core.gram_blocks, whose blocks joined it must equal:
    the m x r chi-squares (r = min(k, n)), then every trial's strictly
    lower normals, row by row."""
    r = min(k, n)
    chi2 = rng.chisquare(n - np.arange(r), size=(m, r))
    rows, cols = np.tril_indices(k, -1, r)
    normals = rng.standard_normal((m, rows.size))
    lower = np.zeros((m, k, r))
    for i in range(r):
        lower[:, i, i] = np.sqrt(chi2[:, i])
    lower[:, rows, cols] = normals
    w = lower @ np.ascontiguousarray(np.swapaxes(lower, -1, -2)) / n
    return (w + np.swapaxes(w, -1, -2)) / 2.0
