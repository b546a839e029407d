"""Monte Carlo and exact-enumeration estimates of eigenvalue tail probabilities.

The empirical side of the rate-function toolkit: sample many covariance
matrices, count spectral events, and report -(1/n) log p_hat with a 95%
Clopper-Pearson interval, or enumerate every +/-1 sign matrix outright when
k*n is small enough for that to be exact.

Trials run in fixed-size chunks whose generators derive from
(seed, chunk_index), so the hit count is independent of execution order and
chunking is safe to parallelize.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as beta_dist

from .core import (
    EntryDistribution,
    _chunks,
    covariance_batch,
    eigvalues_batch,
    mp_edges,
    sample_batch,
)
from .errors import DomainError

CHUNK_TRIALS = 1 << 16

# kn cap for full sign-matrix enumeration (2^(kn) matrices).
ENUM_MAX_BITS = 24

# Eigenvalues below this (relative to the trace scale) count as zero.  The
# +/-1 spectrum is rational with denominator n, so anything under 1/(2n) is
# an exact classifier; this is safe out to n ~ 1e6.
ZERO_EIG_TOL = 1e-9


class TailSide(enum.Enum):
    MIN_BELOW = "min_below"
    MAX_ABOVE = "max_above"

    @classmethod
    def parse(cls, name: str) -> "TailSide":
        key = name.strip().lower()
        for side in cls:
            if key == side.value or key in (side.name.lower(),):
                return side
        raise DomainError(f"unknown tail side {name!r}")


def clopper_pearson(hits: int, trials: int, conf: float = 0.95) -> tuple[float, float]:
    """Exact binomial interval; stays honest at zero or full hit counts."""
    if not (0 <= hits <= trials) or trials < 1:
        raise DomainError(f"need 0 <= hits <= trials, got {hits}/{trials}")
    tail = (1.0 - conf) / 2.0
    lo = 0.0 if hits == 0 else float(beta_dist.ppf(tail, hits, trials - hits + 1))
    hi = 1.0 if hits == trials else float(beta_dist.ppf(1.0 - tail, hits + 1, trials - hits))
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """One tail-probability experiment with its empirical exponential rate."""

    dist: EntryDistribution
    k: int
    n: int
    alpha: float
    side: TailSide
    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    empirical_rate: float | None
    seed: int

    def record(self) -> dict:
        return {
            "experiment": "tail",
            "dist": self.dist.value,
            "k": self.k,
            "n": self.n,
            "alpha": self.alpha,
            "side": self.side.value,
            "trials": self.trials,
            "hits": self.hits,
            "p_hat": self.p_hat,
            "ci": [self.ci_low, self.ci_high],
            "empirical_rate": self.empirical_rate,
            "seed": self.seed,
        }


def _count_event(dist: EntryDistribution, k: int, n: int, trials: int, seed: int,
                 predicate, chunk: int = CHUNK_TRIALS) -> int:
    hits = 0
    for rng, size in _chunks(seed, trials, chunk):
        entries = sample_batch(dist, rng, size, k, n)
        lam = eigvalues_batch(covariance_batch(entries))
        hits += int(np.count_nonzero(predicate(lam)))
    return hits


def min_below(alpha: float):
    """Event {smallest eigenvalue <= alpha}."""
    def pred(lam: np.ndarray) -> np.ndarray:
        return lam[:, 0] <= alpha
    return pred


def max_above(alpha: float):
    """Event {largest eigenvalue >= alpha}."""
    def pred(lam: np.ndarray) -> np.ndarray:
        return lam[:, -1] >= alpha
    return pred


def zero_count_at_least(l: int, tol: float = ZERO_EIG_TOL):
    """Event {at least l eigenvalues are zero} via the ascending order."""
    def pred(lam: np.ndarray) -> np.ndarray:
        scale = np.maximum(1.0, np.sum(lam, axis=1))
        return lam[:, l - 1] <= tol * scale
    return pred


def estimate_tail(dist: EntryDistribution, k: int, n: int, alpha: float,
                  side: TailSide, trials: int, seed: int,
                  chunk: int = CHUNK_TRIALS) -> TailEstimate:
    """Sample `trials` covariance matrices and count the requested tail event.

    Deterministic for a fixed seed, and the sample stream does not depend
    on alpha or side, so sweeps over levels share the same matrices.
    """
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    pred = min_below(alpha) if side is TailSide.MIN_BELOW else max_above(alpha)
    hits = _count_event(dist, k, n, trials, seed, pred, chunk)
    p_hat = hits / trials
    lo, hi = clopper_pearson(hits, trials)
    rate = None if hits == 0 else max(0.0, -math.log(p_hat) / n)
    return TailEstimate(dist=dist, k=k, n=n, alpha=alpha, side=side, trials=trials,
                        hits=hits, p_hat=p_hat, ci_low=lo, ci_high=hi,
                        empirical_rate=rate, seed=seed)


def enumerate_exact(k: int, n: int, predicate, chunk_bits: int = 18) -> float:
    """Exact event probability for +/-1 entries by full sign enumeration.

    Walks all 2^(k*n) sign matrices (k*n <= 24) in chunks and evaluates the
    spectral predicate on each; the result is (#hits) / 2^(k*n).
    """
    bits = k * n
    if bits > ENUM_MAX_BITS:
        raise DomainError(f"enumeration needs k*n <= {ENUM_MAX_BITS}, got {bits}")
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    total = 1 << bits
    step = 1 << min(chunk_bits, bits)
    shifts = np.arange(bits, dtype=np.uint32)
    hits = 0
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint32)
        bits_01 = ((idx[:, None] >> shifts) & 1).astype(np.int8)
        signs = (2 * bits_01 - 1).astype(np.float64)
        entries = signs.reshape(-1, k, n)
        lam = eigvalues_batch(covariance_batch(entries))
        hits += int(np.count_nonzero(predicate(lam)))
    return hits / total


@dataclass(frozen=True)
class ZeroEigenPoint:
    """Estimated probability that the bottom l eigenvalues vanish at one n."""

    k: int
    l: int
    n: int
    method: str  # "exact" or "mc"
    trials: int | None
    hits: int | None
    p_hat: float
    ci_low: float | None
    ci_high: float | None
    empirical_rate: float | None
    seed: int | None

    def record(self) -> dict:
        return {
            "experiment": "zero_eigen",
            "k": self.k,
            "l": self.l,
            "n": self.n,
            "method": self.method,
            "trials": self.trials,
            "hits": self.hits,
            "p_hat": self.p_hat,
            "ci": None if self.ci_low is None else [self.ci_low, self.ci_high],
            "empirical_rate": self.empirical_rate,
            "seed": self.seed,
        }


def zero_eigen_rate(k: int, l: int, n_list, trials: int, seed: int) -> list[ZeroEigenPoint]:
    """Probability of l zero eigenvalues for +/-1 entries across a sweep of n.

    Uses full enumeration when k*n <= 24 and Monte Carlo otherwise; the
    empirical rate -(1/n) log p_hat trends to l log 2 as n grows.
    """
    if not (1 <= l <= k - 1):
        raise DomainError(f"need 1 <= l <= k-1, got l={l}, k={k}")
    points = []
    pred = zero_count_at_least(l)
    for n in n_list:
        if k * n <= ENUM_MAX_BITS:
            p = enumerate_exact(k, n, pred)
            rate = None if p == 0.0 else max(0.0, -math.log(p) / n)
            points.append(ZeroEigenPoint(k=k, l=l, n=n, method="exact", trials=None,
                                         hits=None, p_hat=p, ci_low=None, ci_high=None,
                                         empirical_rate=rate, seed=None))
        else:
            hits = _count_event(EntryDistribution.RADEMACHER, k, n, trials, seed, pred)
            p = hits / trials
            lo, hi = clopper_pearson(hits, trials)
            rate = None if hits == 0 else max(0.0, -math.log(p) / n)
            points.append(ZeroEigenPoint(k=k, l=l, n=n, method="mc", trials=trials,
                                         hits=hits, p_hat=p, ci_low=lo, ci_high=hi,
                                         empirical_rate=rate, seed=seed))
    return points


@dataclass(frozen=True)
class SpectrumHistogram:
    """Pooled eigenvalue histogram with the mass outside the bulk edges."""

    dist: EntryDistribution
    k: int
    n: int
    trials: int
    seed: int
    bin_edges: np.ndarray
    mass: np.ndarray
    outside_fraction: float

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), float(self.mass[i]))
            for i in range(len(self.mass))
        ]


def spectrum_histogram(dist: EntryDistribution, k: int, n: int, trials: int,
                       bins: int, seed: int, chunk: int = CHUNK_TRIALS) -> SpectrumHistogram:
    """Pooled eigenvalue histogram over `trials` matrices, unit total mass.

    Also reports the eigenvalue fraction outside the bulk support edges
    for aspect ratio k/n, widened by 0.05 on each side.
    """
    if trials < 1 or bins < 1:
        raise DomainError("trials and bins must be positive")
    if trials * k < 10 * bins:
        raise DomainError(
            f"too few eigenvalues for {bins} bins: need trials*k >= {10 * bins}"
        )
    pooled = []
    for rng, size in _chunks(seed, trials, chunk):
        entries = sample_batch(dist, rng, size, k, n)
        pooled.append(eigvalues_batch(covariance_batch(entries)).ravel())
    lam = np.concatenate(pooled)
    counts, edges = np.histogram(lam, bins=bins)
    mass = counts / lam.size
    lo_edge, hi_edge = mp_edges(k / n)
    outside = float(np.mean((lam < lo_edge - 0.05) | (lam > hi_edge + 0.05)))
    return SpectrumHistogram(dist=dist, k=k, n=n, trials=trials, seed=seed,
                             bin_edges=edges, mass=mass, outside_fraction=outside)
