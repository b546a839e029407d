"""Monte Carlo and exact-enumeration estimates of eigenvalue tail probabilities.

The empirical side of the rate-function toolkit: sample many covariance
matrices, count spectral events, and report -(1/n) log p_hat with a 95%
Clopper-Pearson interval, or sum over every +/-1 sign matrix outright when
k*n is small enough for that to be exact.

Trials run in chunks of CHUNK_TRIALS whose generators derive from
(seed, chunk_index), so a count depends only on the seed and the trial
count, not on execution order, and chunks could run in parallel.  Each
experiment's fixed chunk size is part of its stream.

Tail counts at k >= 3 screen each chunk first: a batched Cholesky
factorization (core.cholesky_completes) of cI - W or W - cI, at a level
moved by a relative guard of SCREEN_GUARD towards the bulk, proves that
most W of a far tail reach no level, and LAPACK solves only the rest, so
every count is the one that solving every W gives.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betaincinv

from .core import (
    EntryDistribution,
    _chunks,
    _sign_gram_classes,
    bottom_eigenvalues_vanish,
    cholesky_completes,
    eigvalues_batch,
    gram_batch,
    mp_edges,
)
from .errors import DomainError

CHUNK_TRIALS = 1 << 16
CI_LEVEL = 0.95  # two-sided level of every Clopper-Pearson interval

# W entries gathered at a time for the eigen solve of the trials that the
# tail screen keeps, which bounds that copy.
SOLVE_BLOCK_ENTRIES = 1 << 18

# Relative guard of the tail screen's level: see _tail_screen.
SCREEN_GUARD = 1e-9

# kn cap for exact enumeration over the 2^(kn) sign matrices.
ENUM_MAX_BITS = 24

# Column and Gram entries (k*(n+k) per multiset) in one enumerate_exact
# chunk, which bounds its memory.
ENUM_CHUNK_ENTRIES = 1 << 20


class TailSide(enum.Enum):
    MIN_BELOW = "min_below"
    MAX_ABOVE = "max_above"

    @classmethod
    def parse(cls, name: str) -> "TailSide":
        key = name.strip().lower()
        for side in cls:
            if key == side.value:
                return side
        raise DomainError(f"unknown tail side {name!r}")


def clopper_pearson(hits: int, trials: int) -> tuple[float, float]:
    """Exact CI_LEVEL binomial interval; stays honest at zero or full hit counts."""
    if not (0 <= hits <= trials) or trials < 1:
        raise DomainError(f"need 0 <= hits <= trials, got {hits}/{trials}")
    tail = (1.0 - CI_LEVEL) / 2.0
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, tail))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1.0 - tail))
    return lo, hi


def _rate(p: float, n: int) -> float | None:
    """Empirical rate -(1/n) log p, None when p is 0."""
    return None if p == 0.0 else max(0.0, -math.log(p) / n)


def _binomial(hits: int, trials: int, n: int) -> tuple[float, float, float, float | None]:
    """(p_hat, ci_low, ci_high, empirical_rate) of hits out of trials at n."""
    p_hat = hits / trials
    return (p_hat, *clopper_pearson(hits, trials), _rate(p_hat, n))


def _record(result, experiment: str) -> dict:
    """The JSON record of a result dataclass: every field under its own name,
    enums by value, tuples as lists, and (ci_low, ci_high) as one "ci" pair,
    None when the result has no interval."""
    rec = {"experiment": experiment}
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        rec[f.name] = value
    lo, hi = rec.pop("ci_low"), rec.pop("ci_high")
    rec["ci"] = None if lo is None else [lo, hi]
    return rec


def _check_trials(k: int, n: int, trials: int) -> None:
    if k < 1 or n < 1 or trials < 1:
        raise DomainError(f"need k, n and trials >= 1, got k={k}, n={n}, trials={trials}")


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
        return _record(self, "tail")


def _spectra(dist: EntryDistribution, k: int, n: int, trials: int, seed: int, screen=None):
    """Ascending eigenvalues of `trials` sampled W, one (rows, k) array per chunk,
    each from _eigvalues.

    +/-1 W take at most comb(2^(k-1) + n - 1, n) values (one per multiset
    of column classes, as in enumerate_exact).  When that is at most
    CHUNK_TRIALS and LAPACK is called (k >= 3), a chunk solves each
    distinct W once.  The screen (see _tail_screen) applies at k >= 3 only:
    at k <= 2 eigvalues_batch's closed forms cost less than it.
    """
    dedup = (dist is EntryDistribution.RADEMACHER and k >= 3
             and _multisets_at_most(1 << (k - 1), n, CHUNK_TRIALS))
    for rng, size in _chunks(seed, trials, CHUNK_TRIALS):
        yield _eigvalues(gram_batch(dist, rng, size, k, n), n if dedup else None,
                         screen if k >= 3 else None)


def _multisets_at_most(classes: int, n: int, cap: int) -> bool:
    """comb(classes + n - 1, n) <= cap, for classes, cap >= 1, in O(log cap)
    steps: the running product comb(a + j, j), a = max(n, classes - 1), at
    least doubles per step and stops once it passes cap, where math.comb
    builds the whole binomial, 355,228 bits at k = 17, n = 10^6."""
    j_max, a = sorted((n, classes - 1))
    count = 1
    for j in range(1, j_max + 1):
        count = count * (a + j) // j
        if count > cap:
            return False
    return True


def _eigvalues(w: np.ndarray, n: int | None, screen) -> np.ndarray:
    """Ascending eigenvalues of the rows of an (m, k, k) stack of W that
    the screen keeps (every row without one), in order.

    With n, w holds +/-1 W, and each distinct matrix (core._sign_gram_classes,
    an exact integer key; sdpic.ber_experiment decodes each distinct (W, Z)
    of an s=inf pool by the same key) is screened and solved once, and its
    eigenvalues are scattered back.  A screen (level, sign) drops each W
    whose Cholesky factorization at the guarded level completes.  The kept
    rows are solved in blocks of SOLVE_BLOCK_ENTRIES W entries, so at most
    one block is copied at a time, and a block kept whole is solved in
    place.  eigvalsh treats each matrix of a stack alone, so the
    eigenvalues are bit for bit those of solving every row.
    """
    # w stays bound until the scatter: freeing the chunk earlier made the
    # +/-1 (3, 8) tail op about 15% slower (heap layout, not work)
    distinct, inverse = w, None
    if n is not None:
        first, inverse = _sign_gram_classes(w, n)
        distinct = w[first]
    keep = np.ones(len(distinct), dtype=bool)
    if screen is not None:
        level, sign = screen
        guard = SCREEN_GUARD * (1.0 + abs(level) + float(np.einsum("mii->m", distinct).max()))
        keep = ~cholesky_completes(distinct, level + sign * guard, sign)
    if inverse is not None:
        # the kept rows, renumbered onto the kept distinct matrices
        inverse = (np.cumsum(keep) - 1)[inverse[keep[inverse]]]
    lam = np.empty((np.count_nonzero(keep), w.shape[-1]))
    step = max(1, SOLVE_BLOCK_ENTRIES // w[0].size)
    solved = 0
    for start in range(0, len(distinct), step):
        block, rows = distinct[start:start + step], keep[start:start + step]
        block_lam = eigvalues_batch(block if rows.all() else block[rows])
        lam[solved:solved + len(block_lam)] = block_lam
        solved += len(block_lam)
    return lam if inverse is None else lam[inverse]


def _tail_screen(alphas, side: TailSide):
    """The screen (level, sign) of _eigvalues for the tail events of
    estimate_tails (None for no levels): it drops each W that a Cholesky
    factorization proves reaches no level of `alphas`.  An infinite level
    gives an infinite or NaN shift, whose factorization fails at once, so
    every W goes to LAPACK.

    lambda_max(W) < c iff cI - W is positive definite, and lambda_min(W) > c
    iff W - cI is (Sylvester's law of inertia), so the screen factors
    cI - W at c = min(alphas) - delta (max_above), or W - cI at
    c = max(alphas) + delta (min_below), with the guard
    delta = SCREEN_GUARD (1 + |alpha| + tr W), tr W the largest trace of
    the stack.  A completed factorization of A is exact for some A + dA
    with ||dA||_2 <= k g ||A||_2 / (1 - k g), g = gamma_(k+1) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3):
    under 5e-13 (|alpha| + tr W) for k <= 64.  delta covers that and the
    error of eigvalsh, so a screened W would not have hit at any level,
    and LAPACK still decides every W that could.
    """
    levels = [float(alpha) for alpha in alphas]  # Python floats: inf - inf is a silent NaN
    if not levels:
        return None
    if side is TailSide.MAX_ABOVE:
        return min(levels), -1.0
    return max(levels), 1.0


def _count_events(dist: EntryDistribution, k: int, n: int, trials: int, seed: int,
                  predicates, screen=None) -> list[int]:
    """Hits of each event over the same `trials` W, on one pass of _spectra;
    the screen (see _spectra) may drop only W that no predicate counts."""
    _check_trials(k, n, trials)
    hits = [0] * len(predicates)
    for lam in _spectra(dist, k, n, trials, seed, screen):
        for i, predicate in enumerate(predicates):
            hits[i] += int(np.count_nonzero(predicate(lam)))
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


def zero_count_at_least(l: int):
    """Event {at least l eigenvalues are zero}, by core's ZERO_EIG_TOL rule."""
    def pred(lam: np.ndarray) -> np.ndarray:
        return bottom_eigenvalues_vanish(lam, l)
    return pred


def estimate_tail(dist: EntryDistribution, k: int, n: int, alpha: float,
                  side: TailSide, trials: int, seed: int) -> TailEstimate:
    """Sample `trials` covariance matrices and count the requested tail event.

    Deterministic for a fixed seed, and the sample stream does not depend
    on alpha or side, so sweeps over levels share the same matrices.
    """
    return estimate_tails(dist, k, n, (alpha,), side, trials, seed)[0]


def estimate_tails(dist: EntryDistribution, k: int, n: int, alphas, side: TailSide,
                   trials: int, seed: int) -> list[TailEstimate]:
    """estimate_tail at each level of `alphas`, counted on one sampling pass:
    each level's estimate equals its own estimate_tail run.

    At k >= 3 a batched Cholesky screen (_tail_screen, with its guard
    SCREEN_GUARD) first drops the W that provably reach no level, and
    LAPACK decides the rest, so in a far tail most trials skip the eigen
    solve.  The counts are those of solving every W.
    """
    pred = min_below if side is TailSide.MIN_BELOW else max_above
    counts = _count_events(dist, k, n, trials, seed, [pred(alpha) for alpha in alphas],
                           _tail_screen(alphas, side))
    estimates = []
    for alpha, hits in zip(alphas, counts):
        p_hat, lo, hi, rate = _binomial(hits, trials, n)
        estimates.append(TailEstimate(dist=dist, k=k, n=n, alpha=alpha, side=side,
                                      trials=trials, hits=hits, p_hat=p_hat, ci_low=lo,
                                      ci_high=hi, empirical_rate=rate, seed=seed))
    return estimates


def enumerate_exact(k: int, n: int, predicate) -> float:
    """Exact event probability for +/-1 entries, summed over column classes.

    W depends only on how many columns fall in each of the 2^(k-1) classes
    {v, -v} of sign patterns, so the sum runs over the multisets of n
    classes: each gives its integer Gram matrix G, one eigenvalue
    evaluation of W = G/n, and the exact count 2^n n!/prod(m_c!) of the
    sign matrices it stands for.  The result is (#hits) / 2^(k*n), for
    k*n <= 24.
    """
    bits = k * n
    if bits > ENUM_MAX_BITS:
        raise DomainError(f"enumeration needs k*n <= {ENUM_MAX_BITS}, got {bits}")
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    # class c holds the columns +/-v with v_0 = +1, v_(i+1) = (-1)^(bit i of c)
    shifts = np.arange(k - 1)
    hits = 0
    for rows in _multisets(1 << (k - 1), n, max(1, ENUM_CHUNK_ENTRIES // (k * (n + k)))):
        cols = np.ones(rows.shape + (k,), dtype=np.int64)
        cols[..., 1:] = 1 - 2 * ((rows[..., None] >> shifts) & 1)
        gram = np.einsum("bni,bnj->bij", cols, cols)
        lam = eigvalues_batch(gram / n)
        hits += int(np.sum(_sign_matrix_counts(rows)[predicate(lam)]))
    return hits / (1 << bits)


def _multisets(classes: int, n: int, chunk: int):
    """Every multiset of n values in range(classes), as nondecreasing index
    rows in lexicographic order, at most `chunk` rows at a time."""
    tuples = itertools.combinations_with_replacement(range(classes), n)
    while rows := list(itertools.islice(tuples, chunk)):
        yield np.array(rows, dtype=np.int64)


def _sign_matrix_counts(rows: np.ndarray) -> np.ndarray:
    """2^n n!/prod(m_c!) per nondecreasing row: the sign matrices whose
    columns fall in those classes (each class holds v and -v).

    The prefix multinomials p!/prod(run_p!) are integers, so the running
    product stays exact in int64.
    """
    n = rows.shape[1]
    run = np.ones(rows.shape[0], dtype=np.int64)
    count = np.ones(rows.shape[0], dtype=np.int64)
    for p in range(1, n):
        run = np.where(rows[:, p] == rows[:, p - 1], run + 1, 1)
        count = count * (p + 1) // run
    return count << n


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
        return _record(self, "zero_eigen")


def zero_eigen_rate(k: int, l: int, n_list, trials: int, seed: int) -> list[ZeroEigenPoint]:
    """Probability of l zero eigenvalues for +/-1 entries across a sweep of n.

    Uses exact enumeration when it is cheap, k*n <= 24 and at most
    CHUNK_TRIALS multisets of column classes (one spectrum each), and
    Monte Carlo otherwise; the empirical rate -(1/n) log p_hat trends to
    l log 2 as n grows.
    """
    if not (1 <= l <= k - 1):
        raise DomainError(f"need 1 <= l <= k-1, got l={l}, k={k}")
    points = []
    pred = zero_count_at_least(l)
    for n in n_list:
        if k * n <= ENUM_MAX_BITS and _multisets_at_most(1 << (k - 1), n, CHUNK_TRIALS):
            p = enumerate_exact(k, n, pred)
            points.append(ZeroEigenPoint(k=k, l=l, n=n, method="exact", trials=None,
                                         hits=None, p_hat=p, ci_low=None, ci_high=None,
                                         empirical_rate=_rate(p, n), seed=None))
        else:
            hits, = _count_events(EntryDistribution.RADEMACHER, k, n, trials, seed, [pred])
            p, lo, hi, rate = _binomial(hits, trials, n)
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
                       bins: int, seed: int) -> SpectrumHistogram:
    """Pooled eigenvalue histogram over `trials` matrices, unit total mass.

    Also reports the eigenvalue fraction outside the bulk support edges
    for aspect ratio beta = k/n, widened by 0.05 on each side.  At k > n,
    W has rank n: the k - n smallest eigenvalues of each trial are its
    structural zeros and count as inside, and the other n are checked
    against the edges of the nonzero part, (sqrt(beta) - 1)^2 and
    (sqrt(beta) + 1)^2.
    """
    _check_trials(k, n, trials)
    if bins < 1 or 10 * bins > trials * k:
        raise DomainError(f"need 1 <= bins <= trials*k/10, got bins={bins}, trials*k={trials * k}")
    lam = np.concatenate(list(_spectra(dist, k, n, trials, seed)))
    counts, edges = np.histogram(lam, bins=bins)
    mass = counts / lam.size
    lo_edge, hi_edge = mp_edges(k / n)
    if k > n:
        lo_edge = (math.sqrt(k / n) - 1.0) ** 2
    nonzero = lam[:, max(0, k - n):]
    outside = np.count_nonzero((nonzero < lo_edge - 0.05) | (nonzero > hi_edge + 0.05))
    return SpectrumHistogram(dist=dist, k=k, n=n, trials=trials, seed=seed,
                             bin_edges=edges, mass=mass,
                             outside_fraction=float(outside) / lam.size)
