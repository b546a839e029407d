"""Monte Carlo and exact-enumeration estimates of eigenvalue tail probabilities.

The empirical side of the rate-function toolkit: sample many covariance
matrices, count spectral events, and report -(1/n) log p_hat with a 95%
Clopper-Pearson interval, or sum over every +/-1 sign matrix outright when
k*n is small enough for that to be exact.  Each event is a SpectralEvent
(side, level), whose call is the one comparison of eigenvalues with a level.

Trials run in chunks of CHUNK_TRIALS whose generators derive from
(seed, chunk_index), so a count depends only on the seed and the trial
count, not on execution order, and chunks could run in parallel.  Each
experiment's fixed chunk size is part of its stream.

Within a chunk, W arrives in core.gram_blocks' blocks, and each block is
solved before the next is drawn, so no chunk-sized W stack is held.  +/-1
chunks with few enough possible W keep each trial as its k(k-1)/2 integer
distances instead, and solve each distinct W once, weighted by its trial
count.  Tail counts at k >= 3 screen W first: a batched Cholesky
factorization (core.cholesky_completes) of cI - W or W - cI, at a level
moved by a relative guard of SCREEN_GUARD towards the bulk, proves that
most W of a far tail reach no level, and LAPACK solves only the rest, so
every count is the one that solving every W gives.  Enumeration batches
take the same step: _eigvalues screens and solves, _count_events counts.
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
    GRAM_BLOCK_ENTRIES,
    _chunks,
    _row_blocks,
    _sign_distances,
    _sign_gram,
    _sign_gram_classes,
    cholesky_completes,
    eigvalues_batch,
    gram_blocks,
    mp_edges,
)
from .errors import DomainError

CHUNK_TRIALS = 1 << 16
CI_LEVEL = 0.95  # two-sided level of every Clopper-Pearson interval

# Relative guard of the tail screen's level: see _tail_screen.
SCREEN_GUARD = 1e-9

# kn cap for exact enumeration over the 2^(kn) sign matrices.
ENUM_MAX_BITS = 24


class TailSide(enum.Enum):
    MIN_BELOW = "min_below"
    MAX_ABOVE = "max_above"

    @classmethod
    def parse(cls, name: str) -> "TailSide":
        """The side whose value is `name`, exactly; DomainError otherwise."""
        try:
            return cls(name)
        except ValueError:
            raise DomainError(f"unknown tail side {name!r}") from None


# An eigenvalue counts as zero when it is at most ZERO_EIG_TOL * max(1, trace),
# the trace taken as the eigenvalue sum.  For +/-1 entries nW is an integer
# Gram matrix of trace kn: the product of its r nonzero eigenvalues is a
# positive integer and each is at most kn, so every nonzero eigenvalue of W
# is at least 1/(n (kn)^(r-1)), r <= min(k, n), while round-off leaves a
# zero within a few eps * k.  The threshold, about 1e-9 k, separates the two
# exactly when (kn)^min(k, n) < 1e9: every shape with k*n <= 24 (all exact
# enumerations), k = 2 up to n = 15811, k = 3 up to n = 333, k = 4 up to
# n = 44.  Past those shapes, and for the continuous laws, it is a
# tolerance, not a proof.
ZERO_EIG_TOL = 1e-9


@dataclass(frozen=True)
class SpectralEvent:
    """An eigenvalue event as data: {lambda_min <= level} (side MIN_BELOW),
    {lambda_max >= level} (MAX_ABOVE) or {at least `level` zero eigenvalues}
    (side None, by the ZERO_EIG_TOL rule; never at k < level).  Its call on
    an (m, k) ascending stack, the (m,) hits, is the one spectral comparison."""

    side: TailSide | None
    level: float

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        if self.side is TailSide.MIN_BELOW:
            return lam[:, 0] <= self.level
        if self.side is TailSide.MAX_ABOVE:
            return lam[:, -1] >= self.level
        zero = lam <= ZERO_EIG_TOL * np.maximum(1.0, np.sum(lam, axis=1, keepdims=True))
        return np.count_nonzero(zero, axis=1) >= self.level


def min_below(alpha: float) -> SpectralEvent:
    """Event {smallest eigenvalue <= alpha}."""
    return SpectralEvent(TailSide.MIN_BELOW, alpha)


def max_above(alpha: float) -> SpectralEvent:
    """Event {largest eigenvalue >= alpha}."""
    return SpectralEvent(TailSide.MAX_ABOVE, alpha)


def zero_count_at_least(l: int) -> SpectralEvent:
    """Event {at least l eigenvalues are zero}, l >= 1 (DomainError otherwise)."""
    if not l >= 1:
        raise DomainError(f"need l >= 1, got l={l}")
    return SpectralEvent(None, l)


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


def _binomial(hits: int, trials: int, n: int) -> dict:
    """The summary fields p_hat, ci_low, ci_high and empirical_rate of hits
    out of trials at n, as every Monte Carlo result names them."""
    p_hat = hits / trials
    ci_low, ci_high = clopper_pearson(hits, trials)
    return dict(p_hat=p_hat, ci_low=ci_low, ci_high=ci_high, empirical_rate=_rate(p_hat, n))


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


def _spectra(dist: EntryDistribution, k: int, n: int, trials: int, seed: int, events=()):
    """(lam, count) for `trials` sampled W: the ascending eigenvalues of
    (rows, k) W that _eigvalues keeps under the events' _tail_screen, and
    the (rows,) number of trials each row stands for.

    +/-1 W take at most comb(2^(k-1) + n - 1, n) values (one per multiset
    of column classes, as in enumerate_exact).  When that is at most
    CHUNK_TRIALS, a chunk draws its trials as core._sign_distances, finds
    the distinct ones once (core._sign_gram_classes, the exact integer key
    on which sdpic's s=inf pool also finds its sign classes), and builds
    float W for those alone, one core._row_blocks block (k^2 entries a
    row) at a time, each W counted as often as it was drawn.  A chunk's
    distances take at most 8.5 MiB and their key 1.1 MiB (both at k = 17,
    n = 1).  Otherwise each row is one trial of a core.gram_blocks block.
    """
    _check_trials(k, n, trials)
    dedup = dist is EntryDistribution.RADEMACHER and _multisets_at_most(1 << (k - 1), n,
                                                                        CHUNK_TRIALS)
    screen = _tail_screen(events)
    for rng, size in _chunks(seed, trials, CHUNK_TRIALS):
        if not dedup:
            for w in gram_blocks(dist, rng, size, k, n):
                yield _eigvalues(w, np.ones(len(w), dtype=np.int64), screen)
            continue
        distances = _sign_distances(rng, size, k, n)
        first, inverse = _sign_gram_classes(distances, n)
        count = np.bincount(inverse)
        for piece in _row_blocks(len(first), k * k):
            yield _eigvalues(_sign_gram(distances[first[piece]], k, n), count[piece], screen)


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


def _eigvalues(w: np.ndarray, count: np.ndarray, screen) -> tuple[np.ndarray, np.ndarray]:
    """(lam, count) of the rows of an (m, k, k) stack of W that the screen
    keeps (every row without one), in order: their ascending eigenvalues
    and their entries of the (m,) trial counts.

    A screen (level, sign) drops each W whose Cholesky factorization at
    the guarded level completes, and the kept rows are solved in one call
    (w holds at most GRAM_BLOCK_ENTRIES entries, so the copy is bounded).
    eigvalsh treats each matrix of a stack alone, so the eigenvalues are
    bit for bit those of solving every row.  The screen applies at k >= 3
    only: at k <= 2 eigvalues_batch's closed forms cost less than it.
    """
    if screen is not None and w.shape[-1] >= 3:
        level, sign = screen
        guard = SCREEN_GUARD * (1.0 + abs(level) + float(np.einsum("mii->m", w).max()))
        keep = ~cholesky_completes(w, level + sign * guard, sign)
        w, count = w[keep], count[keep]
    return eigvalues_batch(w), count


def _tail_screen(events):
    """The screen (level, sign) of _eigvalues for a list of events (None
    unless all are tail events on one side): it drops each W that a Cholesky
    factorization proves hits none.  An infinite level gives an infinite or
    NaN shift, whose factorization fails at once, so LAPACK decides every W.

    lambda_max(W) < c iff cI - W is positive definite, and lambda_min(W) > c
    iff W - cI is (Sylvester's law of inertia), so the screen factors
    cI - W at c = min(levels) - delta (max_above), or W - cI at
    c = max(levels) + delta (min_below), with the guard
    delta = SCREEN_GUARD (1 + |alpha| + tr W), tr W the largest trace of
    the stack.  A completed factorization of A is exact for some A + dA
    with ||dA||_2 <= k g ||A||_2 / (1 - k g), g = gamma_(k+1) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3):
    under 5e-13 (|alpha| + tr W) for k <= 64.  delta covers that and the
    error of eigvalsh, so a screened W would not have hit at any level,
    and LAPACK still decides every W that could.
    """
    sides = {event.side for event in events}
    if len(sides) != 1 or None in sides:
        return None
    levels = [float(event.level) for event in events]  # Python floats: inf - inf is a silent NaN
    return (min(levels), -1.0) if sides == {TailSide.MAX_ABOVE} else (max(levels), 1.0)


def _count_events(spectra, events) -> list[int]:
    """Hits of each event over a stream of (lam, count) pairs (_spectra's or
    enumerate_exact's), each row weighted by its count."""
    hits = [0] * len(events)
    for lam, count in spectra:
        hits = [h + int(count[event(lam)].sum()) for h, event in zip(hits, events)]
    return hits


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

    At k >= 3 a batched Cholesky screen (_tail_screen) first drops the W
    that provably reach no level, so in a far tail most trials skip the
    eigen solve; the counts are those of solving every W.  An empty grid
    passes the trial gate and returns [] without sampling.
    """
    _check_trials(k, n, trials)
    events = [SpectralEvent(side, alpha) for alpha in alphas]
    if not events:
        return []
    counts = _count_events(_spectra(dist, k, n, trials, seed, events), events)
    return [TailEstimate(dist=dist, k=k, n=n, alpha=alpha, side=side, trials=trials, hits=hits,
                         seed=seed, **_binomial(hits, trials, n))
            for alpha, hits in zip(alphas, counts)]


def enumerate_exact(k: int, n: int, event: SpectralEvent) -> float:
    """Exact event probability for +/-1 entries, summed over column classes.

    W depends only on how many columns fall in each of the 2^(k-1) classes
    {v, -v} of sign patterns, so the sum runs over the multisets of n
    classes: each gives its integer Gram matrix G (G/n is core._sign_gram's
    W), solved and counted as in Monte Carlo (_eigvalues, screened, then
    _count_events), weighted by the exact count 2^n n!/prod(m_c!) of the
    sign matrices it stands for.  The result is (#hits) / 2^(k*n), for
    k*n <= 24.  Multisets go in batches of at most GRAM_BLOCK_ENTRIES
    column and Gram entries (k*(n+k) per multiset), which bounds the memory.
    """
    bits = k * n
    if bits > ENUM_MAX_BITS:
        raise DomainError(f"enumeration needs k*n <= {ENUM_MAX_BITS}, got {bits}")
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    screen = _tail_screen([event])
    batches = _multisets(1 << (k - 1), n, max(1, GRAM_BLOCK_ENTRIES // (k * (n + k))))
    hits, = _count_events((_eigvalues(_class_gram(rows, k) / n, _sign_matrix_counts(rows), screen)
                           for rows in batches), [event])
    return hits / (1 << bits)


def _class_gram(rows: np.ndarray, k: int) -> np.ndarray:
    """The integer Gram matrix G of each row of column classes; class c
    holds the columns +/-v with v_i = (-1)^(bit i of 2c), so v_0 = +1."""
    cols = 1 - 2 * (((rows[..., None] << 1) >> np.arange(k)) & 1)
    return np.einsum("bni,bnj->bij", cols, cols)


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
    event = zero_count_at_least(l)
    for n in n_list:
        if k * n <= ENUM_MAX_BITS and _multisets_at_most(1 << (k - 1), n, CHUNK_TRIALS):
            p = enumerate_exact(k, n, event)
            points.append(ZeroEigenPoint(k=k, l=l, n=n, method="exact", trials=None,
                                         hits=None, p_hat=p, ci_low=None, ci_high=None,
                                         empirical_rate=_rate(p, n), seed=None))
        else:
            hits, = _count_events(_spectra(EntryDistribution.RADEMACHER, k, n, trials, seed,
                                           [event]), [event])
            points.append(ZeroEigenPoint(k=k, l=l, n=n, method="mc", trials=trials, hits=hits,
                                         seed=seed, **_binomial(hits, trials, n)))
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

    Also reports the eigenvalue fraction outside the bulk edges
    mp_edges(k/n), widened by 0.05 on each side.  At k > n, W has rank n:
    the k - n smallest eigenvalues of each trial are its structural zeros
    and count as inside, and the other n are checked against the edges.
    """
    if bins < 1 or 10 * bins > trials * k:
        raise DomainError(f"need 1 <= bins <= trials*k/10, got bins={bins}, trials*k={trials * k}")
    lam, count = (np.concatenate(part) for part in zip(*_spectra(dist, k, n, trials, seed)))
    # each eigenvalue weighs as many trials as its W stands for; the integer
    # weights keep the bin counts, and so the mass, exact
    weight = np.broadcast_to(count[:, None], lam.shape)
    counts, edges = np.histogram(lam, bins=bins, weights=weight)
    mass = counts / (trials * k)
    lo_edge, hi_edge = mp_edges(k / n)
    nonzero = lam[:, max(0, k - n):]
    outside = count @ np.count_nonzero((nonzero < lo_edge - 0.05) | (nonzero > hi_edge + 0.05),
                                       axis=1)
    return SpectrumHistogram(dist=dist, k=k, n=n, trials=trials, seed=seed,
                             bin_edges=edges, mass=mass,
                             outside_fraction=float(outside) / (trials * k))
