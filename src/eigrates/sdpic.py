"""Noise-free CDMA uplink with +/-1 codes: multistage soft-decision
interference cancellation and bit-error-rate experiments.

Users send one bit each through a shared channel; the receiver correlates
with each code (matched filter, equivalent to multiplying the sent vector
by W) and then iteratively subtracts the estimated cross-user interference:

    est(1) = W Z,    est(s) = est(1) - (W - I) est(s-1).

The partial-sum form sum_{j<s} (I-W)^j W Z is algebraically identical, and
the weighted variant replaces W by W/M and rescales.  Each form has one
kernel, over a (t, k, k) stack of W or over a single (k, k) W, and every
decoder runs one of them.  The two forms round differently, so both are
kept and checked against each other.  Whether the iteration
converges is governed entirely by the spectrum of W, which ties bit errors
to the extreme-eigenvalue deviations quantified elsewhere in this package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EntryDistribution,
    SampleMatrix,
    Spectrum,
    _chunks,
    _row_blocks,
    _sign_distances,
    _sign_gram,
    _sign_gram_classes,
    covariance,
    derive_rng,
    eigvalues_batch,
    gram_blocks,
)
from .errors import DimensionError, DomainError
from .mclab import _binomial, _check_trials, _record, max_above, zero_count_at_least

# s = infinity mode: fixed-point tolerance on the stage-to-stage sup norm,
# and the stage cap after which the trial is classified by its spectrum.
INFTY_TOL = 1e-10
INFTY_STAGE_CAP = 1000

# Capped trials with lambda_max at least this oscillate (so do singular W,
# by mclab's zero-eigenvalue rule).
PING_PONG_LAMBDA = 2.0

# Relative tolerance under which two users' last steps count as a tie when
# a quiet oscillating trial's error is attributed.
_TIE_RTOL = 1e-9

# s = infinity screen.  With e_s = est(s) - Z and q = ||I - W||_inf (for
# +/-1 codes W_ii = 1, so q is the largest off-diagonal absolute row sum),
# Z = W Z - (W - I) Z gives e_s = (I - W) e_{s-1}, and |e_1|_inf <= q for
# +/-1 bits.  The stage-s change e_s - e_{s-1} then has sup norm at most
# (1 + q) q^(s-1), below INFTY_TOL by stage 226 when q <= 0.9, far under
# the cap; rounding moves the computed change by about 1e-14.  At the stop
# the change d bounds the error: |e_{s-1}| <= |d| + q |e_{s-1}|, so
# |est - Z|_inf <= INFTY_TOL / (1 - q) = 1e-9 and every sign is right.  A
# trial with q <= CONTRACTION_SCREEN therefore converges without error and
# adds nothing to any count, and ber_experiment does not run it.  It
# decides q on the integers n q = max_i sum_(j != i) |n - 2 d_ij|: see
# _unsettled.
CONTRACTION_SCREEN = 0.9

# The recursion tests convergence once per block of at most BLOCK_STAGES
# stages, whose iterates share a buffer of about BLOCK_FLOATS floats.
BLOCK_STAGES = 32
BLOCK_FLOATS = 1 << 16

# Trials per chunk: part of the stream, since chunk c draws from derive_rng(seed, c).
CHUNK_TRIALS = 1 << 14


@dataclass(frozen=True)
class DecodeState:
    """Estimate and hard decisions after a given number of stages."""

    stage: int
    estimate: np.ndarray
    decided: np.ndarray


def _check_stage(s: float, weight: float | None = None) -> None:
    """Reject a stage below 1 and a weight that is not positive (NaN fails both)."""
    if not s >= 1:
        raise DomainError(f"stage must be >= 1, got {s}")
    if weight is not None and not weight > 0:
        raise DomainError(f"weight must be positive, got {weight}")


def _check_signal(c: SampleMatrix, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (c.k,):
        raise DimensionError(f"signal has shape {z.shape}, expected ({c.k},)")
    return z


def _instance(c: SampleMatrix, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, k) W and (k,) Z of a single instance, for the kernels."""
    z = _check_signal(c, z)
    return covariance(c).values, z


def _stack_product(w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """W x row by row over a (t, k, k) stack, in one einsum call."""
    return np.einsum("tij,tj->ti", w, x, out=out)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max of an array over its last axis: of each row of a (t, k) array,
    or of each stage's row of an (m, t, k) block.

    Exact and NaN-propagating like a.max(axis=-1), and much cheaper at small
    k, where numpy's per-row reduction costs more than the k maxima.
    """
    return functools.reduce(np.maximum, (a[..., j] for j in range(a.shape[-1])))


def _block_stages(t: int, k: int) -> int:
    """Stages per block for a working stack of t rows of k users.

    The iterate buffer's b + 1 slots hold about BLOCK_FLOATS floats, with
    b at most BLOCK_STAGES and at least 1: long blocks for the small
    stacks whose stages cost calls, not arithmetic, and one stage at a time
    from about 2^14 rows, where a longer block only adds memory traffic.
    """
    return min(BLOCK_STAGES, max(1, BLOCK_FLOATS // max(1, t * k) - 1))


def _block_buffers(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (b + 1, t, k) iterate buffer holding `first` in slot 0, and a
    (b, t, k) one for the stage-to-stage changes, b = _block_stages(t, k)."""
    t, k = first.shape
    b = _block_stages(t, k)
    buf = np.empty((b + 1, t, k))
    buf[0] = first
    return buf, np.empty((b, t, k))


# The BER paths multiply a stack in one einsum call; a single instance
# keeps the bits of w @ z, which einsum does not reproduce in the last place,
# through np.dot, which runs the gemv that matmul runs per matrix.
def _partial_sum(w: np.ndarray, z: np.ndarray, s: int, weight: float = 1.0) -> np.ndarray:
    """M^-1 sum_{j<s} (I - W/M)^j W Z over a (t, k, k) stack of W, or for a
    single (k, k) W and (k,) Z with np.dot as the product.

    A stage is one product and, at weight 1 (where the scaling by 1 is
    exact and skipped), two in-place ufunc calls.
    """
    product = np.dot if z.ndim == 1 else _stack_product
    m_inv = 1.0 / weight
    with np.errstate(over="ignore", invalid="ignore"):
        term = product(w, z)
        acc = term.copy()
        step = np.empty_like(term)
        for _ in range(s - 1):
            product(w, term, out=step)
            if m_inv != 1.0:
                step *= m_inv
            term -= step
            acc += term
        return acc * m_inv


def _recursion(w: np.ndarray, z: np.ndarray, cap: int,
               tol: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """est(s) = est(1) - (W - I) est(s-1) over a (t, k, k) stack, s <= cap,
    or for a single (k, k) W and (k,) Z.

    The stages run in blocks of up to b (_block_stages), each iterate
    written into the next slot of one buffer.  With tol, a trial stops at
    the first stage whose sup-norm change is below tol (NaN changes
    compare False and run on), found after each block by one pass over the
    block's changes; the rows run the rest of the block regardless.  A
    stopped trial's result is recorded at once (converged), but its row
    stays in the working stack until a quarter of the stack has stopped;
    only then, and only if some row still runs, is the stack compacted,
    into a new buffer sized for it.  Each row's arithmetic is independent
    of the others and of its block, so the results do not depend on when
    the tests or compaction happen.  A stack's stage is one _stack_product
    call.  A single instance is a stack of one row whose products are
    np.dot on the row's 1-d views, made once per block: a stage is one
    np.dot and two in-place ufunc calls.  Returns
    (est, stages, converged, ahead), with one row per trial (one row for a
    single instance): each trial's last estimate and stage, whether it
    stopped early, and est(cap + 1) on the rows that did not (NaN
    elsewhere).
    """
    # the products see all rows of a stack, the 1-d row of an instance
    product, lead = _stack_product, slice(None)
    if z.ndim == 1:
        w, z, product, lead = w[None], z[None], np.dot, 0
    est1 = product(w[lead], z[lead]).reshape(z.shape)
    est = est1.copy()
    stages = np.full(len(z), cap)
    converged = np.zeros(len(z), dtype=bool)
    rows, wa, e1a, ea = np.arange(len(z)), w, est1, est1
    with np.errstate(over="ignore", invalid="ignore"):
        (buf, change), stage = _block_buffers(est1), 1  # buf[0] holds est(stage)
        while stage < cap and not converged[rows].all():
            m = min(len(buf) - 1, cap - stage)
            # the product gets a row of its own: writing it into buf[j + 1] made 100
            # sdpic_stage + iterate_to_limit instances ~25% slower (4 alternated runs, 2 cores)
            wv, e1v, scratch, x = wa[lead], e1a[lead], change[0, lead], buf[0, lead]
            for nxt in buf[1:m + 1, lead]:
                product(wv, x, out=scratch)
                np.subtract(scratch, x, out=scratch)
                np.subtract(e1v, scratch, out=nxt)
                x = nxt
            ea = buf[m]
            if tol is not None:
                np.subtract(buf[1:m + 1], buf[:m], out=change[:m])
                below = _row_max(np.abs(change[:m], out=change[:m])) < tol
                done = np.flatnonzero(np.any(below, axis=0) & ~converged[rows])
                if done.size:
                    first = np.argmax(below[:, done], axis=0) + 1
                    est[rows[done]] = buf[first, done]
                    stages[rows[done]] = stage + first
                    converged[rows[done]] = True
                    keep = ~converged[rows]
                    if 0 < 4 * np.count_nonzero(keep) <= 3 * len(rows):
                        ea = ea[keep]
                        del buf, change, scratch, x, nxt, wv, e1v  # freed before W is copied
                        rows, wa, e1a = rows[keep], wa[keep], e1a[keep]
                        buf, change = _block_buffers(ea)
                        ea, stage = buf[0], stage + m
                        continue
            # est(stage + m) ends a full block in the last slot: reversed,
            # the buffer carries it into the next block in slot 0, uncopied
            buf, stage = buf[::-1], stage + m
        # one more stage over the whole working stack, so W is not copied
        step = (e1a[lead] - (product(wa[lead], ea[lead]) - ea[lead])).reshape(ea.shape)
        keep = ~converged[rows]
        est[rows[keep]] = ea[keep]
        ahead = np.full_like(est, np.nan)
        ahead[rows[keep]] = step[keep]
    return est, stages, converged, ahead


def sdpic_stage(c: SampleMatrix, z: np.ndarray, s: int) -> np.ndarray:
    """Stage-s estimate by the interference-cancellation recursion."""
    _check_stage(s)
    return _recursion(*_instance(c, z), s)[0][0]


def sdpic_closed(c: SampleMatrix, z: np.ndarray, s: int) -> np.ndarray:
    """Stage-s estimate by the partial Neumann sum sum_{j<s} (I-W)^j W Z.

    Must agree with sdpic_stage to 1e-10; the two are one algebraic
    identity evaluated along different paths.
    """
    _check_stage(s)
    return _partial_sum(*_instance(c, z), s)


def weighted_sdpic(c: SampleMatrix, z: np.ndarray, s: int, weight: float) -> np.ndarray:
    """M-weighted partial sum M^-1 sum_{j<s} (I - W/M)^j W Z.

    Converges to Z as s grows, for every Z, exactly when 0 < lambda_min
    and lambda_max < 2M: I - W/M has spectral radius below 1 (at M = 1
    that is the PING_PONG_LAMBDA rule).  Weight 1 reproduces sdpic_closed
    exactly.
    """
    _check_stage(s, weight)
    return _partial_sum(*_instance(c, z), s, weight)


def decide_bits(estimate: np.ndarray, coin_seed: int) -> np.ndarray:
    """Hard decisions sign(est); exact zeros and NaN (an estimate that
    overflowed) fall to a seeded fair coin.

    The coin for user m derives from (coin_seed, m), so reruns reproduce
    and positive rescaling of the estimate cannot change the outcome.
    """
    est = np.asarray(estimate, dtype=np.float64)
    decided = np.sign(est)
    for m in np.flatnonzero(np.abs(decided) != 1.0):
        decided[m] = EntryDistribution.RADEMACHER.sample(derive_rng(coin_seed, int(m)), 1)[0]
    return decided


def error_free_condition(spec: Spectrum, s: int) -> bool:
    """eps^s sqrt(k) < 1 with eps = max(1 - lambda_min, lambda_max - 1), k = spec's size.

    Under equal powers this guarantees zero bit errors at stage s: the
    residual (I-W)^s Z has sup norm below every |Z_m|.
    """
    _check_stage(s)
    eps = max(1.0 - spec.lambda_min, spec.lambda_max - 1.0)
    return eps ** s * math.sqrt(spec.eigenvalues.size) < 1.0


def run_decode(c: SampleMatrix, z: np.ndarray, s: int, coin_seed: int) -> DecodeState:
    """Decode a single instance at stage s and record the decisions."""
    est = sdpic_closed(c, z, s)
    return DecodeState(stage=s, estimate=est, decided=decide_bits(est, coin_seed))


def iterate_to_limit(c: SampleMatrix, z: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Run the recursion until the stage difference drops below INFTY_TOL.

    Returns (estimate, stages_run, converged); converged False means the
    INFTY_STAGE_CAP stage cap was hit first.
    """
    est, stages, converged, _ = _recursion(*_instance(c, z), INFTY_STAGE_CAP, INFTY_TOL)
    return est[0], int(stages[0]), bool(converged[0])


def stage_trace(c: SampleMatrix, z: np.ndarray, max_stage: int,
                coin_seed: int) -> list[tuple[int, float, int]]:
    """Per-stage (stage, ||est - Z||_inf, bit errors) rows, with sdpic_stage's bits."""
    w, z = _instance(c, z)
    bits = np.sign(z)
    rows = []
    est = est1 = np.dot(w, z)
    with np.errstate(over="ignore", invalid="ignore"):
        for stage in range(1, max_stage + 1):
            if stage > 1:
                est = est1 - (np.dot(w, est) - est)
            errors = int(np.count_nonzero(decide_bits(est, coin_seed) != bits))
            rows.append((stage, float(np.max(np.abs(est - z))), errors))
    return rows


@dataclass(frozen=True)
class BerEstimate:
    """Any-user bit-error probability estimate for one decoder configuration."""

    k: int
    n: int
    s: float  # stage count, math.inf for the run-to-convergence mode
    weight: float | None
    trials: int
    any_user_error_count: int
    per_user_error_counts: tuple[int, ...]
    p_hat: float
    ci_low: float
    ci_high: float
    empirical_rate: float | None
    seed: int
    cap_hit_count: int
    oscillation_count: int

    def record(self) -> dict:
        return {**_record(self, "sdpic_ber"), "s": "inf" if math.isinf(self.s) else int(self.s)}


def _decide_batch(est: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """sign(est) per trial, with zeros and NaN taken from the coins."""
    decided = np.sign(est)
    mask = np.abs(decided) != 1.0
    decided[mask] = coins[mask]
    return decided


def _unsettled(distances: np.ndarray, k: int, n: int) -> np.ndarray:
    """Per row of an (m, k(k-1)/2) block of core._sign_distances: does the
    contraction screen leave the trial to decode, q > CONTRACTION_SCREEN?

    n q = max_i sum_(j != i) |n - 2 d_ij| is an integer, summed exactly in
    floats.  The float product 0.9 * n is 9n/10 when that is an integer,
    and lies strictly between the integers around it otherwise, so at the
    default level a trial is decoded iff 10 n q > 9 n.  A decision on the
    row sums of float W rounds them, and can differ from this one only
    where q = 0.9 exactly, at a trial that converges error-free by stage
    226 whether it is decoded or not: every count is the same.  The row
    sums go one core._row_blocks block (k(k-1)/2 entries a row) at a time.
    """
    rows, cols = np.triu_indices(k, 1)
    incidence = np.zeros((rows.size, k))
    incidence[np.arange(rows.size), rows] = incidence[np.arange(rows.size), cols] = 1.0
    unsettled = np.empty(len(distances), dtype=bool)
    for block in _row_blocks(len(distances), rows.size):
        nq = np.abs(n - 2.0 * distances[block]) @ incidence
        unsettled[block] = _row_max(nq) > CONTRACTION_SCREEN * n
    return unsettled


def _oscillating(w: np.ndarray) -> np.ndarray:
    """Per matrix of a stack of capped W: does the recursion oscillate,
    lambda_max >= PING_PONG_LAMBDA (less 1e-12) or W singular by mclab's
    zero-eigenvalue rule?"""
    lam = eigvalues_batch(w)
    return max_above(PING_PONG_LAMBDA - 1e-12)(lam) | zero_count_at_least(1)(lam)


def _decode_pool(distances: np.ndarray, bits: np.ndarray, coins: np.ndarray,
                 k: int, n: int) -> tuple[np.ndarray, int, int]:
    """(wrong, cap hits, oscillations) of an s=inf pool of trials, given as
    their code distances, bits and coins (see ber_experiment).

    Negating user i's code row and bit negates row and column i of W off
    the diagonal, and row i of every iterate, exactly: each product and sum
    only changes sign, and rounding to nearest is symmetric.  So (W, Z)
    decodes as D decode(D W D, 1) with D = diag(Z), and on distances D W D
    is d_ij -> n - d_ij wherever z_i != z_j, flipped in place in the
    caller's pool, which ber_experiment builds for this call alone.  The
    pool keys on those flipped distances alone (about 120 sign classes
    where 2^16 trials at (3, 8) hold about 900 distinct (W, Z) pairs),
    decodes each class once against Z = 1, and multiplies its estimates
    back by each trial's bits.
    The classes are built, decoded and spectrum-tested one core._row_blocks
    block of float W (k^2 entries a row) at a time, C-contiguous: a copy
    in _sign_gram's trials-last layout rounds einsum differently, and so
    changes counts.  Whether a capped class oscillates is decided on the
    block's D W D, whose eigenvalues are W's to LAPACK's round-off (about
    1e-15), far inside the guard bands.
    """
    rows, cols = np.triu_indices(k, 1)
    negative = bits < 0
    np.subtract(n, distances, out=distances, where=negative[:, rows] != negative[:, cols])
    first, inverse = _sign_gram_classes(distances, n)
    distances = distances[first]
    est, ahead = np.empty((2, len(first), k))
    converged, oscillating = np.zeros((2, len(first)), dtype=bool)
    for block in _row_blocks(len(first), k * k):
        w = np.ascontiguousarray(_sign_gram(distances[block], k, n))
        est[block], _, converged[block], ahead[block] = _recursion(
            w, np.ones((len(w), k)), INFTY_STAGE_CAP, INFTY_TOL)
        capped = ~converged[block]
        oscillating[block][capped] = _oscillating(w[capped])
        del w  # before the next block is built
    est, converged, ahead, oscillating = (
        a[inverse] for a in (est, converged, ahead, oscillating))
    est *= bits
    ahead *= bits
    wrong = _decide_batch(est, coins) != bits
    osc = np.flatnonzero(oscillating)
    marked = wrong[osc] | (np.sign(ahead[osc]) != np.sign(est[osc]))
    quiet = np.flatnonzero(~np.any(marked, axis=1))
    step = np.abs(ahead[osc[quiet]] - est[osc[quiet]])
    # steps equal up to round-off are ties, won by the lowest user
    top = step >= np.max(step, axis=1, keepdims=True) * (1.0 - _TIE_RTOL)
    marked[quiet, np.argmax(top, axis=1)] = True
    wrong[osc] = marked
    return wrong, int(np.count_nonzero(~converged)), osc.size


def ber_experiment(k: int, n: int, s: float, trials: int, seed: int,
                   weight: float | None = None) -> BerEstimate:
    """Bit-error-rate experiment over random +/-1 codes and fair random bits.

    Per trial: draw bits and a fresh code matrix, decode at stage s (or run
    to the fixed-point tolerance when s is inf), and count per-user and
    any-user sign errors.  In the infinite mode a trial that hits the stage
    cap with an oscillatory spectrum (lambda_max >= 2 or lambda_min = 0) is
    declared an error outright: the stage limit does not exist there.  Its
    per-user attribution uses decisions that are wrong or still flipping at
    the cap, falling back to the least-converged user so the any-user count
    never exceeds the per-user sum; users whose last steps agree to a
    relative 1e-9 tie, and the lowest index wins.

    A chunk's codes are drawn after its bits and coins.  Every W is held
    one core._row_blocks block at a time, and no chunk-sized W stack is:
    a finite stage decodes each core.gram_blocks block of W.  The infinite
    mode keeps each trial as its k(k-1)/2 integer code distances
    (core._sign_distances), screens them block by block (_unsettled), and
    pools only the trials that CONTRACTION_SCREEN does not settle, across
    chunks, into stacks of at least CHUNK_TRIALS rows (or all that remain).
    A trial's (W, Z) decodes exactly as D decode(D W D, 1) with
    D = diag(Z), so each sign class of a pool (its flipped distances, found
    by core._sign_gram_classes, an exact integer key) is decoded once
    against Z = 1, and its estimate is multiplied back by each trial's bits
    (_decode_pool, which builds, decodes and spectrum-tests the classes'
    float W one block at a time); coins, errors and oscillation attribution
    stay per trial.  The screened trials are provably error-free, and each
    trial's arithmetic does not depend on its stack or block, so the counts
    equal those of decoding every trial.  A finite stage decodes each block
    in _sign_gram's trials-last layout, and the infinite mode C-contiguous
    blocks: a copy changes einsum's round-off, and so which exact zeros go
    to a coin.
    weight applies to finite stages only.
    """
    _check_trials(k, n, trials)
    _check_stage(s, weight)
    infinite_mode = math.isinf(s)
    if infinite_mode and weight is not None:
        raise DomainError("weight applies only at a finite stage, not at s=inf")
    if not infinite_mode:
        s = int(s)

    any_errors = 0
    per_user = np.zeros(k, dtype=np.int64)
    cap_hits = 0
    oscillations = 0
    drawn = 0
    # s=inf: unscreened trials wait here, as distances, until a chunk's worth
    # is in, since a small stack spends its 1,000 stages on call overhead,
    # not arithmetic
    pending = []
    for rng, size in _chunks(seed, trials, CHUNK_TRIALS):
        bits = EntryDistribution.RADEMACHER.sample(rng, (size, k))
        coins = EntryDistribution.RADEMACHER.sample(rng, (size, k))
        drawn += size
        if not infinite_mode:
            wrong = np.empty((size, k), dtype=bool)
            start = 0
            for w in gram_blocks(EntryDistribution.RADEMACHER, rng, size, k, n):
                block = slice(start, start + len(w))
                start += len(w)
                est = _partial_sum(w, bits[block], s, 1.0 if weight is None else weight)
                wrong[block] = _decide_batch(est, coins[block]) != bits[block]
        else:
            distances = _sign_distances(rng, size, k, n)
            # only trials the contraction screen does not settle can err
            rest = _unsettled(distances, k, n)
            pending.append((distances[rest], bits[rest], coins[rest]))
            if sum(len(b) for _, b, _ in pending) < CHUNK_TRIALS and drawn < trials:
                continue
            distances, bits, coins = (np.concatenate(part) for part in zip(*pending))
            pending = []
            wrong, capped, oscillating = _decode_pool(distances, bits, coins, k, n)
            cap_hits += capped
            oscillations += oscillating

        any_errors += int(np.count_nonzero(np.any(wrong, axis=1)))
        per_user += np.count_nonzero(wrong, axis=0)

    return BerEstimate(k=k, n=n, s=float(s), weight=weight, trials=trials,
                       any_user_error_count=any_errors,
                       per_user_error_counts=tuple(int(v) for v in per_user),
                       seed=seed, cap_hit_count=cap_hits, oscillation_count=oscillations,
                       **_binomial(any_errors, trials, n))

