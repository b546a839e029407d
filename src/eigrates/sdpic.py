"""Noise-free CDMA uplink with +/-1 codes: matched filter, multistage
soft-decision interference cancellation, and bit-error-rate experiments.

Users send one bit each through a shared channel; the receiver correlates
with each code (matched filter, equivalent to multiplying the sent vector
by W) and then iteratively subtracts the estimated cross-user interference:

    est(1) = W Z,    est(s) = est(1) - (W - I) est(s-1).

The partial-sum form sum_{j<s} (I-W)^j W Z is algebraically identical, and
the weighted variant replaces W by W/M and rescales.  Each form has one
batched kernel over a (t, k, k) stack of W, and every decoder runs one of
them, a single instance as a batch of 1.  The two forms round differently,
so both are kept and checked against each other.  Whether the iteration
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
    _sign_gram_classes,
    bottom_eigenvalues_vanish,
    covariance,
    derive_rng,
    eigvalues_batch,
    gram_batch,
)
from .errors import DimensionError, DomainError
from .mclab import _binomial, _check_trials, _record

# s = infinity mode: fixed-point tolerance on the stage-to-stage sup norm,
# and the stage cap after which the trial is classified by its spectrum.
INFTY_TOL = 1e-10
INFTY_STAGE_CAP = 1000

# Capped trials with lambda_max at least this oscillate (so do singular W,
# by core's zero-eigenvalue rule).
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
# adds nothing to any count, and ber_experiment does not run it.
CONTRACTION_SCREEN = 0.9

# The recursion tests convergence once per block of at most BLOCK_STAGES
# stages, whose iterates share a buffer of about BLOCK_FLOATS floats.
BLOCK_STAGES = 32
BLOCK_FLOATS = 1 << 16

# Trials per chunk: part of the stream, since chunk c draws from derive_rng(seed, c).
CHUNK_TRIALS = 1 << 14


@dataclass(frozen=True)
class Transmission:
    """Bits and powers of the k users; the sent vector is sqrt(P) * b."""

    bits: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.float64)
        p = np.asarray(self.powers, dtype=np.float64)
        if b.shape != p.shape or b.ndim != 1:
            raise DimensionError("bits and powers must be 1-d arrays of equal length")
        if not np.all(np.abs(b) == 1.0):
            raise DomainError("bits must be +/-1")
        if not np.all(p > 0.0):
            raise DomainError("powers must be positive")
        object.__setattr__(self, "bits", b)
        object.__setattr__(self, "powers", p)

    @property
    def k(self) -> int:
        return self.bits.size

    @property
    def signal(self) -> np.ndarray:
        return np.sqrt(self.powers) * self.bits


def make_transmission(bits, powers=None) -> Transmission:
    b = np.asarray(bits, dtype=np.float64)
    p = np.ones_like(b) if powers is None else np.asarray(powers, dtype=np.float64)
    return Transmission(bits=b, powers=p)


@dataclass(frozen=True)
class DecodeState:
    """Estimate and hard decisions after a given number of stages."""

    stage: int
    estimate: np.ndarray
    decided: np.ndarray
    coin_seed: int


def _check_signal(c: SampleMatrix, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (c.k,):
        raise DimensionError(f"signal has shape {z.shape}, expected ({c.k},)")
    return z


def mf_decode(c: SampleMatrix, z: np.ndarray) -> np.ndarray:
    """Matched filter: correlate the received sum C^T Z with each code.

    Equals W Z with W the code covariance.
    """
    z = _check_signal(c, z)
    received = c.entries.T @ z
    return c.entries @ received / c.n


def _instance(c: SampleMatrix, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W and Z of a single instance as a batch of 1 for the kernels."""
    z = _check_signal(c, z)
    return covariance(c).values[None], z[None]


def _stack_product(w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """W x row by row over a (t, k, k) stack, in one einsum call."""
    return np.einsum("tij,tj->ti", w, x, out=out)


def _matrix_product(w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """W x row by row with the bits of w @ x: one BLAS call per matrix."""
    return np.matmul(w, x[..., None], out=None if out is None else out[..., None])[..., 0]


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


# The BER paths multiply a stack in one call; a single instance keeps the
# bits of w @ x, which einsum does not reproduce in the last place.
def _partial_sum(w: np.ndarray, z: np.ndarray, s: int, weight: float = 1.0,
                 product=_stack_product) -> np.ndarray:
    """M^-1 sum_{j<s} (I - W/M)^j W Z over a (t, k, k) stack of W."""
    m_inv = 1.0 / weight
    with np.errstate(over="ignore", invalid="ignore"):
        term = product(w, z)
        acc = term.copy()
        for _ in range(s - 1):
            term = term - m_inv * product(w, term)
            acc += term
        return acc * m_inv


def _recursion(w: np.ndarray, z: np.ndarray, cap: int, tol: float | None = None,
               visit=None, product=_stack_product
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """est(s) = est(1) - (W - I) est(s-1) over a (t, k, k) stack, s <= cap.

    The stages run in blocks of up to b (_block_stages), each iterate
    written into the next slot of one buffer.  With tol, a trial stops at
    the first stage whose sup-norm change is below tol (NaN changes
    compare False and run on), found after each block by one pass over the
    block's changes; the rows run the rest of the block regardless.  A
    stopped trial's result is recorded at once, but its row stays in the
    working stack, no longer live, until a quarter of the stack has
    stopped; only then is the stack compacted, into a new buffer sized for
    it.  Each row's arithmetic is independent of the others and of its
    block, so the results do not depend on when the tests or compaction
    happen.  Without tol, visit(stage, est) sees every stage, each in an
    array of its own.  Returns (est, stages, converged, ahead): each
    trial's last estimate and stage, whether it stopped early, and
    est(cap + 1) on the rows that did not (NaN elsewhere).
    """
    est1 = product(w, z)
    est = est1.copy()
    stages = np.full(len(z), cap)
    converged = np.zeros(len(z), dtype=bool)
    rows, wa, e1a, ea = np.arange(len(z)), w, est1, est1
    live = np.ones(len(z), dtype=bool)
    stopped = 0  # rows of the working stack that are no longer live
    with np.errstate(over="ignore", invalid="ignore"):
        if visit is not None:
            visit(1, est1)
        (buf, change), stage = _block_buffers(est1), 1  # buf[0] holds est(stage)
        while stage < cap and stopped < len(rows):
            m = min(len(buf) - 1, cap - stage)
            scratch = change[0]  # holds the product until the test
            for j in range(m):
                product(wa, buf[j], out=scratch)
                np.subtract(scratch, buf[j], out=scratch)
                np.subtract(e1a, scratch, out=buf[j + 1])
            ea = buf[m]
            if visit is not None:
                for j in range(1, m + 1):
                    visit(stage + j, buf[j].copy())
            if tol is not None:
                np.subtract(buf[1:m + 1], buf[:m], out=change[:m])
                below = _row_max(np.abs(change[:m], out=change[:m])) < tol
                done = np.flatnonzero(np.any(below, axis=0) & live)
                if done.size:
                    first = np.argmax(below[:, done], axis=0) + 1
                    est[rows[done]] = buf[first, done]
                    stages[rows[done]] = stage + first
                    converged[rows[done]] = True
                    live[done] = False
                    stopped += done.size
                    if 4 * stopped >= len(rows):
                        ea = ea[live]
                        del buf, change, scratch  # freed before W is copied
                        rows, wa, e1a, live = rows[live], wa[live], e1a[live], live[live]
                        buf, change = _block_buffers(ea)
                        ea, stopped, stage = buf[0], 0, stage + m
                        continue
            # est(stage + m) ends a full block in the last slot: reversed,
            # the buffer carries it into the next block in slot 0, uncopied
            buf, stage = buf[::-1], stage + m
        # one more stage over the whole working stack, so W is not copied
        step = e1a - (product(wa, ea) - ea)
        est[rows[live]] = ea[live]
        ahead = np.full_like(est, np.nan)
        ahead[rows[live]] = step[live]
    return est, stages, converged, ahead


def sdpic_stage(c: SampleMatrix, z: np.ndarray, s: int) -> np.ndarray:
    """Stage-s estimate by the interference-cancellation recursion."""
    if s < 1:
        raise DomainError(f"stage must be >= 1, got {s}")
    return _recursion(*_instance(c, z), s, product=_matrix_product)[0][0]


def sdpic_closed(c: SampleMatrix, z: np.ndarray, s: int) -> np.ndarray:
    """Stage-s estimate by the partial Neumann sum sum_{j<s} (I-W)^j W Z.

    Must agree with sdpic_stage to 1e-10; the two are one algebraic
    identity evaluated along different paths.
    """
    if s < 1:
        raise DomainError(f"stage must be >= 1, got {s}")
    return _partial_sum(*_instance(c, z), s, product=_matrix_product)[0]


def weighted_sdpic(c: SampleMatrix, z: np.ndarray, s: int, weight: float) -> np.ndarray:
    """M-weighted partial sum M^-1 sum_{j<s} (I - W/M)^j W Z.

    Converges to Z as s grows, for every Z, exactly when 0 < lambda_min
    and lambda_max < 2M: I - W/M has spectral radius below 1 (at M = 1
    that is the PING_PONG_LAMBDA rule).  Weight 1 reproduces sdpic_closed
    exactly.
    """
    if s < 1:
        raise DomainError(f"stage must be >= 1, got {s}")
    if weight <= 0:
        raise DomainError(f"weight must be positive, got {weight}")
    return _partial_sum(*_instance(c, z), s, weight, _matrix_product)[0]


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


def error_free_condition(spec: Spectrum, s: int, k: int) -> bool:
    """eps^s sqrt(k) < 1 with eps = max(1 - lambda_min, lambda_max - 1).

    Under equal powers this guarantees zero bit errors at stage s: the
    residual (I-W)^s Z has sup norm below every |Z_m|.
    """
    if s < 1:
        raise DomainError(f"stage must be >= 1, got {s}")
    eps = max(1.0 - spec.lambda_min, spec.lambda_max - 1.0)
    return eps ** s * math.sqrt(k) < 1.0


def run_decode(c: SampleMatrix, z: np.ndarray, s: int, coin_seed: int) -> DecodeState:
    """Decode a single instance at stage s and record the decisions."""
    est = sdpic_closed(c, z, s)
    return DecodeState(stage=s, estimate=est, decided=decide_bits(est, coin_seed),
                       coin_seed=coin_seed)


def iterate_to_limit(c: SampleMatrix, z: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Run the recursion until the stage difference drops below INFTY_TOL.

    Returns (estimate, stages_run, converged); converged False means the
    INFTY_STAGE_CAP stage cap was hit first.
    """
    est, stages, converged, _ = _recursion(*_instance(c, z), INFTY_STAGE_CAP, INFTY_TOL,
                                            product=_matrix_product)
    return est[0], int(stages[0]), bool(converged[0])


def stage_trace(c: SampleMatrix, z: np.ndarray, max_stage: int,
                coin_seed: int) -> list[tuple[int, float, int]]:
    """Per-stage (stage, ||est - Z||_inf, bit errors) rows for plotting."""
    w, zb = _instance(c, z)
    z = zb[0]
    bits = np.sign(z)
    rows = []
    if max_stage < 1:
        return rows

    def visit(stage, est):
        errors = int(np.count_nonzero(decide_bits(est[0], coin_seed) != bits))
        rows.append((stage, float(np.max(np.abs(est[0] - z))), errors))

    _recursion(w, zb, max_stage, visit=visit, product=_matrix_product)
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
    if np.any(mask):
        decided[mask] = coins[mask]
    return decided


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

    The infinite mode decodes only the trials that CONTRACTION_SCREEN does
    not settle, pooled across chunks into stacks of at least CHUNK_TRIALS
    rows (or all that remain).  A trial's outcome depends only on its
    (W, Z), so each distinct pair of a pool is decoded once (found by
    core._sign_gram_classes, an exact integer key with Z's bits as
    extra columns) and its estimate scattered back; coins, errors and oscillation
    attribution stay per trial.  The screened trials are provably
    error-free, and each trial's arithmetic does not depend on its stack,
    so the counts equal those of decoding every trial.  weight applies to
    finite stages only.
    """
    _check_trials(k, n, trials)
    infinite_mode = math.isinf(s)
    if not infinite_mode:
        s = int(s)
        if s < 1:
            raise DomainError(f"stage must be >= 1, got {s}")
    if weight is not None:
        if infinite_mode:
            raise DomainError("weight applies only at a finite stage, not at s=inf")
        if weight <= 0:
            raise DomainError(f"weight must be positive, got {weight}")

    any_errors = 0
    per_user = np.zeros(k, dtype=np.int64)
    cap_hits = 0
    oscillations = 0
    drawn = 0
    # s=inf: unscreened trials wait here until a chunk's worth is in, since
    # a small stack spends its 1,000 stages on call overhead, not arithmetic
    pending = []
    for rng, size in _chunks(seed, trials, CHUNK_TRIALS):
        bits = EntryDistribution.RADEMACHER.sample(rng, (size, k))
        coins = EntryDistribution.RADEMACHER.sample(rng, (size, k))
        w = gram_batch(EntryDistribution.RADEMACHER, rng, size, k, n)
        z = bits  # equal unit powers
        drawn += size

        if infinite_mode:
            # only trials the contraction screen does not settle can err
            eye = np.eye(k)
            q = _row_max(sum(np.abs(w[:, :, j] - eye[j]) for j in range(k)))  # ||I - W||_inf
            rest = q > CONTRACTION_SCREEN
            pending.append((w[rest], bits[rest], coins[rest]))
            if sum(len(b) for _, b, _ in pending) < CHUNK_TRIALS and drawn < trials:
                continue
            w, bits, coins = (np.concatenate(part) for part in zip(*pending))
            pending = []
            # an outcome depends only on (W, Z): decode each distinct pair once,
            # keyed by W and by Z's bits (8 users to an integer column)
            first, inverse = _sign_gram_classes(
                w, n, np.packbits(bits > 0, axis=1, bitorder="little"))
            w = w[first]
            est, _, converged, ahead = _recursion(w, bits[first], INFTY_STAGE_CAP, INFTY_TOL)
            capped = np.flatnonzero(~converged)
            oscillating = np.zeros(len(w), dtype=bool)
            if capped.size > 0:
                lam = eigvalues_batch(w[capped])
                oscillating[capped] = ((lam[:, -1] >= PING_PONG_LAMBDA - 1e-12)
                                       | bottom_eigenvalues_vanish(lam, 1))
            # coins, errors and attribution stay per trial
            est, converged, ahead, oscillating = (
                a[inverse] for a in (est, converged, ahead, oscillating))
            wrong = _decide_batch(est, coins) != bits
            cap_hits += int(np.count_nonzero(~converged))
            osc = np.flatnonzero(oscillating)
            oscillations += osc.size
            marked = wrong[osc] | (np.sign(ahead[osc]) != np.sign(est[osc]))
            quiet = np.flatnonzero(~np.any(marked, axis=1))
            step = np.abs(ahead[osc[quiet]] - est[osc[quiet]])
            # steps equal up to round-off are ties, won by the lowest user
            top = step >= np.max(step, axis=1, keepdims=True) * (1.0 - _TIE_RTOL)
            marked[quiet, np.argmax(top, axis=1)] = True
            wrong[osc] = marked
        else:
            est = _partial_sum(w, z, s, 1.0 if weight is None else weight)
            wrong = _decide_batch(est, coins) != bits

        any_errors += int(np.count_nonzero(np.any(wrong, axis=1)))
        per_user += np.count_nonzero(wrong, axis=0)

    p_hat, lo, hi, rate = _binomial(any_errors, trials, n)
    return BerEstimate(k=k, n=n, s=float(s), weight=weight, trials=trials,
                       any_user_error_count=any_errors,
                       per_user_error_counts=tuple(int(v) for v in per_user),
                       p_hat=p_hat, ci_low=lo, ci_high=hi, empirical_rate=rate,
                       seed=seed, cap_hit_count=cap_hits, oscillation_count=oscillations)

