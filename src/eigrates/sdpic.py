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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EntryDistribution,
    SampleMatrix,
    Spectrum,
    _chunks,
    covariance,
    covariance_batch,
    derive_rng,
    eigvalues_batch,
    sample_batch,
)
from .errors import DimensionError, DomainError
from .mclab import clopper_pearson

# s = infinity mode: fixed-point tolerance on the stage-to-stage sup norm,
# and the stage cap after which the trial is classified by its spectrum.
INFTY_TOL = 1e-10
INFTY_STAGE_CAP = 1000

# Spectrum classification thresholds for capped trials.
PING_PONG_LAMBDA = 2.0
SINGULAR_TOL = 1e-9

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


def _stack_product(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x row by row over a (t, k, k) stack, in one einsum call."""
    return np.einsum("tij,tj->ti", w, x)


def _matrix_product(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x row by row with the bits of w @ x: one BLAS call per matrix."""
    return np.matmul(w, x[..., None])[..., 0]


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

    With tol, a trial stops at the first stage whose sup-norm change is
    below tol (NaN changes compare False and run on); converged trials
    leave the working set only in stages where some trial converges.
    Without tol, visit(stage, est) sees every stage.  Returns (est, stages,
    converged, ahead): each trial's last estimate and stage, whether it
    stopped early, and est(cap + 1) on the rows that did not (NaN elsewhere).
    The extra stage multiplies with w @ x per matrix: ber_experiment breaks
    exact ties between users on it, so its last bits are part of the output.
    """
    est1 = product(w, z)
    est = est1.copy()
    stages = np.full(len(z), cap)
    converged = np.zeros(len(z), dtype=bool)
    rows, wa, e1a, ea = np.arange(len(z)), w, est1, est1
    with np.errstate(over="ignore", invalid="ignore"):
        if visit is not None:
            visit(1, ea)
        for stage in range(2, cap + 1):
            nxt = e1a - (product(wa, ea) - ea)
            done = None if tol is None else np.max(np.abs(nxt - ea), axis=1) < tol
            ea = nxt
            if visit is not None:
                visit(stage, ea)
            if done is not None and np.any(done):
                est[rows[done]] = ea[done]
                stages[rows[done]] = stage
                converged[rows[done]] = True
                keep = ~done
                rows, wa, e1a, ea = rows[keep], wa[keep], e1a[keep], ea[keep]
                if rows.size == 0:
                    break
        est[rows] = ea
        ahead = np.full_like(est, np.nan)
        ahead[rows] = _matrix_product(wa, z[rows]) - (_matrix_product(wa, ea) - ea)
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

    Converges to Z as s grows whenever 0 < lambda_min and lambda_max < M;
    weight 1 reproduces sdpic_closed exactly.
    """
    if s < 1:
        raise DomainError(f"stage must be >= 1, got {s}")
    if weight <= 0:
        raise DomainError(f"weight must be positive, got {weight}")
    return _partial_sum(*_instance(c, z), s, weight, _matrix_product)[0]


def decide_bits(estimate: np.ndarray, coin_seed: int) -> np.ndarray:
    """Hard decisions sign(est); exact zeros fall to a seeded fair coin.

    The coin for user m derives from (coin_seed, m), so reruns reproduce
    and positive rescaling of the estimate cannot change the outcome.
    """
    est = np.asarray(estimate, dtype=np.float64)
    decided = np.sign(est)
    for m in np.flatnonzero(decided == 0.0):
        decided[m] = float(derive_rng(coin_seed, int(m)).integers(0, 2) * 2 - 1)
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


def iterate_to_limit(c: SampleMatrix, z: np.ndarray,
                     tol: float = INFTY_TOL,
                     cap: int = INFTY_STAGE_CAP) -> tuple[np.ndarray, int, bool]:
    """Run the recursion until the stage difference drops below tol.

    Returns (estimate, stages_run, converged); converged False means the
    stage cap was hit first.
    """
    est, stages, converged, _ = _recursion(*_instance(c, z), cap, tol,
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
        return {
            "experiment": "sdpic_ber",
            "k": self.k,
            "n": self.n,
            "s": "inf" if math.isinf(self.s) else int(self.s),
            "weight": self.weight,
            "trials": self.trials,
            "any_user_error_count": self.any_user_error_count,
            "per_user_error_counts": list(self.per_user_error_counts),
            "p_hat": self.p_hat,
            "ci": [self.ci_low, self.ci_high],
            "empirical_rate": self.empirical_rate,
            "seed": self.seed,
            "cap_hit_count": self.cap_hit_count,
            "oscillation_count": self.oscillation_count,
        }


def _decide_batch(est: np.ndarray, coins: np.ndarray) -> np.ndarray:
    decided = np.sign(est)
    mask = decided == 0.0
    if np.any(mask):
        decided[mask] = coins[mask]
    return decided


def ber_experiment(k: int, n: int, s: float, trials: int, seed: int,
                   weight: float | None = None,
                   chunk: int = CHUNK_TRIALS) -> BerEstimate:
    """Bit-error-rate experiment over random +/-1 codes and fair random bits.

    Per trial: draw bits and a fresh code matrix, decode at stage s (or run
    to the fixed-point tolerance when s is inf), and count per-user and
    any-user sign errors.  In the infinite mode a trial that hits the stage
    cap with an oscillatory spectrum (lambda_max >= 2 or lambda_min = 0) is
    declared an error outright: the stage limit does not exist there.  Its
    per-user attribution uses decisions that are wrong or still flipping at
    the cap, falling back to the least-converged user so the any-user count
    never exceeds the per-user sum.
    """
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    infinite_mode = math.isinf(s)
    if not infinite_mode:
        s = int(s)
        if s < 1:
            raise DomainError(f"stage must be >= 1, got {s}")
    if weight is not None and weight <= 0:
        raise DomainError(f"weight must be positive, got {weight}")

    any_errors = 0
    per_user = np.zeros(k, dtype=np.int64)
    cap_hits = 0
    oscillations = 0
    for rng, size in _chunks(seed, trials, chunk):
        bits = (rng.integers(0, 2, size=(size, k)) * 2 - 1).astype(np.float64)
        coins = (rng.integers(0, 2, size=(size, k)) * 2 - 1).astype(np.float64)
        entries = sample_batch(EntryDistribution.RADEMACHER, rng, size, k, n)
        w = covariance_batch(entries)
        z = bits  # equal unit powers

        if infinite_mode:
            est, _, converged, ahead = _recursion(w, z, INFTY_STAGE_CAP, INFTY_TOL)
            wrong = _decide_batch(est, coins) != bits
            capped = np.flatnonzero(~converged)
            if capped.size > 0:
                cap_hits += capped.size
                lam = eigvalues_batch(w[capped])
                scale = np.maximum(1.0, np.trace(w[capped], axis1=1, axis2=2))
                osc = capped[(lam[:, -1] >= PING_PONG_LAMBDA - 1e-12)
                             | (lam[:, 0] <= SINGULAR_TOL * scale)]
                oscillations += osc.size
                marked = wrong[osc] | (np.sign(ahead[osc]) != np.sign(est[osc]))
                quiet = np.flatnonzero(~np.any(marked, axis=1))
                step = np.abs(ahead[osc[quiet]] - est[osc[quiet]])
                marked[quiet, np.argmax(step, axis=1)] = True
                wrong[osc] = marked
        else:
            est = _partial_sum(w, z, s, 1.0 if weight is None else weight)
            wrong = _decide_batch(est, coins) != bits

        any_errors += int(np.count_nonzero(np.any(wrong, axis=1)))
        per_user += np.count_nonzero(wrong, axis=0)

    p_hat = any_errors / trials
    lo, hi = clopper_pearson(any_errors, trials)
    rate = None if any_errors == 0 else max(0.0, -math.log(p_hat) / n)
    return BerEstimate(k=k, n=n, s=float(s), weight=weight, trials=trials,
                       any_user_error_count=any_errors,
                       per_user_error_counts=tuple(int(v) for v in per_user),
                       p_hat=p_hat, ci_low=lo, ci_high=hi, empirical_rate=rate,
                       seed=seed, cap_hit_count=cap_hits, oscillation_count=oscillations)

