"""Self-test of the output checks: correct outputs pass, perturbed ones fail.

    python3 perfbench/selftest.py

Builds outputs that agree with reference.json, confirms each check accepts
them, then perturbs one quantity at a time (a hit count, a rate, an exact
probability, a BER count, an eigenvalue) and confirms the check flags it.
This is what shows that a broken program would be counted as failed.
Exits 1 if any case goes the wrong way.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np

import checks
import workloads


def _tail_record(hits, trials):
    return {"hits": hits, "trials": trials, "p_hat": hits / trials, "ci": [0.0, 1.0]}


def _shift(p, trials):
    """A count offset of six standard errors, at least one."""
    return max(1, math.ceil(6.0 * math.sqrt(trials * p * (1.0 - p))))


def _instance(rng):
    k, n, s = 4, 12, 5
    c = rng.choice([-1.0, 1.0], size=(k, n))
    w = c @ c.T / n
    lam, q = np.linalg.eigh(w)
    z = rng.choice([-1.0, 1.0], size=k)
    term = w @ z
    closed = term.copy()
    for _ in range(s - 1):
        term = term - w @ term
        closed = closed + term
    est = w @ z
    for stage in range(2, 1001):
        nxt = w @ z - (w @ est - est)
        done = np.max(np.abs(nxt - est)) < 1e-10
        est = nxt
        if done:
            break
    x = np.ones(k) / 2.0
    return dict(
        entries=c, w=w, x=x, z=z, s=s, quadratic=float(x @ w @ x),
        spectrum=SimpleNamespace(eigenvalues=lam, eigenvectors=q),
        stage=closed.copy(), closed=closed, weighted=closed.copy(),
        limit=(est, stage, bool(done)),
        decode=SimpleNamespace(stage=s, estimate=closed.copy(), decided=np.sign(closed)),
    )


def cases(refs):
    """(label, failures of the correct output, failures of the perturbed one)."""
    for dist, k, n, alpha, side, trials in workloads.MC_TAILS:
        ref = refs["tail"][checks.tail_key(dist, k, n, alpha, side)]
        hits = round(ref["p"] * trials)
        yield (f"tail hit count {dist} k={k} n={n}",
               checks.check_tail_rows([_tail_record(hits, trials)], ref),
               checks.check_tail_rows([_tail_record(hits + _shift(ref["p"], trials), trials)],
                                      ref))

    n, trials = 14, workloads.ZERO_TRIALS
    p = 2.0 ** (1 - n)
    exact = {"n": 10, "method": "exact", "p_hat": 2.0 ** -9}
    mc = dict(_tail_record(round(p * trials), trials), n=n, method="mc")
    bad_mc = dict(_tail_record(round(p * trials) + _shift(p, trials), trials), n=n, method="mc")
    yield ("zero exact probability",
           checks.check_zero_rows([exact], [10]),
           checks.check_zero_rows([dict(exact, p_hat=2.0 ** -9 + 2.0 ** -20)], [10]))
    yield ("zero hit count", checks.check_zero_rows([mc], [n]),
           checks.check_zero_rows([bad_mc], [n]))

    for k, n, side, alpha in workloads.ENUM_CASES:
        ref = refs["enum"][checks.enum_key(k, n, side, alpha)]
        p = ref["hits"] / (1 << ref["bits"])
        yield (f"exact probability k={k} n={n}", checks.check_exact(p, ref),
               checks.check_exact((ref["hits"] + 1) / (1 << ref["bits"]), ref))

    for key, rate in refs["rate"].items():
        dist, k, alpha = key.split()
        k, alpha = int(k[2:]), float(alpha[6:])
        row = {"alpha": alpha, "rate": rate}
        yield (f"rate {key}", checks.check_rate_rows([row], refs["rate"], dist, k, 1),
               checks.check_rate_rows([dict(row, rate=rate + 1e-8)], refs["rate"], dist, k, 1))

    row = {"alpha": 1.5, "rate": checks.wishart_rate(1.5)}
    yield ("normal closed-form rate", checks.check_normal_rows([row], 1),
           checks.check_normal_rows([dict(row, rate=row["rate"] + 1e-8)], 1))

    k = workloads.PHASE_K
    row = {"k": k, "alpha_star": refs["phase"][str(k)]}
    yield ("phase point", checks.check_phase_rows([row], refs["phase"], k),
           checks.check_phase_rows([dict(row, alpha_star=row["alpha_star"] + 1e-5)],
                                   refs["phase"], k))

    for key, ref in refs["ber"].items():
        trials = ref["trials"] // 16
        errors = round(ref["p"] * trials)
        caps = round(ref.get("cap_hit_p", 0.0) * trials)
        rec = dict(_tail_record(errors, trials), any_user_error_count=errors,
                   per_user_error_counts=[errors], cap_hit_count=caps, oscillation_count=caps)
        bad = errors + _shift(ref["p"], trials)
        yield (f"ber error count {key}", checks.check_ber_rows([rec], ref),
               checks.check_ber_rows([dict(rec, any_user_error_count=bad, hits=bad,
                                           p_hat=bad / trials, per_user_error_counts=[bad])],
                                     ref))
        if "cap_hit_p" in ref:
            more = caps + _shift(ref["cap_hit_p"], trials)
            yield (f"ber cap hits {key}", [],
                   checks.check_ber_rows([dict(rec, cap_hit_count=more)], ref))

    out = _instance(np.random.default_rng(7))
    spec = out["spectrum"]
    wrong = SimpleNamespace(eigenvalues=spec.eigenvalues + np.r_[0.0, 0.0, 0.0, 1e-6],
                            eigenvectors=spec.eigenvectors)
    yield ("instance eigenvalue", checks.check_instance(out),
           checks.check_instance(dict(out, spectrum=wrong)))
    yield ("instance SD-PIC estimate", [],
           checks.check_instance(dict(out, weighted=out["closed"] * (1.0 + 1e-15))))


def main() -> int:
    bad = 0
    for label, good_fails, bad_fails in cases(checks.load_references()):
        ok = not good_fails and bool(bad_fails)
        bad += not ok
        print(f"{'ok' if ok else 'WRONG'}  {label}"
              + ("" if ok else f": correct output gave {good_fails}, perturbed gave {bad_fails}"))
    print(f"self-test {'passed' if bad == 0 else f'failed in {bad} cases'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
