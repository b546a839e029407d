"""Regenerate reference.json, the values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run from the repository root, once, at the commit that defines the
benchmark (it takes a few minutes).  Exact quantities come from the bit
walk; rates from rate_k with many restarts; Monte Carlo references from
runs 16 to 32 times longer than the benchmark's, at a seed no workload
uses, stored with their trial counts so the checks can widen their bands
by the reference's own standard error.
"""

import json
import math
import subprocess
import sys

import run  # first: it fixes the BLAS thread count before numpy loads

import checks
import workloads

REFERENCE_SEED = 987654321
TAIL_TRIALS = 1 << 20
BER_TRIALS = 1 << 20
RATE_RESTARTS = 8


def main() -> int:
    api, _ = run.set_up()
    from eigrates.mclab import TailSide

    refs = {"tail": {}, "enum": {}, "rate": {}, "phase": {}, "ber": {}}
    for dist, k, n, alpha, side, _ in workloads.MC_TAILS:
        pred = getattr(api.mclab, side)(alpha)
        if dist == "rademacher" and k * n <= api.mclab.ENUM_MAX_BITS:
            p = api.enumerate_exact(k, n, pred)
            ref = {"p": p, "hits": round(p * (1 << (k * n))), "bits": k * n, "trials": None}
        else:
            est = api.estimate_tail(api.EntryDistribution.parse(dist), k, n, alpha,
                                    TailSide.parse(side), TAIL_TRIALS, REFERENCE_SEED)
            ref = {"p": est.p_hat, "hits": est.hits, "trials": est.trials}
        refs["tail"][checks.tail_key(dist, k, n, alpha, side)] = ref
        print("tail", dist, k, n, ref, flush=True)
    for k, n, side, alpha in workloads.ENUM_CASES:
        p = api.enumerate_exact(k, n, getattr(api.mclab, side)(alpha))
        refs["enum"][checks.enum_key(k, n, side, alpha)] = {
            "hits": round(p * (1 << (k * n))), "bits": k * n}

    opts = api.OptimizerSettings(random_restarts=RATE_RESTARTS, seed=REFERENCE_SEED)
    points = [("rademacher", k, a) for k, a in workloads.RATE_POINTS]
    points.append(("uniform",) + workloads.UNIFORM_POINT)
    for dist, k, alpha in points:
        res = api.rate_k(api.EntryDistribution.parse(dist), k, alpha, opts)
        refs["rate"][checks.rate_key(dist, k, alpha)] = res.rate
        print("rate", dist, k, alpha, res.rate, res.converged, flush=True)
    k = workloads.PHASE_K
    refs["phase"][str(k)] = api.phase_transition_alpha_star_k(k)

    k, n, s, _, _ = workloads.BER_TRACE
    for k, n, s, weight, _ in workloads.BER_POINTS + ((k, n, s, None, None),):
        est = api.ber_experiment(k, n, math.inf if s == "inf" else int(s), BER_TRIALS,
                                 REFERENCE_SEED, weight=weight)
        ref = {"p": est.p_hat, "trials": est.trials}
        if s == "inf":
            ref["cap_hit_p"] = est.cap_hit_count / est.trials
        refs["ber"][checks.ber_key(k, n, s, weight)] = ref
        print("ber", k, n, s, weight, ref, flush=True)

    commit = subprocess.run(["git", "-C", run.ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    refs["meta"] = {"commit": commit, "seed": REFERENCE_SEED, "tail_trials": TAIL_TRIALS,
                    "ber_trials": BER_TRIALS, "rate_restarts": RATE_RESTARTS}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
