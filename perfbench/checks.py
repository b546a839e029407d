"""Output checks against the stored references in reference.json.

Every check returns a list of failure messages; an empty list means the
output is correct.  Exact quantities (bit-walk probabilities, exact
zero-eigenvalue points) must match exactly; rates match to RATE_TOL; Monte
Carlo counts must lie within MC_SIGMAS standard errors of their reference,
so a re-rolled random stream is not a failure and no seed has to be picked.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MC_SIGMAS = 5.0
RATE_TOL = 1e-9
# phase_transition_alpha_star_k bisects to its documented tol of 1e-6
PHASE_TOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_references(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_key(dist, k, n, alpha, side) -> str:
    return f"{dist} k={k} n={n} {side} {alpha!r}"


def enum_key(k, n, side, alpha) -> str:
    return f"k={k} n={n} {side} {alpha!r}"


def rate_key(dist, k, alpha) -> str:
    return f"{dist} k={k} alpha={float(alpha)!r}"


def ber_key(k, n, s, weight) -> str:
    return f"k={k} n={n} s={s} weight={weight!r}"


def within_sigmas(hits: int, trials: int, p_ref: float, var_ref: float = 0.0) -> bool:
    """|hits/trials - p_ref| within MC_SIGMAS combined standard errors.

    The variance uses the reference probability, so zero hits is judged
    against the expected count; `var_ref` is the variance of a reference
    that was itself estimated by Monte Carlo.
    """
    var = p_ref * (1.0 - p_ref) / trials + var_ref
    return abs(hits / trials - p_ref) <= MC_SIGMAS * math.sqrt(var)


def _ref_var(ref: dict) -> float:
    trials = ref.get("trials")
    return 0.0 if trials is None else ref["p"] * (1.0 - ref["p"]) / trials


def _mc_record(label: str, rec: dict, hits_key: str = "hits") -> list:
    hits, trials = rec[hits_key], rec["trials"]
    fails = []
    if not (isinstance(hits, int) and 0 <= hits <= trials):
        fails.append(f"{label}: bad count {hits}/{trials}")
    elif rec["p_hat"] != hits / trials:
        fails.append(f"{label}: p_hat {rec['p_hat']!r} != {hits}/{trials}")
    elif not (rec["ci"][0] <= rec["p_hat"] <= rec["ci"][1]):
        fails.append(f"{label}: interval {rec['ci']} misses p_hat {rec['p_hat']!r}")
    return fails


def check_tail_rows(rows: list, ref: dict) -> list:
    if len(rows) != 1:
        return [f"tail: expected 1 record, got {len(rows)}"]
    rec = rows[0]
    fails = _mc_record("tail", rec)
    if not fails and not within_sigmas(rec["hits"], rec["trials"], ref["p"], _ref_var(ref)):
        fails.append(f"tail: {rec['hits']}/{rec['trials']} is more than {MC_SIGMAS} "
                     f"standard errors from the reference p={ref['p']!r}")
    return fails


def check_zero_rows(rows: list, n_list) -> list:
    """k=2, l=1: P(a zero eigenvalue) is exactly 2^(1-n) for +/-1 entries."""
    if [r["n"] for r in rows] != list(n_list):
        return [f"zero: expected n={list(n_list)}, got {[r['n'] for r in rows]}"]
    fails = []
    for rec in rows:
        target = 2.0 ** (1 - rec["n"])
        if rec["method"] == "exact":
            if rec["p_hat"] != target:
                fails.append(f"zero n={rec['n']}: exact {rec['p_hat']!r} != 2^(1-n)")
        elif rec["method"] == "mc":
            bad = _mc_record(f"zero n={rec['n']}", rec)
            if not bad and not within_sigmas(rec["hits"], rec["trials"], target):
                bad.append(f"zero n={rec['n']}: {rec['hits']}/{rec['trials']} is more "
                           f"than {MC_SIGMAS} standard errors from 2^(1-n)")
            fails += bad
        else:
            fails.append(f"zero n={rec['n']}: unknown method {rec['method']!r}")
    return fails


def check_exact(p: float, ref: dict) -> list:
    want = ref["hits"] / (1 << ref["bits"])
    return [] if p == want else [f"exact: {p!r} != {ref['hits']}/2^{ref['bits']}"]


def _close(value, want: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and abs(value - want) <= tol


def check_rate_rows(rows: list, refs: dict, dist: str, k: int, count: int) -> list:
    if len(rows) != count:
        return [f"rate {dist} k={k}: expected {count} rows, got {len(rows)}"]
    fails = []
    for row in rows:
        want = refs[rate_key(dist, k, row["alpha"])]
        if not _close(row["rate"], want, RATE_TOL):
            fails.append(f"rate {dist} k={k} alpha={row['alpha']}: "
                         f"{row['rate']!r} != reference {want!r}")
    return fails


def wishart_rate(alpha: float) -> float:
    """The normal-entry closed form (alpha - 1 - log alpha) / 2."""
    return 0.5 * (alpha - 1.0 - math.log(alpha))


def check_normal_rows(rows: list, count: int) -> list:
    fails = [] if len(rows) == count else [
        f"rate normal: expected {count} rows, got {len(rows)}"]
    for row in rows:
        if not _close(row["rate"], wishart_rate(row["alpha"]), RATE_TOL):
            fails.append(f"rate normal alpha={row['alpha']}: {row['rate']!r} "
                         f"!= closed form {wishart_rate(row['alpha'])!r}")
    return fails


def check_phase_rows(rows: list, refs: dict, k: int) -> list:
    want = refs[str(k)]
    if len(rows) != 1 or rows[0]["k"] != k:
        return [f"phase: expected one row for k={k}, got {rows}"]
    if not _close(rows[0]["alpha_star"], want, PHASE_TOL):
        return [f"phase k={k}: {rows[0]['alpha_star']!r} != reference {want!r}"]
    return []


def check_ber_rows(rows: list, ref: dict) -> list:
    if len(rows) != 1:
        return [f"ber: expected 1 record, got {len(rows)}"]
    rec = rows[0]
    fails = _mc_record("ber", rec, "any_user_error_count")
    if fails:
        return fails
    trials = rec["trials"]
    errors = rec["any_user_error_count"]
    if not within_sigmas(errors, trials, ref["p"], _ref_var(ref)):
        fails.append(f"ber: {errors}/{trials} is more than {MC_SIGMAS} standard errors "
                     f"from the reference p={ref['p']!r}")
    if errors > sum(rec["per_user_error_counts"]):
        fails.append("ber: any-user errors exceed the per-user sum")
    caps, osc = rec["cap_hit_count"], rec["oscillation_count"]
    if not (0 <= osc <= caps <= trials):
        fails.append(f"ber: need 0 <= oscillations {osc} <= cap hits {caps} <= trials")
    elif "cap_hit_p" in ref:
        var_ref = ref["cap_hit_p"] * (1.0 - ref["cap_hit_p"]) / ref["trials"]
        if not within_sigmas(caps, trials, ref["cap_hit_p"], var_ref):
            fails.append(f"ber: {caps} cap hits in {trials} is more than {MC_SIGMAS} "
                         f"standard errors from the reference p={ref['cap_hit_p']!r}")
    return fails


def check_trace_rows(rows: list, k: int, stages: int) -> list:
    """Stage rows 1..stages; once ||est - Z||_inf < 1 every sign is right."""
    if [r["stage"] for r in rows] != list(range(1, stages + 1)):
        return [f"trace: expected stages 1..{stages}"]
    fails = []
    for r in rows:
        dev, errors = r["deviation_inf"], r["bit_errors"]
        if not (isinstance(errors, int) and 0 <= errors <= k):
            fails.append(f"trace stage {r['stage']}: bit errors {errors!r} outside [0, {k}]")
        elif isinstance(dev, (int, float)) and dev < 1.0 and errors != 0:
            fails.append(f"trace stage {r['stage']}: deviation {dev!r} < 1 "
                         f"but {errors} bit errors")
    return fails


def check_instance(out: dict) -> list:
    """Single-instance invariants of the c07 and c11 acceptance loops,
    with LAPACK as the independent eigenvalue oracle."""
    fails = []
    c, w, z, s = out["entries"], out["w"], out["z"], out["s"]
    k, n = c.shape
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.max(np.abs(w - c @ c.T / n)) > 1e-12 * scale:
        fails.append("covariance != C C^T / n")
    spec = out["spectrum"]
    lam, q = spec.eigenvalues, spec.eigenvectors
    if np.any(np.diff(lam) < 0) or lam[0] < -1e-10:
        fails.append("eigenvalues not ascending and nonnegative")
    if np.max(np.abs(lam - np.linalg.eigvalsh(w))) > 1e-9 * scale:
        fails.append("spectrum disagrees with LAPACK")
    if np.max(np.abs(q @ np.diag(lam) @ q.T - w)) > 1e-9 * scale:
        fails.append("eigendecomposition does not reconstruct W")
    x = out["x"]
    if abs(out["quadratic"] - x @ w @ x) > 1e-10 * scale:
        fails.append("quadratic form != <x, W x>")
    a, b = out["stage"], out["closed"]
    unit = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if not np.max(np.abs(a - b)) / unit <= 1e-10:
        fails.append(f"stage-{s} recursion and partial sum differ")
    if not np.array_equal(out["weighted"], b):
        fails.append("weight-1 SD-PIC is not bit-identical to the partial sum")
    est, stages, converged = out["limit"]
    if not 1 <= stages <= 1000:
        fails.append(f"iterate_to_limit ran {stages} stages")
    rho = max(1.0 - lam[0], lam[-1] - 1.0)
    if converged and rho < 0.999 and np.max(np.abs(est - z)) > 1e-7:
        fails.append("converged SD-PIC limit is not the sent vector")
    dec = out["decode"]
    if dec.stage != s or not np.max(np.abs(dec.estimate - b)) / unit <= 1e-10:
        fails.append("run_decode estimate differs from the partial sum")
    nonzero = dec.estimate != 0.0
    if not np.all(np.abs(dec.decided) == 1.0) or np.any(
            dec.decided[nonzero] != np.sign(dec.estimate[nonzero])):
        fails.append("decisions are not the signs of the estimate")
    return fails
