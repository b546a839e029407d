"""The benchmark's workloads: fixed operation lists generated from a seed.

Every workload is a list of `Op`s.  An op calls into eigrates (the CLI
in-process, or the library directly) and returns an output that its check
compares with the stored references.  Only `Op.run` is timed; checks and
input generation stay outside the timed region.  The same seed gives the
same ops, and an op gives the same output every time it runs, so the
passes of one run repeat identical work.

README.md beside this file records why each workload exists.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("mc_oracle", "rate_sweep", "sdpic_ber")

# --- mc_oracle ---------------------------------------------------------------
# (dist, k, n, alpha, side, trials): one shape per core batch stage.
MC_TAILS = (
    ("normal", 2, 400, 1.3, "max_above", 1 << 15),      # sampling
    ("rademacher", 3, 8, 0.5, "min_below", 1 << 18),    # eigenvalues
    ("rademacher", 8, 64, 1.9, "max_above", 1 << 16),   # sampling + covariance + memory
)
# k=2, l=1 zero-eigenvalue sweep: n <= 12 is enumerated, larger n sampled.
ZERO_N_LIST = (6, 8, 10, 14, 16)
ZERO_TRIALS = 1 << 16
# (k, n, side, alpha) bit-walk enumerations of tail predicates.
ENUM_CASES = ((3, 6, "min_below", 0.5), (4, 4, "max_above", 1.7))

# --- rate_sweep --------------------------------------------------------------
# One +/-1 point per k, both tails, each level at two k (the level rises
# with k, which keeps the expensive low-level descents at small k).  The
# random restart's descent length depends on the direction it draws, enough
# to move a pass by 10% between optimizer seeds, so the sweep uses one
# fixed optimizer seed (the c04 acceptance sweep's) and does not depend on
# the workload seed.
RATE_POINTS = tuple(zip(range(3, 11), (0.75, 0.75, 0.5, 0.5, 1.5, 1.5, 2.0, 2.0)))
RATE_RESTARTS = 1
RATE_SEED = 404
UNIFORM_POINT = (2, 2.0)
NORMAL_GRID = "0.1:5:0.1"
NORMAL_POINTS = 50
PHASE_K = 3

# --- sdpic_ber ---------------------------------------------------------------
# (k, n, s, weight, trials): stage-cap hits common, rare, a finite stage
# and a weighted finite stage.
BER_POINTS = (
    (3, 8, "inf", None, 1 << 16),
    (3, 24, "inf", None, 1 << 16),
    (3, 16, "4", None, 1 << 17),
    (3, 16, "4", 1.5, 1 << 17),
)
# (k, n, s, trials, trace_stages) for the run that also writes a stage trace
BER_TRACE = (3, 12, "8", 1 << 15, 16)

# Single instances in the pattern of the c07 and c11 acceptance loops, run
# after the BER points: the only calls that reach the Jacobi spectrum and
# the single-instance SD-PIC decoders.
INSTANCES = 100
INSTANCE_MAX_K = 8
INSTANCE_N = (4, 64)
INSTANCE_MAX_STAGE = 32
INSTANCE_DISTS = ("rademacher", "uniform", "normal")


@dataclass
class Op:
    """One timed call.

    `load` turns what `run` returned into the output that `check` and
    `work` read, outside the timed region; `work(output)` counts the
    workload's throughput unit; `out_paths` are the files the op writes.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: Callable[[object], int] = lambda output: 0
    load: Callable[[object], object] = lambda raw: raw
    out_paths: tuple = field(default_factory=tuple)


def _cli_op(api, name, argv, out, check, work=lambda output: 0, extra_out=()):
    """`eigrates <argv>` in process; the output is (config, rows) of `out`."""
    read_output = api.cli.read_output  # taken before a tracer wraps it

    def run():
        code = api.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"eigrates {' '.join(argv)} exited with {code}")

    return Op(name, run, check, work, lambda raw: read_output(out),
              (out,) + tuple(extra_out))


def build(name: str, seed: int, api, refs: dict, out_dir: str) -> list[Op]:
    """The op list of workload `name` for this seed.

    `api` is the imported eigrates package; ops look functions up through
    it at call time so that a tracer can wrap them.
    """
    return _BUILDERS[name](seed, api, refs, out_dir)


def _mc_oracle(seed, api, refs, out_dir):
    rnd = random.Random(seed)
    ops = []
    for dist, k, n, alpha, side, trials in MC_TAILS:
        out = os.path.join(out_dir, f"mc_{dist}_{k}_{n}.jsonl")
        argv = ["mc", "--dist", dist, "--k", str(k), "--n", str(n),
                "--alpha-grid", repr(alpha), "--side", side,
                "--trials", str(trials), "--seed", str(rnd.getrandbits(31)), "--out", out]
        ref = refs["tail"][checks.tail_key(dist, k, n, alpha, side)]
        ops.append(_cli_op(api, f"mc {dist} k={k} n={n}", argv, out,
                           lambda o, ref=ref: checks.check_tail_rows(o[1], ref),
                           work=lambda o: sum(r["trials"] for r in o[1])))
    out = os.path.join(out_dir, "zero.jsonl")
    argv = ["zero", "--k", "2", "--l", "1", "--n-list", ",".join(map(str, ZERO_N_LIST)),
            "--trials", str(ZERO_TRIALS), "--seed", str(rnd.getrandbits(31)), "--out", out]
    ops.append(_cli_op(api, "zero k=2 l=1", argv, out,
                       lambda o: checks.check_zero_rows(o[1], ZERO_N_LIST),
                       work=lambda o: sum(r["trials"] for r in o[1] if r["method"] == "mc")))
    for k, n, side, alpha in ENUM_CASES:
        ref = refs["enum"][checks.enum_key(k, n, side, alpha)]

        def run(k=k, n=n, side=side, alpha=alpha):
            pred = getattr(api.mclab, side)(alpha)
            return api.mclab.enumerate_exact(k, n, pred)
        ops.append(Op(f"enumerate_exact k={k} n={n} {side} {alpha}", run,
                      lambda p, ref=ref: checks.check_exact(p, ref)))
    return ops


def _rate_sweep(seed, api, refs, out_dir):
    ops = []
    points = [("rademacher", k, alpha) for k, alpha in RATE_POINTS]
    points.append(("uniform",) + UNIFORM_POINT)
    for dist, k, alpha in points:
        out = os.path.join(out_dir, f"rate_{dist}_{k}.csv")
        argv = ["rate", "--dist", dist, "--k", str(k), "--alpha-grid", repr(alpha),
                "--restarts", str(RATE_RESTARTS), "--seed", str(RATE_SEED), "--out", out]
        ops.append(_cli_op(api, f"rate {dist} k={k} alpha={alpha}", argv, out,
                           lambda o, d=dist, k=k: checks.check_rate_rows(o[1], refs["rate"],
                                                                         d, k, 1),
                           work=lambda o: len(o[1])))
    out = os.path.join(out_dir, "rate_normal.csv")
    argv = ["rate", "--dist", "normal", "--alpha-grid", NORMAL_GRID, "--out", out]
    ops.append(_cli_op(api, "rate normal closed form", argv, out,
                       lambda o: checks.check_normal_rows(o[1], NORMAL_POINTS)))
    out = os.path.join(out_dir, "phase.csv")
    argv = ["phase", "--k", str(PHASE_K), "--out", out]
    ops.append(_cli_op(api, f"phase k={PHASE_K}", argv, out,
                       lambda o: checks.check_phase_rows(o[1], refs["phase"], PHASE_K)))
    return ops


def _sdpic_ber(seed, api, refs, out_dir):
    rnd = random.Random(seed)
    read_output = api.cli.read_output
    ops = []
    points = [(k, n, s, w, t, None) for k, n, s, w, t in BER_POINTS]
    k, n, s, t, stages = BER_TRACE
    points.append((k, n, s, None, t, stages))
    for k, n, s, weight, trials, stages in points:
        tag = f"{k}_{n}_{s}" + ("" if weight is None else f"_w{weight}")
        out = os.path.join(out_dir, f"ber_{tag}.jsonl")
        argv = ["sdpic", "--k", str(k), "--n", str(n), "--s", s,
                "--trials", str(trials), "--seed", str(rnd.getrandbits(31)), "--out", out]
        if weight is not None:
            argv += ["--weight", repr(weight)]
        extra = ()
        ref = refs["ber"][checks.ber_key(k, n, s, weight)]
        if stages is None:
            check = lambda o, ref=ref: checks.check_ber_rows(o[1], ref)
        else:
            trace = os.path.join(out_dir, f"trace_{tag}.csv")
            argv += ["--trace", trace, "--trace-stages", str(stages)]
            extra = (trace,)
            check = lambda o, ref=ref, trace=trace, k=k, stages=stages: (
                checks.check_ber_rows(o[1], ref)
                + checks.check_trace_rows(read_output(trace)[1], k, stages))
        ops.append(_cli_op(api, f"sdpic k={k} n={n} s={s} weight={weight}", argv, out,
                           check, work=lambda o: o[1][0]["trials"], extra_out=extra))
    dists = [api.EntryDistribution.parse(d) for d in INSTANCE_DISTS]
    for i in range(INSTANCES):
        params = dict(
            dist=dists[i % len(dists)],
            k=rnd.randint(1, INSTANCE_MAX_K),
            n=rnd.randint(*INSTANCE_N),
            s=rnd.randint(1, INSTANCE_MAX_STAGE),
            matrix_seed=rnd.getrandbits(31),
            coin_seed=rnd.getrandbits(31),
        )
        k = params["k"]
        params["z"] = np.array([rnd.choice((-1.0, 1.0)) for _ in range(k)])
        params["x"] = np.array([rnd.gauss(0.0, 1.0) for _ in range(k)]) + 1e-3
        ops.append(Op(f"instance {i}", lambda p=params: _instance(api, p),
                      checks.check_instance))
    return ops


def _instance(api, p):
    """The single-instance call chain of the c07 and c11 acceptance loops."""
    c = api.sample_matrix(p["dist"], p["k"], p["n"], p["matrix_seed"])
    w = api.covariance(c)
    spec = api.spectrum(w)
    x = api.UnitVector.of(p["x"])
    z, s = p["z"], p["s"]
    return dict(
        entries=c.entries, w=w.values, spectrum=spec, x=x.coords, z=z, s=s,
        quadratic=api.quadratic_form(c, x),
        stage=api.sdpic_stage(c, z, s),
        closed=api.sdpic_closed(c, z, s),
        weighted=api.weighted_sdpic(c, z, s, 1.0),
        limit=api.iterate_to_limit(c, z),
        decode=api.run_decode(c, z, s, p["coin_seed"]),
    )


_BUILDERS = {
    "mc_oracle": _mc_oracle,
    "rate_sweep": _rate_sweep,
    "sdpic_ber": _sdpic_ber,
}
