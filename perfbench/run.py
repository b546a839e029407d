"""eigrates benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mc_oracle --seed 1 --seconds 35 --trace 0

Run from the repository root.  eigrates is imported from ./src.  The run
measures set-up (imports and lazy caches) several times and reports the
median, then repeats passes over the workload's operation list until
--seconds have elapsed and reports the mean pass: the CPU speed of a shared
machine drifts between a slow and a fast state, and the mean over the
window follows the mix of the two where the median jumps between them.
With --trace 1 untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  Every output is checked against
reference.json.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

README.md beside this file documents the workloads and metrics.
"""

import os
import sys

# Thread counts must be fixed before numpy loads.  One BLAS thread keeps
# the timings independent of other load on the machine; the batched
# kernels on k <= 8 matrices gain nothing from more.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402  (standard library only, so numpy is still unloaded)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# set-up is measured in this many fresh interpreters, plus this process
SETUP_PROBES = 4

# (metric, unit) of the untraced run, as listed in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
)
# the workload-specific name of throughput_per_s
THROUGHPUT_NAME = {
    "mc_oracle": "mc_trials_per_s",
    "sdpic_ber": "mc_trials_per_s",
    "rate_sweep": "rate_points_per_s",
}


def set_up():
    """Import eigrates and warm its lazy caches; returns (package, seconds).

    The warm-up goes through public calls: the uniform CGF and squared-entry
    transform fill the quadrature-rule caches, clopper_pearson loads the
    scipy beta quantile, and the batch helpers make the first BLAS and
    LAPACK calls.
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import eigrates
    import eigrates.cli  # noqa: F401  (the CLI is not imported by the package)
    import numpy as np

    uniform = eigrates.EntryDistribution.UNIFORM_SYM
    spec = eigrates.CgfSpec.for_direction(uniform, eigrates.UnitVector.uniform(2))
    eigrates.cgf(spec, 0.1)
    eigrates.chernoff_squared_entry(uniform, 2.0)
    eigrates.clopper_pearson(1, 2)
    w = eigrates.core.covariance_batch(np.ones((2, 3, 4)))
    eigrates.core.eigvalues_batch(w)
    return eigrates, time.perf_counter() - start


def probe_setup() -> float:
    """Set-up time of a fresh interpreter running this file."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(ops, tracer=None):
    """One pass over the ops; returns a dict of totals and failure messages."""
    wall = work_time = 0.0
    work = written = failed = 0
    failures = []
    layer = None
    for op in ops:
        for path in op.out_paths:  # a stale file must not pass for new output
            if os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as err:  # a raising op is a failed op, not a crash
            failures.append(f"{op.name}: raised {type(err).__name__}: {err}")
            failed += 1
            continue
        elapsed = time.perf_counter() - start
        wall += elapsed
        try:
            output = op.load(raw)
            fails = op.check(output)
            done = op.work(output)
        except Exception as err:
            fails, done = [f"raised {type(err).__name__} while checking: {err}"], 0
        failures += [f"{op.name}: {msg}" for msg in fails]
        failed += bool(fails)
        if done:
            work += done
            work_time += elapsed
        written += sum(os.path.getsize(p) for p in op.out_paths if os.path.exists(p))
    if tracer is not None:
        layer = tracing.layer_metrics(tracer.take())
        layer["cli.bytes_written"] = written
    return {"wall": wall, "work": work, "work_time": work_time,
            "failed": failed, "failures": failures, "layer": layer}


def provenance(args) -> dict:
    import numpy as np
    import scipy

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = None
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "commit": commit, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": openblas, "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eigrates", "__init__.py")):
        sys.stderr.write(f"no eigrates sources under {SRC}: run from a repository checkout\n")
        return 2
    if args.probe_setup:
        print(repr(set_up()[1]))
        return 0
    api, own_setup = set_up()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seed is None \
            or args.trace is None or args.seconds is None or args.seconds < 1:
        parser.error(f"need --workload {{{','.join(workloads.WORKLOADS)}}}, --seed, "
                     "--seconds >= 1 and --trace {0,1}")
    setups = [own_setup]
    if not args.trace:
        setups += [probe_setup() for _ in range(SETUP_PROBES)]

    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        ops = workloads.build(args.workload, args.seed, api, checks.load_references(), out_dir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer([api, api.core, api.rates, api.mclab, api.sdpic, api.cli])
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            if tracer is not None and len(plain) > len(traced):
                tracer.install()
                try:
                    traced.append(run_pass(ops, tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_pass(ops))
            now = time.perf_counter()
            if now + (now - started) > deadline and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:  # another run is still using it
            pass

    passes = plain + traced
    attempted = len(ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    for msg in dict.fromkeys(msg for p in passes for msg in p["failures"]):
        sys.stderr.write(f"FAILED {msg}\n")
    wall = statistics.fmean(p["wall"] for p in plain)
    if args.trace:
        layers = [p["layer"] for p in traced]
        metrics = {}
        for name, value in layers[0].items():
            values = [layer[name] for layer in layers]
            if name.endswith("_s"):
                metrics[name] = statistics.fmean(values)
            else:
                metrics[name] = value
                if any(v != value for v in values):
                    sys.stderr.write(f"FAILED count {name} differs between traced passes: "
                                     f"{values}\n")
                    failed = min(failed + 1, attempted)
        metrics["trace.overhead_s"] = statistics.fmean(p["wall"] for p in traced) - wall
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s": sum(p["work"] for p in plain)
            / (sum(p["work_time"] for p in plain) or math.inf),
        }
        units = dict(END_TO_END)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} operations")
    print("pass_wall_s " + " ".join(f"{p['wall']:.3f}" for p in plain)
          + (" | traced " + " ".join(f"{p['wall']:.3f}" for p in traced) if traced else ""))
    print("setup_runs_s " + " ".join(f"{v:.3f}" for v in setups))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not args.trace:
        print(f"{THROUGHPUT_NAME[args.workload]} {metrics['throughput_per_s']!r} 1/s")
    print(f"failed_frac {failed / attempted!r} ratio")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
